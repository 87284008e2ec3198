(* The verdict-cache keys and checkpoint headers of a fresh process: the
   formula hash of every registry pair and the config hash of the default
   and quick configurations, pinned so that a change to the expression
   printers, to hash-consing or to the encoder that moves a key fails here
   instead of silently orphaning every cache and checkpoint.

   This is its own executable, run by [dune runtest], because the hashes
   print sum and product operands in creation order: the test suite's
   process builds other expressions first, and a formula encoded after
   them may print in another order. Here the pairs are encoded first, in
   campaign order, as a fresh [campaign] or [serve] process encodes them. *)

let pairs =
  [
    ("pbe", "ec1", "0dfe2a39555db857");
    ("pbe", "ec2", "16a47e10dac9946a");
    ("pbe", "ec3", "14a42744aaecaf95");
    ("pbe", "ec4", "1deb680dbed9cd20");
    ("pbe", "ec5", "d42a3e37b7f7ca1b");
    ("pbe", "ec6", "332e47c537a94912");
    ("pbe", "ec7", "b81a4ac00dd1fbe0");
    ("scan", "ec1", "baa60c899438ee32");
    ("scan", "ec2", "92a99c0719588a0d");
    ("scan", "ec3", "50de2515877cf7f0");
    ("scan", "ec4", "945ae0890684e52a");
    ("scan", "ec5", "cb3ca777ba7f58ec");
    ("scan", "ec6", "8a0544b980c0e2e1");
    ("scan", "ec7", "089672a1a0b92b12");
    ("lyp", "ec1", "e8acd1d4e94a7ffd");
    ("lyp", "ec2", "10fd116fe10fe13c");
    ("lyp", "ec3", "97752e8223ede92f");
    ("lyp", "ec6", "e0c4eaf25cdcfcef");
    ("lyp", "ec7", "bc5324dc6e83e2b6");
    ("am05", "ec1", "be1b6fa6a4d72a02");
    ("am05", "ec2", "06873448c29bfde7");
    ("am05", "ec3", "b54f1329bf9b67eb");
    ("am05", "ec6", "9920e3923619e064");
    ("am05", "ec7", "a48e725d56c631fb");
    ("vwn_rpa", "ec1", "9091771d5eeb007a");
    ("vwn_rpa", "ec2", "df7117868244752b");
    ("vwn_rpa", "ec3", "42e35913c6960835");
    ("vwn_rpa", "ec6", "1fbf54db0d9bc474");
    ("vwn_rpa", "ec7", "9491cb625f674fc7");
    ("pw92", "ec1", "a608fca716892780");
    ("pw92", "ec2", "cb3315dd545b17b7");
    ("pw92", "ec3", "4e0d4a9e5b329542");
    ("pw92", "ec6", "116bcb26aa404051");
    ("pw92", "ec7", "32896c49b83bd0af");
    ("pz81", "ec1", "09e2f31696faf3b3");
    ("pz81", "ec2", "473ba217c846939b");
    ("pz81", "ec3", "289297f73b03ed26");
    ("pz81", "ec6", "c6772ef22c1fb97a");
    ("pz81", "ec7", "7dc16d31c19cf21c");
    ("vwn5", "ec1", "020e8834b6b48195");
    ("vwn5", "ec2", "97903cecfe367db4");
    ("vwn5", "ec3", "62dcfc3cc2fe8eb1");
    ("vwn5", "ec6", "91f129ae788e8f7d");
    ("vwn5", "ec7", "a1c49b3848e26036");
    ("am05x", "ec1", "18886ae00d480dc1");
    ("am05x", "ec2", "6c27f77ff4161a18");
    ("am05x", "ec3", "059a30ca27614f0c");
    ("am05x", "ec4", "d1424ef3b040c50b");
    ("am05x", "ec5", "eed77673994bc320");
    ("am05x", "ec6", "c70d3cfbfdf53542");
    ("am05x", "ec7", "82dd96310221c1dc");
    ("blyp", "ec1", "cf24ddf55d5d3e08");
    ("blyp", "ec2", "88241433958ec85d");
    ("blyp", "ec3", "0a4eec227bd1474d");
    ("blyp", "ec4", "3582dbd021afbe8c");
    ("blyp", "ec5", "2485b1ef406bd5a5");
    ("blyp", "ec6", "a58d183412ec058c");
    ("blyp", "ec7", "a9739a646efdc172");
    ("rscan", "ec1", "9365bc8fdde92d5c");
    ("rscan", "ec2", "c40d866379c4e304");
    ("rscan", "ec3", "ef12a9e4fd192c78");
    ("rscan", "ec4", "d761acc80e6c84a9");
    ("rscan", "ec5", "48c681260780cae7");
    ("rscan", "ec6", "6e12b4240652f0fc");
    ("rscan", "ec7", "7cc78e37f80442d7");
  ]

let () =
  let failures = ref 0 in
  let check what expected actual =
    if not (String.equal expected actual) then begin
      incr failures;
      Printf.printf "%s: expected %s, got %s\n" what expected actual
    end
  in
  let problems = Encoder.encode_all Registry.all in
  if List.length problems <> List.length pairs then begin
    Printf.printf "%d pairs encoded, %d pinned\n" (List.length problems)
      (List.length pairs);
    exit 1
  end;
  List.iter2
    (fun (p : Encoder.problem) (dfa, cond, hash) ->
      let what = Printf.sprintf "formula_hash %s/%s" dfa cond in
      check (what ^ " pair") (dfa ^ "/" ^ cond)
        (p.Encoder.dfa.Registry.name ^ "/" ^ Conditions.name p.Encoder.condition);
      check what hash (Verify.formula_hash [ p ]))
    problems pairs;
  check "formula_hash of all pairs" "1bafe4f2686e06ca"
    (Verify.formula_hash problems);
  check "config_hash default_config" "b10721f0b57fa123"
    (Verify.config_hash Verify.default_config);
  check "config_hash quick_config" "6e9746f0cc4e38ee"
    (Verify.config_hash Verify.quick_config);
  if !failures > 0 then exit 1;
  Printf.printf "%d formula hashes and 2 config hashes as pinned\n"
    (List.length pairs)
