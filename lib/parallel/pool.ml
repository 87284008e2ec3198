let default_workers () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* Shared-cursor work pulling over [items], with a per-item [run] that never
   raises (it returns a value or records a failure itself) and a [continue]
   probe checked *before* claiming: a worker that observes a fail-fast flag
   stops immediately, without advancing the cursor past items it would then
   abandon. *)
let distribute ~workers ~continue ~run n =
  let cursor = Atomic.make 0 in
  let worker () =
    let rec loop () =
      if continue () then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          run i;
          loop ()
        end
      end
    in
    loop ()
  in
  let domains =
    List.init (Stdlib.min workers n - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains

let map ~workers f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when workers <= 1 -> List.map f xs
  | _ ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let failure = Atomic.make None in
      distribute ~workers n
        ~continue:(fun () -> Atomic.get failure = None)
        ~run:(fun i ->
          match f items.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              (* Keep only the first failure; others are racing losers. *)
              ignore (Atomic.compare_and_set failure None (Some e)));
      (match Atomic.get failure with Some e -> raise e | None -> ());
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let iter ~workers f xs = ignore (map ~workers (fun x -> f x; ()) xs)
