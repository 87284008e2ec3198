#!/bin/sh
# Build the benchmark from source and run one e2e measurement.
# Run from the root of a checkout:
#   sh bench_e2e/run.sh --workload table1-tape --seed 1 --seconds 15 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench_e2e/dune ]; then
  echo "bench_e2e/run.sh: run from the root of a repository checkout" >&2
  exit 2
fi
# a shell that has not loaded the opam environment has opam but not dune
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# build output goes to stderr: the last line of stdout is the result
dune build --root . bench_e2e/main.exe 1>&2
exec ./_build/default/bench_e2e/main.exe e2e "$@"
