#!/bin/sh
# Build the benchmark and the pasched CLI from source, then run one
# workload.  From the repository root:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/pasched.ml ] || [ ! -d lib/serve ]; then
  echo "perfbench: run from the root of a pasched source tree" >&2
  exit 2
fi
dune build --root . --build-dir _build_perfbench --profile release \
  ./perfbench/main.exe ./bin/pasched.exe 1>&2
exec ./_build_perfbench/default/perfbench/main.exe "$@" \
  --pasched ./_build_perfbench/default/bin/pasched.exe
