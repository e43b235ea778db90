#!/bin/sh
# Build the benchmark and the serve daemon from source, then run one
# workload. Run from the root of a checkout:
#   sh perfbench/run.sh --workload vm-batch --seed 1 --seconds 12 --trace 0
# Build products go to .bench_build/, run files (daemon sockets and logs,
# traced spans) to .bench_run/.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: the program's sources (dune-project, lib/, bin/) are not here" >&2
  exit 2
fi
# No shared build cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
  ./perfbench/perfbench.exe ./bin/facade_cli.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe \
  --daemon ./.bench_build/default/bin/facade_cli.exe "$@"
