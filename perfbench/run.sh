#!/usr/bin/env bash
# Build the benchmark from source and run it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.  The
# dune cache is disabled so that nothing is written outside the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
