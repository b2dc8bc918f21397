#!/bin/sh
# Build mrm2 and the perf ledger from source, then run one measurement:
#   sh bench/ledger/run.sh --workload ramp --seed 1 --seconds 20 --trace 0
# Run from the root of the repository. Build output goes to stderr, so
# the last line of standard output is the ledger's JSON result.
set -eu
DUNE_CACHE=disabled dune build --root . bin/mrm2.exe bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run "$@"
