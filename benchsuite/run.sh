#!/bin/sh
# Builds the suite and the zc daemon it drives, then runs one workload.
# From the repository root:
#   sh benchsuite/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -e
DUNE_CACHE=disabled dune build --root . ./benchsuite/main.exe ./bin/zc.exe 1>&2
exec ./_build/default/benchsuite/main.exe "$@"
