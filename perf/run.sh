#!/bin/sh
# Build the benchmark and the daemon it drives from source, then run one
# workload:  sh perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so that the
# last line on stdout is the result object.  The shared dune cache stays
# off so nothing is written outside the tree.
set -e
DUNE_CACHE=disabled dune build --root . perf/perf.exe bin/locsample.exe >&2
exec ./_build/default/perf/perf.exe "$@"
