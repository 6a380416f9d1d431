#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the
# benchmark prints its report and, as the last line of stdout, one JSON
# result.  Exits non-zero without a result when the program cannot be
# built (for instance outside a full checkout).
set -u

if [ ! -f dune-project ] || [ ! -f bin/dune ] || [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, bin/, lib/ and perfbench/ needed)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled

same=_build/default/bin/same.exe
bench=_build/default/perfbench/bin/main.exe
floor=_build/default/perfbench/floor/floor.exe

if ! dune build --root . --display quiet "./$same" "./$bench" "./$floor" 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi

# A child, not exec: the benchmark reads the peak memory of its own
# children, which must not include the build.
"./$bench" "$@" --same "./$same" --floor "./$floor"
exit $?
