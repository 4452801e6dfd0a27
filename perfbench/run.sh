#!/bin/sh
# Build the benchmark and the cfpm CLI from source into .bench_build, then
# run one workload.  Run from the repository root:
#   sh perfbench/run.sh --workload table1|serve|stream --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output is
# the result JSON.
set -eu
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe ./bin/cfpm.exe 1>&2
bench=./.bench_build/default/perfbench/perfbench.exe
cfpm=./.bench_build/default/bin/cfpm.exe
# Each process runs OCaml on one core at a time, and its threads hand the
# runtime lock back and forth; pinning keeps those hand-offs on one
# processor instead of bouncing between two, which made timings depend on
# what else the machine ran.  The benchmark takes the first allowed
# processor and the serve workload's server the second.
cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //' | awk -F, '{
    for (i = 1; i <= NF; i++) {
      if (split($i, r, "-") == 2) { for (c = r[1]; c <= r[2]; c++) printf "%d ", c }
      else printf "%d ", $i
    } }')
first=
second=
for c in $cpus; do
  if [ -z "$first" ]; then first=$c; elif [ -z "$second" ]; then second=$c; fi
done
if [ -n "$first" ]; then
  exec taskset -c "$first" "$bench" --cfpm "$cfpm" --server-cpu "${second:-$first}" "$@"
fi
exec "$bench" --cfpm "$cfpm" "$@"
