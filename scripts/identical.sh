#!/bin/sh
# Proves that a refactor kept the simulator's outputs bit-identical to those
# of commit REV: runs perfbench for 10 s on each of its four workloads, once
# in a copy of REV and once in the working tree, and compares every cell's
# fingerprint (its ExpResult) and sink digest. Prints the differing cells of
# each workload and exits non-zero if any cell differs or a run fails.
#
#   sh scripts/identical.sh REV [SEED]      # SEED defaults to 1
#
# REV is extracted with `git archive` into a fresh directory under $TMPDIR
# (default /tmp), removed on exit. Each side builds with sbt on its first
# run, so sbt must be able to build offline in the calling shell.
set -eu
[ $# -ge 1 ] || { echo "usage: $0 REV [SEED]" >&2; exit 2; }
rev=$1
seed=${2:-1}
root=$(cd "$(dirname "$0")/.." && pwd)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
  { echo "identical.sh: unknown revision $rev" >&2; exit 2; }
old=$(mktemp -d "${TMPDIR:-/tmp}/identical.XXXXXX")
trap 'rm -rf "$old"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$old"

status=0
for w in nexmark-w10 mst-w10 q3-w50-latefail reach-w5; do
  for side in "$old" "$root"; do
    line=$(python3 "$side/perfbench/run.py" --workload "$w" --seed "$seed" --seconds 10 |
      tail -n 1) || line=
    case $line in
      *'"correct": true'*) ;;
      *) echo "$w: the run in $side failed" >&2; status=1 ;;
    esac
  done
  echo "== $w (seed $seed): $rev vs the working tree"
  r=".bench_build/results/$w-seed$seed-trace0.json"
  python3 "$root/perfbench/run.py" --compare "$old/$r" "$root/$r" || status=1
done
exit $status
