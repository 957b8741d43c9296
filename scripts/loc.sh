#!/bin/sh
# Line counts that ROADMAP.md and CHANGES.md report: `wc -l` over every
# *.scala file of src/main, and of src/main + jobs + bench.
# Run from anywhere: sh scripts/loc.sh
cd "$(dirname "$0")/.." || exit 1
count() { find "$@" -name '*.scala' -not -path '*/target/*' -exec cat {} + | wc -l; }
echo "src/main: $(count src/main)"
echo "src/main + jobs + bench: $(count src/main jobs bench)"
