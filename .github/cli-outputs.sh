#!/usr/bin/env bash
# Write the CLI outputs of the source tree in $1 to $1/cli-out, from the
# inputs $1/cli-in/field.bsf and $1/cli-in/field.sgf. Every path is relative
# to $1, so two trees that behave alike write byte-identical files (the
# manifests aside, which record times).
#
#   bash .github/cli-outputs.sh TREE
set -euo pipefail
cd "$1"
rm -rf cli-out
mkdir cli-out
jss() { PYTHONPATH=src python -W error::RuntimeWarning -m jacobiset "$@"; }
jss stats cli-in/field.sgf > cli-out/stats-sgf.txt
jss stats cli-in/field.bsf > cli-out/stats-bsf.txt
for v in A B; do
  jss simplify cli-in/field.bsf --variant "$v" --threshold 0.12 \
    --out "cli-out/simplified-$v.bsf" --report "cli-out/report-$v.json" > "cli-out/simplify-$v.txt"
done
jss graph cli-in/field.sgf --variant D --out cli-out/graph-D.dot
jss render cli-in/field.sgf --out cli-out/field.svg
jss compare cli-in/field.sgf cli-in/field.bsf --methods original ca-a loop --steps 1 \
  --threshold 0.12 --out cli-out/compare.md
