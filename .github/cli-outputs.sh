#!/usr/bin/env bash
# Write the CLI outputs of the source tree in $1 to $1/cli-out, from the
# inputs $1/cli-in/field.bsf, $1/cli-in/field.sgf and $1/cli-in/plateau.bsf.
# The plateau field is rounded, so it holds degenerate triangles: its runs
# read every row of the degenerate assignment (the majority rule through
# A, D and the render, the preferred-sign rules through B and C) and the
# B and C star links. The simplify run at `--threshold inf` selects every
# cell, so it ends on an oscillation guard; the variant D run reads D's
# star links. The Loop runs write the whole subdivided field and the
# filter runs the whole smoothed grid, so any change to either shows in
# it. Every path is relative to $1, so two trees that behave alike write
# byte-identical files (the manifests aside, which record times).
#
#   bash .github/cli-outputs.sh TREE
set -euo pipefail
cd "$1"
rm -rf cli-out
mkdir cli-out
jss() { PYTHONPATH=src python -W error::RuntimeWarning -m jacobiset "$@"; }
jss stats cli-in/field.sgf > cli-out/stats-sgf.txt
jss stats cli-in/field.bsf > cli-out/stats-bsf.txt
for v in A B D; do
  jss simplify cli-in/field.bsf --variant "$v" --threshold 0.12 \
    --out "cli-out/simplified-$v.bsf" --report "cli-out/report-$v.json" > "cli-out/simplify-$v.txt"
done
jss simplify cli-in/field.bsf --threshold inf \
  --out cli-out/simplified-inf.bsf --report cli-out/report-inf.json > cli-out/simplify-inf.txt
jss graph cli-in/field.sgf --variant D --out cli-out/graph-D.dot
jss render cli-in/field.sgf --out cli-out/field.svg
jss compare cli-in/field.sgf cli-in/field.bsf --methods original ca-a loop --steps 1 \
  --threshold 0.12 --out cli-out/compare.md
jss baseline cli-in/field.sgf --method loop --steps 2 --out cli-out/loop-sgf-2.bsf
jss baseline cli-in/field.bsf --method loop --steps 1 --out cli-out/loop-bsf-1.bsf
jss baseline cli-in/field.sgf --method binomial --radius 2 --boundary mirror \
  --out cli-out/binomial-2-mirror.sgf
jss baseline cli-in/field.sgf --method gaussian --sigma 2 --truncation 2 \
  --out cli-out/gaussian-2-2.sgf
jss compare cli-in/field.sgf --methods binomial gaussian --sigma 2 --boundary mirror \
  --out cli-out/compare-filters.md
jss stats cli-in/plateau.bsf > cli-out/stats-plateau.txt
for v in A B C D; do
  jss graph cli-in/plateau.bsf --variant "$v" --out "cli-out/graph-plateau-$v.json"
done
jss render cli-in/plateau.bsf --out cli-out/plateau.svg
for v in B C; do
  jss simplify cli-in/plateau.bsf --variant "$v" --threshold 0.3 \
    --out "cli-out/simplified-plateau-$v.bsf" --report "cli-out/report-plateau-$v.json" \
    > "cli-out/simplify-plateau-$v.txt"
done
