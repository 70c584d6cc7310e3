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
# it. Each run writes its stdout to NAME.txt and its stderr to NAME.err,
# so warnings and error messages are compared too. The gaussian runs at
# sigma 20 and at compare's default sigma cut the kernel at the grid
# extent; compare names the input on each of its cut warnings. The
# --epsilon runs of stats, graph, render and simplify treat the triangles
# of small determinant as degenerate (547 of field.bsf's 6,162 at 0.05).
# The runs on the small files this script writes into cli-in record their
# exit codes in NAME.exit: stats on a byte that is not UTF-8 and on files
# that end after their first line; compare --format csv on a short BSF,
# whose error cell holds a comma and so is quoted; a binomial baseline of
# an SGF with an inf sample; stats on a BSF with inf in a value column, on
# a BSF with 1e999 in a position column and on an SGF with a nan sample,
# each rejected at the line that holds it; stats on three SGFs whose
# spacing overflows an extent or the cell area or underflows the area,
# each rejected at line 2, on a BSF whose finite positions overflow a
# triangle's area, and on BSFs with a vertex index out of range and a
# repeated vertex, each rejected at the triangle's line; graph with an
# --out suffix that picks no format, a usage error; stats on two 3x2 grids
# whose determinants would overflow (spacing 1e-160) or underflow (spacing
# 1e150, samples of order 1e-100), read from the numerators instead; render
# of a BSF whose two small triangles lie near x = -1e308 and x = 1e308;
# stats on a 7x2 SGF whose spacing passes but whose rounded x positions
# overflow one cell's area, rejected at line 2; and render of the 1e-160
# grid, of a one-triangle BSF 1e-10 wide and 1e300 tall, and of a BSF of
# two vertices 1e300 apart with no triangles, each drawn with its longer
# side 800 pixels. Every path is relative to $1, so two trees that behave
# alike write byte-identical files (the manifests aside, which record
# times).
#
#   bash .github/cli-outputs.sh TREE
set -euo pipefail
cd "$1"
rm -rf cli-out
mkdir cli-out
jss() { PYTHONPATH=src python -W error::RuntimeWarning -m jacobiset "$@"; }
# run NAME ARGS...: jss ARGS, stdout to cli-out/NAME.txt, stderr to cli-out/NAME.err.
run() {
  local name=$1
  shift
  jss "$@" > "cli-out/$name.txt" 2> "cli-out/$name.err"
}
# run_exit NAME ARGS...: run NAME ARGS, and write its exit code to cli-out/NAME.exit.
run_exit() {
  local code=0
  run "$@" || code=$?
  echo "$code" > "cli-out/$1.exit"
}
run stats-sgf stats cli-in/field.sgf
run stats-bsf stats cli-in/field.bsf
for v in A B D; do
  run "simplify-$v" simplify cli-in/field.bsf --variant "$v" --threshold 0.12 \
    --out "cli-out/simplified-$v.bsf" --report "cli-out/report-$v.json"
done
run simplify-inf simplify cli-in/field.bsf --threshold inf \
  --out cli-out/simplified-inf.bsf --report cli-out/report-inf.json
run graph-D graph cli-in/field.sgf --variant D --out cli-out/graph-D.dot
run render render cli-in/field.sgf --out cli-out/field.svg
run compare compare cli-in/field.sgf cli-in/field.bsf --methods original ca-a loop --steps 1 \
  --threshold 0.12 --out cli-out/compare.md
run loop-sgf-2 baseline cli-in/field.sgf --method loop --steps 2 --out cli-out/loop-sgf-2.bsf
run loop-bsf-1 baseline cli-in/field.bsf --method loop --steps 1 --out cli-out/loop-bsf-1.bsf
run binomial-2-mirror baseline cli-in/field.sgf --method binomial --radius 2 --boundary mirror \
  --out cli-out/binomial-2-mirror.sgf
run gaussian-2-2 baseline cli-in/field.sgf --method gaussian --sigma 2 --truncation 2 \
  --out cli-out/gaussian-2-2.sgf
run gaussian-20 baseline cli-in/field.sgf --method gaussian --sigma 20 --out cli-out/gaussian-20.sgf
run compare-filters compare cli-in/field.sgf --methods binomial gaussian --sigma 2 --boundary mirror \
  --out cli-out/compare-filters.md
run compare-gaussian-default compare cli-in/field.sgf --methods original gaussian
run stats-eps stats cli-in/field.bsf --epsilon 0.05
run graph-B-eps graph cli-in/field.bsf --variant B --epsilon 0.05 --out cli-out/graph-B-eps.dot
run render-eps render cli-in/field.bsf --epsilon 0.05 --out cli-out/field-eps.svg
run simplify-eps simplify cli-in/field.bsf --threshold 0.12 --epsilon 0.05 \
  --out cli-out/simplified-eps.bsf --report cli-out/report-eps.json
run stats-plateau stats cli-in/plateau.bsf
for v in A B C D; do
  run "graph-plateau-$v" graph cli-in/plateau.bsf --variant "$v" --out "cli-out/graph-plateau-$v.json"
done
run plateau-svg render cli-in/plateau.bsf --out cli-out/plateau.svg
for v in B C; do
  run "simplify-plateau-$v" simplify cli-in/plateau.bsf --variant "$v" --threshold 0.3 \
    --out "cli-out/simplified-plateau-$v.bsf" --report "cli-out/report-plateau-$v.json"
done
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 \xff 0\n0 1 0 1\n0 1 2\n' > cli-in/bad-byte.bsf
run_exit stats-bad-byte stats cli-in/bad-byte.bsf
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n' > cli-in/short.bsf
run_exit compare-csv compare cli-in/short.bsf cli-in/field.sgf --methods original binomial --format csv
printf 'sgf 1\ngrid 3 2 1 1\ninf 0\n1 0\n2 1\n0 1\n1 1\n2 0\n' > cli-in/inf.sgf
run_exit baseline-inf baseline cli-in/inf.sgf --method binomial --out cli-out/baseline-inf.sgf
printf 'bsf 1' > cli-in/only.bsf
run_exit stats-only-bsf stats cli-in/only.bsf
printf 'sgf 1\n' > cli-in/only.sgf
run_exit stats-only-sgf stats cli-in/only.sgf
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 inf 0\n0 1 0 1\n0 1 2\n' > cli-in/inf-value.bsf
run_exit stats-inf-value stats cli-in/inf-value.bsf
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n1e999 1 0 1\n0 1 2\n' > cli-in/huge-position.bsf
run_exit stats-huge-position stats cli-in/huge-position.bsf
printf 'sgf 1\ngrid 3 2 1 1\n0 0\n1 0\n2 nan\n0 1\n1 1\n2 0\n' > cli-in/nan.sgf
run_exit stats-nan-sgf stats cli-in/nan.sgf
for spacing in "1e200 1e200" "1e308 1" "1e-200 1e-200"; do
  name="spacing-${spacing/ /-}"
  printf 'sgf 1\ngrid 3 2 %s\n0 0\n1 0\n2 1\n0 1\n1 1\n2 0\n' "$spacing" > "cli-in/$name.sgf"
  run_exit "stats-$name" stats "cli-in/$name.sgf"
done
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1e300 0 1 0\n0 1e300 0 1\n0 1 2\n' > cli-in/far.bsf
run_exit stats-far stats cli-in/far.bsf
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n0 1 0 1\n0 1 3\n' > cli-in/index.bsf
run_exit stats-index stats cli-in/index.bsf
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n0 1 0 1\n0 1 1\n' > cli-in/repeated.bsf
run_exit stats-repeated stats cli-in/repeated.bsf
run_exit graph-txt graph cli-in/field.bsf --out cli-out/graph.txt
printf 'sgf 1\ngrid 3 2 1e-160 1e-160\n0 0\n1 0\n2 1\n0 1\n1 1\n2 0\n' > cli-in/tiny-cells.sgf
run_exit stats-tiny-cells stats cli-in/tiny-cells.sgf
printf 'sgf 1\ngrid 3 2 1e150 1e150\n0 0\n1e-100 0\n2e-100 1e-100\n0 1e-100\n1e-100 1e-100\n2e-100 0\n' \
  > cli-in/huge-cells.sgf
run_exit stats-huge-cells stats cli-in/huge-cells.sgf
printf 'bsf 1\nvertices 6 triangles 2\n-1e308 0 0 0\n-9e307 0 1 0\n-1e308 1 0 1\n9e307 0 0 0\n1e308 0 1 0\n1e308 1 0 1\n0 1 2\n3 4 5\n' \
  > cli-in/apart.bsf
run_exit render-apart render cli-in/apart.bsf --out cli-out/apart.svg
printf 'sgf 1\ngrid 7 2 8.588302338216936 2.0931879946317126e+307\n' > cli-in/rounded.sgf
printf '0 1\n%.0s' {1..14} >> cli-in/rounded.sgf
run_exit stats-rounded stats cli-in/rounded.sgf
run_exit render-tiny-cells render cli-in/tiny-cells.sgf --out cli-out/tiny-cells.svg
printf 'bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1e-10 0 1 0\n0 1e300 0 1\n0 1 2\n' > cli-in/tall.bsf
run_exit render-tall render cli-in/tall.bsf --out cli-out/tall.svg
printf 'bsf 1\nvertices 2 triangles 0\n0 0 0 0\n0 1e300 1 1\n' > cli-in/two-vertices.bsf
run_exit render-two-vertices render cli-in/two-vertices.bsf --out cli-out/two-vertices.svg
