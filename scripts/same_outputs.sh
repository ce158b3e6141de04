#!/bin/sh
# Run one list of CLI commands from two source trees and compare every
# file they write, byte for byte.
#
#   scripts/same_outputs.sh PARENT_TREE CHANGE_TREE
#
# Each tree is a checkout with the package under src/.  Both trees write
# under the same work directory in turn, so the paths their outputs embed
# (run.cfg, printed messages) are the same; the two output sets are then
# compared with diff -r.  Exits 0 when they match and 1 when they differ.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# one BLAS thread, so a product sums in the same order in both runs
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
# one line of each length 8, 16, ..., 128 letters: at N = 2L control
# points, attention splits a batch of lines of 80 letters or more into
# several blocks of sequences, and a 128-letter line is a block of its own
long=$work/long.txt
awk 'BEGIN { for (n = 8; n <= 128; n += 8) { line = ""; for (i = 0; i < n; i++) line = line substr("abcdefgh", (3 * i + n / 8) % 8 + 1, 1); print line } }' > "$long"
# 2-letter lines: trained one line a step on a linear 20-step schedule,
# 15 of 40 steps mask no position and so run Adam with no gradient at all
pairs=$work/pairs.txt
printf 'ab\nba\naa\nbb\n' > "$pairs"

run_all() {
    tree=$1
    out=$work/out
    mkdir "$out"
    # each command's standard output is kept beside the files it writes
    cli() {
        name=$1
        shift
        PYTHONPATH="$tree/src" python3 -m curvelang.cli "$@" > "$out/$name.stdout"
    }
    small="--steps 40 --batch-size 4 --log-interval 5 --schedule-steps 20 --d-model 32 --d-ff 64 --embed-dim 8 --time-dim 8"

    cli gauss train $small --corpus builtin:multimodal --out "$out/gauss"
    cli masked train $small --mode masked --corpus builtin:grammar3 --dropout 0.1 --out "$out/masked"
    cli masked20 train $small --mode masked --corpus builtin:grammar3 --dropout 0.1 --steps 20 --out "$out/masked20"
    cli resumed train --config "$out/masked20/run.cfg" --resume "$out/masked20/model.ckpt" --steps 40 --out "$out/resumed"
    cli k2 train $small --k-curves 2 --dropout 0.1 --out "$out/k2"
    cli mk2 train $small --mode masked --corpus builtin:grammar3 --k-curves 2 --dropout 0.1 --out "$out/mk2"
    cli ident train $small --mode baseline-identity --corpus builtin:multimodal --out "$out/ident"
    cli mident train $small --mode masked-identity --out "$out/mident"
    cli long train $small --mode masked --corpus "$long" --max-len 128 --dropout 0.1 --steps 8 --out "$out/long"
    cli pairs train $small --mode masked --corpus "$pairs" --batch-size 1 --schedule-kind linear --out "$out/pairs"

    for run in gauss resumed k2 mk2; do
        cli "sample_$run" sample "$out/$run/model.ckpt" --length 12 --steps 5 --n 2 --seed 1 --out "$out/sample_$run"
    done
    cli sample_long sample "$out/long/model.ckpt" --length 128 --steps 5 --n 2 --seed 1 --out "$out/sample_long"
    cli probe probe "$out/gauss/model.ckpt" "$out/ident/model.ckpt" --n-eval 4 --n-noise 50 --out "$out/probe"
    cli reconstruct reconstruct --lengths 16,40 --n-ratios 1.5,2.0 --eta-ratios 0.1,0.2 --trials 5 --dim 4 --out "$out/reconstruct"
    cli verify verify all --out "$out/verify"
    for length in 7 20 32 250; do
        cli "spectrum_$length" spectrum --length "$length" --out "$out/spectrum"
    done
}

echo "running $parent"
run_all "$parent"
mv "$work/out" "$work/parent"
echo "running $change"
run_all "$change"
mv "$work/out" "$work/change"

count=$(find "$work/parent" -type f | wc -l)
if diff -r "$work/parent" "$work/change"; then
    echo "same outputs: $count files"
else
    echo "outputs differ" >&2
    exit 1
fi
