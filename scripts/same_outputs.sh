#!/bin/sh
# Run one list of CLI commands from two source trees and compare every
# file they write, byte for byte.
#
#   scripts/same_outputs.sh PARENT_TREE CHANGE_TREE
#
# Each tree is a checkout with the package under src/.  Both trees write
# under the same work directory in turn, so the paths their outputs embed
# (run.cfg, printed messages) are the same; the two output sets are then
# compared byte for byte.  Exits 0 when they match and 1 when they differ.
#
# When they differ, one line per differing file says how.  A text file's
# line gives the largest absolute and the largest relative difference
# between the numbers at the same position in its two copies, and whether
# any text other than those numbers differs.  A checkpoint's line (a file
# that starts with SCLM) says whether the state bytes after its header are
# the same, which header keys only one tree's copy has, and which header
# values differ.  Any other binary file's line says "binary differs".
#
# Each tree's run also prints "resume exact: yes" when its 20 + 20-step
# resumed checkpoint equals its 40-step one, both when the resume writes
# to a new directory and when it writes over the checkpoint it loaded,
# and when a 5 + 3-step resume on lines of mixed lengths equals the
# 8-step run, else "no".  A resume that is not exact in either tree
# exits 1 as well.
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
# points and two heads, attention splits a batch of four lines of 48
# letters or more into several blocks of sequences, and a line of 96
# letters or more into one block per head
long=$work/long.txt
awk 'BEGIN { for (n = 8; n <= 128; n += 8) { line = ""; for (i = 0; i < n; i++) line = line substr("abcdefgh", (3 * i + n / 8) % 8 + 1, 1); print line } }' > "$long"
# 2-letter lines: trained one line a step on a linear 20-step schedule,
# 15 of 40 steps mask no position and so run Adam with no gradient at all
pairs=$work/pairs.txt
printf 'ab\nba\naa\nbb\n' > "$pairs"
# whitespace-split lines, trained at --max-len 8: two lines are cut to 8
# words, a one-word line and a blank one are dropped, and some words are
# not ASCII
words=$work/words.txt
printf '%s\n' \
    "the cat sat on the mat" \
    "a dog sat by the door and the cat ran far away from it" \
    "solo" \
    "" \
    "naïve café owners sat on the mat" \
    "über straße and the café" \
    "the dog saw the cat" \
    "a cat and a dog on a mat by the door of the café" \
    "日本 の 猫 sat" \
    "the mat sat" > "$words"
# whitespace-split lines of one-letter words: every token is one
# character long, as a char run's are, so only the tokenizer the
# checkpoint records says that a sample's words are joined by spaces
wsone=$work/wsone.txt
printf 'a b c d\nd c b a\nb a d c\nc d a b\n' > "$wsone"

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
    # 3 steps at --log-interval 5 log no row: losses.csv is the header alone
    cli gauss3 train $small --corpus builtin:multimodal --steps 3 --out "$out/gauss3"
    cli masked3 train $small --mode masked --corpus builtin:grammar3 --steps 3 --out "$out/masked3"
    cli masked20 train $small --mode masked --corpus builtin:grammar3 --dropout 0.1 --steps 20 --out "$out/masked20"
    cli resumed train --config "$out/masked20/run.cfg" --resume "$out/masked20/model.ckpt" --steps 40 --out "$out/resumed"
    # the same resume with --out the directory it resumes from: the new
    # model.ckpt is renamed over the file it loaded
    cp -R "$out/masked20" "$out/inplace"
    cli inplace train --config "$out/inplace/run.cfg" --resume "$out/inplace/model.ckpt" --steps 40 --out "$out/inplace"
    cli k2 train $small --k-curves 2 --dropout 0.1 --out "$out/k2"
    # more than two curves: the K-curve head's weighted sum adds them in turn
    cli k4 train $small --k-curves 4 --dropout 0.1 --out "$out/k4"
    cli mk2 train $small --mode masked --corpus builtin:grammar3 --k-curves 2 --dropout 0.1 --out "$out/mk2"
    cli ident train $small --mode baseline-identity --corpus builtin:multimodal --out "$out/ident"
    cli mident train $small --mode masked-identity --out "$out/mident"
    # the masked run's identity twin, on its corpus, for the masked probe
    cli mident3 train $small --mode masked-identity --corpus builtin:grammar3 --out "$out/mident3"
    cli long train $small --mode masked --corpus "$long" --max-len 128 --dropout 0.1 --steps 8 --out "$out/long"
    # steps 1-5 reach 128 letters (256 pos rows) and steps 6-8 draw 112, 104
    # and 40: the resume must carry the Adam state of rows no later step reads
    cli long5 train $small --mode masked --corpus "$long" --max-len 128 --dropout 0.1 --steps 5 --out "$out/long5"
    cli longresumed train --config "$out/long5/run.cfg" --resume "$out/long5/model.ckpt" --steps 8 --out "$out/longresumed"
    if cmp -s "$out/masked/model.ckpt" "$out/resumed/model.ckpt" && cmp -s "$out/masked/model.ckpt" "$out/inplace/model.ckpt" \
        && cmp -s "$out/long/model.ckpt" "$out/longresumed/model.ckpt"; then
        echo "resume exact: yes"
    else
        echo "resume exact: no"
        inexact=yes
    fi
    # the default backbone (d_model 64, d_ff 128, the benchmark's) on the
    # same lines, 5 to a batch: 10 L rows a step, so the feed-forward GELU
    # chain runs over whole and partial blocks of rows, with dropout
    cli longff train --mode masked --corpus "$long" --max-len 128 --dropout 0.1 --steps 12 --batch-size 5 --log-interval 1 --schedule-steps 20 --embed-dim 32 --out "$out/longff"
    # one-column heads (d_model 32 over 32 heads), which attention reads
    # from contiguous copies, and four heads of 8 columns on a masked model
    cli heads32 train $small --heads 32 --dropout 0.1 --out "$out/heads32"
    cli mheads4 train $small --mode masked --corpus builtin:grammar3 --heads 4 --dropout 0.1 --out "$out/mheads4"
    # four heads on the long lines: at --seed 4, steps 1-8 draw 80, 32,
    # 32, 72, 32, 16, 88 and 128 letters, so attention runs blocks of
    # whole sequences (32 and 16), of 2 + 2 heads (80 and 88), of 3 heads
    # and then 1 (72), and of one head (128); the sample runs 3 + 1 again
    cli mheads4long train $small --mode masked --corpus "$long" --max-len 128 --heads 4 --dropout 0.1 --steps 8 --seed 4 --out "$out/mheads4long"
    # three curves on the long lines: K·B = 12 sequences of N + 1 tokens.
    # At --seed 5, steps 1-4 draw 64, 120, 40 and 8 letters, so each
    # step's feed-forward ends on a partial block of rows, and attention
    # runs blocks of one sequence (64), of one head (120), of four
    # sequences (40) and of the whole batch (8); the sample runs one head
    # a block again
    cli mk3long train $small --mode masked --corpus "$long" --max-len 128 --k-curves 3 --dropout 0.1 --steps 4 --seed 5 --out "$out/mk3long"
    cli pairs train $small --mode masked --corpus "$pairs" --batch-size 1 --schedule-kind linear --out "$out/pairs"
    cli words train $small --corpus "$words" --tokenizer whitespace --max-len 8 --out "$out/words"
    cli wsone train $small --corpus "$wsone" --tokenizer whitespace --steps 3 --out "$out/wsone"

    # the identity runs sample with a to_points and to_words that bypass the curve map;
    # each sample is a batch of one, whose combined curves to_words reads in their own layout
    for run in gauss resumed k2 k4 mk2 ident mident words heads32 mheads4; do
        cli "sample_$run" sample "$out/$run/model.ckpt" --length 12 --steps 5 --n 2 --seed 1 --out "$out/sample_$run"
    done
    cli sample_wsone sample "$out/wsone/model.ckpt" --length 4 --steps 5 --n 2 --seed 1 --out "$out/sample_wsone"
    cli sample_long sample "$out/long/model.ckpt" --length 128 --steps 5 --n 2 --seed 1 --out "$out/sample_long"
    cli sample_longff sample "$out/longff/model.ckpt" --length 40 --steps 5 --n 2 --seed 1 --out "$out/sample_longff"
    cli sample_mk3long sample "$out/mk3long/model.ckpt" --length 96 --steps 5 --n 2 --seed 1 --out "$out/sample_mk3long"
    cli sample_mheads4long sample "$out/mheads4long/model.ckpt" --length 72 --steps 5 --n 2 --seed 1 --out "$out/sample_mheads4long"
    cli probe probe "$out/gauss/model.ckpt" "$out/ident/model.ckpt" --n-eval 4 --n-noise 50 --out "$out/probe"
    # 300 perturbations take several blocks of rows in the dCov kernel
    cli probe300 probe "$out/gauss/model.ckpt" "$out/ident/model.ckpt" --n-eval 4 --n-noise 300 --out "$out/probe300"
    # masked twins: the probe masks their tokens at T/2, as they train
    cli mprobe probe "$out/masked/model.ckpt" "$out/mident3/model.ckpt" --corpus builtin:grammar3 --n-eval 4 --n-noise 50 --out "$out/mprobe"
    cli reconstruct reconstruct --lengths 16,40 --n-ratios 1.5,2.0 --eta-ratios 0.1,0.2 --trials 5 --dim 4 --out "$out/reconstruct"
    # a length past the default curve range of [2, 250], which no range check may refuse
    cli reconstruct300 reconstruct --lengths 300 --n-ratios 2.0 --eta-ratios 0.1 --trials 5 --dim 4 --out "$out/reconstruct300"
    cli verify verify all --out "$out/verify"
    for length in 7 20 32 250 300; do
        cli "spectrum_$length" spectrum --length "$length" --out "$out/spectrum"
    done
}

inexact=no
echo "running $parent"
run_all "$parent"
mv "$work/out" "$work/parent"
echo "running $change"
run_all "$change"
mv "$work/out" "$work/change"

count=$(find "$work/parent" -type f | wc -l)
if diff -rq "$work/parent" "$work/change" > /dev/null; then
    echo "same outputs: $count files"
else
    python3 - "$work/parent" "$work/change" <<'PY'
import json
import math
import os
import re
import struct
import sys

NUMBER = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b)")


def files(root):
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def text(data):
    """The data as text, or None for a binary file."""
    try:
        return None if b"\0" in data else data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def checkpoint_parts(data):
    """(format version, header, state bytes) of a checkpoint file, or None when it does not parse."""
    prefix = struct.Struct("<4sIQ")  # magic, version, header length
    try:
        _, version, length = prefix.unpack_from(data)
        header = json.loads(data[prefix.size : prefix.size + length])
    except (struct.error, ValueError):
        return None
    return (version, header, data[prefix.size + length :]) if isinstance(header, dict) else None


def checkpoint_report(old, new):
    """Whether the state after the header is the same, and how the format versions and headers differ."""
    (old_version, old_header, old_state), (new_version, new_header, new_state) = old, new
    notes = [f"state {'same' if old_state == new_state else 'differs'}"]
    if old_version != new_version:
        notes.append(f"format version {old_version} vs {new_version}")
    for tree, keys in (("parent", old_header.keys() - new_header.keys()), ("change", new_header.keys() - old_header.keys())):
        if keys:
            notes.append(f"header keys only in the {tree}: {', '.join(sorted(keys))}")
    differ = sorted(k for k in old_header.keys() & new_header.keys() if old_header[k] != new_header[k])
    notes.append(f"header values differ: {', '.join(differ)}" if differ else "no header value differs")
    return "checkpoint: " + "; ".join(notes)


def numeric_report(old, new):
    """The largest absolute and relative differences of position-paired numbers, and whether the rest differs."""
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    changed, abs_diff, rel_diff = 0, 0.0, 0.0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        changed += 1
        d = abs(a - b)
        if not math.isfinite(d):
            abs_diff = rel_diff = math.inf
            continue
        abs_diff = max(abs_diff, d)
        rel_diff = max(rel_diff, d / max(abs(a), abs(b)))
    other = "differs" if NUMBER.sub("#", old) != NUMBER.sub("#", new) else "same"
    return f"{changed} of {len(pairs)} numbers differ, max abs {abs_diff:.3g}, max rel {rel_diff:.3g}; other text {other}"


parent, change = sys.argv[1:]
old_files, new_files = files(parent), files(change)
for name in sorted(old_files | new_files):
    if name not in old_files or name not in new_files:
        print(f"{name}: only in the {'parent' if name in old_files else 'change'} tree")
        continue
    with open(os.path.join(parent, name), "rb") as f:
        old = f.read()
    with open(os.path.join(change, name), "rb") as f:
        new = f.read()
    if old == new:
        continue
    old_text, new_text = text(old), text(new)
    parts = [checkpoint_parts(data) if data[:4] == b"SCLM" else None for data in (old, new)]
    if None not in parts:
        print(f"{name}: {checkpoint_report(*parts)}")
    elif old_text is None or new_text is None:
        print(f"{name}: binary differs")
    else:
        print(f"{name}: {numeric_report(old_text, new_text)}")
PY
    echo "outputs differ" >&2
    exit 1
fi
if [ "$inexact" = yes ]; then
    echo "a resume is not exact" >&2
    exit 1
fi
