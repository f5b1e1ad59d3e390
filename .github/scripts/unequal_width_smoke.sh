#!/usr/bin/env bash
# Unequal-width fit smoke run, from the repository root:
#   bash .github/scripts/unequal_width_smoke.sh
#
# No benchmark workload has unequal group widths, and the sweep steps
# through the rows of every group of a factor at once. So fit a sim1
# dataset of widths 13, 40, 7 and 25 twice serially and once in a pool of
# two workers, and require the same best checkpoint from all three: the
# installed numpy's BLAS computes the sweep's per-group products, and the
# pool's workers get the spectral start that all restarts share pickled. No
# workload reconstructs from or evaluates unequal widths either, so
# reconstruct from two of the groups, and require `cvgfa eval` to count the
# same active factors (K+) as best.json. `cvgfa rank` reads the best
# checkpoint, and also tests/data/checkpoint_v3.json, whose stored lambda
# rates and E[log eta] the reader checks against their derived values.
# Exits non-zero if any step fails, and removes its work directory either
# way.
set -eo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
python -m cvgfa.cli simulate sim1 --n 60 --d 13,40,7,25 --out "$out/ds"
for run in a b; do
  python -m cvgfa.cli fit "$out/ds" --k 12 --restarts 2 --out "$out/$run"
done
# restarts in a process pool send their states back through pickle
python -m cvgfa.cli fit "$out/ds" --k 12 --restarts 2 --threads 2 --out "$out/pool"
best() {
  python -c 'import json, sys; print(json.load(open(sys.argv[1]))["checkpoint"])' "$1/best.json"
}
cmp "$out/a/$(best "$out/a")" "$out/b/$(best "$out/b")"
cmp "$out/a/$(best "$out/a")" "$out/pool/$(best "$out/pool")"
# reconstruct from groups of unequal widths, listed out of sorted
# order: the observed columns are group 3's, then group 0's
paste -d, "$out/ds/group_group4.csv" "$out/ds/group_group1.csv" > "$out/observed.csv"
python -m cvgfa.cli reconstruct "$out/a/$(best "$out/a")" --observed "$out/observed.csv" \
  --observed-groups 3,0 --target 1 --out "$out/rec"
test "$(wc -l < "$out/rec/reconstruction.csv")" -eq 60
# eval and fit read one active-factor rule (model.ACTIVE_MASS)
python -m cvgfa.cli eval "$out/a/$(best "$out/a")" "$out/ds" --mode sim1 --out "$out/eval.json"
k_active() {
  python -c 'import json, sys; print(json.load(open(sys.argv[1]))["k_active"])' "$1"
}
test "$(k_active "$out/eval.json")" -eq "$(k_active "$out/a/best.json")"
# no two groups share a width, so group 1 (40 columns) is ranked against
# itself; the version 3 fixture has four groups of 8 columns
python -m cvgfa.cli rank "$out/a/$(best "$out/a")" --groups 1,1 --out "$out/rank"
test "$(wc -l < "$out/rank/scores.csv")" -eq 41
python -m cvgfa.cli rank tests/data/checkpoint_v3.json --groups 0,1 --out "$out/rank_v3"
test "$(wc -l < "$out/rank_v3/scores.csv")" -eq 9
