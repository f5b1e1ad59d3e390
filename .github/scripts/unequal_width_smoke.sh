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
# reconstruct from two of the groups. Run `cvgfa eval` with the group data
# files moved aside, and require it to report the training MSE that the
# best checkpoint records, as best.json does, and to count the same active
# factors (K+) as best.json. Each best checkpoint must store
# the rows of exactly those K+ factors. `cvgfa rank` reads the best
# checkpoint, and also tests/data/checkpoint_v6.json, which stores the rows
# of one factor of five. Both of these checkpoints must come back byte for
# byte from a read and a rewrite, at unequal widths and on the fixture,
# whose groups are all 8 wide. A last fit with --max-sweeps 2 must stop
# every restart at its cap, with the fit's one objective on its last trace
# row. Every checkpoint the script writes must parse with
# `python -m json.tool`: a checkpoint is plain JSON.
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
# a fitted state holds its active factors only, so each best checkpoint
# stores exactly best.json's K+ factors
for run in a b pool; do
  python -c 'import json, sys
best = json.load(open(sys.argv[1] + "/best.json"))
state = json.load(open(sys.argv[1] + "/" + best["checkpoint"]))["state"]
sys.exit(len(state["stored_factors"]) != best["k_active"])' "$out/$run"
done
# reconstruct from groups of unequal widths, listed out of sorted
# order: the observed columns are group 3's, then group 0's
paste -d, "$out/ds/group_group4.csv" "$out/ds/group_group1.csv" > "$out/observed.csv"
python -m cvgfa.cli reconstruct "$out/a/$(best "$out/a")" --observed "$out/observed.csv" \
  --observed-groups 3,0 --target 1 --out "$out/rec"
test "$(wc -l < "$out/rec/reconstruction.csv")" -eq 60
# eval reads no group data file: run it with them moved aside, and
# require the training MSE that fit recorded in the best checkpoint, from
# eval and from best.json alike
mkdir "$out/aside"
mv "$out"/ds/group_*.csv "$out/aside/"
python -m cvgfa.cli eval "$out/a/$(best "$out/a")" "$out/ds" --mode sim1 --out "$out/eval.json"
mv "$out"/aside/group_*.csv "$out/ds/"
python -c 'import json, sys
recorded = json.load(open(sys.argv[1]))["fit"]["train_mse"]
sys.exit(any(json.load(open(p))["train_mse"] != recorded for p in sys.argv[2:]))' \
  "$out/a/$(best "$out/a")" "$out/eval.json" "$out/a/best.json"
# eval and fit read one active-factor rule (model.ACTIVE_MASS)
k_active() {
  python -c 'import json, sys; print(json.load(open(sys.argv[1]))["k_active"])' "$1"
}
test "$(k_active "$out/eval.json")" -eq "$(k_active "$out/a/best.json")"
# no two groups share a width, so group 1 (40 columns) is ranked against
# itself; the fixture has four groups of 8 columns
python -m cvgfa.cli rank "$out/a/$(best "$out/a")" --groups 1,1 --out "$out/rank"
test "$(wc -l < "$out/rank/scores.csv")" -eq 41
python -m cvgfa.cli rank tests/data/checkpoint_v6.json --groups 0,1 --out "$out/rank_v6"
test "$(wc -l < "$out/rank_v6/scores.csv")" -eq 9
# read_checkpoint then write_checkpoint gives the same bytes, at unequal
# widths and on the fixture
rewrite() {
  python -c 'import sys
from cvgfa import io
state, hyper, info = io.read_checkpoint(sys.argv[1])
io.write_checkpoint(sys.argv[2], state, hyper, info["fit"], info["group_names"])' "$1" "$2"
  cmp "$1" "$2"
}
rewrite "$out/a/$(best "$out/a")" "$out/rewritten.json"
rewrite tests/data/checkpoint_v6.json "$out/rewritten_v6.json"
# --max-sweeps caps the sweeps: 2 are too few for the stopping rule, so
# every restart reads converged: false and has 2 trace rows, of which only
# the last carries an objective, the one aggregate.json records
python -m cvgfa.cli fit "$out/ds" --k 12 --restarts 2 --max-sweeps 2 --out "$out/capped"
python -c 'import json, math, sys
rows = json.load(open(sys.argv[1] + "/aggregate.json"))["restarts"]
for row in rows:
    with open(sys.argv[1] + "/" + row["restart_dir"] + "/trace.csv") as fh:
        lines = fh.read().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    ok = (
        lines[0] == "sweep,objective,train_mse,k_active"
        and len(cells) == 2
        and cells[0][1] == ""
        and math.isfinite(float(cells[1][1]))
        and float(cells[1][1]) == row["objective"]
        and row["converged"] is False
    )
    if not ok:
        sys.exit("%s: trace %s, converged %s" % (row["restart_dir"], lines, row["converged"]))' \
  "$out/capped"
# a checkpoint is plain JSON: every one written above parses (an unmatched
# pattern stays literal, and json.tool fails on the missing file)
for ckpt in "$out"/{a,b,pool,capped}/restart_*/checkpoint.json "$out"/rewritten*.json; do
  python -m json.tool "$ckpt" > /dev/null
done
