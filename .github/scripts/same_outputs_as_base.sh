#!/usr/bin/env bash
# Same command outputs as another tree? From the repository root:
#   bash .github/scripts/same_outputs_as_base.sh OTHER_TREE
#
# Simulates one sim1 and one sim2 dataset (N=100, 4x100) with this tree's
# src/. Then each tree, this one and OTHER_TREE (a checkout of the base
# commit), runs with its own src/: fit (K=30, one restart) on each dataset,
# eval in sim1 and sim2 mode, rank (groups 0,1, with a labels file) and
# reconstruct (groups 0,1 -> 2, with --truth). Each tree works in its own
# directory with the same relative paths, so the paths the outputs record
# are the same. One more fit (sim1) reads its priors from a config file,
# {"hyper": {"c0": 0.5}}, which both trees accept. Prints, per output file
# (each fit's aggregate.json, best.json and trace, and every command
# output), whether the two trees wrote it byte for byte alike. It only
# reports: a change may move the outputs on purpose, so a difference, or a
# command that fails in one tree, is printed and the script still exits 0.
# The fit is each tree's own, so a change that moves the fitted values
# moves these outputs too.
set -uo pipefail

other=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export OPENBLAS_NUM_THREADS=1

for spec in sim1 sim2; do
  PYTHONPATH="$here/src" python -m cvgfa.cli simulate "$spec" --n 100 --seed 1 \
    --out "$work/data/$spec" >/dev/null
done
paste -d, "$work/data/sim1/group_group1.csv" "$work/data/sim1/group_group2.csv" \
  >"$work/data/observed.csv"
seq 100 | awk '{print $1 % 2}' >"$work/data/labels.csv"
echo '{"hyper": {"c0": 0.5}}' >"$work/data/priors.json"

outputs=""
for run in fit_sim1 fit_sim2 fit_priors; do
  outputs="$outputs $run/aggregate.json $run/best.json $run/restart_0/trace.csv"
done
outputs="$outputs eval_sim1.json eval_sim2.json rank/scores.csv rank/rank.json
  recon/reconstruction.csv recon/reconstruct.json"

run_tree() {
  # $1: tree, $2: its work directory; commands run from there, on ../data
  mkdir -p "$2"
  (
    cd "$2" || exit 1
    cvgfa() { PYTHONPATH="$1/src" python -m cvgfa.cli "${@:2}" >/dev/null; }
    for spec in sim1 sim2; do
      cvgfa "$1" fit "../data/$spec" --k 30 --restarts 1 --seed 0 --out "fit_$spec" &&
        cvgfa "$1" eval "fit_$spec/restart_0/checkpoint.json" "../data/$spec" \
          --mode "$spec" --out "eval_$spec.json" ||
        echo "$spec fit or eval failed in $1"
    done
    cvgfa "$1" fit ../data/sim1 --config ../data/priors.json --k 30 --restarts 1 \
      --seed 0 --out fit_priors || echo "fit with a config failed in $1"
    ckpt=fit_sim1/restart_0/checkpoint.json
    cvgfa "$1" rank "$ckpt" --groups 0,1 --labels ../data/labels.csv --out rank ||
      echo "rank failed in $1"
    cvgfa "$1" reconstruct "$ckpt" --observed ../data/observed.csv \
      --observed-groups 0,1 --target 2 --truth ../data/sim1/group_group3.csv \
      --out recon || echo "reconstruct failed in $1"
  )
}

run_tree "$here" "$work/here"
run_tree "$other" "$work/other"
for name in $outputs; do
  if [ ! -f "$work/here/$name" ] || [ ! -f "$work/other/$name" ]; then
    echo "$name: missing in one tree"
  elif cmp -s "$work/here/$name" "$work/other/$name"; then
    echo "$name: byte-identical"
  else
    echo "$name: differs"
  fi
done
exit 0
