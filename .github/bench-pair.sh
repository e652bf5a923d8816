#!/usr/bin/env bash
# Paired benchmark gate: runs the benchmark BENCHMARK.json declares in
# two source trees, the parent commit and the change, and fails when the
# change is worse.
#
#   bash .github/bench-pair.sh PARENT_DIR CHANGE_DIR
#
# Each workload runs in PAIRS pairs. Both sides of a pair use the same
# seed (the pair's number), and the side that runs first alternates from
# pair to pair, so a machine that drifts during the job drifts on both
# sides alike. Each run is BENCHMARK.json's command with
# `--workload W --seed S --seconds run_seconds --trace 0`, started from
# the root of its tree, which it builds from. The workloads, the
# end-to-end metrics with their `better` direction and `bound`, and
# run_seconds are read from CHANGE_DIR/BENCHMARK.json.
#
# The gate fails when
#   - a run exits non-zero or reports correct:false,
#   - a workload's failed share (failed/attempted over its runs) is
#     higher on the change than on the parent, or
#   - the change's median of an end-to-end metric on a workload is worse
#     than the parent's median by more than the metric's bound, as a
#     fraction of the parent's median, or the change reports no value
#     for a metric the parent reports.
# It prints one line per (workload, metric) and writes bench-pair.json in
# the current directory: each side's medians and failed share per
# workload, every run's result line, and the failures.
set -euo pipefail

readonly PAIRS=5

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
spec="$change/BENCHMARK.json"
out="$(pwd)/bench-pair.json"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
mapfile -t command < <(jq -r '.command[]' "$spec")

# run SIDE DIR WORKLOAD SEED appends one run's record to $runs. The
# result is the last line of the run's standard output, or null when
# that line is not JSON (a run that fails before measuring prints none).
run() {
  local side=$1 dir=$2 workload=$3 seed=$4 line status=0
  echo "== $workload seed $seed: $side" >&2
  line=$(cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1) || status=$?
  jq -cn --arg workload "$workload" --argjson seed "$seed" --arg side "$side" \
    --argjson exit "$status" --arg line "$line" \
    '{workload: $workload, seed: $seed, side: $side, exit: $exit,
      result: ($line | try fromjson catch null)}' >>"$runs"
}

for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$PAIRS"); do
    if ((seed % 2)); then
      run parent "$parent" "$workload" "$seed"
      run change "$change" "$workload" "$seed"
    else
      run change "$change" "$workload" "$seed"
      run parent "$parent" "$workload" "$seed"
    fi
  done
done

jq -s --slurpfile spec "$spec" --argjson pairs "$PAIRS" '
  def median:
    sort | length as $n
    | if $n == 0 then null
      elif $n % 2 == 1 then .[($n - 1) / 2]
      else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;

  # One side of one workload: the median of each metric over its runs,
  # and the failed share over all of them.
  def side($metrics):
    [.[].result | select(. != null)] as $res
    | ([$res[].attempted] | add // 0) as $attempted
    | ([$res[].failed] | add // 0) as $failed
    | {medians: (reduce $metrics[] as $m ({};
         .[$m.name] = ([$res[].metrics[$m.name].value | select(. != null)] | median))),
       attempted: $attempted, failed: $failed,
       failed_share: (if $attempted > 0 then $failed / $attempted else 0 end)};

  . as $runs
  | $spec[0].end_to_end as $metrics
  | [$spec[0].workloads[].name as $w
     | [$runs[] | select(.workload == $w)] as $wr
     | {workload: $w,
        parent: ([$wr[] | select(.side == "parent")] | side($metrics)),
        change: ([$wr[] | select(.side == "change")] | side($metrics))}
     | . as $s
     | .metrics = [$metrics[] as $m
         | $s.parent.medians[$m.name] as $p
         | $s.change.medians[$m.name] as $c
         | {name: $m.name, better: $m.better, bound: $m.bound, parent: $p, change: $c,
            ratio: (if $p != null and $c != null and $p != 0 then $c / $p else null end),
            worse: (if $p == null then false
              elif $c == null then true
              else (if $m.better == "lower" then $c - $p else $p - $c end) > $m.bound * $p end)}]] as $ws
  | {pairs: $pairs,
     run_seconds: $spec[0].run_seconds,
     workloads: $ws,
     runs: $runs,
     failures: (
       [$runs[] | select(.exit != 0 or .result.correct != true)
        | "\(.workload) seed \(.seed) \(.side): exit \(.exit), correct \(.result.correct)"]
       + [$ws[] | select(.change.failed_share > .parent.failed_share)
          | "\(.workload): failed share \(.change.failed_share) on the change, \(.parent.failed_share) on the parent"]
       + [$ws[] | .workload as $w | .metrics[] | select(.worse)
          | "\($w) \(.name): change median \(.change) vs parent median \(.parent) (\(.better) is better, bound \(.bound))"])}
  | .pass = (.failures | length == 0)
' "$runs" >"$out"

jq -r '.workloads[] | .workload as $w | .metrics[]
  | "\($w)\t\(.name)\tparent \(.parent)\tchange \(.change)\tratio \(.ratio)\t\(if .worse then "WORSE" else "ok" end)"' "$out"
jq -r '.failures[] | "FAIL: \(.)"' "$out"
jq -e '.pass' "$out" >/dev/null
