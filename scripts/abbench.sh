#!/usr/bin/env bash
# A/B benchmark pairs between two commits, report-only (it gates nothing):
#
#   scripts/abbench.sh <base> [<head>]
#
# <base> and <head> are git refs (head defaults to HEAD) or directories
# holding a checkout. A ref is checked out into a temporary git worktree.
# Each arm builds and runs its own perfbench/run.sh with BENCHMARK.json's
# run_seconds and seed 1. Runs alternate between the arms, and the arm that
# goes first swaps every pair (base, head; head, base; ...), so host drift
# and run order hit both arms alike.
#
# Three steps, each also callable alone on an existing output directory:
#   run      10 pairs per workload in BENCHMARK.json, keeping every run's
#            log and .bench_out JSON as <out>/raw/<workload>/<arm>-<i>.*
#   collect  one JSON row per run in <out>/collected.jsonl; a run that
#            wrote no JSON is a row marked missing
#   analyze  per workload and end-to-end metric: both arms' median and
#            quartiles, the paired median ratio head/base, head's wins out
#            of the pairs where both runs reported, and "unresolved" when
#            either arm's interquartile spread (relative to its median)
#            exceeds the metric's BENCHMARK.json bound; then the model.*
#            values that differ between the arms.
#
#   scripts/abbench.sh collect <out>;  scripts/abbench.sh analyze <out>
#
# OUT names the output directory (default .abbench/<utc timestamp>).
# Run it from the repository root.
set -euo pipefail

root=$(pwd)
spec="$root/BENCHMARK.json"
pairs=10

collect() {
	local out=$1
	python3 - "$out" <<'EOF'
import json, os, sys
out = sys.argv[1]
rows = []
raw = os.path.join(out, "raw")
for workload in sorted(os.listdir(raw)):
    for name in sorted(os.listdir(os.path.join(raw, workload))):
        if not name.endswith(".log"):
            continue
        arm, i = name[:-len(".log")].rsplit("-", 1)
        path = os.path.join(raw, workload, f"{arm}-{i}.json")
        if not os.path.exists(path):
            rows.append({"workload": workload, "arm": arm, "pair": int(i), "missing": True})
            continue
        with open(path) as f:
            art = json.load(f)
        rep = art["report"]
        rows.append({"workload": workload, "arm": arm, "pair": int(i),
                     "correct": rep["correct"], "attempted": rep["attempted"], "failed": rep["failed"],
                     "metrics": {k: v["value"] for k, v in rep["metrics"].items()},
                     "model": art.get("model", {})})
with open(os.path.join(out, "collected.jsonl"), "w") as f:
    for r in rows:
        f.write(json.dumps(r, sort_keys=True) + "\n")
print(f"collected {len(rows)} runs into {out}/collected.jsonl")
EOF
}

analyze() {
	local out=$1
	python3 - "$out" "$spec" <<'EOF'
import json, statistics, sys
out, spec = sys.argv[1], json.load(open(sys.argv[2]))
rows = [json.loads(l) for l in open(f"{out}/collected.jsonl")]
missing = [r for r in rows if r.get("missing")]
rows = [r for r in rows if not r.get("missing")]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for workload in sorted({r["workload"] for r in rows}):
    arms = {a: {r["pair"]: r for r in rows if r["workload"] == workload and r["arm"] == a} for a in ("base", "head")}
    pairs = sorted(set(arms["base"]) & set(arms["head"]))
    print(f"\n{workload}: {len(pairs)} pairs")
    for arm in ("base", "head"):
        runs = arms[arm].values()
        lost = sorted(r["pair"] for r in missing if r["workload"] == workload and r["arm"] == arm)
        print(f"  {arm}: {sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} operations"
              f"{'' if all(r['correct'] for r in runs) else ', INCORRECT runs'}"
              f"{f', no report from runs {lost}' if lost else ''}")
    print(f"  {'metric':<18} {'base median [q1, q3]':<34} {'head median [q1, q3]':<34} {'ratio':>7} {'wins':>6}")
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        b = [arms["base"][p]["metrics"][name] for p in pairs if name in arms["base"][p]["metrics"]]
        h = [arms["head"][p]["metrics"][name] for p in pairs if name in arms["head"][p]["metrics"]]
        if len(b) != len(pairs) or len(h) != len(pairs) or not pairs:
            continue
        bq, hq = quartiles(b), quartiles(h)
        ratio = statistics.median(hv / bv for hv, bv in zip(h, b) if bv)
        wins = sum((hv > bv) if higher else (hv < bv) for hv, bv in zip(h, b))
        spread = max((q[2] - q[0]) / q[1] if q[1] else 0 for q in (bq, hq))
        worse = (1 - ratio) if higher else (ratio - 1)
        verdict = "unresolved" if spread > bound else ("WORSE than bound" if worse > bound else "ok")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name:<18} {fmt(bq):<34} {fmt(hq):<34} {ratio:>7.3f} {wins:>3}/{len(pairs):<2} {verdict}"
              f" (spread {spread:.0%}, bound {bound:.0%})")
    models = {a: [json.dumps(r["model"], sort_keys=True) for r in arms[a].values()] for a in ("base", "head")}
    for arm, ms in models.items():
        if len(set(ms)) > 1:
            print(f"  model.* varies between {arm} runs")
    mb = arms["base"][pairs[0]]["model"] if pairs else {}
    mh = arms["head"][pairs[0]]["model"] if pairs else {}
    diff = sorted(k for k in set(mb) | set(mh) if mb.get(k) != mh.get(k))
    if diff:
        for k in diff:
            print(f"  model differs: {k}: base {mb.get(k)} head {mh.get(k)}")
    else:
        print(f"  model.* identical ({len(mb)} values)")
EOF
}

case "${1:-}" in
collect | analyze)
	"$1" "$2"
	exit 0
	;;
"" | -h | --help)
	sed -n '2,29p' "$0"
	exit 2
	;;
esac

out=${OUT:-$root/.abbench/$(date -u +%Y%m%dT%H%M%SZ)}
mkdir -p "$out/raw"
out=$(cd "$out" && pwd)
worktrees=()
cleanup() {
	for wt in "${worktrees[@]}"; do
		git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
	done
}
trap cleanup EXIT

# checkout sets the variable named arm to the directory the arm runs in:
# the directory itself, or a fresh worktree of the ref.
checkout() {
	local arm=$1 ref=$2
	if [[ -d $ref ]]; then
		printf -v "$arm" '%s' "$(cd "$ref" && pwd)"
		return
	fi
	local wt="$out/wt-$arm"
	git -C "$root" worktree add --detach "$wt" "$ref" >/dev/null
	worktrees+=("$wt")
	printf -v "$arm" '%s' "$wt"
}

run() {
	local seconds workloads order
	checkout base "$1"
	checkout head "${2:-HEAD}"
	seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
	workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
	echo "base $base, head $head: $pairs pairs of $seconds s per workload ($workloads); output in $out"
	for w in $workloads; do
		mkdir -p "$out/raw/$w"
		for i in $(seq 1 "$pairs"); do
			order="base head"
			((i % 2 == 0)) && order="head base"
			for arm in $order; do
				local dir=$base
				[[ $arm == head ]] && dir=$head
				local report="$dir/.bench_out/$w-seed1-trace0.json"
				rm -f "$report"
				if ! (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 0 >"$out/raw/$w/$arm-$i.log" 2>&1); then
					echo "  $w $arm run $i exited non-zero (see $out/raw/$w/$arm-$i.log)"
				fi
				if [[ -f $report ]]; then
					cp "$report" "$out/raw/$w/$arm-$i.json"
				fi
			done
			echo "  $w pair $i/$pairs done ($order)"
		done
	done
}

run "$@"
collect "$out"
analyze "$out" | tee "$out/analysis.txt"
