#!/usr/bin/env bash
# Paired end-to-end runs of `schedbench` at two git revisions.
#
#   scripts/pairs.sh [--pairs N] [--seconds S] [--workload W]... \
#       [--out FILE] [--workdir DIR] BASE_REV HEAD_REV
#
# Builds the benchmark of each revision in its own `git worktree`, then
# runs, per workload, N pairs of S-second untraced runs, base and head
# alternating which goes first; pair k passes `--seed k`. Only the
# benchmark's stdout is parsed. One row per (workload, end-to-end
# metric of BENCHMARK.json) is appended to FILE: both revisions'
# median and quartiles, the median and quartiles of the per-pair
# head/base ratio, the pairs the head won and tied, the pair count and
# a host line.
#
# Defaults: 10 pairs of 25 s, every workload in BENCHMARK.json,
# FILE = BENCH_schedbench.json at the repository root, DIR a fresh
# temporary directory. The worktrees are removed on exit; DIR keeps
# each run's stdout and stderr under runs/. An unknown flag, a missing
# value or a missing revision exits 2 before anything is built or
# written; a run that fails or reports a failed op exits 1 and writes
# no row.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh [--pairs N] [--seconds S] [--workload W]... [--out FILE] [--workdir DIR] BASE_REV HEAD_REV" >&2
    exit 2
}

root="$(cd "$(dirname "$0")/.." && pwd)"
pairs=10
seconds=25
workloads=()
out="$root/BENCH_schedbench.json"
workdir=""
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs | --seconds | --workload | --out | --workdir)
        [ $# -ge 2 ] || usage
        case "$1" in
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --workload) workloads+=("$2") ;;
        --out) out="$2" ;;
        --workdir) workdir="$2" ;;
        esac
        shift 2
        ;;
    -*) usage ;;
    *)
        revs+=("$1")
        shift
        ;;
    esac
done
[ ${#revs[@]} -eq 2 ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seconds" =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
base_rev="$(git -C "$root" rev-parse --verify --quiet "${revs[0]}^{commit}")" || usage
head_rev="$(git -C "$root" rev-parse --verify --quiet "${revs[1]}^{commit}")" || usage
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
fi

if [ -z "$workdir" ]; then
    workdir="$(mktemp -d)"
else
    mkdir -p "$workdir"
fi
cleanup() {
    for side in base head; do
        if [ -d "$workdir/$side" ]; then
            git -C "$root" worktree remove --force "$workdir/$side" || true
        fi
    done
}
trap cleanup EXIT

for side in base head; do
    rev="$base_rev"
    [ "$side" = head ] && rev="$head_rev"
    git -C "$root" worktree add --detach --quiet "$workdir/$side" "$rev"
    echo "==> building $side ($rev)" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$workdir/$side/schedbench/Cargo.toml"
done

runs="$workdir/runs"
mkdir -p "$runs"
run() { # side workload seed
    (cd "$workdir/$1" && ./schedbench/target/release/convergent-schedbench \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) \
        >"$runs/$2.$1.$3.out" 2>"$runs/$2.$1.$3.err"
}
for w in "${workloads[@]}"; do
    for k in $(seq 1 "$pairs"); do
        echo "==> $w pair $k/$pairs" >&2
        order="base head"
        [ $((k % 2)) -eq 1 ] || order="head base"
        for side in $order; do
            run "$side" "$w" "$k"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$runs" "$out" "$base_rev" "$head_rev" "$pairs" "$seconds" \
    "$(uname -sm)" "${workloads[@]}" <<'EOF'
import json, os, sys, time

bench, runs, out, base_rev, head_rev, pairs, seconds, os_line = sys.argv[1:9]
workloads, pairs = sys.argv[9:], int(pairs)
metrics = json.load(open(bench))["end_to_end"]


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load(workload, side, k):
    lines = open(os.path.join(runs, f"{workload}.{side}.{k}.out")).read().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"pairs.sh: {side} run {k} of {workload} reported failures; no row written")
    return provenance, {name: m["value"] for name, m in result["metrics"].items()}


rows = []
for w in workloads:
    sides = {s: [load(w, s, k) for k in range(1, pairs + 1)] for s in ("base", "head")}
    p = sides["head"][0][0]
    host = f"{p['cpu_model']}, {p['nproc']} CPUs, {os_line}"
    for m in metrics:
        base = [v[m["name"]] for _, v in sides["base"]]
        head = [v[m["name"]] for _, v in sides["head"]]
        higher = m["better"] == "higher"
        ratios = [h / b for b, h in zip(base, head) if b]
        row = {
            "workload": w,
            "metric": m["name"],
            "unit": m["unit"],
            "better": m["better"],
            "base_rev": base_rev[:12],
            "head_rev": head_rev[:12],
            "pairs": pairs,
            "seconds": float(seconds),
        }
        for side, vals in (("base", base), ("head", head)):
            for name, q in (("p25", 0.25), ("median", 0.5), ("p75", 0.75)):
                row[f"{side}_{name}"] = round(quantile(vals, q), 6)
        for name, q in (("p25", 0.25), ("median", 0.5), ("p75", 0.75)):
            row[f"ratio_{name}"] = round(quantile(ratios, q), 4) if ratios else None
        row["wins"] = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        row["ties"] = sum(h == b for b, h in zip(base, head))
        row["host"] = host
        row["date"] = time.strftime("%Y-%m-%d", time.gmtime())
        rows.append(row)

doc = {"experiment": "schedbench pairs", "rows": []}
if os.path.exists(out):
    doc = json.load(open(out))
doc["rows"].extend(rows)
with open(out, "w") as f:
    f.write('{\n  "experiment": "schedbench pairs",\n  "rows": [\n')
    f.write(",\n".join("    " + json.dumps(r) for r in doc["rows"]))
    f.write("\n  ]\n}\n")
for r in rows:
    print(f"{r['workload']:<22}{r['metric']:<18}{r['ratio_median']!s:>8} "
          f"[{r['ratio_p25']}, {r['ratio_p75']}]  wins {r['wins']}/{pairs}, ties {r['ties']}")
EOF
