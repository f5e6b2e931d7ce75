#!/usr/bin/env bash
# Produce BENCH_baseline.json (a full-mode metrics snapshot of one
# representative run across every selection algorithm, the degrade
# ladder, and the faulted node simulation) plus BENCH_selection.json
# (the selection perf figure: optimized engines vs. seed references).
#
#   scripts/bench_snapshot.sh [OUT] [SEED] [SELECTION_OUT] [OVERLOAD_OUT] [CLUSTER_OUT] [SOAK_OUT] [BYZ_OUT] [ANON_OUT]
#
# OUT defaults to BENCH_baseline.json at the repo root; SEED to 42;
# SELECTION_OUT to BENCH_selection.json; OVERLOAD_OUT (the overload
# service load ramp) to BENCH_overload.json; CLUSTER_OUT (goodput and
# convergence vs cluster size) to BENCH_cluster.json, with the per-size
# convergence reports in CLUSTER_report.txt alongside it; SOAK_OUT (the
# streaming soak: flat p99 from 10^3 to 10^6 tokens) to BENCH_soak.json;
# BYZ_OUT (the Byzantine gauntlet: per-strength goodput, bans, offense
# tallies) to BENCH_byzantine.json, with the per-strength reports in
# BYZ_report.txt alongside it; ANON_OUT (the adversary replay grid:
# effective anonymity per degrade tier x sampling mode x adversary
# strength, plus the 64-seed floor-gated admission sweep) to
# BENCH_anonymity.json, with the per-cell report in ANON_report.txt
# alongside it.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_baseline.json}"
SEED="${2:-42}"
SELECTION_OUT="${3:-BENCH_selection.json}"
OVERLOAD_OUT="${4:-BENCH_overload.json}"
CLUSTER_OUT="${5:-BENCH_cluster.json}"
SOAK_OUT="${6:-BENCH_soak.json}"
BYZ_OUT="${7:-BENCH_byzantine.json}"
ANON_OUT="${8:-BENCH_anonymity.json}"

cargo build --release -q -p dams-bench --bin dams-cli
./target/release/dams-cli bench --out "$OUT" --seed "$SEED" \
    --selection-out "$SELECTION_OUT"
./target/release/dams-cli serve-sim --out "$OVERLOAD_OUT" --seed "$SEED"
# The soak exits non-zero itself unless p99 work and per-block
# maintenance stay flat across the decades; the python gate below
# re-checks the written artifact independently.
./target/release/dams-cli serve-sim --soak --out "$SOAK_OUT" \
    --seed "$SEED" --tokens 1000000
./target/release/dams-cli cluster-sim --out "$CLUSTER_OUT" \
    --report CLUSTER_report.txt --node-counts 1,3,5 --seed "$SEED"
# The Byzantine gauntlet exits non-zero itself unless every adversary
# strength reaches the defended state; the python gate below re-checks
# the written rows independently.
./target/release/dams-cli cluster-sim --byzantine --out "$BYZ_OUT" \
    --report BYZ_report.txt --honest 4 --max-f 3 --seed "$SEED"
# The anonymity bench exits non-zero itself unless its own gate passes
# (declared tier scores backed, attack-aware never worse, no request
# answered below its floor); the python gate below re-checks the
# written rows independently.
./target/release/dams-cli bench --anonymity --out "$ANON_OUT" \
    --report ANON_report.txt --seed "$SEED"

# Well-formedness gate: the snapshot must parse as JSON and cover the
# BFS, Progressive, Game-theoretic, and degrade-tier metric families.
python3 - "$OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

required = [
    "core.bfs.candidates_total",
    "core.cache.hits_total",
    "core.cache.misses_total",
    "core.select.tm_p.rings_total",
    "core.select.tm_g.rings_total",
    "core.degrade.answered.exact_bfs_total",
    "core.degrade.answered.progressive_total",
    "core.degrade.answered.game_theoretic_total",
    "core.degrade.ring_size",
    "chain.blocks.sealed_total",
    "node.bus.sent_total",
]
missing = [name for name in required if name not in doc]
if missing:
    sys.exit(f"{path} is missing required metrics: {missing}")
print(f"{path}: {len(doc)} metrics, all required families present")
EOF

# Selection-figure gate: the optimized engines must beat the seed
# references by at least 2x on both rows.
python3 - "$SELECTION_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

for row in ("exact_bfs", "tm_g"):
    if row not in doc:
        sys.exit(f"{path} is missing row {row!r}")
    speedup = doc[row]["speedup"]
    if speedup < 2.0:
        sys.exit(f"{path}: {row} speedup {speedup:.2f}x is below the 2x floor")
    print(f"{path}: {row} {speedup:.2f}x (baseline {doc[row]['baseline_ns']} ns, "
          f"optimized {doc[row]['optimized_ns']} ns)")

# Streaming rows: the figure must cover the 10^5 and 10^6 decades, the
# per-block index maintenance cost must be bounded (chain-length
# independent), and the deterministic p99 request work must stay flat.
rows = doc.get("streaming", [])
if not rows:
    sys.exit(f"{path} has no streaming rows")
tokens = [r["tokens"] for r in rows]
for decade in (100_000, 1_000_000):
    if not any(decade <= t < 10 * decade for t in tokens):
        sys.exit(f"{path}: streaming rows {tokens} miss the {decade}-token decade")
if not doc.get("streaming_p99_flat"):
    sys.exit(f"{path}: p99 request work grew with the chain: "
             f"{[r['p99_work'] for r in rows]}")
if not doc.get("streaming_maintenance_flat"):
    sys.exit(f"{path}: per-block maintenance grew with the chain: "
             f"{[r['max_block_ops'] for r in rows]}")
first, last = rows[0], rows[-1]
print(f"{path}: streaming {first['tokens']} -> {last['tokens']} tokens, "
      f"p99 work {first['p99_work']} -> {last['p99_work']}, "
      f"max block ops {first['max_block_ops']} -> {last['max_block_ops']}")
EOF

# Soak gate: the dedicated soak artifact must hold a phase in every
# decade from 10^3 to 10^6, hold its own flatness verdicts, and account
# every request per phase.
python3 - "$SOAK_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

phases = doc.get("phases", [])
tokens = [p.get("tokens", 0) for p in phases]
for decade in (1_000, 10_000, 100_000, 1_000_000):
    if not any(decade <= t < 10 * decade for t in tokens):
        sys.exit(f"{path}: soak phases {tokens} miss the {decade}-token decade")
if not doc.get("p99_flat"):
    sys.exit(f"{path}: p99 not flat: {[p['p99_work'] for p in phases]}")
if not doc.get("maintenance_flat"):
    sys.exit(f"{path}: maintenance not flat: "
             f"{[p['max_block_ops'] for p in phases]}")
per_phase = doc.get("requests_per_phase", 0)
for p in phases:
    if p["completed"] + p["shed"] != per_phase:
        sys.exit(f"{path}: phase {p['tokens']} lost requests: {p}")
    if p["completed"] == 0:
        sys.exit(f"{path}: phase {p['tokens']} served nothing")
if phases[-1]["tokens"] < 1_000_000:
    sys.exit(f"{path}: soak stopped at {phases[-1]['tokens']} tokens")
print(f"{path}: {len(phases)} phases to {phases[-1]['tokens']} tokens, "
      f"p99 work {[p['p99_work'] for p in phases]} — flat")
EOF

# Overload-ramp gate: the service bench must cover the ramp, account for
# every offered request, shed under overload without collapsing, and
# degrade monotonically (small slack for seed wobble).
python3 - "$OVERLOAD_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

rows = doc.get("rows", [])
if not rows:
    sys.exit(f"{path} has no load-ramp rows")
required = ["offered_load", "offered", "admitted", "completed", "goodput",
            "shed_queue_full", "shed_deadline_infeasible", "shed_circuit_open",
            "deadline_met_rate", "p50_latency_ticks", "p99_latency_ticks"]
for row in rows:
    missing = [k for k in required if k not in row]
    if missing:
        sys.exit(f"{path}: row {row.get('offered_load')} missing {missing}")
    shed = (row["shed_queue_full"] + row["shed_deadline_infeasible"]
            + row["shed_circuit_open"])
    if row["completed"] + shed > row["offered"]:
        sys.exit(f"{path}: accounting exceeds offered load in row {row}")
peak = max(rows, key=lambda r: r["offered_load"])
if peak["completed"] == 0:
    sys.exit(f"{path}: goodput collapsed to zero at {peak['offered_load']}x")
if peak["offered_load"] >= 2.0:
    if (peak["shed_queue_full"] + peak["shed_deadline_infeasible"]
            + peak["shed_circuit_open"]) == 0:
        sys.exit(f"{path}: no sheds at {peak['offered_load']}x overload")
lo = min(rows, key=lambda r: r["offered_load"])
if lo["goodput"] + 0.11 < peak["goodput"]:
    sys.exit(f"{path}: goodput not monotone over the ramp "
             f"({lo['goodput']:.2f} at {lo['offered_load']}x vs "
             f"{peak['goodput']:.2f} at {peak['offered_load']}x)")
print(f"{path}: {len(rows)} load points, peak {peak['offered_load']}x "
      f"goodput {peak['goodput']:.2f}, sheds typed and accounted")
EOF

# Cluster gate: every size must converge with identical selection
# verdicts, catch-up must stay O(tail) (bounded by the checkpoint
# interval, 4), and goodput at fixed offered load must rise as serving
# replicas are added.
python3 - "$CLUSTER_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

rows = doc.get("rows", [])
if not rows:
    sys.exit(f"{path} has no cluster rows")
required = ["nodes", "goodput", "offered", "completed", "shed",
            "convergence_ticks", "height", "catchup_prefix_blocks",
            "catchup_tail_blocks", "restart_tail_blocks", "blocks_served",
            "converged"]
for row in rows:
    missing = [k for k in required if k not in row]
    if missing:
        sys.exit(f"{path}: row {row.get('nodes')} missing {missing}")
    if not row["converged"]:
        sys.exit(f"{path}: {row['nodes']}-node cluster did not converge")
    if row["convergence_ticks"] is None:
        sys.exit(f"{path}: {row['nodes']}-node cluster exhausted its ticks")
    if row["catchup_tail_blocks"] > 4:
        sys.exit(f"{path}: {row['nodes']}-node catch-up verified "
                 f"{row['catchup_tail_blocks']} blocks — not O(tail)")
    if row["blocks_served"] == 0:
        sys.exit(f"{path}: {row['nodes']}-node run served no catch-up blocks")
    if row["completed"] + row["shed"] > row["offered"]:
        sys.exit(f"{path}: accounting exceeds offered load in row {row}")
if len(rows) > 1:
    lo = min(rows, key=lambda r: r["nodes"])
    hi = max(rows, key=lambda r: r["nodes"])
    if hi["goodput"] <= lo["goodput"]:
        sys.exit(f"{path}: goodput did not rise with replicas "
                 f"({lo['goodput']:.2f} at {lo['nodes']} vs "
                 f"{hi['goodput']:.2f} at {hi['nodes']})")
sizes = ", ".join(f"{r['nodes']}n={r['goodput']:.2f}" for r in rows)
print(f"{path}: all sizes converged, catch-up O(tail), goodput {sizes}")
EOF

# Byzantine gate: every adversary strength must reach the fully defended
# state (converged at the adversary-free height, every Byzantine peer
# banned with an offense on record, no poisoned ring adopted, selection
# verdicts byte-identical to the adversary-free run, zero honest peers
# accused), and honest goodput at f=1 must stay within 10% of the f=0
# baseline — the defense must not tax the honest majority.
python3 - "$BYZ_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

rows = doc.get("rows", [])
if not rows or rows[0].get("f") != 0:
    sys.exit(f"{path}: missing the adversary-free f=0 baseline row")
required = ["f", "actors", "goodput", "baseline_goodput", "convergence_ticks",
            "height", "all_banned", "no_poison", "snapshot_match",
            "honest_accusations", "offenses", "converged"]
for row in rows:
    missing = [k for k in required if k not in row]
    if missing:
        sys.exit(f"{path}: row f={row.get('f')} missing {missing}")
    if not row["converged"]:
        sys.exit(f"{path}: f={row['f']} did not reach the defended state")
    if not (row["all_banned"] and row["no_poison"] and row["snapshot_match"]):
        sys.exit(f"{path}: f={row['f']} defense incomplete: {row}")
    if row["convergence_ticks"] is None:
        sys.exit(f"{path}: f={row['f']} exhausted its tick budget")
    if row["honest_accusations"] != 0:
        sys.exit(f"{path}: f={row['f']} accused {row['honest_accusations']} "
                 "honest peers on a lossless transport")
    if row["f"] > 0 and not row["offenses"]:
        sys.exit(f"{path}: f={row['f']} banned peers with no offense record")
f0 = rows[0]["goodput"]
f1 = next((r for r in rows if r["f"] == 1), None)
if f1 is None:
    sys.exit(f"{path}: missing the f=1 row the goodput gate needs")
ratio = f1["goodput"] / f0 if f0 else 0.0
if not 0.9 <= ratio <= 1.1:
    sys.exit(f"{path}: f=1 goodput {f1['goodput']:.4f} vs f=0 {f0:.4f} "
             f"(ratio {ratio:.3f}) outside the 10% gate")
print(f"{path}: {len(rows)} strengths defended, "
      f"f=1/f=0 goodput ratio {ratio:.3f} within 10%")
EOF

# Anonymity gate: the replay grid must cover every degrade tier at every
# adversary strength under both sampling modes, attack-aware sampling
# must never lose to baseline at equal (tier, strength) and must win in
# aggregate, every declared Tier::anonymity_score must be backed by the
# measured effective anonymity, and the floor sweep must have answered
# nothing below its declared floor (violations shed typed).
python3 - "$ANON_OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

if not doc.get("replay_identical"):
    sys.exit(f"{path}: adversary replay was not byte-identical")

tiers = doc.get("tiers", [])
if len(tiers) < 3:
    sys.exit(f"{path}: expected all three ladder tiers, got {tiers}")
for t in tiers:
    if t["measured_score"] < t["declared_score"]:
        sys.exit(f"{path}: tier {t['tier']} declares score "
                 f"{t['declared_score']} but measures {t['measured_score']}")
    if t["declared_score"] < 1:
        sys.exit(f"{path}: tier {t['tier']} declares a zero score")

rows = doc.get("rows", [])
strengths = sorted({r["strength"] for r in rows})
modes = sorted({r["mode"] for r in rows})
if len(rows) != len(tiers) * len(modes) * len(strengths) or len(strengths) < 4:
    sys.exit(f"{path}: replay grid incomplete: {len(rows)} rows, "
             f"strengths {strengths}, modes {modes}")
cells = {(r["tier"], r["mode"], r["strength"]): r for r in rows}
for t in tiers:
    for f in strengths:
        base = cells.get((t["tier"], "baseline", f))
        aware = cells.get((t["tier"], "attack-aware", f))
        if base is None or aware is None:
            sys.exit(f"{path}: missing cell ({t['tier']}, f={f})")
        if aware["deanonymized_fraction"] > base["deanonymized_fraction"]:
            sys.exit(f"{path}: attack-aware worse than baseline at "
                     f"({t['tier']}, f={f}): {aware['deanonymized_fraction']:.4f}"
                     f" > {base['deanonymized_fraction']:.4f}")
base_total = doc.get("deanonymized_baseline_total", 0)
aware_total = doc.get("deanonymized_attack_aware_total", base_total)
if aware_total >= base_total:
    sys.exit(f"{path}: attack-aware aggregate {aware_total} does not beat "
             f"baseline {base_total}")

sweep = doc.get("floor_sweep", {})
if sweep.get("answered_below_floor", 1) != 0:
    sys.exit(f"{path}: {sweep.get('answered_below_floor')} requests were "
             "answered below their declared floor")
if sweep.get("answered", 0) == 0:
    sys.exit(f"{path}: floor sweep answered nothing")
if sweep.get("shed_anonymity_floor", 0) == 0 \
        or sweep.get("service_shed_anonymity_floor", 0) == 0:
    sys.exit(f"{path}: floor sweep never exercised the typed floor shed")
if not sweep.get("service_accounting_ok"):
    sys.exit(f"{path}: floored overload accounting broke")
print(f"{path}: {len(rows)} cells, attack-aware {aware_total} vs baseline "
      f"{base_total}, floor sweep answered {sweep['answered']} with 0 below "
      "floor — privacy never degraded")
EOF
