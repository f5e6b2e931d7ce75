#!/usr/bin/env bash
# Full verification recipe for the DA-MS reproduction.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --workspace --all-targets

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace

echo "== docs =="
cargo doc --workspace --no-deps

echo "== perfbench =="
# The benchmark is a package of its own, outside the workspace: build it
# the way the benchmark command does, run its unit tests, and run each
# workload for one second. The digest covers the first requests' answers
# and work counters, so it pins what the exact BFS and the spend path
# return and count; a change that moves them must update these values.
perfbench() {
  cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- "$@"
}
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for expected in \
  spend-long=deac307696b987424c4c6f2e99a5374dc9df4a53451876bc1138566e0d087e5b \
  spend-wide=275653690d957d4661257e0bcef2494e969fb09118f0da2f732974687a69ddc7 \
  select-exact=9d0cf2c8e9ca29455951e10b88cc233d6b13f5a4828fc26491851c9849a10f55; do
  workload="${expected%%=*}" want="${expected#*=}"
  if ! out="$(perfbench --workload "$workload" --seed 1 --seconds 1)"; then
    echo "perfbench $workload exited non-zero" >&2
    exit 1
  fi
  got="$(printf '%s\n' "$out" | sed -n 's/^{"digest": .*"sha256": "\([0-9a-f]*\)".*/\1/p')"
  if [ "$got" != "$want" ]; then
    echo "perfbench $workload digest ${got:-missing}, expected $want" >&2
    exit 1
  fi
  echo "perfbench $workload ok, digest $want"
done

echo "== examples =="
for ex in quickstart adversary evoting healthcare fee_saver storage_sharing; do
  cargo run --release -q -p dams-bench --example "$ex" > /dev/null
  echo "example $ex ok"
done

echo "== experiment shapes (quick) =="
cargo run --release -q -p dams-bench --bin paper-experiments -- \
  fig5 fig8 --samples 30 --check-shapes > /dev/null

echo "== metrics determinism =="
# Two runs of the same seeded scenario must render byte-identical
# deterministic snapshots (the dams-obs contract; see DESIGN.md).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p dams-bench --bin dams-cli -- --faults 42 --metrics json > "$tmpdir/a.json"
cargo run --release -q -p dams-bench --bin dams-cli -- --faults 42 --metrics json > "$tmpdir/b.json"
cmp "$tmpdir/a.json" "$tmpdir/b.json"
echo "deterministic snapshots identical"

echo "== crash recovery =="
# Durable-store gate: a scripted mid-record power loss must recover CLEAN,
# the crashed WAL must be a byte-identical prefix of an uninterrupted run,
# and a flipped byte in a committed record must fail recovery loudly.
cli() { cargo run --release -q -p dams-bench --bin dams-cli -- "$@"; }
crashdir="$tmpdir/store-crash" refdir="$tmpdir/store-ref"
set +e
cli run --store-dir "$crashdir" --blocks 8 --seed 42 --crash-after-appends 5 \
  > /dev/null 2>&1
crash_rc=$?
set -e
if [ "$crash_rc" -eq 0 ]; then
  echo "scripted crash did not abort the run" >&2
  exit 1
fi
cli recover --store-dir "$crashdir" | tee RECOVERY_report.txt
grep -q "verdict: CLEAN" RECOVERY_report.txt
cli run --store-dir "$refdir" --blocks 8 --seed 42 > /dev/null
cmp -n "$(stat -c%s "$crashdir/wal.bin")" "$crashdir/wal.bin" "$refdir/wal.bin"
echo "crashed WAL is a byte-identical prefix of the uninterrupted run"
cli run --store-dir "$crashdir" --blocks 8 --seed 42 > /dev/null
cmp "$crashdir/wal.bin" "$refdir/wal.bin"
echo "resumed run converged on the uninterrupted WAL"
flipdir="$tmpdir/store-flip"
cp -r "$refdir" "$flipdir"
size="$(stat -c%s "$flipdir/wal.bin")"
orig="$(od -An -tu1 -j $((size - 3)) -N1 "$flipdir/wal.bin" | tr -d ' ')"
printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
  | dd of="$flipdir/wal.bin" bs=1 seek=$((size - 3)) conv=notrunc status=none
if cli recover --store-dir "$flipdir" > /dev/null 2>&1; then
  echo "corrupted WAL recovered with exit 0" >&2
  exit 1
fi
echo "flipped byte detected (recover exited non-zero)"

echo "== cluster convergence =="
# Replication gate: a 3-node cluster must survive the scripted scenario —
# gossip under the default fault model, a minority partition healed
# mid-run, a crash/restart recovered from the replica's own store plus a
# peer WAL-tail stream, and a late joiner bootstrapped from a checkpoint
# bundle — converging on byte-identical tips and identical (c, l)
# selection verdicts.
cli cluster-sim --node-counts 3 --seed 42 \
  --out "$tmpdir/bench_cluster_gate.json" --report CLUSTER_report.txt
grep -q "verdict: CONVERGED" CLUSTER_report.txt
if grep -q "verdict: DIVERGED" CLUSTER_report.txt; then
  echo "cluster scenario diverged" >&2
  exit 1
fi
echo "3-node partition/crash/join scenario converged"

echo "== byzantine defense =="
# Byzantine gate: an f=1 adversary (the standard mix's equivocator)
# against a 4-replica honest majority on a lossless transport must reach
# the fully defended state — honest tips byte-identical at the
# adversary-free height, the adversary banned by every honest replica
# with the offense on record, and the selection verdict identical to the
# same-seed adversary-free run. The report lands at the repo root for CI
# artifact upload (the bench snapshot below overwrites it with the full
# f=0..3 sweep).
cli cluster-sim --byzantine --seed 42 --honest 4 --max-f 1 \
  --out "$tmpdir/bench_byzantine_gate.json" --report BYZ_report.txt
grep -q "verdict: CONVERGED" BYZ_report.txt
if grep -q "verdict: COMPROMISED" BYZ_report.txt; then
  echo "byzantine scenario compromised" >&2
  exit 1
fi
echo "f=1 adversarial-peer scenario defended (converged, adversary banned)"

echo "== sim-vs-real differential =="
# Differential gate: replay the seeded overload trace through the real
# concurrent runtime (worker threads, wire frames, completion drains)
# and the virtual-tick model, and require the accounting to match at
# every load point. The report and ramp land at the repo root for CI
# artifact upload.
cli serve --real --seed 42 --loads 1,2,4 \
  --out BENCH_runtime.json --diff-report DIFF_report.txt
if [ "$(tail -n 1 DIFF_report.txt)" != "verdict: MATCH" ]; then
  echo "differential report does not end with verdict: MATCH" >&2
  exit 1
fi
# Flake guard: the virtual-pace runtime is deterministic despite real
# threads — three back-to-back runs must produce byte-identical reports
# and ramp rows.
for i in 1 2 3; do
  cli serve --real --seed 42 --loads 1,2,4 \
    --out "$tmpdir/bench_runtime_$i.json" \
    --diff-report "$tmpdir/diff_report_$i.txt" > /dev/null
done
cmp "$tmpdir/diff_report_1.txt" "$tmpdir/diff_report_2.txt"
cmp "$tmpdir/diff_report_1.txt" "$tmpdir/diff_report_3.txt"
cmp "$tmpdir/bench_runtime_1.json" "$tmpdir/bench_runtime_2.json"
cmp "$tmpdir/bench_runtime_1.json" "$tmpdir/bench_runtime_3.json"
cmp "$tmpdir/diff_report_1.txt" DIFF_report.txt
echo "3x back-to-back differential runs byte-identical"
# The wire protocol is transport-agnostic: the same trace over loopback
# TCP must also match the model.
cli serve --real --seed 42 --loads 4 --transport tcp \
  --out "$tmpdir/bench_runtime_tcp.json" \
  --diff-report "$tmpdir/diff_report_tcp.txt" > /dev/null
grep -q "verdict: MATCH" "$tmpdir/diff_report_tcp.txt"
echo "loopback-TCP transport matches the model"

echo "== anonymity under attack =="
# Adversary-replay gate: the seeded attack suite must reach its PASS
# verdict — every declared Tier::anonymity_score backed by the measured
# effective anonymity, attack-aware sampling never worse than baseline
# at equal (tier, strength), and no floored request answered below its
# floor (violations shed as the typed AnonymityFloor). The report lands
# at the repo root for CI artifact upload; a second run must replay
# byte-identically.
cli bench --anonymity --seed 42 \
  --out "$tmpdir/bench_anonymity_gate.json" --report ANON_report.txt
grep -q "verdict: PASS" ANON_report.txt
cli bench --anonymity --seed 42 \
  --out "$tmpdir/bench_anonymity_2.json" \
  --report "$tmpdir/anon_report_2.txt" > /dev/null
cmp ANON_report.txt "$tmpdir/anon_report_2.txt"
cmp "$tmpdir/bench_anonymity_gate.json" "$tmpdir/bench_anonymity_2.json"
echo "adversary suite defended; replay byte-identical"

echo "== bench snapshot =="
./scripts/bench_snapshot.sh BENCH_baseline.json 42

echo "== committed artifacts =="
# Drift gate: the gates above regenerated these artifacts from seed 42,
# and each regenerates byte-identically, so a change that moves
# simulated behaviour must commit the regenerated files.
# BENCH_selection.json and BENCH_soak.json hold wall-clock timings and
# are left out.
git diff --exit-code -- BENCH_overload.json BENCH_runtime.json DIFF_report.txt \
  BENCH_cluster.json BENCH_byzantine.json BYZ_report.txt \
  BENCH_anonymity.json ANON_report.txt
echo "committed artifacts match their regeneration"

echo "all checks passed"
