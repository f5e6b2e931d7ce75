//! Turning a run's op timings, spans and counts into the two metric sets:
//! end-to-end (untraced run) and per-layer (traced run).

use dams_core::{CoreMetrics, DegradedSelection, Tier};

use crate::report::{Digest, Metrics};
use crate::stats::{ratio, Summary};
use crate::trace::{Breakdown, Call, Layer, Tracer};
use crate::Outcome;

/// Counts gathered around layer calls, in both runs alike. Every field is
/// a plain count or size, so they are deterministic for a fixed op
/// sequence.
#[derive(Debug, Default)]
pub struct Counts {
    pub ops: u64,
    pub snapshot_hits: u64,
    pub snapshot_misses: u64,
    pub block_ops: Vec<u64>,
    pub answers: u64,
    pub work_units: u64,
    pub tiers_tried: u64,
    pub exact_attempts: u64,
    pub exact_wasted: u64,
    pub bfs_answers: u64,
    pub bfs_candidates: u64,
    pub offered: u64,
    pub shed: u64,
    pub signed_members: u64,
    pub chain_checks: u64,
    pub chain_rejects: u64,
    pub sig_bytes: u64,
    pub block_bytes: Vec<u64>,
    pub wal_fsyncs: u64,
    pub cp_writes: u64,
    /// Encoded bytes of the checkpoints sized (those in the digest's ops).
    pub cp_bytes: u64,
    pub cp_sized: u64,
    pub validations: u64,
    pub validation_rejects: u64,
    /// Coins (spend) or requests (select) tried, retries included.
    pub attempts: u64,
    /// Ladder calls that returned no ring.
    pub ladder_errors: u64,
}

impl Counts {
    /// Fold one ladder answer.
    pub fn answer(&mut self, sel: &DegradedSelection) {
        self.answers += 1;
        self.work_units +=
            sel.selection.stats.diversity_checks + sel.selection.stats.candidates_examined;
        self.tiers_tried += sel.attempts.len() as u64 + 1;
        let exact_tried =
            sel.tier == Tier::ExactBfs || sel.attempts.iter().any(|(t, _)| *t == Tier::ExactBfs);
        if exact_tried {
            self.exact_attempts += 1;
            if sel.tier != Tier::ExactBfs {
                self.exact_wasted += 1;
            }
        }
        if sel.tier == Tier::ExactBfs {
            self.bfs_answers += 1;
            self.bfs_candidates += sel.selection.stats.candidates_examined;
        }
    }
}

/// Stable numeric code of the answering tier (for the digest).
pub fn tier_code(tier: Tier) -> u64 {
    match tier {
        Tier::ExactBfs => 0,
        Tier::Progressive => 1,
        Tier::GameTheoretic => 2,
    }
}

/// Reads the ladder's own per-tier timers around one call, so the traced
/// run can split a ladder call into the exact search (`core.bfs`) and the
/// rest of the ladder (`core.degrade`) without timing inside the crates.
pub struct TierClock {
    before: [u64; 3],
}

impl TierClock {
    pub fn start(core: &CoreMetrics, tracer: &Tracer) -> TierClock {
        let mut before = [0; 3];
        if tracer.is_on() {
            for (b, h) in before.iter_mut().zip(&core.degrade_tier_time) {
                *b = h.sum();
            }
        }
        TierClock { before }
    }

    /// Nanoseconds spent in (exact tier, all tiers) since `start`.
    pub fn elapsed(&self, core: &CoreMetrics) -> (u64, u64) {
        let spent: Vec<u64> = core
            .degrade_tier_time
            .iter()
            .zip(self.before)
            .map(|(h, b)| h.sum().saturating_sub(b))
            .collect();
        (spent[0], spent.iter().sum())
    }
}

/// What every workload accumulates while it runs, and how that becomes
/// its [`Outcome`].
pub struct Run {
    pub tr: Tracer,
    pub counts: Counts,
    pub digest: Digest,
    pub attempted: u64,
    pub failed: u64,
    /// Sums over completed ops, for the end-to-end means.
    pub ring_sizes: u64,
    pub tx_bytes: u64,
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
}

impl Run {
    pub fn new(label: &str) -> Run {
        Run {
            tr: Tracer::new(),
            counts: Counts::default(),
            digest: Digest::new(label),
            attempted: 0,
            failed: 0,
            ring_sizes: 0,
            tx_bytes: 0,
            traced_us: Vec::new(),
            untraced_us: Vec::new(),
        }
    }

    /// Record an op's latency in the half (traced or not) it ran in.
    pub fn timed(&mut self, us: f64) {
        if self.tr.is_on() {
            self.traced_us.push(us);
        } else {
            self.untraced_us.push(us);
        }
    }

    /// The end-to-end metrics (untraced run) or the per-layer ones.
    pub fn finish(self, trace: bool, phase_s: f64, setup_s: &[f64], notes: Vec<String>) -> Outcome {
        let completed = self.counts.ops.max(1) as f64;
        let mut op_us = self.untraced_us.clone();
        op_us.extend(&self.traced_us);
        let metrics = if trace {
            let overhead = overhead_frac(&self.traced_us, &self.untraced_us);
            per_layer(&self.tr.breakdown(), &self.counts, overhead)
        } else {
            EndToEnd {
                op_us: &op_us,
                phase_s,
                completed: self.counts.ops,
                attempted: self.attempted,
                failed: self.failed,
                attempts: self.counts.attempts,
                ring_size_mean: self.ring_sizes as f64 / completed,
                tx_bytes_mean: self.tx_bytes as f64 / completed,
                setup_s,
            }
            .metrics()
        };
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            digest: self.digest.finish(),
            notes,
            op_us,
        }
    }
}

/// The end-to-end metric set.
pub struct EndToEnd<'a> {
    pub op_us: &'a [f64],
    pub phase_s: f64,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Coins or requests tried, so retries show as a cost.
    pub attempts: u64,
    pub ring_size_mean: f64,
    pub tx_bytes_mean: f64,
    pub setup_s: &'a [f64],
}

impl EndToEnd<'_> {
    pub fn metrics(&self) -> Metrics {
        let op = Summary::of(self.op_us);
        let setup = Summary::of(self.setup_s);
        let mut m = Metrics::default();
        m.put("op_p50_us", op.p50, "us");
        m.put("op_p99_us", op.p99, "us");
        m.put(
            "ops_per_s",
            ratio(self.completed as f64, self.phase_s),
            "1/s",
        );
        m.put(
            "ok_frac",
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
            "ratio",
        );
        m.put(
            "attempts_per_op",
            ratio(self.attempts as f64, self.attempted as f64),
            "count",
        );
        m.put("ring_size_mean", self.ring_size_mean, "members");
        m.put("tx_bytes_mean", self.tx_bytes_mean, "bytes");
        m.put("setup_s", setup.p50, "s");
        m.put("peak_rss_mb", crate::machine::peak_rss_mb(), "MB");
        m
    }
}

fn p50(b: &Breakdown, call: Call) -> f64 {
    Summary::of(b.durations(call)).p50
}

fn p99(b: &Breakdown, call: Call) -> f64 {
    Summary::of(b.durations(call)).p99
}

fn mean_u64(v: &[u64]) -> f64 {
    ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
}

/// The per-layer metric set. Layers a workload never calls read 0.
pub fn per_layer(b: &Breakdown, c: &Counts, overhead_frac: f64) -> Metrics {
    let ops = c.ops as f64;
    let mut m = Metrics::default();
    m.put(
        "core.index.snapshot_us_p50",
        p50(b, Call::IndexSnapshot),
        "us",
    );
    m.put(
        "core.index.snapshot_hit_frac",
        ratio(
            c.snapshot_hits as f64,
            (c.snapshot_hits + c.snapshot_misses) as f64,
        ),
        "ratio",
    );
    m.put("core.index.apply_us_p50", p50(b, Call::IndexApply), "us");
    m.put("core.index.block_ops_mean", mean_u64(&c.block_ops), "count");

    m.put(
        "core.degrade.select_us_p50",
        p50(b, Call::DegradeSelect),
        "us",
    );
    m.put(
        "core.degrade.select_us_p99",
        p99(b, Call::DegradeSelect),
        "us",
    );
    m.put(
        "core.degrade.work_mean",
        ratio(c.work_units as f64, c.answers as f64),
        "count",
    );
    m.put(
        "core.degrade.tiers_per_answer",
        ratio(c.tiers_tried as f64, c.answers as f64),
        "count",
    );
    m.put(
        "core.degrade.exact_probe_waste_frac",
        ratio(c.exact_wasted as f64, c.exact_attempts as f64),
        "ratio",
    );

    m.put("core.bfs.select_us_p50", p50(b, Call::BfsExact), "us");
    m.put(
        "core.bfs.candidates_mean",
        ratio(c.bfs_candidates as f64, c.bfs_answers as f64),
        "count",
    );

    m.put(
        "svc.frontend.select_us_p50",
        p50(b, Call::FrontendSelect),
        "us",
    );
    m.put(
        "svc.frontend.shed_frac",
        ratio(c.shed as f64, c.offered as f64),
        "ratio",
    );

    m.put("crypto.blsag.sign_us_p50", p50(b, Call::BlsagSign), "us");
    let sign_total: f64 = b.durations(Call::BlsagSign).iter().sum();
    let traced_members =
        ratio(c.signed_members as f64, ops) * b.durations(Call::BlsagSign).len() as f64;
    m.put(
        "crypto.blsag.sign_us_per_member",
        ratio(sign_total, traced_members),
        "us",
    );

    m.put(
        "blockchain.chain.submit_us_p50",
        p50(b, Call::ChainSubmit),
        "us",
    );
    m.put(
        "blockchain.chain.seal_us_p50",
        p50(b, Call::ChainSeal),
        "us",
    );
    m.put(
        "blockchain.chain.verify_block_us_p50",
        p50(b, Call::ChainVerifyBlock),
        "us",
    );
    m.put(
        "blockchain.chain.adopt_us_p50",
        p50(b, Call::ChainAdopt),
        "us",
    );
    m.put(
        "blockchain.chain.reject_frac",
        ratio(c.chain_rejects as f64, c.chain_checks as f64),
        "ratio",
    );

    m.put(
        "blockchain.codec.sig_bytes_per_member",
        ratio(c.sig_bytes as f64, c.signed_members as f64),
        "bytes",
    );
    m.put(
        "blockchain.codec.block_bytes_mean",
        mean_u64(&c.block_bytes),
        "bytes",
    );

    m.put("store.wal.append_us_p50", p50(b, Call::WalAppend), "us");
    m.put("store.wal.append_us_p99", p99(b, Call::WalAppend), "us");
    m.put(
        "store.wal.fsyncs_per_op",
        ratio(c.wal_fsyncs as f64, ops),
        "count",
    );

    m.put(
        "store.checkpoint.write_us_p50",
        p50(b, Call::CheckpointWrite),
        "us",
    );
    m.put(
        "store.checkpoint.bytes_mean",
        ratio(c.cp_bytes as f64, c.cp_sized as f64),
        "bytes",
    );
    m.put(
        "store.checkpoint.writes_per_op",
        ratio(c.cp_writes as f64, ops),
        "count",
    );

    m.put(
        "node.indexing.block_delta_us_p50",
        p50(b, Call::BlockDelta),
        "us",
    );
    m.put(
        "node.validate.validate_us_p50",
        p50(b, Call::ValidateRing),
        "us",
    );
    m.put(
        "node.validate.reject_frac",
        ratio(c.validation_rejects as f64, c.validations as f64),
        "ratio",
    );
    m.put("node.network.adopt_us_p50", p50(b, Call::PeerAdopt), "us");

    for layer in Layer::ALL {
        m.put(
            &format!("{}.self_frac", layer.name()),
            b.self_frac(layer),
            "ratio",
        );
        m.put(
            &format!("{}.self_us_per_op", layer.name()),
            b.self_us_per_op(layer),
            "us",
        );
    }
    m.put("trace.unattributed_frac", b.unattributed_frac(), "ratio");
    m.put("trace.overhead_frac", overhead_frac, "ratio");
    m
}

/// Traced over untraced median op time, minus one.
pub fn overhead_frac(traced_us: &[f64], untraced_us: &[f64]) -> f64 {
    let t = Summary::of(traced_us).p50;
    let u = Summary::of(untraced_us).p50;
    ratio(t, u) - if u > 0.0 { 1.0 } else { 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in BENCHMARK.json,
    /// and every declared metric is printed.
    #[test]
    fn metric_names_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e = EndToEnd {
            op_us: &[1.0],
            phase_s: 1.0,
            completed: 1,
            attempted: 1,
            failed: 0,
            attempts: 1,
            ring_size_mean: 3.0,
            tx_bytes_mean: 100.0,
            setup_s: &[1.0],
        }
        .metrics();
        let layers = per_layer(&Breakdown::default(), &Counts::default(), 0.0);
        let printed: Vec<&str> = e2e.names().chain(layers.names()).collect();
        for name in &printed {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = manifest.matches("\"name\": ").count();
        assert_eq!(declared, printed.len() + crate::WORKLOADS.len());
    }
}
