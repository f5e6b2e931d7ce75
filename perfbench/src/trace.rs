//! In-memory span recorder for the traced run.
//!
//! Every span is opened by the benchmark itself around one call into a
//! layer's public functions. Spans stay in memory until the run ends and
//! are then reduced to per-call durations and per-layer self time: a
//! span's self time is its duration minus the durations of its direct
//! children. The op span's own self time is the part of an op that no
//! layer span covers (`trace.unattributed_frac`).
//!
//! When the tracer is off, [`Tracer::enter`] and [`Tracer::exit`] read no
//! clock and record nothing, so the untraced run times only whole ops.

use std::time::Instant;

/// The layers of one spend, named after the crate modules they call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    CoreIndex,
    CoreDegrade,
    CoreBfs,
    SvcFrontend,
    CryptoBlsag,
    BlockchainChain,
    StoreWal,
    StoreCheckpoint,
    NodeIndexing,
    NodeValidate,
    NodeNetwork,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::CoreIndex,
        Layer::CoreDegrade,
        Layer::CoreBfs,
        Layer::SvcFrontend,
        Layer::CryptoBlsag,
        Layer::BlockchainChain,
        Layer::StoreWal,
        Layer::StoreCheckpoint,
        Layer::NodeIndexing,
        Layer::NodeValidate,
        Layer::NodeNetwork,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreIndex => "core.index",
            Layer::CoreDegrade => "core.degrade",
            Layer::CoreBfs => "core.bfs",
            Layer::SvcFrontend => "svc.frontend",
            Layer::CryptoBlsag => "crypto.blsag",
            Layer::BlockchainChain => "blockchain.chain",
            Layer::StoreWal => "store.wal",
            Layer::StoreCheckpoint => "store.checkpoint",
            Layer::NodeIndexing => "node.indexing",
            Layer::NodeValidate => "node.validate",
            Layer::NodeNetwork => "node.network",
        }
    }
}

/// One kind of timed call. `Op` is the root span of every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Op,
    IndexSnapshot,
    IndexApply,
    DegradeSelect,
    BfsExact,
    FrontendSelect,
    BlsagSign,
    ChainSubmit,
    ChainSeal,
    ChainVerifyBlock,
    ChainAdopt,
    WalAppend,
    CheckpointMaybe,
    CheckpointWrite,
    BlockDelta,
    ValidateRing,
    PeerAdopt,
}

impl Call {
    pub fn layer(self) -> Option<Layer> {
        Some(match self {
            Call::Op => return None,
            Call::IndexSnapshot | Call::IndexApply => Layer::CoreIndex,
            Call::DegradeSelect => Layer::CoreDegrade,
            Call::BfsExact => Layer::CoreBfs,
            Call::FrontendSelect => Layer::SvcFrontend,
            Call::BlsagSign => Layer::CryptoBlsag,
            Call::ChainSubmit | Call::ChainSeal | Call::ChainVerifyBlock | Call::ChainAdopt => {
                Layer::BlockchainChain
            }
            Call::WalAppend => Layer::StoreWal,
            Call::CheckpointMaybe | Call::CheckpointWrite => Layer::StoreCheckpoint,
            Call::BlockDelta => Layer::NodeIndexing,
            Call::ValidateRing => Layer::NodeValidate,
            Call::PeerAdopt => Layer::NodeNetwork,
        })
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    call: Call,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// The span recorder (see the module docs).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off; takes effect at the next root span.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, call: Call) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            call,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans closed out of order");
        let span = &mut self.spans[id as usize];
        span.dur_ns = end - span.start_ns;
    }

    /// Time one leaf call.
    pub fn span<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let open = self.enter(call);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a child of the innermost open span whose duration was
    /// measured elsewhere (a nested call's own timer). Returns
    /// its handle so synthetic children can nest under it.
    pub fn child(&mut self, call: Call, dur_ns: u64) -> Option<u32> {
        let parent = self.stack.last().copied();
        self.child_of(parent, call, dur_ns)
    }

    /// Record a span of known duration under `parent`, ending now.
    pub fn child_of(&mut self, parent: Option<u32>, call: Call, dur_ns: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.spans.push(Span {
            call,
            parent: parent.unwrap_or(NO_PARENT),
            start_ns,
            dur_ns,
        });
        Some(id)
    }

    /// Reduce the recorded spans (see [`Breakdown`]).
    pub fn breakdown(&self) -> Breakdown {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns;
            }
        }
        let mut b = Breakdown::default();
        for (i, span) in self.spans.iter().enumerate() {
            let self_ns = span.dur_ns.saturating_sub(child_ns[i]);
            b.durations
                .entry(span.call)
                .or_default()
                .push(span.dur_ns as f64 / 1e3);
            match span.call.layer() {
                Some(layer) => *b.layer_self_ns.entry(layer).or_default() += self_ns,
                None => {
                    b.op_ns += span.dur_ns;
                    b.op_self_ns += self_ns;
                    b.ops += 1;
                }
            }
        }
        b
    }
}

/// Per-call durations and per-layer self time of a traced run.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Inclusive durations in µs, per call kind.
    pub durations: std::collections::BTreeMap<Call, Vec<f64>>,
    /// Self time per layer, ns.
    pub layer_self_ns: std::collections::BTreeMap<Layer, u64>,
    /// Total duration of all op spans, ns.
    pub op_ns: u64,
    /// Part of the op spans no layer span covers, ns.
    pub op_self_ns: u64,
    /// Traced ops.
    pub ops: u64,
}

impl Breakdown {
    pub fn durations(&self, call: Call) -> &[f64] {
        self.durations.get(&call).map_or(&[], Vec::as_slice)
    }

    pub fn unattributed_frac(&self) -> f64 {
        crate::stats::ratio(self.op_self_ns as f64, self.op_ns as f64)
    }

    /// A layer's self time as a share of op time.
    pub fn self_frac(&self, layer: Layer) -> f64 {
        let own = self.layer_self_ns.get(&layer).copied().unwrap_or(0);
        crate::stats::ratio(own as f64, self.op_ns as f64)
    }

    /// A layer's mean self time per traced op, µs.
    pub fn self_us_per_op(&self, layer: Layer) -> f64 {
        let own = self.layer_self_ns.get(&layer).copied().unwrap_or(0);
        crate::stats::ratio(own as f64 / 1e3, self.ops as f64)
    }
}

/// Whether op `i` of a traced run records spans. Half the ops do, picked
/// by a hash of the op index so no periodic stage (a checkpoint every
/// fourth block, a write every sixteenth request) lines up with the
/// choice; the other half measure the untraced op time the overhead is
/// taken against.
pub fn traced_op(i: u64) -> bool {
    let mut x = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.set_on(true);
        let op = t.enter(Call::Op);
        let peer = t.enter(Call::PeerAdopt);
        t.child(Call::WalAppend, 0);
        t.exit(peer);
        t.child(Call::BlsagSign, 0);
        t.exit(op);
        let b = t.breakdown();
        assert_eq!(b.ops, 1);
        assert_eq!(b.durations(Call::PeerAdopt).len(), 1);
        assert_eq!(b.durations(Call::WalAppend).len(), 1);
        let layers: u64 = b.layer_self_ns.values().sum();
        assert_eq!(
            layers + b.op_self_ns,
            b.op_ns,
            "self times partition op time"
        );
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let op = t.enter(Call::Op);
        t.span(Call::ChainSeal, || ());
        t.exit(op);
        assert_eq!(t.breakdown().ops, 0);
    }

    #[test]
    fn traced_half_is_balanced_and_aperiodic() {
        let traced = (0..10_000u64).filter(|&i| traced_op(i)).count();
        assert!((4_800..5_200).contains(&traced), "{traced}");
        for period in [2u64, 4, 16] {
            let aligned = (0..10_000u64)
                .filter(|i| i % period == 0)
                .filter(|&i| traced_op(i))
                .count() as f64;
            let share = aligned / (10_000 / period) as f64;
            assert!((0.4..0.6).contains(&share), "period {period}: {share}");
        }
    }
}
