//! A deterministic fault-injecting transport.
//!
//! [`FaultChannel`] carries raw frames between numbered endpoints and
//! **drops**, **duplicates**, **reorders**, **delays**, and **corrupts**
//! them, and can **partition** the endpoints and later heal them. It
//! knows nothing about blocks: frames go in, `(src, dest, bytes)` triples
//! come out when due. Every fault decision is drawn from a single seeded
//! PRNG stream, so an entire adversarial run — including which byte of
//! which frame was flipped — replays exactly from one `u64` seed.
//!
//! [`crate::gossip::Cluster`] runs its typed gossip protocol (push
//! announcements, tip anti-entropy, pull range repair) over this channel,
//! and every block a replica fetches crosses it. Recovery relies on the
//! node-layer robustness machinery: bounded inboxes and orphan pools, TTL
//! eviction, and periodic anti-entropy tip announcements answered by
//! range requests. The claim the property tests pin down: for any seed,
//! after the faults stop the replicas converge on identical tips and
//! identical TokenMagic batch lists, with zero panics along the way.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::NodeError;
use crate::obs::NodeMetrics;

/// Per-delivery fault probabilities and knobs. All probabilities are in
/// `[0, 1]` and evaluated independently per message copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a message copy is silently dropped.
    pub drop_prob: f64,
    /// Probability a message copy is duplicated (the copy itself may then
    /// be dropped/delayed/corrupted independently).
    pub dup_prob: f64,
    /// Probability a message copy is delayed by 1..=`max_delay` ticks.
    pub delay_prob: f64,
    /// Maximum delivery delay, in channel ticks.
    pub max_delay: u64,
    /// Probability one byte of the encoded message is flipped.
    pub corrupt_prob: f64,
    /// Whether same-tick deliveries are shuffled (reordering).
    pub reorder: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.10,
            dup_prob: 0.10,
            delay_prob: 0.25,
            max_delay: 6,
            corrupt_prob: 0.05,
            reorder: true,
        }
    }
}

impl FaultConfig {
    /// A fault-free configuration (useful as a control group).
    pub fn lossless() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            corrupt_prob: 0.0,
            reorder: false,
        }
    }
}

/// What the adversary did, and what the receivers made of it.
///
/// The delivery-side fields (`decode_rejected`, `delivered`,
/// `inbox_rejected`) count only frames that reached a live replica:
/// frames addressed to a down, dormant or Byzantine slot count in `sent`
/// and the fault fields, but in no delivery-side field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frame copies handed to the channel (before fault decisions).
    pub sent: u64,
    /// Copies dropped in flight.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Copies held back by a delivery delay.
    pub delayed: u64,
    /// Copies with a byte flipped.
    pub corrupted: u64,
    /// Frames a live receiver refused at decode, digest or attribution
    /// checks (corruption caught).
    pub decode_rejected: u64,
    /// Staged blocks a full inbox refused at release (back-pressure).
    pub inbox_rejected: u64,
    /// Sends suppressed because source and destination were partitioned.
    pub partition_blocked: u64,
    /// Block frames that passed every check and were staged. Tip, range,
    /// evidence and refusal frames are not counted.
    pub delivered: u64,
}

/// One message copy travelling through the faulty network. The source
/// endpoint is transport metadata (the simulated analogue of the TCP
/// connection a frame arrived on): corruption can garble the payload but
/// never re-attribute a frame to a different sender.
#[derive(Debug, Clone)]
struct InFlight {
    src: usize,
    dest: usize,
    bytes: Vec<u8>,
    due: u64,
}

/// The seeded fault gauntlet as a reusable transport.
///
/// Every frame handed to [`FaultChannel::send_from`] runs the full
/// adversary: duplication, drops, single-byte corruption, delivery delay,
/// and (on [`FaultChannel::advance_attributed`]) same-tick reordering.
/// Endpoints can be split into partition components; sends across the
/// split are suppressed and counted. All randomness comes from one
/// seeded PRNG, so the whole run replays from a single `u64`.
pub struct FaultChannel {
    cfg: FaultConfig,
    rng: StdRng,
    in_flight: Vec<InFlight>,
    /// Partition component id per endpoint; equal ids can talk.
    partition: Vec<usize>,
    tick: u64,
    pub stats: FaultStats,
}

impl FaultChannel {
    /// A channel between `endpoints` peers whose every fault decision
    /// derives from `seed`.
    pub fn new(endpoints: usize, seed: u64, cfg: FaultConfig) -> Self {
        FaultChannel {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            partition: vec![0; endpoints],
            tick: 0,
            stats: FaultStats::default(),
        }
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether nothing is in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Split the network: endpoints listed in `isolated` form one
    /// component, everyone else the other. Unknown ids yield a typed
    /// error.
    pub fn partition(&mut self, isolated: &[usize]) -> Result<(), NodeError> {
        if let Some(&bad) = isolated.iter().find(|&&i| i >= self.partition.len()) {
            return Err(NodeError::UnknownPeer(bad));
        }
        for (i, comp) in self.partition.iter_mut().enumerate() {
            *comp = usize::from(isolated.contains(&i));
        }
        Ok(())
    }

    /// Heal all partitions: every endpoint can talk to every other again.
    pub fn heal(&mut self) {
        self.partition.fill(0);
    }

    fn reachable(&self, a: usize, b: usize) -> bool {
        self.partition[a] == self.partition[b]
    }

    /// Push one frame from `src` toward `dest` through the fault gauntlet.
    pub fn send_from(&mut self, src: usize, dest: usize, bytes: Vec<u8>) {
        self.stats.sent += 1;
        NodeMetrics::global().bus_sent.inc();
        if self.rng.gen_bool(self.cfg.dup_prob.clamp(0.0, 1.0)) {
            self.stats.duplicated += 1;
            NodeMetrics::global().bus_duplicated.inc();
            let copy = bytes.clone();
            self.enqueue_copy(src, dest, copy);
        }
        self.enqueue_copy(src, dest, bytes);
    }

    /// [`FaultChannel::send_from`] honouring the partition: a frame across
    /// the split is suppressed and counted. Returns whether the frame
    /// entered the channel.
    pub fn send_reachable(&mut self, src: usize, dest: usize, bytes: Vec<u8>) -> bool {
        if !self.reachable(src, dest) {
            self.stats.partition_blocked += 1;
            NodeMetrics::global().bus_partition_blocked.inc();
            return false;
        }
        self.send_from(src, dest, bytes);
        true
    }

    fn enqueue_copy(&mut self, src: usize, dest: usize, mut bytes: Vec<u8>) {
        let metrics = NodeMetrics::global();
        if self.rng.gen_bool(self.cfg.drop_prob.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            metrics.bus_dropped.inc();
            return;
        }
        if !bytes.is_empty() && self.rng.gen_bool(self.cfg.corrupt_prob.clamp(0.0, 1.0)) {
            let idx = self.rng.gen_range(0..bytes.len());
            bytes[idx] ^= 1u8 << self.rng.gen_range(0..8u32);
            self.stats.corrupted += 1;
            metrics.bus_corrupted.inc();
        }
        let due =
            if self.cfg.max_delay > 0 && self.rng.gen_bool(self.cfg.delay_prob.clamp(0.0, 1.0)) {
                self.stats.delayed += 1;
                metrics.bus_delayed.inc();
                self.tick + self.rng.gen_range(1..=self.cfg.max_delay)
            } else {
                self.tick
            };
        self.in_flight.push(InFlight {
            src,
            dest,
            bytes,
            due,
        });
    }

    /// Advance one tick and collect every frame due for delivery as
    /// `(src, dest, bytes)` triples, shuffled when reordering is on. The
    /// source is what the peer-defense layer attributes misbehavior to.
    pub fn advance_attributed(&mut self) -> Vec<(usize, usize, Vec<u8>)> {
        self.tick += 1;
        let mut due: Vec<InFlight> = Vec::new();
        let mut waiting: Vec<InFlight> = Vec::new();
        for m in self.in_flight.drain(..) {
            if m.due <= self.tick {
                due.push(m);
            } else {
                waiting.push(m);
            }
        }
        self.in_flight = waiting;
        if self.cfg.reorder {
            due.shuffle(&mut self.rng);
        }
        due.into_iter().map(|m| (m.src, m.dest, m.bytes)).collect()
    }

    /// Drop every in-flight frame addressed to `dest` — it crashed, and
    /// traffic aimed at it dies with it.
    pub fn drop_addressed_to(&mut self, dest: usize) {
        self.in_flight.retain(|m| m.dest != dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_replays_and_drops_addressed_frames() {
        let mut a = FaultChannel::new(3, 9, FaultConfig::default());
        let mut b = FaultChannel::new(3, 9, FaultConfig::default());
        for ch in [&mut a, &mut b] {
            for i in 0..20 {
                ch.send_from(0, i % 3, vec![i as u8; 8]);
            }
        }
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..12 {
            da.extend(a.advance_attributed());
            db.extend(b.advance_attributed());
        }
        assert_eq!(da, db, "channel schedule must replay from the seed");
        assert_eq!(a.stats, b.stats);

        let mut c = FaultChannel::new(2, 1, FaultConfig::lossless());
        c.send_from(1, 0, vec![1]);
        c.send_from(0, 1, vec![2]);
        c.drop_addressed_to(1);
        let due = c.advance_attributed();
        assert_eq!(due, vec![(1, 0, vec![1])]);
        assert!(c.idle());
    }

    #[test]
    fn partition_blocks_traffic_until_heal() {
        let mut c = FaultChannel::new(3, 11, FaultConfig::lossless());
        assert_eq!(c.partition(&[5]).unwrap_err(), NodeError::UnknownPeer(5));
        c.partition(&[2]).unwrap();
        assert!(!c.send_reachable(0, 2, vec![1]), "crossed the split");
        assert!(!c.send_reachable(2, 1, vec![2]), "crossed the split");
        assert!(c.send_reachable(0, 1, vec![3]), "same side must talk");
        assert_eq!(c.stats.partition_blocked, 2);
        assert_eq!(c.advance_attributed(), vec![(0, 1, vec![3])]);
        c.heal();
        assert!(c.send_reachable(0, 2, vec![4]));
        assert_eq!(c.advance_attributed(), vec![(0, 2, vec![4])]);
        assert_eq!(c.stats.sent, 2, "blocked sends never enter the channel");
    }
}
