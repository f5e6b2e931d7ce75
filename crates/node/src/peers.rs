//! Byzantine peer defense: scoring, rate limits, quarantine → ban
//! escalation, and equivocation proofs.
//!
//! PR 6's cluster survives *transport* faults (drops, corruption,
//! partitions) but trusts every well-formed frame. This layer defends the
//! protocol itself against peers that are live and well-encoded but
//! hostile:
//!
//! * **Attribution** — every frame arrives with a transport-level source
//!   (the simulated analogue of the TCP connection it came in on), and
//!   every block announcement carries a signed [`Attestation`] by its
//!   sender: `sig(origin ‖ height ‖ block-hash)` under the sender's
//!   registered identity key. Rejections name the peer, the offense, and
//!   the height.
//! * **Token buckets** — per-peer, per-frame-kind rate limits. A peer
//!   that exceeds its bucket has the frame dropped *before* any decode
//!   work and earns a [`Misbehavior::FloodExceeded`] record.
//! * **Severity-weighted scores** — each [`Misbehavior`] adds its
//!   severity to the peer's score. Scores decay every tick by a base
//!   rate plus seeded jitter (so replays are exact but thresholds are
//!   not phase-locked to the attack). Crossing the quarantine threshold
//!   silences the peer for a jittered window; crossing the ban threshold
//!   — or re-offending after a quarantine, or leaning on a quarantined
//!   connection — removes it for good.
//! * **Equivocation proofs** — two valid [`Attestation`]s by one origin
//!   for different blocks at one height are a self-authenticating
//!   [`EquivocationProof`]. The detecting node bans the equivocator,
//!   voids its staged blocks, and gossips the proof so every honest peer
//!   converges on the same verdict without trusting the reporter.
//! * **Staged adoption** — remote block announcements wait
//!   [`STAGE_TICKS`] in a staging area before delivery,
//!   the equivocation-detection window: conflicting attestations arriving
//!   within it void each other, so an equivocator's blocks never reach an
//!   honest chain.
//! * **Per-block (c, ℓ) re-verification** — [`recheck_block_diversity`]
//!   re-checks every carried RS's claimed diversity against the
//!   receiver's own ledger before the block is staged, closing the gap
//!   the ring-poisoner drives through: `verify_block` checks signatures
//!   and key images, not claims.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_blockchain::{signature_from_bytes, signature_to_bytes, Block, Chain};
use dams_crypto::sha256::{sha256, Digest};
use dams_crypto::{KeyPair, PublicKey, RingSignature, SchnorrGroup};

use crate::obs::NodeMetrics;

/// Frame-kind index into the per-peer token buckets.
pub const FK_BLOCK: usize = 0;
pub const FK_TIP: usize = 1;
pub const FK_RANGE: usize = 2;
pub const FK_EVIDENCE: usize = 3;
const FK_COUNT: usize = 4;

/// Blocks a single range request may stream — a lagging node recovers a
/// long gap over several tip→request→serve rounds instead of one
/// unbounded burst. Requests above the cap are refused whole and
/// attributed as [`Misbehavior::RangeAbuse`].
pub const MAX_RANGE_BLOCKS: usize = 16;
/// Ticks a remote block announcement is staged before delivery — the
/// equivocation-detection window. Must exceed the fault channel's
/// worst-case delivery delay for conflicting announcements to meet.
pub const STAGE_TICKS: u64 = 8;
/// Peer score at which frames are silenced for a jittered window.
pub const QUARANTINE_SCORE: f64 = 60.0;
/// Peer score at which the peer is removed for good.
pub const BAN_SCORE: f64 = 120.0;
/// Base score decay per tick.
pub const DECAY_PER_TICK: f64 = 1.0;
/// Seeded jitter added to each tick's decay, drawn from `[0, DECAY_JITTER)`.
pub const DECAY_JITTER: f64 = 0.5;
/// Base quarantine duration in ticks (a jitter of up to half this is
/// added per sentence).
pub const QUARANTINE_TICKS: u64 = 16;
/// Frames a quarantined peer may push at us before the quarantine
/// escalates to a ban (a peer respecting backoff stays far below).
pub const QUARANTINE_PRESSURE: u64 = 96;
/// Ticks an issued range request may go unanswered (while the claimed
/// height fails to materialize) before it counts as a strike.
pub const RANGE_TIMEOUT: u64 = 10;
/// Consecutive unanswered-range strikes before a
/// [`Misbehavior::StaleTipSpam`] record is filed.
pub const STALE_TIP_STRIKES: u32 = 2;
/// Token bucket `(capacity, refill-per-tick)` per frame kind, indexed by
/// `FK_*`. Capacities leave honest bursts (a 16-block range serve plus
/// duplicated copies) comfortable headroom; sustained floods drain them
/// within a tick or two.
pub const BUCKETS: [(f64, f64); FK_COUNT] = [(48.0, 6.0), (8.0, 1.0), (8.0, 1.0), (8.0, 1.0)];

/// A typed, attributable offense. Severity is what it adds to the peer's
/// score; equivocation and diversity violations are protocol betrayals
/// and ban instantly, the rest accumulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Misbehavior {
    /// Two valid signed attestations for different blocks at one height.
    Equivocation { height: u64 },
    /// An announced block carried an RS whose claimed (c, ℓ)-diversity
    /// fails re-verification against the receiver's ledger.
    DiversityViolation { height: u64 },
    /// A frame-kind token bucket ran dry (at most one record per tick).
    FloodExceeded { kind: usize },
    /// A range request asked for more blocks than the advertised cap.
    RangeAbuse { requested: u64, cap: u64 },
    /// Advertised tips that repeatedly failed to materialize when pulled.
    StaleTipSpam { height: u64 },
}

impl Misbehavior {
    /// Score this offense adds.
    pub fn severity(&self) -> f64 {
        match self {
            Misbehavior::Equivocation { .. } | Misbehavior::DiversityViolation { .. } => 1000.0,
            Misbehavior::RangeAbuse { .. } | Misbehavior::StaleTipSpam { .. } => 50.0,
            Misbehavior::FloodExceeded { .. } => 20.0,
        }
    }

    /// Short stable label for reports and labeled metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Misbehavior::Equivocation { .. } => "equivocation",
            Misbehavior::DiversityViolation { .. } => "diversity_violation",
            Misbehavior::FloodExceeded { .. } => "flood_exceeded",
            Misbehavior::RangeAbuse { .. } => "range_abuse",
            Misbehavior::StaleTipSpam { .. } => "stale_tip_spam",
        }
    }
}

impl std::fmt::Display for Misbehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Misbehavior::Equivocation { height } => {
                write!(f, "equivocation at height {height}")
            }
            Misbehavior::DiversityViolation { height } => {
                write!(f, "(c, l)-diversity violation in block at height {height}")
            }
            Misbehavior::FloodExceeded { kind } => write!(f, "flood on frame kind {kind}"),
            Misbehavior::RangeAbuse { requested, cap } => {
                write!(f, "range request for {requested} blocks over cap {cap}")
            }
            Misbehavior::StaleTipSpam { height } => {
                write!(f, "advertised tip at height {height} never materialized")
            }
        }
    }
}

/// One filed offense: which peer, what, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MisbehaviorRecord {
    pub peer: usize,
    pub offense: Misbehavior,
    pub tick: u64,
}

/// A peer's current standing with one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standing {
    Good,
    Quarantined { until: u64 },
    Banned,
}

/// A signed claim "peer `origin` vouches for block `hash` at `height`".
/// The signature is a ring signature with a one-key ring — a plain
/// Schnorr-style signature under the origin's registered identity key —
/// over the domain-separated message `dams-attest-v1 ‖ origin ‖ height ‖
/// hash`. Two of these by one origin at one height with different hashes
/// are an unforgeable equivocation proof.
#[derive(Debug, Clone, PartialEq)]
pub struct Attestation {
    pub origin: u64,
    pub height: u64,
    pub hash: Digest,
    pub sig: RingSignature,
}

fn attest_msg(origin: u64, height: u64, hash: &Digest) -> Vec<u8> {
    let mut m = Vec::with_capacity(14 + 16 + 32);
    m.extend_from_slice(b"dams-attest-v1");
    m.extend_from_slice(&origin.to_le_bytes());
    m.extend_from_slice(&height.to_le_bytes());
    m.extend_from_slice(hash);
    m
}

impl Attestation {
    /// Sign an attestation under `identity` (a one-key ring signature).
    pub fn sign<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        origin: u64,
        height: u64,
        hash: Digest,
        identity: &KeyPair,
        rng: &mut R,
    ) -> Option<Self> {
        let msg = attest_msg(origin, height, &hash);
        let sig = dams_crypto::sign(group, &msg, &[identity.public], identity, rng).ok()?;
        Some(Attestation {
            origin,
            height,
            hash,
            sig,
        })
    }

    /// Verify against the registered identity key of `self.origin`.
    pub fn verify(&self, group: &SchnorrGroup, directory: &[PublicKey]) -> bool {
        let Some(pk) = directory.get(self.origin as usize) else {
            return false;
        };
        let msg = attest_msg(self.origin, self.height, &self.hash);
        dams_crypto::verify(group, &msg, &[*pk], &self.sig)
    }

    /// Wire layout: `origin u64 ‖ height u64 ‖ hash[32] ‖ sig_len u16 ‖
    /// sig`. Deterministic, so an attestation's bytes double as its
    /// identity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sig = signature_to_bytes(&self.sig);
        let mut out = Vec::with_capacity(8 + 8 + 32 + 2 + sig.len());
        out.extend_from_slice(&self.origin.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.hash);
        out.extend_from_slice(&(sig.len() as u16).to_le_bytes());
        out.extend_from_slice(&sig);
        out
    }

    /// Decode one attestation from the front of `buf`; returns it and the
    /// number of bytes consumed. `None` on any structural problem — this
    /// is a fuzz-target path and must never panic.
    pub fn decode(group: &SchnorrGroup, buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 50 {
            return None;
        }
        let origin = u64::from_le_bytes(buf[..8].try_into().ok()?);
        let height = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        let hash: Digest = buf[16..48].try_into().ok()?;
        let sig_len = u16::from_le_bytes(buf[48..50].try_into().ok()?) as usize;
        let end = 50usize.checked_add(sig_len)?;
        if buf.len() < end {
            return None;
        }
        let sig = signature_from_bytes(group, &buf[50..end]).ok()?;
        Some((
            Attestation {
                origin,
                height,
                hash,
                sig,
            },
            end,
        ))
    }
}

/// Two conflicting attestations by one origin at one height — the
/// self-authenticating evidence every honest peer can verify locally.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivocationProof {
    pub a: Attestation,
    pub b: Attestation,
}

impl EquivocationProof {
    pub fn accused(&self) -> u64 {
        self.a.origin
    }

    pub fn height(&self) -> u64 {
        self.a.height
    }

    /// Structural + cryptographic validity: same origin, same height,
    /// different hashes, both signatures good under the accused's key.
    /// This is what stops a Byzantine peer from framing an honest one —
    /// a fabricated proof needs two signatures only the accused can make.
    pub fn verify(&self, group: &SchnorrGroup, directory: &[PublicKey]) -> bool {
        self.a.origin == self.b.origin
            && self.a.height == self.b.height
            && self.a.hash != self.b.hash
            && self.a.verify(group, directory)
            && self.b.verify(group, directory)
    }

    /// Wire layout: the two attestation encodings back to back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.a.to_bytes();
        out.extend_from_slice(&self.b.to_bytes());
        out
    }

    /// Decode a proof; `None` on anything malformed (fuzz-target path).
    pub fn from_bytes(group: &SchnorrGroup, buf: &[u8]) -> Option<Self> {
        let (a, used) = Attestation::decode(group, buf)?;
        let (b, used_b) = Attestation::decode(group, &buf[used..])?;
        if used + used_b != buf.len() {
            return None;
        }
        Some(EquivocationProof { a, b })
    }

    /// Dedup key for the re-gossip set.
    pub fn id(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

/// Re-verify the claimed (c, ℓ)-diversity of every RS carried by `block`
/// against the receiver's own ledger — the per-block, adoption-time twin
/// of [`dams_store::recheck_immutability`], over the same
/// [`dams_store::chain_universe`]. Claims that assert nothing (see
/// [`dams_store::claimed_requirement`]) are skipped, as are
/// rings naming tokens the receiver has not seen (structural verification
/// rejects those anyway). Returns the height of the offending block on
/// the first violated claim.
pub fn recheck_block_diversity(chain: &Chain, block: &Block) -> Result<(), u64> {
    if block
        .transactions
        .iter()
        .all(|ct| ct.tx.inputs.is_empty())
    {
        return Ok(());
    }
    let universe = dams_store::chain_universe(chain);
    for ct in &block.transactions {
        for input in &ct.tx.inputs {
            let Some(req) = dams_store::claimed_requirement(input.claimed_c, input.claimed_l)
            else {
                continue;
            };
            if input.ring.iter().any(|t| chain.token(*t).is_none()) {
                continue;
            }
            if !req.satisfied_by_ring(&dams_store::ledger_ring(&input.ring), &universe) {
                return Err(block.header.height.0);
            }
        }
    }
    Ok(())
}

/// A block parked in the staging window, waiting out the
/// equivocation-detection delay.
#[derive(Debug, Clone)]
struct Staged {
    origin: usize,
    release_at: u64,
    block: Block,
}

/// An issued range request we are watching for withholding.
#[derive(Debug, Clone, Copy)]
struct PendingRange {
    peer: usize,
    claimed_height: u64,
    issued_at: u64,
    served: bool,
}

struct PeerState {
    score: f64,
    standing: Standing,
    was_quarantined: bool,
    buckets: [f64; FK_COUNT],
    /// Last tick a flood record was filed (dedup to one per tick).
    last_flood: Option<u64>,
    /// Frames pushed at us while quarantined.
    pressure: u64,
    /// Consecutive unanswered-range strikes.
    stale_strikes: u32,
    /// height → (hash, encoded attestation) of blocks this peer attested.
    attested: HashMap<u64, (Digest, Vec<u8>)>,
}

impl PeerState {
    fn new() -> Self {
        PeerState {
            score: 0.0,
            standing: Standing::Good,
            was_quarantined: false,
            buckets: BUCKETS.map(|(cap, _)| cap),
            last_flood: None,
            pressure: 0,
            stale_strikes: 0,
            attested: HashMap::new(),
        }
    }
}

/// What intake decided about a frame before any decode work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intake {
    /// Process the frame.
    Allow,
    /// Drop it: the peer is banned, quarantined, or over its rate limit.
    Drop,
}

/// One node's view of its peers: scores, standings, staged blocks,
/// attestations, and known equivocation proofs. Each honest replica owns
/// one; verdict convergence across replicas comes from proof gossip, not
/// shared state.
pub struct PeerDefense {
    id: usize,
    group: SchnorrGroup,
    directory: Vec<PublicKey>,
    peers: Vec<PeerState>,
    rng: StdRng,
    now: u64,
    records: Vec<MisbehaviorRecord>,
    staged: Vec<Staged>,
    pending: Vec<PendingRange>,
    proofs: Vec<(Digest, EquivocationProof)>,
}

impl PeerDefense {
    /// A defense table for node `id` over `directory.len()` peers.
    /// Jitter draws come from `seed` (callers derive it from the cluster
    /// seed and the node id so every replica's decay schedule differs but
    /// replays exactly).
    pub fn new(id: usize, group: SchnorrGroup, directory: Vec<PublicKey>, seed: u64) -> Self {
        let peers = (0..directory.len()).map(|_| PeerState::new()).collect();
        PeerDefense {
            id,
            group,
            directory,
            peers,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            records: Vec::new(),
            staged: Vec::new(),
            pending: Vec::new(),
            proofs: Vec::new(),
        }
    }

    pub fn directory(&self) -> &[PublicKey] {
        &self.directory
    }

    pub fn standing(&self, peer: usize) -> Standing {
        self.peers
            .get(peer)
            .map_or(Standing::Good, |p| p.standing)
    }

    pub fn is_banned(&self, peer: usize) -> bool {
        matches!(self.standing(peer), Standing::Banned)
    }

    /// Every offense filed so far, in filing order.
    pub fn records(&self) -> &[MisbehaviorRecord] {
        &self.records
    }

    /// Known equivocation proofs (for anti-entropy re-gossip).
    pub fn proofs(&self) -> impl Iterator<Item = &EquivocationProof> {
        self.proofs.iter().map(|(_, p)| p)
    }

    /// Blocks currently staged (tests and reports).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Advance the defense clock: refill buckets, decay scores with
    /// seeded jitter, expire quarantines, and time out watched range
    /// requests (filing [`Misbehavior::StaleTipSpam`] after the
    /// configured strikes). `local_height` clears claims that did
    /// materialize — however they arrived.
    pub fn on_tick(&mut self, now: u64, local_height: u64) {
        self.now = now;
        for p in &mut self.peers {
            for (k, (cap, refill)) in BUCKETS.iter().enumerate() {
                p.buckets[k] = (p.buckets[k] + refill).min(*cap);
            }
            let jitter = self.rng.gen_range(0.0..DECAY_JITTER);
            p.score = (p.score - DECAY_PER_TICK - jitter).max(0.0);
            if let Standing::Quarantined { until } = p.standing {
                if now >= until {
                    p.standing = Standing::Good;
                    p.pressure = 0;
                }
            }
        }

        // Range-watch expiry: a pending whose claimed height materialized
        // (from anywhere) clears its peer's strike streak; one that timed
        // out unserved is a strike.
        let mut expired: Vec<PendingRange> = Vec::new();
        self.pending.retain(|w| {
            if w.served || local_height >= w.claimed_height {
                if let Some(p) = self.peers.get_mut(w.peer) {
                    p.stale_strikes = 0;
                }
                return false;
            }
            if now.saturating_sub(w.issued_at) > RANGE_TIMEOUT {
                expired.push(*w);
                return false;
            }
            true
        });
        for w in expired {
            let strikes = {
                let Some(p) = self.peers.get_mut(w.peer) else {
                    continue;
                };
                p.stale_strikes += 1;
                p.stale_strikes
            };
            if strikes >= STALE_TIP_STRIKES {
                if let Some(p) = self.peers.get_mut(w.peer) {
                    p.stale_strikes = 0;
                }
                self.record(
                    w.peer,
                    Misbehavior::StaleTipSpam {
                        height: w.claimed_height,
                    },
                );
            }
        }
    }

    /// Transport-level admission: banned and quarantined peers are
    /// silenced (quarantined ones accumulate pressure toward a ban), and
    /// each frame kind debits its token bucket. Runs before any decode.
    pub fn intake(&mut self, src: usize, kind: usize) -> Intake {
        let metrics = NodeMetrics::global();
        let Some(state) = self.peers.get_mut(src) else {
            return Intake::Drop;
        };
        match state.standing {
            Standing::Banned => {
                metrics.peers_frames_dropped.inc();
                return Intake::Drop;
            }
            Standing::Quarantined { .. } => {
                state.pressure += 1;
                metrics.peers_frames_dropped.inc();
                if state.pressure >= QUARANTINE_PRESSURE {
                    self.ban(src);
                }
                return Intake::Drop;
            }
            Standing::Good => {}
        }
        let bucket = &mut state.buckets[kind.min(FK_COUNT - 1)];
        if *bucket >= 1.0 {
            *bucket -= 1.0;
            return Intake::Allow;
        }
        metrics.peers_frames_dropped.inc();
        if state.last_flood != Some(self.now) {
            state.last_flood = Some(self.now);
            self.record(src, Misbehavior::FloodExceeded { kind });
        }
        Intake::Drop
    }

    /// File an offense: push the record, bump the score, and escalate.
    /// Quarantine → ban escalation is sticky: a peer that re-offends
    /// after (or during) a quarantine is banned outright.
    pub fn record(&mut self, peer: usize, offense: Misbehavior) -> Standing {
        let tick = self.now;
        let metrics = NodeMetrics::global();
        metrics.peers_misbehavior.inc();
        dams_obs::global()
            .counter_labeled("node.peers.misbehavior_total", "node", &self.id.to_string())
            .inc();
        dams_obs::global()
            .counter_labeled("node.peers.offense_total", "offense", offense.label())
            .inc();
        self.records.push(MisbehaviorRecord {
            peer,
            offense,
            tick,
        });
        let Some(state) = self.peers.get_mut(peer) else {
            return Standing::Good;
        };
        if state.standing == Standing::Banned {
            return Standing::Banned;
        }
        state.score += offense.severity();
        let escalate_ban = state.score >= BAN_SCORE
            || state.was_quarantined
            || matches!(state.standing, Standing::Quarantined { .. });
        if escalate_ban {
            self.ban(peer);
            return Standing::Banned;
        }
        if state.score >= QUARANTINE_SCORE {
            let jitter = self.rng.gen_range(0..=QUARANTINE_TICKS / 2);
            let until = self.now + QUARANTINE_TICKS + jitter;
            state.standing = Standing::Quarantined { until };
            state.was_quarantined = true;
            NodeMetrics::global().peers_quarantined.inc();
            return state.standing;
        }
        state.standing
    }

    fn ban(&mut self, peer: usize) {
        let Some(state) = self.peers.get_mut(peer) else {
            return;
        };
        if state.standing == Standing::Banned {
            return;
        }
        state.standing = Standing::Banned;
        NodeMetrics::global().peers_banned.inc();
        dams_obs::global()
            .counter_labeled("node.peers.banned_total", "node", &self.id.to_string())
            .inc();
        // A banned origin's staged blocks are void.
        self.staged.retain(|s| s.origin != peer);
        self.pending.retain(|w| w.peer != peer);
    }

    /// Watch a tip claim: returns whether a range request to `src` should
    /// be issued (one outstanding per peer, never to silenced peers) and
    /// registers the watch.
    pub fn watch_tip(&mut self, src: usize, claimed_height: u64) -> bool {
        if !matches!(self.standing(src), Standing::Good) {
            return false;
        }
        if self.pending.iter().any(|w| w.peer == src) {
            return false;
        }
        self.pending.push(PendingRange {
            peer: src,
            claimed_height,
            issued_at: self.now,
            served: false,
        });
        true
    }

    /// Note a block frame from `src` (it is serving *something*): clears
    /// its unanswered-range watches and strike streak.
    pub fn note_block_from(&mut self, src: usize) {
        for w in &mut self.pending {
            if w.peer == src {
                w.served = true;
            }
        }
        if let Some(p) = self.peers.get_mut(src) {
            p.stale_strikes = 0;
        }
    }

    /// Record a verified attestation. Returns an [`EquivocationProof`]
    /// when it conflicts with one already on file for the same origin and
    /// height — the caller bans the origin and gossips the proof.
    pub fn observe_attestation(&mut self, att: &Attestation) -> Option<EquivocationProof> {
        let origin = att.origin as usize;
        let state = self.peers.get_mut(origin)?;
        match state.attested.get(&att.height) {
            Some((hash, prior_bytes)) if *hash != att.hash => {
                let (prior, _) = Attestation::decode(&self.group, prior_bytes)?;
                Some(EquivocationProof {
                    a: prior,
                    b: att.clone(),
                })
            }
            Some(_) => None,
            None => {
                state
                    .attested
                    .insert(att.height, (att.hash, att.to_bytes()));
                None
            }
        }
    }

    /// Accept an equivocation proof (locally detected or gossiped):
    /// verify it, ban the accused, and remember it for re-gossip. Returns
    /// `false` for invalid or already-known proofs.
    pub fn apply_proof(&mut self, proof: &EquivocationProof) -> bool {
        if !proof.verify(&self.group, &self.directory) {
            return false;
        }
        let id = proof.id();
        if self.proofs.iter().any(|(known, _)| *known == id) {
            return false;
        }
        self.proofs.push((id, proof.clone()));
        let accused = proof.accused() as usize;
        if !self.is_banned(accused) {
            self.record(
                accused,
                Misbehavior::Equivocation {
                    height: proof.height(),
                },
            );
            // Equivocation severity crosses the ban threshold, but be
            // explicit: a proof is terminal.
            self.ban(accused);
        }
        true
    }

    /// Park a block in the staging window.
    pub fn stage(&mut self, origin: usize, block: Block) {
        self.staged.push(Staged {
            origin,
            release_at: self.now + STAGE_TICKS,
            block,
        });
    }

    /// Whether a block with this hash is already staged (announce dedup).
    pub fn is_staged(&self, hash: &Digest) -> bool {
        self.staged.iter().any(|s| s.block.hash() == *hash)
    }

    /// Blocks whose staging window elapsed, ready for delivery, each with
    /// the peer that announced it (the release-time diversity recheck
    /// attributes to it). Blocks from since-silenced origins were already
    /// voided.
    pub fn release_staged(&mut self) -> Vec<(usize, Block)> {
        let now = self.now;
        let mut out = Vec::new();
        self.staged.retain(|s| {
            if s.release_at <= now {
                out.push((s.origin, s.block.clone()));
                false
            } else {
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identities(group: &SchnorrGroup, n: usize, seed: u64) -> Vec<KeyPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| KeyPair::generate(group, &mut rng)).collect()
    }

    fn defense(n: usize) -> (PeerDefense, Vec<KeyPair>, SchnorrGroup) {
        let group = SchnorrGroup::default();
        let ids = identities(&group, n, 7);
        let dir: Vec<PublicKey> = ids.iter().map(|k| k.public).collect();
        (PeerDefense::new(0, group, dir, 99), ids, group)
    }

    #[test]
    fn attestation_roundtrip_and_verify() {
        let (_, ids, group) = defense(3);
        let mut rng = StdRng::seed_from_u64(1);
        let att =
            Attestation::sign(&group, 1, 5, [7u8; 32], &ids[1], &mut rng).unwrap();
        assert!(att.verify(&group, &ids.iter().map(|k| k.public).collect::<Vec<_>>()));
        let bytes = att.to_bytes();
        let (back, used) = Attestation::decode(&group, &bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, att);
        // Signed by the wrong identity → fails against the directory.
        let forged =
            Attestation::sign(&group, 1, 5, [7u8; 32], &ids[2], &mut rng).unwrap();
        assert!(!forged.verify(&group, &ids.iter().map(|k| k.public).collect::<Vec<_>>()));
    }

    #[test]
    fn conflicting_attestations_build_a_verifiable_proof() {
        let (mut d, ids, group) = defense(3);
        let dir: Vec<PublicKey> = ids.iter().map(|k| k.public).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let a = Attestation::sign(&group, 2, 4, [1u8; 32], &ids[2], &mut rng).unwrap();
        let b = Attestation::sign(&group, 2, 4, [2u8; 32], &ids[2], &mut rng).unwrap();
        assert!(d.observe_attestation(&a).is_none());
        let proof = d.observe_attestation(&b).expect("conflict must surface");
        assert!(proof.verify(&group, &dir));
        assert_eq!(proof.accused(), 2);
        assert!(d.apply_proof(&proof));
        assert!(d.is_banned(2));
        assert!(!d.apply_proof(&proof), "known proofs are deduped");
        // A framed proof (two different heights) never verifies.
        let c = Attestation::sign(&group, 2, 5, [3u8; 32], &ids[2], &mut rng).unwrap();
        let bad = EquivocationProof { a: a.clone(), b: c };
        assert!(!bad.verify(&group, &dir));
    }

    #[test]
    fn proof_decode_rejects_mangled_bytes() {
        let (_, ids, group) = defense(2);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Attestation::sign(&group, 1, 2, [4u8; 32], &ids[1], &mut rng).unwrap();
        let b = Attestation::sign(&group, 1, 2, [5u8; 32], &ids[1], &mut rng).unwrap();
        let proof = EquivocationProof { a, b };
        let bytes = proof.to_bytes();
        assert_eq!(EquivocationProof::from_bytes(&group, &bytes), Some(proof));
        assert!(EquivocationProof::from_bytes(&group, &bytes[..bytes.len() - 1]).is_none());
        assert!(EquivocationProof::from_bytes(&group, &[]).is_none());
    }

    #[test]
    fn flood_drains_bucket_and_records_once_per_tick() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        for _ in 0..BUCKETS[FK_TIP].0 as usize {
            assert_eq!(d.intake(1, FK_TIP), Intake::Allow);
        }
        assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        let floods = d
            .records()
            .iter()
            .filter(|r| matches!(r.offense, Misbehavior::FloodExceeded { .. }))
            .count();
        assert_eq!(floods, 1, "one flood record per tick");
    }

    #[test]
    fn scores_decay_and_escalation_is_sticky() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        assert_eq!(
            d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 }),
            Standing::Good
        );
        // Second offense crosses quarantine.
        let s = d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        assert!(matches!(s, Standing::Quarantined { .. }), "{s:?}");
        // Long quiet: quarantine expires and the score decays away.
        for t in 2..200 {
            d.on_tick(t, 0);
        }
        assert_eq!(d.standing(1), Standing::Good);
        // But the next offense bans: quarantine → ban is sticky.
        assert_eq!(
            d.record(1, Misbehavior::FloodExceeded { kind: FK_TIP }),
            Standing::Banned
        );
    }

    #[test]
    fn quarantine_pressure_escalates_to_ban() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        assert!(matches!(d.standing(1), Standing::Quarantined { .. }));
        for _ in 0..QUARANTINE_PRESSURE {
            assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        }
        assert_eq!(d.standing(1), Standing::Banned);
    }

    #[test]
    fn unanswered_range_watches_strike_into_stale_tip_spam() {
        let (mut d, _, _) = defense(2);
        let mut now = 1;
        d.on_tick(now, 3);
        assert!(d.watch_tip(1, 50));
        assert!(!d.watch_tip(1, 50), "one outstanding watch per peer");
        // Strike 1.
        for _ in 0..=RANGE_TIMEOUT + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(d.records().is_empty(), "first strike is not yet an offense");
        // Strike 2 → record.
        assert!(d.watch_tip(1, 50));
        for _ in 0..=RANGE_TIMEOUT + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(
            d.records()
                .iter()
                .any(|r| matches!(r.offense, Misbehavior::StaleTipSpam { height: 50 })),
            "{:?}",
            d.records()
        );
        // A served watch never strikes.
        assert!(d.watch_tip(0, 50));
        d.note_block_from(0);
        for _ in 0..=RANGE_TIMEOUT + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(d
            .records()
            .iter()
            .all(|r| r.peer != 0), "{:?}", d.records());
    }

    #[test]
    fn staging_window_outlasts_the_default_channel_delay() {
        // Conflicting announcements can only void each other if both
        // arrive inside the window, so it must exceed the worst-case
        // delivery delay of the channel stock clusters run on.
        assert!(STAGE_TICKS > crate::faults::FaultConfig::default().max_delay);
    }

    #[test]
    fn staging_holds_and_releases_blocks() {
        let (mut d, _, group) = defense(2);
        let chain = Chain::new(group);
        let genesis = chain.blocks()[0].clone();
        d.on_tick(1, 0);
        d.stage(1, genesis.clone());
        assert!(d.is_staged(&genesis.hash()));
        assert!(d.release_staged().is_empty(), "window not yet elapsed");
        d.on_tick(1 + STAGE_TICKS, 0);
        assert_eq!(d.release_staged().len(), 1);
        // A banned origin's staged blocks are voided.
        d.stage(1, genesis.clone());
        d.record(1, Misbehavior::Equivocation { height: 1 });
        assert!(d.is_banned(1));
        d.on_tick(1 + 2 * STAGE_TICKS, 0);
        assert!(d.release_staged().is_empty(), "voided with the ban");
    }

    /// A one-block ledger of two same-origin tokens, then a block whose
    /// one spend rings both of them and claims `(c, 2)`.
    fn chain_with_claim(c: f64) -> Chain {
        use dams_blockchain::{
            Amount, NoConfiguration, RingInput, TokenId, TokenOutput, Transaction,
        };
        let mut chain = Chain::new(SchnorrGroup::default());
        let keys = identities(chain.group(), 2, 5);
        chain.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(1),
                })
                .collect(),
        );
        chain.seal_block().unwrap();
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![],
            memo: b"claim".to_vec(),
        };
        let ring: Vec<PublicKey> = keys.iter().map(|k| k.public).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let signature = dams_crypto::sign(
            chain.group(),
            &tx.signing_payload(),
            &ring,
            &keys[0],
            &mut rng,
        )
        .unwrap();
        tx.inputs.push(RingInput {
            ring: vec![TokenId(0), TokenId(1)],
            signature,
            claimed_c: c,
            claimed_l: 2,
        });
        chain.submit(tx, &NoConfiguration).unwrap();
        chain.seal_block().unwrap();
        chain
    }

    #[test]
    fn nan_claim_asserts_nothing_on_adoption() {
        // The ring signature does not cover the claim, so a peer can send
        // any f64; NaN must be skipped like any claim that is not > 0.
        let chain = chain_with_claim(f64::NAN);
        let block = chain.blocks().last().unwrap();
        assert_eq!(recheck_block_diversity(&chain, block), Ok(()));
        // The same ring with a real claim is a violation (one HT, ℓ = 2).
        let chain = chain_with_claim(1.0);
        let block = chain.blocks().last().unwrap();
        assert_eq!(recheck_block_diversity(&chain, block), Err(2));
    }

    #[test]
    fn severities_rank_betrayals_over_noise() {
        assert!(Misbehavior::Equivocation { height: 1 }.severity() >= BAN_SCORE);
        assert!(Misbehavior::DiversityViolation { height: 1 }.severity() >= BAN_SCORE);
        assert!(Misbehavior::FloodExceeded { kind: FK_TIP }.severity() < QUARANTINE_SCORE);
    }
}
