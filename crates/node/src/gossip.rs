//! Anti-entropy gossip over the seeded fault channel: the multi-node
//! replication layer, hardened against Byzantine peers.
//!
//! A [`Cluster`] is N simulated replicas plus one dormant late-joiner
//! slot — and, in adversarial scenarios, f Byzantine slots driven by
//! [`crate::adversary`] actors — all exchanging typed frames through one
//! [`FaultChannel`], so every drop, duplicate, delay, reorder, byte-flip,
//! and partition decision the gossip traffic suffers replays exactly from
//! a single `u64` seed. Five frame kinds, each self-authenticating, all
//! decoded by the panic-free [`decode_frame`]:
//!
//! * **Block** — `kind ‖ sha256 ‖ (attestation ‖ block)`, the push half.
//!   The [`Attestation`] is the sender's signed claim over the block's
//!   height and hash; receivers enforce that its origin matches the
//!   transport source and its signature checks against the cluster's
//!   identity directory, so rejections are attributable and two
//!   conflicting attestations are an unforgeable equivocation proof.
//! * **Tip** — `kind ‖ sha256 ‖ (sender ‖ height ‖ tip-hash)`, the
//!   anti-entropy heartbeat. A receiver that is *behind* answers with a
//!   range request clamped to the range cap, and watches the claim: tips
//!   that repeatedly fail to materialize are stale-tip spam.
//! * **Range request** — `kind ‖ sha256 ‖ (requester ‖ from ‖ to)`, the
//!   pull half. Requests over [`MAX_RANGE_BLOCKS`] get a
//!   typed **refusal** frame back (and a `RangeAbuse` record), never a
//!   silent truncation.
//! * **Evidence** — `kind ‖ sha256 ‖ equivocation-proof`, gossiped so
//!   every honest peer verifies the same two signatures and converges on
//!   the same ban without trusting the reporter.
//! * **Refusal** — `kind ‖ sha256 ‖ (server ‖ requested ‖ cap)`, the
//!   typed answer to an oversized range request.
//!
//! Every live replica runs a [`PeerDefense`] in front of its inbox:
//! token-bucket rate limits per frame kind, severity-weighted misbehavior
//! scores with quarantine → ban escalation, a staging window that holds
//! remote blocks long enough for conflicting attestations to collide,
//! and a per-block (c, ℓ)-diversity re-verification (dams-store's
//! [`claim_violations`], at intake and again at staging release) that
//! stops structurally-valid-but-poisoned ring signatures at the door.
//!
//! A replica that is behind fetches blocks one way: tip anti-entropy
//! plus range repair, through the faulty channel and the defenses above.
//! A killed replica restarts from its own durable store
//! ([`SimNode::restore_from_store`]) and then catches up like any lagging
//! replica. A late joiner bootstraps from a peer-served checkpoint bundle
//! ([`crate::sync`]), the one path that adopts a prefix structurally.
//! Convergence means identical tips *and* identical selection verdicts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{
    block_to_bytes, decode_block, Amount, BatchList, Block, Chain, CodecError, TokenOutput,
};
use dams_crypto::sha256::{sha256, Digest};
use dams_crypto::{KeyPair, PublicKey, SchnorrGroup};
use dams_store::{
    chain_universe, claim_violations, recheck_immutability, ImmutabilityCheck, MemBackend,
    RecoveryReport, Store, StoreConfig,
};

use crate::adversary::{Actor, ActorKind};
use crate::error::NodeError;
use crate::faults::{FaultChannel, FaultConfig, FaultStats};
use crate::network::{NodeLimits, SimNode};
use crate::obs::NodeMetrics;
use crate::peers::{
    Attestation, EquivocationProof, Intake, Misbehavior, PeerDefense, FK_BLOCK, FK_EVIDENCE,
    FK_RANGE, FK_TIP, MAX_RANGE_BLOCKS,
};
use crate::sync::{bootstrap_from_bundle, serve_bundle, SyncReport};

pub const KIND_BLOCK: u8 = 1;
pub const KIND_TIP: u8 = 2;
pub const KIND_RANGE: u8 = 3;
pub const KIND_EVIDENCE: u8 = 4;
pub const KIND_REFUSAL: u8 = 5;

/// Checked little-endian u64 read (the wire is hostile; never index).
fn u64le(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

fn frame_typed(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(33 + payload.len());
    out.push(kind);
    out.extend_from_slice(&sha256(payload));
    out.extend_from_slice(payload);
    out
}

/// Strip and check the digest of a typed frame body; `None` on any
/// length or digest mismatch.
fn authenticate(rest: &[u8]) -> Option<&[u8]> {
    if rest.len() < 32 {
        return None;
    }
    let (digest, payload) = rest.split_at(32);
    (sha256(payload).as_slice() == digest).then_some(payload)
}

/// Frame a block announcement under the sender's attestation.
pub fn frame_attested_block(attestation: &Attestation, block: &Block) -> Vec<u8> {
    let mut payload = attestation.to_bytes();
    payload.extend_from_slice(&block_to_bytes(block));
    frame_typed(KIND_BLOCK, &payload)
}

pub fn frame_tip(sender: usize, height: u64, tip: Digest) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    payload.extend_from_slice(&(sender as u64).to_le_bytes());
    payload.extend_from_slice(&height.to_le_bytes());
    payload.extend_from_slice(&tip);
    frame_typed(KIND_TIP, &payload)
}

pub fn frame_range(requester: usize, from: u64, to: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24);
    payload.extend_from_slice(&(requester as u64).to_le_bytes());
    payload.extend_from_slice(&from.to_le_bytes());
    payload.extend_from_slice(&to.to_le_bytes());
    frame_typed(KIND_RANGE, &payload)
}

pub fn frame_evidence(proof: &EquivocationProof) -> Vec<u8> {
    frame_typed(KIND_EVIDENCE, &proof.to_bytes())
}

pub fn frame_refusal(server: usize, requested: u64, cap: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24);
    payload.extend_from_slice(&(server as u64).to_le_bytes());
    payload.extend_from_slice(&requested.to_le_bytes());
    payload.extend_from_slice(&cap.to_le_bytes());
    frame_typed(KIND_REFUSAL, &payload)
}

/// A decoded gossip frame. The decoder is total: any byte string maps to
/// either a variant or a typed [`NodeError`], never a panic — the
/// property the wire fuzz tests pin.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipFrame {
    Block {
        attestation: Attestation,
        block: Block,
    },
    Tip {
        sender: usize,
        height: u64,
        tip: Digest,
    },
    Range {
        requester: usize,
        from: u64,
        to: u64,
    },
    Evidence(EquivocationProof),
    Refusal {
        server: usize,
        requested: u64,
        cap: u64,
    },
}

/// Decode and authenticate one gossip frame. Structural errors surface
/// as [`NodeError::Codec`]; a block frame whose attestation does not
/// cover the carried block is `InvalidElement` (an attestation for one
/// block stapled to another is an attack, not noise).
pub fn decode_frame(group: &SchnorrGroup, bytes: &[u8]) -> Result<GossipFrame, NodeError> {
    let (&kind, rest) = bytes
        .split_first()
        .ok_or(NodeError::Codec(CodecError::Truncated))?;
    let payload = authenticate(rest).ok_or(NodeError::SyncRejected {
        reason: "gossip frame failed digest authentication",
    })?;
    match kind {
        KIND_BLOCK => {
            let (attestation, used) = Attestation::decode(group, payload)
                .ok_or(NodeError::Codec(CodecError::Truncated))?;
            let block = decode_block(group, &payload[used..])?;
            if attestation.hash != block.hash() || attestation.height != block.header.height.0 {
                return Err(NodeError::SyncRejected {
                    reason: "attestation does not cover the carried block",
                });
            }
            Ok(GossipFrame::Block { attestation, block })
        }
        KIND_TIP => {
            if payload.len() != 48 {
                return Err(NodeError::Codec(CodecError::Truncated));
            }
            let sender = u64le(&payload[..8]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let height = u64le(&payload[8..16]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let tip: Digest = payload[16..48]
                .try_into()
                .map_err(|_| NodeError::Codec(CodecError::Truncated))?;
            Ok(GossipFrame::Tip {
                sender: sender as usize,
                height,
                tip,
            })
        }
        KIND_RANGE => {
            if payload.len() != 24 {
                return Err(NodeError::Codec(CodecError::Truncated));
            }
            let requester = u64le(&payload[..8]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let from = u64le(&payload[8..16]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let to = u64le(&payload[16..24]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            Ok(GossipFrame::Range {
                requester: requester as usize,
                from,
                to,
            })
        }
        KIND_EVIDENCE => EquivocationProof::from_bytes(group, payload)
            .map(GossipFrame::Evidence)
            .ok_or(NodeError::SyncRejected {
                reason: "equivocation proof failed verification",
            }),
        KIND_REFUSAL => {
            if payload.len() != 24 {
                return Err(NodeError::Codec(CodecError::Truncated));
            }
            let server = u64le(&payload[..8]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let requested =
                u64le(&payload[8..16]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            let cap = u64le(&payload[16..24]).ok_or(NodeError::Codec(CodecError::Truncated))?;
            Ok(GossipFrame::Refusal {
                server: server as usize,
                requested,
                cap,
            })
        }
        _ => Err(NodeError::SyncRejected {
            reason: "unknown gossip frame kind",
        }),
    }
}

/// What the gossip protocol itself did (the transport's own adversary
/// accounting lives in [`FaultStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Tip announcements pushed into the channel.
    pub announcements: u64,
    /// Range-repair requests emitted by lagging replicas.
    pub range_requests: u64,
    /// Blocks streamed in answer to range requests.
    pub range_blocks_served: u64,
    /// Frames refused by authentication or structural checks.
    pub frames_rejected: u64,
    /// Blocks appended across all live replicas by gossip delivery.
    pub blocks_applied: u64,
    /// Repeated block announcements deduplicated before verification.
    pub dup_announces: u64,
    /// Oversized range requests answered with a typed refusal.
    pub range_refusals: u64,
    /// Equivocation-proof frames pushed into the channel.
    pub evidence_frames: u64,
    /// Announced blocks refused for failing (c, ℓ) re-verification.
    pub diversity_rejects: u64,
}

/// One replica slot: live, crashed-with-durable-state, Byzantine (a
/// shadow chain tracker driven by an adversary actor), or never started.
enum Slot {
    Live(Box<SimNode>),
    Down {
        wal: Box<dyn dams_store::Backend>,
        cp: Box<dyn dams_store::Backend>,
    },
    Byz(Box<SimNode>),
    Dormant,
}

/// N durable replicas (plus optional Byzantine slots and one dormant
/// late-joiner slot) over one seeded [`FaultChannel`].
pub struct Cluster {
    slots: Vec<Slot>,
    group: SchnorrGroup,
    channel: FaultChannel,
    stats: GossipStats,
    /// Registered identity keys, one per slot (the simulated PKI; the
    /// public halves form the directory each [`PeerDefense`] holds).
    identities: Vec<KeyPair>,
    /// One defense table per slot (only live slots consult theirs).
    defenses: Vec<PeerDefense>,
    /// Key material for minted coinbase outputs. Deliberately NOT the
    /// fault rng: honest chain content must be identical whether or not
    /// Byzantine slots exist, so the selection-snapshot differential
    /// (adversarial vs adversary-free run) compares byte-for-byte.
    mint_rng: StdRng,
    /// Randomness for honest attestation signatures (wire-only bytes).
    sign_rng: StdRng,
    /// token id → owner keypair for every coinbase output ever minted.
    /// Adversary actors draw from this — "the attacker owns some coins"
    /// — to sign structurally valid but diversity-poisoned rings.
    minted_keys: Vec<(u64, KeyPair)>,
    actors: Vec<Actor>,
}

impl Cluster {
    /// A cluster of `live` durable replicas and one extra dormant slot
    /// (id `live`) for a late joiner. Every fault decision derives from
    /// `seed`.
    pub fn new(
        live: usize,
        group: SchnorrGroup,
        seed: u64,
        cfg: FaultConfig,
    ) -> Result<Self, NodeError> {
        Self::with_byzantine(live, &[], group, seed, cfg)
    }

    /// A cluster of `honest` durable replicas plus one Byzantine slot per
    /// entry of `actor_kinds` (ids `honest..honest + f`), plus the dormant
    /// joiner slot. The adversaries hold registered identities — the
    /// threat model is Byzantine *peers*, not unauthenticated strangers.
    pub fn with_byzantine(
        honest: usize,
        actor_kinds: &[ActorKind],
        group: SchnorrGroup,
        seed: u64,
        cfg: FaultConfig,
    ) -> Result<Self, NodeError> {
        let mut slots = Vec::with_capacity(honest + actor_kinds.len() + 1);
        for id in 0..honest {
            let mut node = SimNode::new(id, group);
            let recovered = Store::open(
                Box::new(MemBackend::new()),
                Box::new(MemBackend::new()),
                group,
                StoreConfig::default(),
            )?;
            node.attach_store(recovered)?;
            slots.push(Slot::Live(Box::new(node)));
        }
        for i in 0..actor_kinds.len() {
            slots.push(Slot::Byz(Box::new(SimNode::new(honest + i, group))));
        }
        slots.push(Slot::Dormant);
        let endpoints = slots.len();

        // The simulated PKI: every slot — honest, Byzantine, joiner —
        // registers an identity key drawn from its own seeded stream.
        let mut identity_rng = StdRng::seed_from_u64(seed ^ 0x1de9_717e_5a17_ed01);
        let identities: Vec<KeyPair> = (0..endpoints)
            .map(|_| KeyPair::generate(&group, &mut identity_rng))
            .collect();
        let directory: Vec<PublicKey> = identities.iter().map(|k| k.public).collect();
        let defenses = (0..endpoints)
            .map(|id| {
                PeerDefense::new(
                    id,
                    group,
                    directory.clone(),
                    seed ^ 0xdefe_a5ed_0000_0000 ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )
            })
            .collect();
        let actors = actor_kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let id = honest + i;
                Actor::new(
                    kind,
                    id,
                    group,
                    identities[id],
                    seed ^ 0xbad0_bad0_bad0_bad0 ^ (id as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
                )
            })
            .collect();
        Ok(Cluster {
            slots,
            group,
            channel: FaultChannel::new(endpoints, seed, cfg),
            stats: GossipStats::default(),
            identities,
            defenses,
            mint_rng: StdRng::seed_from_u64(seed ^ 0x317e_d0c0_1157_a9e5),
            sign_rng: StdRng::seed_from_u64(seed ^ 0x51c7_ed5e_5510_7a11),
            minted_keys: Vec::new(),
            actors,
        })
    }

    /// The live replica at `id`, if any.
    pub fn node(&self, id: usize) -> Option<&SimNode> {
        match self.slots.get(id) {
            Some(Slot::Live(node)) => Some(node),
            _ => None,
        }
    }

    /// Ids of all live replicas.
    pub fn live_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Live(_)).then_some(i))
            .collect()
    }

    /// Ids of the Byzantine slots.
    pub fn byzantine_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Byz(_)).then_some(i))
            .collect()
    }

    /// Replica `id`'s peer-defense table.
    pub fn defense(&self, id: usize) -> Option<&PeerDefense> {
        self.defenses.get(id)
    }

    pub fn gossip_stats(&self) -> GossipStats {
        self.stats
    }

    /// The cluster's logical clock (fault-channel ticks elapsed).
    pub fn tick(&self) -> u64 {
        self.channel.tick()
    }

    pub fn fault_stats(&self) -> FaultStats {
        self.channel.stats
    }

    /// Split the network (see [`FaultChannel::partition`]).
    pub fn partition(&mut self, isolated: &[usize]) -> Result<(), NodeError> {
        self.channel.partition(isolated)
    }

    pub fn heal(&mut self) {
        self.channel.heal();
    }

    /// Mine one coinbase block of `outputs` fresh tokens on `origin` and
    /// push-announce it, attested, to every reachable peer. Key material
    /// comes from the dedicated mint stream and is retained so
    /// adversarial actors can later spend "their own" coins.
    pub fn mine_on(&mut self, origin: usize, outputs: usize) -> Result<Block, NodeError> {
        // The slot is checked before any key is drawn, so a failed call
        // leaves the mint stream where it was.
        let Some(Slot::Live(node)) = self.slots.get_mut(origin) else {
            return Err(NodeError::UnknownPeer(origin));
        };
        let group = self.group;
        let out_keys: Vec<KeyPair> = (0..outputs)
            .map(|_| KeyPair::generate(&group, &mut self.mint_rng))
            .collect();
        let outs: Vec<TokenOutput> = out_keys
            .iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(1),
            })
            .collect();
        node.chain_mut().submit_coinbase(outs);
        let block = node.seal_block()?;
        let token_count = node.chain().token_count() as u64;
        let first_id = token_count - outputs as u64;
        for (i, kp) in out_keys.into_iter().enumerate() {
            self.minted_keys.push((first_id + i as u64, kp));
        }
        let att = Attestation::sign(
            &group,
            origin as u64,
            block.header.height.0,
            block.hash(),
            &self.identities[origin],
            &mut self.sign_rng,
        )
        .ok_or(NodeError::SyncRejected {
            reason: "attestation signing failed",
        })?;
        let frame = frame_attested_block(&att, &block);
        for dest in 0..self.slots.len() {
            if dest != origin {
                self.channel.send_reachable(origin, dest, frame.clone());
            }
        }
        Ok(block)
    }

    /// Anti-entropy round: every live replica announces its tip to every
    /// reachable peer and re-gossips its known equivocation proofs, so
    /// verdicts converge cluster-wide even when the original evidence
    /// frames were dropped.
    pub fn announce_tips(&mut self) {
        let metrics = NodeMetrics::global();
        let mut frames = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Slot::Live(node) = slot else { continue };
            let Ok(tip) = node.tip_hash() else { continue };
            let height = node.chain().height() as u64;
            if height <= 1 {
                continue;
            }
            frames.push((i, FK_TIP, frame_tip(i, height, tip)));
            for proof in self.defenses[i].proofs() {
                frames.push((i, FK_EVIDENCE, frame_evidence(proof)));
            }
        }
        for (src, fk, frame) in frames {
            for dest in 0..self.slots.len() {
                if dest == src {
                    continue;
                }
                if self.channel.send_reachable(src, dest, frame.clone()) {
                    if fk == FK_TIP {
                        self.stats.announcements += 1;
                        metrics.gossip_announcements.inc();
                        dams_obs::global()
                            .counter_labeled(
                                "node.gossip.announcements_total",
                                "node",
                                &src.to_string(),
                            )
                            .inc();
                    } else {
                        self.stats.evidence_frames += 1;
                        metrics.gossip_evidence_frames.inc();
                    }
                }
            }
        }
    }

    /// Let every Byzantine actor emit this tick's attack traffic into the
    /// fault gauntlet.
    fn run_actors(&mut self) {
        if self.actors.is_empty() {
            return;
        }
        let honest = self.live_ids();
        let Cluster {
            slots,
            actors,
            channel,
            minted_keys,
            ..
        } = self;
        let tick = channel.tick();
        for actor in actors.iter_mut() {
            let Some(Slot::Byz(shadow)) = slots.get(actor.id()) else {
                continue;
            };
            for (dest, bytes) in actor.act(shadow, &honest, minted_keys, tick) {
                channel.send_reachable(actor.id(), dest, bytes);
            }
        }
    }

    /// Advance one tick: adversary actors fire, due frames deliver
    /// through each receiver's defense (rate limits → authentication →
    /// attribution → equivocation/diversity checks → staging), staged
    /// blocks whose window elapsed reach the inbox, and every inbox is
    /// processed. Returns how many blocks were appended across all live
    /// replicas.
    pub fn step(&mut self) -> usize {
        self.run_actors();
        let group = self.group;
        let metrics = NodeMetrics::global();
        let frames = self.channel.advance_attributed();
        let now = self.channel.tick();
        // Responses generated while dispatching (range requests, served
        // ranges, refusals, evidence) are collected and sent after the
        // borrow of the slot table ends; they re-enter the fault gauntlet
        // like any frame.
        let mut outgoing: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        {
            let Cluster {
                slots,
                defenses,
                channel,
                stats,
                identities,
                sign_rng,
                ..
            } = self;
            let chan_stats = &mut channel.stats;
            let n = slots.len();
            for (i, slot) in slots.iter().enumerate() {
                if let Slot::Live(node) = slot {
                    defenses[i].on_tick(now, node.chain().height() as u64);
                }
            }
            for (src, dest, bytes) in frames {
                let node = match slots.get_mut(dest) {
                    Some(Slot::Live(node)) => node,
                    Some(Slot::Byz(shadow)) => {
                        // A Byzantine slot's shadow tracker swallows block
                        // frames so its actor knows the honest tip; it
                        // never answers anything.
                        if let Ok(GossipFrame::Block { block, .. }) = decode_frame(&group, &bytes) {
                            let _ = shadow.deliver(block);
                        }
                        continue;
                    }
                    // Frames addressed to a dead or dormant slot vanish,
                    // like packets to a powered-off host.
                    _ => continue,
                };
                let defense = &mut defenses[dest];
                let fk = match bytes.first() {
                    Some(&KIND_BLOCK) => FK_BLOCK,
                    Some(&KIND_TIP) => FK_TIP,
                    Some(&KIND_RANGE) => FK_RANGE,
                    _ => FK_EVIDENCE,
                };
                if src != dest && defense.intake(src, fk) == Intake::Drop {
                    continue;
                }
                let mut reject = false;
                match decode_frame(&group, &bytes) {
                    Err(_) => reject = true,
                    Ok(GossipFrame::Block { attestation, block }) => {
                        // Attribution: the sender must vouch, under its
                        // own registered key, for exactly what it sends.
                        if attestation.origin as usize != src
                            || !attestation.verify(&group, defense.directory())
                        {
                            reject = true;
                        } else {
                            let hash = block.hash();
                            let h = attestation.height as usize;
                            let already = node
                                .chain()
                                .blocks()
                                .get(h)
                                .is_some_and(|b| b.hash() == hash);
                            if already || defense.is_staged(&hash) {
                                stats.dup_announces += 1;
                                metrics.gossip_dup_announce.inc();
                                defense.note_block_from(src);
                            } else if let Some(proof) = defense.observe_attestation(&attestation) {
                                // Caught red-handed: two signed claims at
                                // one height. Ban locally, void the
                                // equivocator's staged blocks, and hand
                                // every peer the same verifiable proof.
                                if defense.apply_proof(&proof) {
                                    dams_obs::global()
                                        .counter_labeled(
                                            "node.peers.equivocations_total",
                                            "node",
                                            &dest.to_string(),
                                        )
                                        .inc();
                                    let ev = frame_evidence(&proof);
                                    for peer in 0..n {
                                        if peer != dest {
                                            outgoing.push((dest, peer, ev.clone()));
                                        }
                                    }
                                }
                            } else if let Some(h) = first_claim_violation(node.chain(), &block) {
                                // Structurally valid, cryptographically
                                // signed — and lying about its rings'
                                // (c, ℓ)-diversity. Never staged.
                                defense.record(src, Misbehavior::DiversityViolation { height: h });
                                stats.diversity_rejects += 1;
                                metrics.peers_diversity_rejects.inc();
                            } else {
                                defense.note_block_from(src);
                                defense.stage(src, block);
                                chan_stats.delivered += 1;
                                metrics.bus_delivered.inc();
                                dams_obs::global()
                                    .counter_labeled(
                                        "node.gossip.delivered_total",
                                        "node",
                                        &dest.to_string(),
                                    )
                                    .inc();
                            }
                        }
                    }
                    Ok(GossipFrame::Tip { sender, height, .. }) => {
                        if sender != src {
                            reject = true;
                        } else {
                            let local = node.chain().height() as u64;
                            if height > local {
                                // Clamp the pull to the server's cap — an
                                // oversized request would be refused whole.
                                let target = height.min(local + MAX_RANGE_BLOCKS as u64);
                                if defense.watch_tip(src, target) {
                                    outgoing.push((dest, src, frame_range(dest, local, target)));
                                    stats.range_requests += 1;
                                    metrics.gossip_range_requests.inc();
                                }
                            }
                        }
                    }
                    Ok(GossipFrame::Range {
                        requester,
                        from,
                        to,
                    }) => {
                        if requester != src {
                            reject = true;
                        } else {
                            match node.serve_range(from as usize, to as usize, MAX_RANGE_BLOCKS) {
                                Ok(blocks) => {
                                    stats.range_blocks_served += blocks.len() as u64;
                                    metrics.gossip_range_blocks_served.add(blocks.len() as u64);
                                    for b in &blocks {
                                        if let Some(att) = Attestation::sign(
                                            &group,
                                            dest as u64,
                                            b.header.height.0,
                                            b.hash(),
                                            &identities[dest],
                                            sign_rng,
                                        ) {
                                            outgoing.push((
                                                dest,
                                                src,
                                                frame_attested_block(&att, b),
                                            ));
                                        }
                                    }
                                }
                                Err(NodeError::RangeRefused { requested, cap }) => {
                                    defense.record(src, Misbehavior::RangeAbuse { requested, cap });
                                    stats.range_refusals += 1;
                                    metrics.gossip_range_refusals.inc();
                                    outgoing.push((dest, src, frame_refusal(dest, requested, cap)));
                                }
                                Err(_) => reject = true,
                            }
                        }
                    }
                    Ok(GossipFrame::Evidence(proof)) => {
                        // Self-authenticating: verify the two signatures
                        // locally, never trust the reporter.
                        defense.apply_proof(&proof);
                    }
                    Ok(GossipFrame::Refusal { server, .. }) => {
                        // An honest requester never trips the cap (it
                        // clamps), so a refusal is informational; the
                        // pending watch resolves or strikes on its own.
                        if server != src {
                            reject = true;
                        }
                    }
                }
                if reject {
                    chan_stats.decode_rejected += 1;
                    stats.frames_rejected += 1;
                    metrics.bus_decode_rejected.inc();
                    metrics.gossip_frames_rejected.inc();
                }
            }

            // Staged blocks whose equivocation window elapsed reach the
            // inbox — re-checked against the *current* ledger first, so a
            // poisoned ring can't slip through by racing its own mint.
            for (i, slot) in slots.iter_mut().enumerate() {
                let Slot::Live(node) = slot else { continue };
                let defense = &mut defenses[i];
                for (origin, block) in defense.release_staged() {
                    if let Some(h) = first_claim_violation(node.chain(), &block) {
                        defense.record(origin, Misbehavior::DiversityViolation { height: h });
                        stats.diversity_rejects += 1;
                        metrics.peers_diversity_rejects.inc();
                        continue;
                    }
                    if node.deliver(block).is_err() {
                        chan_stats.inbox_rejected += 1;
                    }
                }
            }
        }
        for (src, dest, frame) in outgoing {
            self.channel.send_reachable(src, dest, frame);
        }

        let mut appended = 0;
        for slot in &mut self.slots {
            match slot {
                Slot::Live(node) => appended += node.process_inbox(),
                Slot::Byz(shadow) => {
                    shadow.process_inbox();
                }
                _ => {}
            }
        }
        self.stats.blocks_applied += appended as u64;
        appended
    }

    /// Crash replica `id` mid-run: volatile state dies, in-flight traffic
    /// to it dies, but its durable store survives for [`Cluster::restart`].
    pub fn kill(&mut self, id: usize) -> Result<(), NodeError> {
        let slot = self.slots.get_mut(id).ok_or(NodeError::UnknownPeer(id))?;
        let Slot::Live(node) = slot else {
            return Err(NodeError::UnknownPeer(id));
        };
        let mut store = node.take_store().ok_or(NodeError::SyncRejected {
            reason: "killed replica has no durable store",
        })?;
        store.crash();
        let (wal, cp) = store.into_backends();
        *slot = Slot::Down { wal, cp };
        self.channel.drop_addressed_to(id);
        Ok(())
    }

    /// Restart a killed replica from its own durable store (checkpoint +
    /// WAL tail, verified replay) and return the recovery report. The
    /// blocks it missed while down reach it like any lagging replica's:
    /// by range repair after the next tip announcement.
    pub fn restart(&mut self, id: usize) -> Result<RecoveryReport, NodeError> {
        let slot = self.slots.get_mut(id).ok_or(NodeError::UnknownPeer(id))?;
        let (wal, cp) = match std::mem::replace(slot, Slot::Dormant) {
            Slot::Down { wal, cp } => (wal, cp),
            other => {
                *slot = other;
                return Err(NodeError::UnknownPeer(id));
            }
        };
        let (node, report) = SimNode::restore_from_store(
            id,
            self.group,
            NodeLimits::default(),
            wal,
            cp,
            StoreConfig::default(),
        )?;
        self.slots[id] = Slot::Live(Box::new(node));
        Ok(report)
    }

    /// Bring the dormant slot `id` online by bootstrapping it from a
    /// bundle served by live peer `from` — checkpoint catch-up, not full
    /// replay.
    pub fn join(&mut self, id: usize, from: usize) -> Result<SyncReport, NodeError> {
        if !matches!(self.slots.get(id), Some(Slot::Dormant)) {
            return Err(NodeError::UnknownPeer(id));
        }
        let frame = match self.slots.get_mut(from) {
            Some(Slot::Live(peer)) => serve_bundle(peer)?,
            _ => return Err(NodeError::UnknownPeer(from)),
        };
        let (node, report) = bootstrap_from_bundle(id, self.group, NodeLimits::default(), &frame)?;
        self.slots[id] = Slot::Live(Box::new(node));
        Ok(report)
    }

    /// Drive the cluster until every live replica converges and the
    /// channel drains, re-announcing tips every few ticks. Returns ticks
    /// consumed, or `None` if `max_ticks` elapsed without convergence.
    pub fn run_until_converged(&mut self, max_ticks: u64) -> Option<u64> {
        let start = self.channel.tick();
        for _ in 0..max_ticks {
            self.step();
            if self.channel.idle() && self.converged() && self.staging_empty() {
                return Some(self.channel.tick() - start);
            }
            if self.channel.tick().is_multiple_of(4) {
                self.announce_tips();
            }
        }
        None
    }

    /// Drive an adversarial cluster until the honest replicas converge at
    /// `expected_height` with every Byzantine peer banned everywhere and
    /// no blocks left in staging. `idle()` is useless here — adversaries
    /// keep transmitting — so the exit condition is the defended state
    /// itself. Returns ticks consumed, or `None` on budget exhaustion.
    pub fn run_until_defended(&mut self, expected_height: usize, max_ticks: u64) -> Option<u64> {
        let start = self.channel.tick();
        for _ in 0..max_ticks {
            self.step();
            if self.defended(expected_height) {
                return Some(self.channel.tick() - start);
            }
            if self.channel.tick().is_multiple_of(4) {
                self.announce_tips();
            }
        }
        None
    }

    /// The defended state: honest convergence at the expected height,
    /// every Byzantine peer banned by every honest replica, staging
    /// drained.
    pub fn defended(&self, expected_height: usize) -> bool {
        let byz = self.byzantine_ids();
        self.converged()
            && self.staging_empty()
            && self.live_ids().iter().all(|&i| {
                self.node(i)
                    .is_some_and(|n| n.chain().height() == expected_height)
            })
            && self
                .live_ids()
                .iter()
                .all(|&i| byz.iter().all(|&b| self.defenses[i].is_banned(b)))
    }

    /// Whether no live replica holds blocks in its staging window.
    pub fn staging_empty(&self) -> bool {
        self.live_ids()
            .iter()
            .all(|&i| self.defenses[i].staged_len() == 0)
    }

    /// Whether all live replicas share byte-identical tip blocks.
    pub fn converged(&self) -> bool {
        let mut tips: Vec<Vec<u8>> = Vec::new();
        for slot in &self.slots {
            if let Slot::Live(node) = slot {
                match node.chain().blocks().last() {
                    Some(tip) => tips.push(block_to_bytes(tip)),
                    None => return false,
                }
            }
        }
        !tips.is_empty() && tips.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether all live replicas derive identical batch lists at λ.
    pub fn batch_consensus(&self, lambda: usize) -> bool {
        let lists: Vec<BatchList> = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Live(node) => Some(BatchList::build(node.chain(), lambda)),
                _ => None,
            })
            .collect();
        lists.windows(2).all(|w| w[0].batches() == w[1].batches())
    }

    /// Re-verify every live replica's committed (c, ℓ)-diversity evidence
    /// and require identical, violation-free verdicts across the cluster.
    pub fn immutability_consensus(&self) -> bool {
        let checks: Vec<ImmutabilityCheck> = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Live(node) => Some(recheck_immutability(node.chain())),
                _ => None,
            })
            .collect();
        checks.iter().all(|c| c.violations.is_empty()) && checks.windows(2).all(|w| w[0] == w[1])
    }

    /// Total blocks served to peers by all live replicas' stores.
    pub fn blocks_served_total(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Live(node) => node.store().map(Store::blocks_served),
                _ => None,
            })
            .sum()
    }
}

/// Outcome of one scripted cluster scenario (see
/// [`run_cluster_scenario`]).
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub seed: u64,
    /// Replicas the scenario started with (the late joiner is extra).
    pub nodes: usize,
    /// Live replicas at the end (includes the joiner).
    pub live: usize,
    /// All live replicas ended on byte-identical tips.
    pub converged: bool,
    /// All live replicas derive the same batch list at the run's λ.
    pub batch_consensus: bool,
    /// All live replicas hold identical, violation-free (c, ℓ) verdicts.
    pub immutability_ok: bool,
    /// Final chain height of node 0 (including genesis).
    pub height: usize,
    /// Ticks the run took to converge, `None` when it hit the budget.
    pub ticks: Option<u64>,
    /// Crash/restart phase: whether the restarted replica's recovery from
    /// its own store was clean. `None` when the scenario had no kill
    /// phase.
    pub restart: Option<bool>,
    /// Late-joiner bootstrap split (checkpoint prefix vs verified tail).
    pub joiner: Option<SyncReport>,
    /// Blocks served to peers across all stores (catch-up bundles).
    pub blocks_served: u64,
    pub fault_stats: FaultStats,
    pub gossip_stats: GossipStats,
}

impl ClusterReport {
    /// Whether the scenario met every convergence invariant.
    pub fn ok(&self) -> bool {
        self.converged
            && self.batch_consensus
            && self.immutability_ok
            && self.ticks.is_some()
            && self.restart.is_none_or(|clean| clean)
            && self.joiner.is_none_or(|j| j.clean)
    }

    /// Deterministic multi-line rendering for `dams-cli cluster-sim`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster report:\n");
        out.push_str(&format!(
            "  scenario: seed {}, {} nodes (+1 late joiner), height {}\n",
            self.seed, self.nodes, self.height
        ));
        out.push_str(&format!(
            "  convergence: {} live replicas, {}\n",
            self.live,
            match self.ticks {
                Some(t) => format!("byte-identical tips after {t} ticks"),
                None => "tick budget exhausted".into(),
            }
        ));
        out.push_str(&format!(
            "  batch consensus: {}\n",
            if self.batch_consensus {
                "identical batch lists"
            } else {
                "DIVERGENT"
            }
        ));
        out.push_str(&format!(
            "  immutability: {}\n",
            if self.immutability_ok {
                "identical violation-free (c, l) verdicts"
            } else {
                "VERDICTS DIVERGE OR VIOLATED"
            }
        ));
        match self.restart {
            Some(clean) => out.push_str(&format!(
                "  crash/restart: recovered {}, caught up by range repair\n",
                if clean { "CLEAN" } else { "FLAGGED" },
            )),
            None => out.push_str("  crash/restart: not exercised\n"),
        }
        match &self.joiner {
            Some(j) => out.push_str(&format!(
                "  late joiner: {} blocks structural (checkpoint), {} fully verified (tail), \
                 {} rings rechecked\n",
                j.prefix_adopted, j.tail_verified, j.rings_rechecked
            )),
            None => out.push_str("  late joiner: not exercised\n"),
        }
        out.push_str(&format!(
            "  catch-up served: {} blocks\n",
            self.blocks_served
        ));
        let g = &self.gossip_stats;
        out.push_str(&format!(
            "  gossip: {} announcements, {} range requests, {} range blocks served, \
             {} frames rejected, {} blocks applied, {} dup announces, {} refusals\n",
            g.announcements,
            g.range_requests,
            g.range_blocks_served,
            g.frames_rejected,
            g.blocks_applied,
            g.dup_announces,
            g.range_refusals
        ));
        let f = &self.fault_stats;
        out.push_str(&format!(
            "  faults: {} sent, {} delivered, {} dropped, {} duplicated, {} delayed, \
             {} corrupted, {} decode-rejected, {} inbox-rejected, {} partition-blocked\n",
            f.sent,
            f.delivered,
            f.dropped,
            f.duplicated,
            f.delayed,
            f.corrupted,
            f.decode_rejected,
            f.inbox_rejected,
            f.partition_blocked
        ));
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.ok() { "CONVERGED" } else { "DIVERGED" }
        ));
        out
    }
}

/// The height of `block` when one of its rings breaks its claim on the
/// receiver's ledger: the first of [`claim_violations`] over `chain`'s
/// [`chain_universe`]. A block with no ring inputs (every block an honest
/// [`Cluster`] replica mines) builds no universe. Gossip intake and
/// staging release both refuse on it.
fn first_claim_violation(chain: &Chain, block: &Block) -> Option<u64> {
    if block.transactions.iter().all(|ct| ct.tx.inputs.is_empty()) {
        return None;
    }
    claim_violations(std::slice::from_ref(block), &chain_universe(chain))
        .next()
        .map(|(height, _)| height)
}

/// The scripted cluster scenario, replayable from `seed`: `nodes` durable
/// replicas mine under the default fault model, a minority partitions
/// away while mining continues (3+ nodes), one replica is killed mid-run,
/// restarted from its store and left to catch up by range repair (2+
/// nodes), a late joiner bootstraps from a checkpoint bundle, and
/// everyone must converge on byte-identical tips with identical selection
/// verdicts.
pub fn run_cluster_scenario(seed: u64, nodes: usize) -> Result<ClusterReport, NodeError> {
    const LAMBDA: usize = 4;
    let nodes = nodes.max(1);
    let group = SchnorrGroup::default();
    let mut cluster = Cluster::new(nodes, group, seed, FaultConfig::default())?;

    // Phase 1: healthy-but-faulty mining.
    for _ in 0..4 {
        cluster.mine_on(0, 2)?;
        cluster.step();
    }

    // Phase 2 (3+ nodes): partition a minority; the majority keeps mining.
    if nodes >= 3 {
        cluster.partition(&[nodes - 1])?;
        for _ in 0..3 {
            cluster.mine_on(0, 2)?;
            cluster.step();
        }
        cluster.heal();
        cluster.step();
    }

    // Phase 3 (2+ nodes): kill a replica mid-run, mine past it, restart
    // it from its own store; range repair brings it the rest.
    let restart = if nodes >= 2 {
        cluster.kill(1)?;
        for _ in 0..2 {
            cluster.mine_on(0, 2)?;
            cluster.step();
        }
        Some(cluster.restart(1)?.clean())
    } else {
        for _ in 0..2 {
            cluster.mine_on(0, 2)?;
            cluster.step();
        }
        None
    };

    // Phase 4: one more block, then the late joiner bootstraps from a
    // checkpoint bundle served by node 0.
    cluster.mine_on(0, 2)?;
    cluster.step();
    let joiner = cluster.join(nodes, 0)?;

    let ticks = cluster.run_until_converged(800);
    let height = cluster
        .node(0)
        .map(|n| n.chain().height())
        .unwrap_or_default();
    Ok(ClusterReport {
        seed,
        nodes,
        live: cluster.live_ids().len(),
        converged: cluster.converged(),
        batch_consensus: cluster.batch_consensus(LAMBDA),
        immutability_ok: cluster.immutability_consensus(),
        height,
        ticks,
        restart,
        joiner: Some(joiner),
        blocks_served: cluster.blocks_served_total(),
        fault_stats: cluster.fault_stats(),
        gossip_stats: cluster.gossip_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_cluster_converges_via_push_gossip() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(3, group, 7, FaultConfig::lossless()).unwrap();
        for _ in 0..3 {
            cluster.mine_on(0, 2).unwrap();
        }
        assert!(cluster.run_until_converged(100).is_some());
        assert!(cluster.converged());
        assert!(cluster.batch_consensus(3));
        assert!(cluster.immutability_consensus());
        assert_eq!(cluster.live_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn tip_announcements_trigger_range_repair() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(3, group, 9, FaultConfig::lossless()).unwrap();
        // Node 2 misses all push gossip while partitioned.
        cluster.partition(&[2]).unwrap();
        for _ in 0..4 {
            cluster.mine_on(0, 1).unwrap();
            cluster.step();
        }
        assert_eq!(cluster.node(2).unwrap().chain().height(), 1);
        cluster.heal();
        // No new blocks are pushed after the heal: only anti-entropy tip
        // announcements + pull range repair can close the gap.
        assert!(cluster.run_until_converged(200).is_some());
        assert!(cluster.converged());
        let stats = cluster.gossip_stats();
        assert!(stats.range_requests > 0, "{stats:?}");
        assert!(stats.range_blocks_served >= 4, "{stats:?}");
    }

    #[test]
    fn kill_restart_recovers_from_store_and_range_repair() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(3, group, 11, FaultConfig::lossless()).unwrap();
        for _ in 0..3 {
            cluster.mine_on(0, 1).unwrap();
            cluster.step();
        }
        cluster.run_until_converged(100).unwrap();
        cluster.kill(1).unwrap();
        assert_eq!(cluster.live_ids(), vec![0, 2]);
        for _ in 0..2 {
            cluster.mine_on(0, 1).unwrap();
            cluster.step();
        }
        let report = cluster.restart(1).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.height, 3, "local store recovers the pre-crash chain");
        // Restart adopts nothing from a peer: the missed blocks must come
        // as frames through the channel.
        assert_eq!(
            cluster.node(1).unwrap().chain().height(),
            report.height as usize + 1,
            "restart applied blocks beyond the recovered chain"
        );
        let requests = cluster.gossip_stats().range_requests;
        assert!(cluster.run_until_converged(200).is_some());
        assert!(cluster.converged());
        assert_eq!(cluster.node(1).unwrap().chain().height(), 6);
        assert!(
            cluster.gossip_stats().range_requests > requests,
            "the restarted replica caught up without a range request"
        );
    }

    #[test]
    fn late_joiner_bootstraps_o_tail() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(2, group, 13, FaultConfig::lossless()).unwrap();
        for _ in 0..6 {
            cluster.mine_on(0, 1).unwrap();
            cluster.step();
        }
        cluster.run_until_converged(100).unwrap();
        let report = cluster.join(2, 0).unwrap();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.height, 6);
        assert!(
            report.tail_verified <= StoreConfig::default().checkpoint_interval,
            "O(tail) violated: {report:?}"
        );
        assert!(report.prefix_adopted >= 4, "{report:?}");
        assert!(cluster.run_until_converged(100).is_some());
        assert_eq!(cluster.live_ids(), vec![0, 1, 2]);
        // Joining twice is a typed error, not a double-spawn.
        assert!(cluster.join(2, 0).is_err());
    }

    #[test]
    fn scripted_scenario_replays_identically() {
        let a = run_cluster_scenario(42, 3).unwrap();
        let b = run_cluster_scenario(42, 3).unwrap();
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.gossip_stats, b.gossip_stats);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.render(), b.render(), "render must be deterministic");
    }

    #[test]
    fn scripted_scenario_converges_at_all_bench_sizes() {
        for nodes in [1, 3, 5] {
            let report = run_cluster_scenario(1234, nodes).unwrap();
            assert!(report.ok(), "nodes {nodes}: {}", report.render());
            let expected_height = if nodes >= 3 { 11 } else { 8 };
            assert_eq!(report.height, expected_height, "nodes {nodes}");
            if let Some(j) = report.joiner {
                assert!(
                    j.tail_verified <= StoreConfig::default().checkpoint_interval,
                    "nodes {nodes}: O(tail) violated: {j:?}"
                );
            }
        }
    }

    #[test]
    fn corrupt_frames_never_reach_a_chain() {
        let group = SchnorrGroup::default();
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            reorder: false,
        };
        let mut cluster = Cluster::new(2, group, 5, cfg).unwrap();
        cluster.mine_on(0, 2).unwrap();
        for _ in 0..10 {
            cluster.step();
        }
        cluster.announce_tips();
        for _ in 0..10 {
            cluster.step();
        }
        // Every frame was corrupted: block frames fail the digest or the
        // attestation, tip/range frames fail their digests. Node 1 never
        // adopts anything — and no honest peer is blamed for transport
        // damage (corruption is the channel's fault, not the sender's).
        assert_eq!(cluster.node(1).unwrap().chain().height(), 1);
        let f = cluster.fault_stats();
        assert!(f.decode_rejected > 0, "{f:?}");
        assert!(
            cluster.defense(1).unwrap().records().is_empty(),
            "corruption must not be attributed: {:?}",
            cluster.defense(1).unwrap().records()
        );
    }

    #[test]
    fn duplicate_announcements_are_deduplicated() {
        let group = SchnorrGroup::default();
        let cfg = FaultConfig {
            dup_prob: 1.0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            corrupt_prob: 0.0,
            max_delay: 0,
            reorder: false,
        };
        let mut cluster = Cluster::new(2, group, 21, cfg).unwrap();
        cluster.mine_on(0, 1).unwrap();
        assert!(cluster.run_until_converged(100).is_some());
        let stats = cluster.gossip_stats();
        assert!(
            stats.dup_announces > 0,
            "every frame was duplicated, dedup must fire: {stats:?}"
        );
        // The duplicate never re-entered verification or staging: exactly
        // one copy of the block was staged and adopted.
        assert_eq!(cluster.node(1).unwrap().chain().height(), 2);
    }

    #[test]
    fn oversized_range_requests_get_typed_refusals() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(2, group, 23, FaultConfig::lossless()).unwrap();
        for _ in 0..3 {
            cluster.mine_on(0, 1).unwrap();
            cluster.step();
        }
        cluster.run_until_converged(100).unwrap();
        let cap = MAX_RANGE_BLOCKS as u64;
        // A hand-rolled range request far over the cap, "from" node 1.
        let abusive = frame_range(1, 0, cap * 10);
        cluster.channel.send_from(1, 0, abusive);
        cluster.step();
        cluster.step();
        let stats = cluster.gossip_stats();
        assert_eq!(stats.range_refusals, 1, "{stats:?}");
        let defense = cluster.defense(0).unwrap();
        assert!(
            defense.records().iter().any(|r| r.peer == 1
                && matches!(r.offense, Misbehavior::RangeAbuse { requested, cap: c }
                        if requested == cap * 10 && c == cap)),
            "{:?}",
            defense.records()
        );
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(2, group, 1, FaultConfig::lossless()).unwrap();
        assert_eq!(
            cluster.partition(&[5]).unwrap_err(),
            NodeError::UnknownPeer(5)
        );
        assert_eq!(cluster.kill(9).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(cluster.restart(9).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(cluster.join(9, 0).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(
            cluster.mine_on(7, 1).unwrap_err(),
            NodeError::UnknownPeer(7)
        );
        // Known ids in the wrong state are refused the same way: a live
        // replica cannot restart, a joiner needs a live server, and the
        // dormant slot cannot mine.
        assert_eq!(cluster.restart(0).unwrap_err(), NodeError::UnknownPeer(0));
        assert_eq!(cluster.join(2, 9).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(
            cluster.mine_on(2, 1).unwrap_err(),
            NodeError::UnknownPeer(2)
        );
        assert_eq!(
            cluster.live_ids(),
            vec![0, 1],
            "failed calls change nothing"
        );
    }

    #[test]
    fn different_seeds_draw_different_fault_schedules() {
        let run = |seed| {
            let group = SchnorrGroup::default();
            let mut cluster = Cluster::new(3, group, seed, FaultConfig::default()).unwrap();
            for _ in 0..4 {
                cluster.mine_on(0, 2).unwrap();
                cluster.step();
            }
            (
                cluster.node(0).unwrap().tip_hash().unwrap(),
                cluster.fault_stats(),
            )
        };
        let (tip_a, faults_a) = run(1);
        let (tip_b, faults_b) = run(2);
        // Chains differ (different minted keys), so tips must differ.
        assert_ne!(tip_a, tip_b);
        assert_ne!(faults_a, faults_b, "fault schedules must differ");
    }

    #[test]
    fn failed_mine_on_leaves_the_mint_stream_untouched() {
        let group = SchnorrGroup::default();
        let mut a = Cluster::new(2, group, 31, FaultConfig::lossless()).unwrap();
        let mut b = Cluster::new(2, group, 31, FaultConfig::lossless()).unwrap();
        assert_eq!(b.mine_on(7, 2).unwrap_err(), NodeError::UnknownPeer(7));
        assert_eq!(
            a.mine_on(0, 2).unwrap().hash(),
            b.mine_on(0, 2).unwrap().hash(),
            "a failed mine_on moved the mint stream"
        );
    }

    #[test]
    fn gossip_frames_roundtrip_through_decode_frame() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(3);
        let identity = KeyPair::generate(&group, &mut rng);
        let tip = frame_tip(2, 9, [6u8; 32]);
        assert_eq!(
            decode_frame(&group, &tip).unwrap(),
            GossipFrame::Tip {
                sender: 2,
                height: 9,
                tip: [6u8; 32]
            }
        );
        let range = frame_range(1, 4, 9);
        assert_eq!(
            decode_frame(&group, &range).unwrap(),
            GossipFrame::Range {
                requester: 1,
                from: 4,
                to: 9
            }
        );
        let refusal = frame_refusal(0, 99, 16);
        assert_eq!(
            decode_frame(&group, &refusal).unwrap(),
            GossipFrame::Refusal {
                server: 0,
                requested: 99,
                cap: 16
            }
        );
        let a = Attestation::sign(&group, 0, 3, [1u8; 32], &identity, &mut rng).unwrap();
        let b = Attestation::sign(&group, 0, 3, [2u8; 32], &identity, &mut rng).unwrap();
        let proof = EquivocationProof { a, b };
        let ev = frame_evidence(&proof);
        assert_eq!(
            decode_frame(&group, &ev).unwrap(),
            GossipFrame::Evidence(proof)
        );
        // A block frame whose attestation covers a different block is an
        // attack, not a decode success.
        let chain = dams_blockchain::Chain::new(group);
        let genesis = chain.blocks()[0].clone();
        let stapled = Attestation::sign(&group, 0, 0, [9u8; 32], &identity, &mut rng).unwrap();
        let bad = frame_attested_block(&stapled, &genesis);
        assert!(decode_frame(&group, &bad).is_err());
        let good_att =
            Attestation::sign(&group, 0, 0, genesis.hash(), &identity, &mut rng).unwrap();
        let good = frame_attested_block(&good_att, &genesis);
        assert!(matches!(
            decode_frame(&group, &good),
            Ok(GossipFrame::Block { .. })
        ));
    }
}
