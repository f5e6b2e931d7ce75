//! Seeded Byzantine actors and the adversarial-peer gauntlet.
//!
//! Each [`Actor`] occupies a cluster slot with a *registered* identity —
//! the threat model is an authenticated peer turning hostile, not an
//! unauthenticated stranger — and drives one attack playbook through the
//! same fault channel honest traffic uses:
//!
//! * **Equivocator** — signs attestations over two distinct valid blocks
//!   at one height and floods both to every honest peer. The defense's
//!   staging window lets the conflicting attestations collide before
//!   either block reaches a chain; the collision yields a self-contained
//!   [`crate::peers::EquivocationProof`] every peer verifies locally.
//! * **Spammer** — drives a [`BurstSchedule`] frame cannon of
//!   well-formed tip announcements. Token buckets absorb the baseline,
//!   flood records tax the peaks, quarantine pressure converts sustained
//!   abuse into a ban.
//! * **Withholder** — forever advertises a tip far beyond its chain and
//!   never answers the range requests it provokes. Unanswered range
//!   watches strike into `StaleTipSpam` records.
//! * **Ring-poisoner** — spends coins it legitimately owns in a
//!   structurally valid, correctly signed ring whose claimed (c, ℓ)
//!   recursive diversity is a lie (every ring member shares one history
//!   tree). The block passes every chain check; per-block diversity
//!   re-verification at gossip intake is the only thing standing between
//!   it and the ledger.
//!
//! [`run_byzantine_scenario`] scripts a mining run with f such actors
//! alongside N honest replicas, then demands the *defended* state: honest
//! convergence at the adversary-free height, every Byzantine peer banned
//! by every honest replica with attributed misbehavior records, no
//! poisoned ring adopted anywhere, and honest selection verdicts
//! byte-identical to the same-seed adversary-free run.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{
    block_to_bytes, Amount, BatchList, NoConfiguration, TokenId, TokenOutput, Transaction,
};
use dams_crypto::sha256::{sha256, Digest};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_workload::BurstSchedule;

use crate::error::NodeError;
use crate::faults::{FaultConfig, FaultStats};
use crate::gossip::{frame_attested_block, frame_tip, Cluster, GossipStats};
use crate::network::SimNode;
use crate::peers::Attestation;

/// The attack playbooks the gauntlet exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorKind {
    Equivocator,
    Spammer,
    Withholder,
    RingPoisoner,
}

impl ActorKind {
    pub const ALL: [ActorKind; 4] = [
        ActorKind::Equivocator,
        ActorKind::Spammer,
        ActorKind::Withholder,
        ActorKind::RingPoisoner,
    ];

    /// Stable kebab-case name (CLI flags, reports, JSON rows).
    pub fn label(&self) -> &'static str {
        match self {
            ActorKind::Equivocator => "equivocator",
            ActorKind::Spammer => "spammer",
            ActorKind::Withholder => "withholder",
            ActorKind::RingPoisoner => "ring-poisoner",
        }
    }

    pub fn parse(s: &str) -> Option<ActorKind> {
        ActorKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// The standard adversary mix at strength `f`: the first `f` kinds,
    /// cycling — so f=1 fields an equivocator, f=4 one of each.
    pub fn mix(f: usize) -> Vec<ActorKind> {
        (0..f)
            .map(|i| ActorKind::ALL[i % ActorKind::ALL.len()])
            .collect()
    }
}

impl std::fmt::Display for ActorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One Byzantine peer: a playbook, a registered identity, and a seeded
/// rng so every attack replays byte-identically.
pub struct Actor {
    kind: ActorKind,
    id: usize,
    group: SchnorrGroup,
    identity: KeyPair,
    rng: StdRng,
    bursts: BurstSchedule,
    /// Crafted attack frames, built once then replayed (re-crafting each
    /// tick would self-equivocate via fresh signatures).
    crafted: Option<Vec<Vec<u8>>>,
    /// Remaining broadcast ticks for the crafted frames.
    sends_left: u64,
}

impl Actor {
    pub(crate) fn new(
        kind: ActorKind,
        id: usize,
        group: SchnorrGroup,
        identity: KeyPair,
        seed: u64,
    ) -> Self {
        Actor {
            kind,
            id,
            group,
            identity,
            rng: StdRng::seed_from_u64(seed),
            bursts: BurstSchedule::spammer(seed ^ 0x5b_a3_3e_d5),
            crafted: None,
            sends_left: match kind {
                ActorKind::Equivocator => 12,
                ActorKind::Spammer => u64::MAX,
                ActorKind::Withholder => 400,
                ActorKind::RingPoisoner => 6,
            },
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn kind(&self) -> ActorKind {
        self.kind
    }

    /// Emit this tick's attack traffic: `(destination, frame)` pairs fed
    /// into the fault channel. `shadow` is the actor's honest-protocol
    /// chain tracker; `minted` maps token ids to the keypairs that own
    /// them (the poisoner's legitimately held coins).
    pub(crate) fn act(
        &mut self,
        shadow: &SimNode,
        honest: &[usize],
        minted: &[(u64, KeyPair)],
        tick: u64,
    ) -> Vec<(usize, Vec<u8>)> {
        match self.kind {
            ActorKind::Equivocator => {
                if self.crafted.is_none() && shadow.chain().height() >= 2 {
                    self.crafted = self.craft_equivocation(shadow);
                }
                self.broadcast(honest)
            }
            ActorKind::Spammer => {
                let shots = self.bursts.intensity(tick);
                let height = shadow.chain().height() as u64 + 7 + tick % 5;
                let fake = sha256(&tick.to_le_bytes());
                let mut out = Vec::with_capacity(shots as usize * honest.len());
                for _ in 0..shots {
                    for &dest in honest {
                        out.push((dest, frame_tip(self.id, height, fake)));
                    }
                }
                out
            }
            ActorKind::Withholder => {
                if self.sends_left == 0 {
                    return Vec::new();
                }
                self.sends_left -= 1;
                // Advertise riches, serve nothing: the claimed tip stays
                // far enough ahead that honest mining never reaches it.
                let height = shadow.chain().height() as u64 + 50;
                let fake = sha256(b"withheld-tip");
                honest
                    .iter()
                    .map(|&dest| (dest, frame_tip(self.id, height, fake)))
                    .collect()
            }
            ActorKind::RingPoisoner => {
                if self.crafted.is_none() {
                    self.crafted = self.craft_poison(shadow, minted);
                }
                self.broadcast(honest)
            }
        }
    }

    fn broadcast(&mut self, honest: &[usize]) -> Vec<(usize, Vec<u8>)> {
        let Some(frames) = &self.crafted else {
            return Vec::new();
        };
        if self.sends_left == 0 {
            return Vec::new();
        }
        self.sends_left -= 1;
        let mut out = Vec::with_capacity(frames.len() * honest.len());
        for frame in frames {
            for &dest in honest {
                out.push((dest, frame.clone()));
            }
        }
        out
    }

    /// Two distinct, individually valid children of the shadow tip, each
    /// under its own signed attestation at the same height.
    fn craft_equivocation(&mut self, shadow: &SimNode) -> Option<Vec<Vec<u8>>> {
        let mut frames = Vec::with_capacity(2);
        for _ in 0..2 {
            let mut fork = shadow.chain().clone();
            let kp = KeyPair::generate(&self.group, &mut self.rng);
            fork.submit_coinbase(vec![TokenOutput {
                owner: kp.public,
                amount: Amount(1),
            }]);
            fork.seal_block().ok()?;
            let block = fork.tip().ok()?.clone();
            let att = Attestation::sign(
                &self.group,
                self.id as u64,
                block.header.height.0,
                block.hash(),
                &self.identity,
                &mut self.rng,
            )?;
            frames.push(frame_attested_block(&att, &block));
        }
        Some(frames)
    }

    /// A block that survives every chain-level check — known tokens,
    /// sorted ring, fresh key image, valid ring signature by a key the
    /// actor really owns — while its ring's claimed (c, ℓ)-diversity is
    /// false: all members share one history tree, so the ℓ-th tail sum is
    /// zero and any positive c is violated.
    fn craft_poison(
        &mut self,
        shadow: &SimNode,
        minted: &[(u64, KeyPair)],
    ) -> Option<Vec<Vec<u8>>> {
        let chain = shadow.chain();
        // Group the coins this actor can spend by origin transaction
        // (= history tree); any group of 2+ makes a zero-diversity ring.
        let mut by_origin: BTreeMap<u64, Vec<(u64, KeyPair)>> = BTreeMap::new();
        for &(tid, kp) in minted {
            if let Some(rec) = chain.token(TokenId(tid)) {
                if rec.owner == kp.public {
                    by_origin.entry(rec.origin.0).or_default().push((tid, kp));
                }
            }
        }
        let coins = by_origin.into_values().find(|v| v.len() >= 2)?;
        let spender = coins[0].1;
        let ring: Vec<TokenId> = coins.iter().map(|&(t, _)| TokenId(t)).collect();
        let payee = KeyPair::generate(&self.group, &mut self.rng);
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: payee.public,
                amount: Amount(1),
            }],
            memo: b"looks legitimate".to_vec(),
        };
        let input = chain
            .sign_ring_input(&tx, &ring, &spender, (1.0, 2), &mut self.rng)
            .ok()?;
        tx.inputs.push(input);
        let mut fork = chain.clone();
        fork.submit(tx, &NoConfiguration).ok()?;
        fork.seal_block().ok()?;
        let block = fork.tip().ok()?.clone();
        let att = Attestation::sign(
            &self.group,
            self.id as u64,
            block.header.height.0,
            block.hash(),
            &self.identity,
            &mut self.rng,
        )?;
        Some(vec![frame_attested_block(&att, &block)])
    }
}

/// Chain height every gauntlet run must reach (genesis + 16 mined
/// blocks).
pub const SCENARIO_HEIGHT: usize = 17;

/// Fixed tick horizon every run is padded to, so goodput denominators —
/// and therefore the f=1-within-10%-of-f=0 gate — are f-invariant.
pub const SCENARIO_HORIZON: u64 = 400;

fn step_and_announce(cluster: &mut Cluster) {
    cluster.step();
    if cluster.tick().is_multiple_of(4) {
        cluster.announce_tips();
    }
}

/// The scripted gauntlet run: mine 4 blocks, then 8 more interleaved
/// with 24 ticks of live adversary traffic, then 4 more; drive to the
/// defended state; pad to the fixed horizon. The transport is lossless —
/// transport faults have their own gauntlet in
/// [`crate::gossip::run_cluster_scenario`]; here every frame the
/// adversary fires is guaranteed to arrive, which is the harder case for
/// the defense and keeps verdicts deterministic.
fn drive(
    seed: u64,
    honest: usize,
    actors: &[ActorKind],
) -> Result<(Cluster, Option<u64>), NodeError> {
    let group = SchnorrGroup::default();
    let mut cluster =
        Cluster::with_byzantine(honest, actors, group, seed, FaultConfig::lossless())?;
    for _ in 0..4 {
        cluster.mine_on(0, 2)?;
        step_and_announce(&mut cluster);
    }
    for t in 0..24u64 {
        if t % 3 == 0 {
            cluster.mine_on(0, 2)?;
        }
        step_and_announce(&mut cluster);
    }
    for _ in 0..4 {
        cluster.mine_on(0, 2)?;
        step_and_announce(&mut cluster);
    }
    let ticks = cluster.run_until_defended(SCENARIO_HEIGHT, 1200);
    while cluster.tick() < SCENARIO_HORIZON {
        step_and_announce(&mut cluster);
    }
    Ok((cluster, ticks))
}

/// Honest selection state, hashed: node 0's full block bytes plus its
/// derived batch list. Two runs whose snapshots match made byte-identical
/// selection decisions.
pub fn selection_snapshot(cluster: &Cluster) -> Option<Digest> {
    let node = cluster.node(0)?;
    let mut buf = Vec::new();
    for block in node.chain().blocks() {
        buf.extend_from_slice(&block_to_bytes(block));
    }
    let batches = BatchList::build(node.chain(), 4);
    buf.extend_from_slice(format!("{:?}", batches.batches()).as_bytes());
    Some(sha256(&buf))
}

/// Outcome of one gauntlet run (see [`run_byzantine_scenario`]).
#[derive(Debug, Clone)]
pub struct ByzantineReport {
    pub seed: u64,
    pub honest: usize,
    pub actors: Vec<ActorKind>,
    /// Honest replicas ended on byte-identical tips.
    pub converged: bool,
    /// Final honest chain height (must equal [`SCENARIO_HEIGHT`]).
    pub height: usize,
    /// Ticks from scenario start until the defended state, `None` when
    /// the budget ran out first.
    pub ticks: Option<u64>,
    /// Every Byzantine peer is banned by every honest replica.
    pub all_banned: bool,
    /// No honest chain adopted any ring-bearing transaction (the
    /// scenario mines coinbase only, so any input is poison).
    pub no_poison: bool,
    pub snapshot: Option<Digest>,
    /// Snapshot equals the same-seed adversary-free run's.
    pub snapshot_match: bool,
    /// Honest block adoptions per tick over the fixed horizon.
    pub goodput: f64,
    pub baseline_goodput: f64,
    /// Misbehavior records across all honest defenses, by offense label.
    pub offenses: Vec<(String, u64)>,
    /// Records that accuse an *honest* peer — false positives. Zero on a
    /// lossless transport; bounded, recoverable noise under loss.
    pub honest_accusations: u64,
    pub fault_stats: FaultStats,
    pub gossip_stats: GossipStats,
}

impl ByzantineReport {
    /// Whether the run reached the fully defended state.
    pub fn ok(&self) -> bool {
        self.converged
            && self.height == SCENARIO_HEIGHT
            && self.ticks.is_some()
            && self.all_banned
            && self.no_poison
            && self.snapshot_match
    }

    /// Deterministic multi-line rendering for `dams-cli cluster-sim
    /// --byzantine`; the last line is the grep-able verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("byzantine report:\n");
        let kinds: Vec<&str> = self.actors.iter().map(|a| a.label()).collect();
        out.push_str(&format!(
            "  scenario: seed {}, {} honest + {} byzantine [{}], height {}\n",
            self.seed,
            self.honest,
            self.actors.len(),
            kinds.join(", "),
            self.height
        ));
        out.push_str(&format!(
            "  defense: {}\n",
            match self.ticks {
                Some(t) => format!("defended state after {t} ticks"),
                None => "tick budget exhausted before defended state".into(),
            }
        ));
        out.push_str(&format!(
            "  bans: {}\n",
            if self.all_banned {
                "every byzantine peer banned by every honest replica"
            } else {
                "INCOMPLETE"
            }
        ));
        out.push_str(&format!(
            "  poisoned rings adopted: {}\n",
            if self.no_poison { "none" } else { "PRESENT" }
        ));
        let snap = self
            .snapshot
            .map(|d| {
                d[..8]
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect::<String>()
            })
            .unwrap_or_else(|| "unavailable".into());
        out.push_str(&format!(
            "  selection snapshot: {snap} ({})\n",
            if self.snapshot_match {
                "byte-identical to adversary-free run"
            } else {
                "DIVERGES FROM ADVERSARY-FREE RUN"
            }
        ));
        out.push_str(&format!(
            "  goodput: {:.4} blocks/tick vs {:.4} adversary-free\n",
            self.goodput, self.baseline_goodput
        ));
        out.push_str(&format!(
            "  false positives: {} records accusing honest peers\n",
            self.honest_accusations
        ));
        if self.offenses.is_empty() {
            out.push_str("  offenses: none recorded\n");
        } else {
            let parts: Vec<String> = self
                .offenses
                .iter()
                .map(|(label, n)| format!("{label} x{n}"))
                .collect();
            out.push_str(&format!("  offenses: {}\n", parts.join(", ")));
        }
        let g = &self.gossip_stats;
        out.push_str(&format!(
            "  gossip: {} announcements, {} range requests, {} frames rejected, \
             {} dup announces, {} refusals, {} evidence frames, {} diversity rejects\n",
            g.announcements,
            g.range_requests,
            g.frames_rejected,
            g.dup_announces,
            g.range_refusals,
            g.evidence_frames,
            g.diversity_rejects
        ));
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.ok() {
                "CONVERGED"
            } else {
                "COMPROMISED"
            }
        ));
        out
    }
}

/// Run the adversarial-peer gauntlet: N honest replicas, one Byzantine
/// slot per entry of `actors`, everything derived from `seed`. When
/// `actors` is non-empty, the same-seed adversary-free run supplies the
/// baseline snapshot and goodput the defended state is judged against.
pub fn run_byzantine_scenario(
    seed: u64,
    honest: usize,
    actors: &[ActorKind],
) -> Result<ByzantineReport, NodeError> {
    let (cluster, ticks) = drive(seed, honest, actors)?;
    let snapshot = selection_snapshot(&cluster);
    let goodput = cluster.gossip_stats().blocks_applied as f64 / SCENARIO_HORIZON as f64;
    let (baseline_snapshot, baseline_goodput) = if actors.is_empty() {
        (snapshot, goodput)
    } else {
        let (baseline, _) = drive(seed, honest, &[])?;
        (
            selection_snapshot(&baseline),
            baseline.gossip_stats().blocks_applied as f64 / SCENARIO_HORIZON as f64,
        )
    };
    let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut honest_accusations = 0u64;
    for &i in &cluster.live_ids() {
        if let Some(d) = cluster.defense(i) {
            for r in d.records() {
                *tally.entry(r.offense.label()).or_default() += 1;
                if r.peer < honest {
                    honest_accusations += 1;
                }
            }
        }
    }
    let byz = cluster.byzantine_ids();
    let all_banned = cluster.live_ids().iter().all(|&i| {
        byz.iter()
            .all(|&b| cluster.defense(i).is_some_and(|d| d.is_banned(b)))
    });
    let no_poison = cluster.live_ids().iter().all(|&i| {
        cluster.node(i).is_some_and(|n| {
            n.chain()
                .blocks()
                .iter()
                .all(|b| b.transactions.iter().all(|ct| ct.tx.inputs.is_empty()))
        })
    });
    let height = cluster
        .node(0)
        .map(|n| n.chain().height())
        .unwrap_or_default();
    Ok(ByzantineReport {
        seed,
        honest,
        actors: actors.to_vec(),
        converged: cluster.converged(),
        height,
        ticks,
        all_banned,
        no_poison,
        snapshot,
        snapshot_match: snapshot.is_some() && snapshot == baseline_snapshot,
        goodput,
        baseline_goodput,
        offenses: tally.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        honest_accusations,
        fault_stats: cluster.fault_stats(),
        gossip_stats: cluster.gossip_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_kind_labels_roundtrip() {
        for kind in ActorKind::ALL {
            assert_eq!(ActorKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ActorKind::parse("gremlin"), None);
    }

    #[test]
    fn mix_cycles_through_all_kinds() {
        assert_eq!(ActorKind::mix(1), vec![ActorKind::Equivocator]);
        assert_eq!(ActorKind::mix(5).len(), 5);
        assert_eq!(ActorKind::mix(5)[4], ActorKind::Equivocator);
    }

    #[test]
    fn adversary_free_run_is_its_own_baseline() {
        let report = run_byzantine_scenario(3, 3, &[]).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.snapshot_match);
        assert_eq!(report.goodput, report.baseline_goodput);
        assert!(report.render().contains("verdict: CONVERGED"));
    }

    #[test]
    fn equivocator_is_caught_and_banned() {
        let report = run_byzantine_scenario(7, 3, &[ActorKind::Equivocator]).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(
            report
                .offenses
                .iter()
                .any(|(label, n)| label == "equivocation" && *n > 0),
            "{:?}",
            report.offenses
        );
    }
}
