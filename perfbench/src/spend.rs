//! The spend workloads: one wallet in a closed loop, each op one spend
//! carried through every layer in the order `SimNode::seal_block` (miner)
//! and `SimNode::process_inbox` (peer) call them, each stage its own
//! timed call:
//!
//! index snapshot → degrade ladder → ring signature → Step-3 verify →
//! seal → WAL append + sync → checkpoint → index apply, then on the
//! peer: verify block → WAL append + sync → adopt → checkpoint → index
//! apply.
//!
//! The stores run on in-memory backends: the store's framing, checksums,
//! checkpoint construction and recovery all run, but no device. On a
//! small shared machine the device's fsync tail made every disk-bound
//! figure swing by up to 2× between runs, which no bound can hold.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_blockchain::{
    block_to_bytes, signature_to_bytes, transaction_to_bytes, Amount, Block, Chain,
    NoConfiguration, RingInput, TokenId as LedgerToken, TokenOutput, Transaction,
};
use dams_core::{
    select_with_ladder_exec, CoreMetrics, DiversityIndex, LadderExec, SelectionPolicy, Tier,
};
use dams_crypto::{sign, KeyPair, SchnorrGroup};
use dams_diversity::{DiversityRequirement, HtHistogram, HtId, RingIndex, RingSet, TokenId};
use dams_node::{block_delta, index_of_chain, validate_ring, Verdict};
use dams_obs::Registry;
use dams_store::{group_fingerprint, Checkpoint, MemBackend, Store, StoreConfig, StoreMetrics};
use dams_svc::admission::grant_budget;
use dams_workload::{ChainStream, StreamConfig};

use crate::layers::{tier_code, Counts, Run, TierClock};
use crate::trace::{traced_op, Call, Tracer};
use crate::{Outcome, RunArgs, MIN_OPS, SETUP_REPS};

/// The fixed shape of one spend workload.
#[derive(Debug, Clone, Copy)]
pub struct SpendShape {
    pub name: &'static str,
    /// Tokens the setup chain grows to.
    pub tokens: u64,
    /// TokenMagic batch parameter λ.
    pub lambda: usize,
    /// The wallet's ℓ; its c is [`SPEND_C`].
    pub l: usize,
}

impl SpendShape {
    /// The wallet's recursive (c, ℓ) requirement.
    pub fn requirement(&self) -> DiversityRequirement {
        DiversityRequirement::new(SPEND_C, self.l)
    }
}

/// The wallet's c in every spend workload.
const SPEND_C: f64 = 1.0;
/// Exact-tier candidates granted per selection (counter-only budget).
const EXACT_GRANT: u64 = 16;

pub const SPEND_LONG: SpendShape = SpendShape {
    name: "spend-long",
    tokens: 100_000,
    lambda: 64,
    l: 2,
};

pub const SPEND_WIDE: SpendShape = SpendShape {
    name: "spend-wide",
    tokens: 10_000,
    lambda: 256,
    l: 16,
};

/// Outputs per spend transaction (payment and change).
const OUTPUTS_PER_SPEND: usize = 2;
/// Spends whose deterministic counts enter the digest.
pub const DIGEST_OPS: usize = 64;

const KEY_DOMAIN: u64 = 0x6b65_7973_0000_0001;
const OP_DOMAIN: u64 = 0x7370_656e_6400_0002;

/// One replica: chain, store and incremental index.
pub struct Replica {
    pub chain: Chain,
    pub store: Option<Store>,
    pub index: DiversityIndex,
}

impl Replica {
    fn store(&mut self) -> &mut Store {
        self.store
            .as_mut()
            .expect("store attached until the checks")
    }
}

/// A set-up world: the ledger's keys plus miner and peer replicas.
pub struct World {
    pub shape: SpendShape,
    pub group: SchnorrGroup,
    /// Secret keys by token id (every output gets a fresh key).
    pub keys: Vec<KeyPair>,
    /// Tokens whose key image is already on chain.
    pub spent: Vec<bool>,
    pub miner: Replica,
    pub peer: Replica,
}

/// The strongest of the stream's claim or (1, 1) that the ring's own HT
/// histogram honestly satisfies; `None` when neither holds.
fn honest_claim(hts: &[u64], claimed: (f64, usize)) -> Option<(f64, usize)> {
    let hist = HtHistogram::from_hts(hts.iter().map(|&h| HtId(h as u32)));
    [claimed, (1.0, 1)]
        .into_iter()
        .find(|&(c, l)| DiversityRequirement::new(c, l).satisfied_by(&hist))
}

/// Grow a real chain in memory from a seeded `ChainStream`: every token a
/// fresh key, every streamed ring a real signed spend by one of its
/// members, one transaction per historical transaction of the stream.
pub fn grow_chain(shape: &SpendShape, seed: u64) -> (Chain, Vec<KeyPair>, Vec<bool>) {
    let group = SchnorrGroup::default();
    let mut stream = ChainStream::new(StreamConfig {
        seed,
        lambda: shape.lambda,
        ..StreamConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ KEY_DOMAIN);
    let mut chain = Chain::new(group);
    let mut keys: Vec<KeyPair> = Vec::new();
    let mut spent: Vec<bool> = Vec::new();
    while (chain.token_count() as u64) < shape.tokens {
        let delta = stream.next_block();
        let mut txs: Vec<Vec<TokenOutput>> = Vec::new();
        let mut last_ht = None;
        for &(_, ht) in &delta.minted {
            if last_ht != Some(ht) {
                txs.push(Vec::new());
                last_ht = Some(ht);
            }
            let kp = KeyPair::generate(&group, &mut rng);
            keys.push(kp);
            spent.push(false);
            txs.last_mut().expect("pushed above").push(TokenOutput {
                owner: kp.public,
                amount: Amount(1),
            });
        }
        let ring = delta.rings.first().and_then(|r| {
            let hts: Vec<u64> = r
                .tokens
                .iter()
                .map(|&t| {
                    chain
                        .token(LedgerToken(t))
                        .expect("ring over minted tokens")
                        .origin
                        .0
                })
                .collect();
            honest_claim(&hts, (r.claimed_c, r.claimed_l)).map(|claim| (r.tokens.clone(), claim))
        });
        for (i, outputs) in txs.into_iter().enumerate() {
            match (&ring, i) {
                (Some((members, (c, l))), 0) => {
                    let signer = members[rng.gen_range(0..members.len())] as usize;
                    let mut tx = Transaction {
                        inputs: vec![],
                        outputs,
                        memo: vec![],
                    };
                    let ring_keys: Vec<_> =
                        members.iter().map(|&t| keys[t as usize].public).collect();
                    let signature = sign(
                        &group,
                        &tx.signing_payload(),
                        &ring_keys,
                        &keys[signer],
                        &mut rng,
                    )
                    .expect("signer is a ring member");
                    tx.inputs.push(RingInput {
                        ring: members.iter().map(|&t| LedgerToken(t)).collect(),
                        signature,
                        claimed_c: *c,
                        claimed_l: *l,
                    });
                    chain
                        .submit(tx, &NoConfiguration)
                        .expect("setup spends verify");
                    spent[signer] = true;
                }
                _ => chain.submit_coinbase(outputs),
            }
        }
        chain.seal_block().expect("sealing extends the tip");
    }
    assert_eq!(chain.token_count(), keys.len(), "one key per minted token");
    (chain, keys, spent)
}

/// Open a store on copies of the chain's WAL and checkpoint images
/// (recovery replays and re-verifies them) and index its chain.
fn open_replica(chain: &Chain, images: &(Vec<u8>, Vec<u8>), lambda: usize) -> Replica {
    let recovered = Store::open(
        Box::new(MemBackend::from_durable(images.0.clone())),
        Box::new(MemBackend::from_durable(images.1.clone())),
        *chain.group(),
        StoreConfig::default(),
    )
    .expect("set-up store recovers");
    assert!(recovered.report.clean(), "set-up store recovered unclean");
    assert_eq!(recovered.chain.height(), chain.height());
    let index = index_of_chain(&recovered.chain, lambda).expect("chain indexes");
    Replica {
        chain: recovered.chain,
        store: Some(recovered.store),
        index,
    }
}

/// Full set-up: chain, keys, store images, miner and peer replicas.
pub fn setup(shape: &SpendShape, seed: u64) -> World {
    let (chain, keys, spent) = grow_chain(shape, seed);
    let group = *chain.group();
    let mut mem = Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .expect("fresh memory store")
    .store;
    for block in &chain.blocks()[1..] {
        mem.append_block(block).expect("memory append");
    }
    mem.write_checkpoint(&chain).expect("memory checkpoint");
    let (mut wal, mut cp) = mem.into_backends();
    let images = (
        wal.read_all().expect("WAL image"),
        cp.read_all().expect("checkpoint image"),
    );
    let miner = open_replica(&chain, &images, shape.lambda);
    let peer = open_replica(&chain, &images, shape.lambda);
    World {
        shape: *shape,
        group,
        keys,
        spent,
        miner,
        peer,
    }
}

/// Per-op inputs, generated from the seed before timing starts.
pub struct OpInput {
    /// Seed of the target draw.
    pick: u64,
    /// Seed of the signature's randomness.
    sign: u64,
    outputs: Vec<KeyPair>,
}

pub fn op_inputs(group: &SchnorrGroup, seed: u64, from: usize, count: usize) -> Vec<OpInput> {
    (from..from + count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(
                seed ^ OP_DOMAIN ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            OpInput {
                pick: rng.gen(),
                sign: rng.gen(),
                outputs: (0..OUTPUTS_PER_SPEND)
                    .map(|_| KeyPair::generate(group, &mut rng))
                    .collect(),
            }
        })
        .collect()
}

/// Möser et al.'s fit to the spend times of real Monero outputs:
/// ln(age in seconds) follows a gamma law of this shape and rate. Monero
/// wallets draw their decoys from the same law.
const SPEND_AGE_LN_GAMMA: (f64, f64) = (19.28, 1.61);
/// Monero's target block time: one block of the chain stands for one
/// Monero block.
const BLOCK_SECONDS: f64 = 120.0;

/// A standard normal draw (Box–Muller).
fn normal(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let v: f64 = rng.gen();
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// A gamma(shape, 1) draw for shape ≥ 1 (Marsaglia and Tsang).
fn gamma(shape: f64, rng: &mut StdRng) -> f64 {
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng);
        let v = (1.0 + c * x).powi(3);
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if v > 0.0 && u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// A spend age in blocks from [`SPEND_AGE_LN_GAMMA`], drawn again while
/// it reaches past the chain's first block, as a Monero wallet does.
pub fn spend_age(blocks: u64, rng: &mut StdRng) -> u64 {
    let (shape, rate) = SPEND_AGE_LN_GAMMA;
    loop {
        let age = ((gamma(shape, rng) / rate).exp() / BLOCK_SECONDS) as u64;
        if age < blocks {
            return age;
        }
    }
}

/// The wallet's choice of coin: a [`spend_age`], then the unspent token
/// born nearest that age, the younger on a tie across it. Only tokens of
/// closed batches are spendable: a batch's ring universe is fixed once it
/// holds λ tokens, as a Monero output unlocks only after ten blocks.
/// `skip` holds the coins this spend already tried.
pub fn pick_target(
    chain: &Chain,
    index: &DiversityIndex,
    spent: &[bool],
    skip: &[u64],
    rng: &mut StdRng,
) -> Option<u64> {
    let newest = index.batch_count().checked_sub(1)?;
    let spendable = match index.batch_closed(newest) {
        true => index.token_count(),
        false => index
            .batch_tokens(newest)
            .first()
            .copied()
            .unwrap_or(index.token_count()),
    };
    let born = |t: u64| chain.token(LedgerToken(t)).map_or(0, |r| r.block.0);
    let tip = chain.height() as u64 - 1;
    let want = tip - spend_age(tip + 1, rng);
    // Token ids follow mint order, so birth blocks ascend with the id:
    // `split` is the first spendable token born after `want`.
    let (mut split, mut end) = (0, spendable);
    while split < end {
        let mid = (split + end) / 2;
        if born(mid) <= want {
            split = mid + 1;
        } else {
            end = mid;
        }
    }
    let free = |t: &u64| !spent[*t as usize] && !skip.contains(t);
    let older = (0..split).rev().find(free);
    let younger = (split..spendable).find(free);
    match (older, younger) {
        (Some(o), Some(y)) if want - born(o) < born(y) - want => Some(o),
        (o, None) => o,
        (_, y) => y,
    }
}

/// What one completed spend left behind (for counts, digest and checks).
pub struct SpendRecord {
    pub target: u64,
    pub batch: usize,
    /// Batches minted after the target's when it was picked.
    pub batch_age: usize,
    /// Whether the target's batch was still open.
    pub batch_open: bool,
    /// Coins tried, this one included.
    pub attempts: u64,
    /// The committed ring, global token ids (sorted).
    pub ring: Vec<u64>,
    pub tier: Tier,
    pub work: u64,
    pub block: Block,
    pub wal_bytes: u64,
    pub cp_written: bool,
    pub block_ops: u64,
}

/// Why a spend failed.
pub type SpendError = &'static str;

fn checkpoint_due(store: &Store, chain: &Chain) -> bool {
    let height = chain.height() as u64 - 1;
    height >= store.checkpoint_height() + StoreConfig::default().checkpoint_interval
}

fn index_apply(
    index: &mut DiversityIndex,
    store: &Store,
    delta: &dams_core::BlockDelta,
) -> Result<(), SpendError> {
    index
        .apply_block(delta)
        .map_err(|_| "index rejected the block")?;
    // As `SimNode` does: journal entries below the checkpoint can never
    // be rolled back, so keep only the reorg horizon.
    let keep = delta.height.saturating_sub(store.checkpoint_height()) + 1;
    index.prune_journal(keep as usize);
    Ok(())
}

/// Coins a wallet tries before giving up on one spend.
const MAX_ATTEMPTS: usize = 16;

/// One spend through every layer (see the module docs). Like
/// `Wallet::spend`, the wallet validates the ladder's ring against
/// Definition 5 before it signs. Where `Wallet::spend` gives up, this
/// wallet picks another coin, so that ops do not fail; every coin tried
/// counts in `attempts_per_op`, and the ladder's errors and the refusals
/// are counted apart.
pub fn spend_once(
    w: &mut World,
    input: &OpInput,
    core: &CoreMetrics,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<SpendRecord, SpendError> {
    let shape = w.shape;
    let req = shape.requirement();
    let policy = SelectionPolicy::new(req);
    let miner = &mut w.miner;
    let mut picks = StdRng::seed_from_u64(input.pick);

    let mut tried = Vec::new();
    let mut chosen = None;
    while chosen.is_none() && tried.len() < MAX_ATTEMPTS {
        let target = pick_target(&miner.chain, &miner.index, &w.spent, &tried, &mut picks)
            .ok_or("no unspent token")?;
        tried.push(target);
        counts.attempts += 1;
        // Index snapshot of the target's batch.
        let (batch, snap) = tr
            .span(Call::IndexSnapshot, || {
                let batch = miner.index.batch_of(target)?;
                Some((batch, miner.index.snapshot(batch)?))
            })
            .ok_or("target not indexed")?;
        let local = snap
            .tokens
            .binary_search(&target)
            .map_err(|_| "target not in its batch")?;

        // Degrade ladder with a counter-only exact grant.
        let open = tr.enter(Call::DegradeSelect);
        let clock = TierClock::start(core, tr);
        let answer = select_with_ladder_exec(
            &snap.instance,
            TokenId(local as u32),
            policy,
            grant_budget(EXACT_GRANT),
            &Tier::DEFAULT_LADDER,
            core,
            &LadderExec {
                workers: 1,
                cache: None,
                modular: snap.modular.as_ref(),
            },
        );
        if tr.is_on() {
            tr.child(Call::BfsExact, clock.elapsed(core).0);
        }
        tr.exit(open);
        let Ok(sel) = answer else {
            counts.ladder_errors += 1;
            continue;
        };
        counts.answer(&sel);

        // The wallet's own Definition-5 check before it signs.
        counts.validations += 1;
        let verdict = tr.span(Call::ValidateRing, || {
            validate_ring(
                &sel.selection.ring,
                req,
                &snap.instance.rings,
                &snap.instance.claims,
                &snap.instance.universe,
            )
        });
        if verdict == Verdict::Eligible {
            chosen = Some((target, batch, snap, sel));
        } else {
            counts.validation_rejects += 1;
        }
    }
    let (target, batch, snap, sel) = chosen.ok_or("no coin yields an eligible ring")?;
    let batch_age = miner.index.batch_count() - 1 - batch;
    let batch_open = !miner.index.batch_closed(batch);
    let ring: Vec<u64> = sel
        .selection
        .ring
        .tokens()
        .iter()
        .map(|t| snap.tokens[t.0 as usize])
        .collect();

    // Ring signature over the ledger's keys of the ring members.
    let ring_keys: Vec<_> = ring
        .iter()
        .map(|&t| miner.chain.token(LedgerToken(t)).map(|r| r.owner))
        .collect::<Option<_>>()
        .ok_or("ring member unknown to the ledger")?;
    let mut tx = Transaction {
        inputs: vec![],
        outputs: input
            .outputs
            .iter()
            .map(|kp| TokenOutput {
                owner: kp.public,
                amount: Amount(1),
            })
            .collect(),
        memo: target.to_le_bytes().to_vec(),
    };
    let payload = tx.signing_payload();
    let signer = &w.keys[target as usize];
    let mut rng = StdRng::seed_from_u64(input.sign);
    let signature = tr
        .span(Call::BlsagSign, || {
            sign(&w.group, &payload, &ring_keys, signer, &mut rng)
        })
        .map_err(|_| "signing failed")?;
    counts.signed_members += ring.len() as u64;
    counts.sig_bytes += signature_to_bytes(&signature).len() as u64;
    tx.inputs.push(RingInput {
        ring: ring.iter().map(|&t| LedgerToken(t)).collect(),
        signature,
        claimed_c: SPEND_C,
        claimed_l: shape.l,
    });

    // Miner: Step-3 verify, seal, WAL, checkpoint, index.
    counts.chain_checks += 1;
    if tr
        .span(Call::ChainSubmit, || {
            miner.chain.submit(tx, &NoConfiguration)
        })
        .is_err()
    {
        counts.chain_rejects += 1;
        return Err("Step-3 verification rejected the spend");
    }
    w.spent[target as usize] = true;
    let block = tr
        .span(Call::ChainSeal, || {
            miner.chain.seal_block().ok()?;
            miner.chain.tip().ok().cloned()
        })
        .ok_or("sealing failed")?;
    let wal_before = miner.store().wal_len();
    tr.span(Call::WalAppend, || miner.store().append_block(&block))
        .map_err(|_| "miner WAL append failed")?;
    let wal_bytes = miner.store().wal_len() - wal_before;
    let due = checkpoint_due(miner.store.as_ref().expect("attached"), &miner.chain);
    let call = if due {
        Call::CheckpointWrite
    } else {
        Call::CheckpointMaybe
    };
    let cp_written = tr
        .span(call, || {
            let Replica { chain, store, .. } = &mut *miner;
            store.as_mut().expect("attached").maybe_checkpoint(chain)
        })
        .map_err(|_| "miner checkpoint failed")?;
    let delta = tr.span(Call::BlockDelta, || block_delta(&block));
    tr.span(Call::IndexApply, || {
        index_apply(
            &mut miner.index,
            miner.store.as_ref().expect("attached"),
            &delta,
        )
    })?;
    let block_ops = miner.index.stats().last_block_ops;

    // Peer: the `process_inbox` adoption sequence for the announced block.
    let peer = &mut w.peer;
    let open = tr.enter(Call::PeerAdopt);
    let announced = block.clone();
    counts.chain_checks += 1;
    let verified = tr.span(Call::ChainVerifyBlock, || {
        peer.chain.verify_block(&announced, &NoConfiguration)
    });
    let adopted = verified
        .map_err(|_| "peer rejected the block")
        .and_then(|()| {
            tr.span(Call::WalAppend, || peer.store().append_block(&announced))
                .map_err(|_| "peer WAL append failed")
        })
        .and_then(|()| {
            let delta = tr.span(Call::BlockDelta, || block_delta(&announced));
            tr.span(Call::ChainAdopt, || peer.chain.adopt_block(announced))
                .map_err(|_| "peer adoption failed")?;
            let due = checkpoint_due(peer.store.as_ref().expect("attached"), &peer.chain);
            let call = if due {
                Call::CheckpointWrite
            } else {
                Call::CheckpointMaybe
            };
            tr.span(call, || {
                let Replica { chain, store, .. } = &mut *peer;
                store.as_mut().expect("attached").maybe_checkpoint(chain)
            })
            .map_err(|_| "peer checkpoint failed")?;
            tr.span(Call::IndexApply, || {
                index_apply(
                    &mut peer.index,
                    peer.store.as_ref().expect("attached"),
                    &delta,
                )
            })
        });
    tr.exit(open);
    if adopted.is_err() {
        counts.chain_rejects += 1;
    }
    adopted?;

    Ok(SpendRecord {
        target,
        batch,
        batch_age,
        batch_open,
        attempts: tried.len() as u64,
        ring,
        tier: sel.tier,
        work: sel.selection.stats.diversity_checks + sel.selection.stats.candidates_examined,
        block,
        wal_bytes,
        cp_written,
        block_ops,
    })
}

/// Re-check every committed spend ring against Definition 5: the ring's
/// batch history up to (not including) the ring itself, read from the
/// final batch snapshot (batch-local labels never change once minted).
/// Returns the number of rings that fail.
pub fn check_rings(
    index: &DiversityIndex,
    records: &[(usize, Vec<u64>)],
    req: DiversityRequirement,
) -> u64 {
    let mut failed = 0;
    // Occurrences of identical rings already matched, per batch.
    let mut seen: std::collections::HashMap<(usize, Vec<u32>), usize> = Default::default();
    for (batch, ring) in records {
        let Some(snap) = index.snapshot(*batch) else {
            failed += 1;
            continue;
        };
        let local: Option<Vec<u32>> = ring
            .iter()
            .map(|t| snap.tokens.binary_search(t).ok().map(|i| i as u32))
            .collect();
        let Some(local) = local else {
            failed += 1;
            continue;
        };
        let candidate = RingSet::new(local.iter().map(|&t| TokenId(t)));
        let skip = seen.entry((*batch, local.clone())).or_insert(0);
        let position = snap
            .instance
            .rings
            .iter()
            .filter(|(_, r)| **r == candidate)
            .nth(*skip)
            .map(|(id, _)| id.0 as usize);
        *skip += 1;
        let Some(k) = position else {
            failed += 1;
            continue;
        };
        let history = RingIndex::from_rings((0..k).map(|i| {
            snap.instance
                .rings
                .ring(dams_diversity::RsId(i as u32))
                .clone()
        }));
        let verdict = validate_ring(
            &candidate,
            req,
            &history,
            &snap.instance.claims[..k],
            &snap.instance.universe,
        );
        if verdict != Verdict::Eligible {
            failed += 1;
        }
    }
    failed
}

/// Batch fingerprints of an index, for comparison with a rebuild.
fn fingerprints(index: &DiversityIndex) -> Vec<u64> {
    (0..index.batch_count())
        .map(|b| index.batch_fingerprint(b))
        .collect()
}

/// The whole-state checks after the timed phase; returns what failed.
pub fn check_world(w: &mut World) -> Vec<String> {
    let mut failures = Vec::new();
    let (miner_tip, peer_tip) = (
        w.miner.chain.tip().map(Block::hash),
        w.peer.chain.tip().map(Block::hash),
    );
    if miner_tip.is_err() || miner_tip != peer_tip {
        failures.push("miner and peer tips differ".to_string());
    }
    for (name, replica) in [("miner", &mut w.miner), ("peer", &mut w.peer)] {
        if !replica.chain.audit() {
            failures.push(format!("{name} chain fails its audit"));
        }
        match index_of_chain(&replica.chain, w.shape.lambda) {
            Ok(rebuilt) if fingerprints(&rebuilt) == fingerprints(&replica.index) => {}
            _ => failures.push(format!("{name} index differs from a rebuild of its chain")),
        }
        let reopened = match replica.store.take() {
            Some(store) => {
                let (wal, cp) = store.into_backends();
                Store::open(wal, cp, w.group, StoreConfig::default())
            }
            None => {
                failures.push(format!("{name} store missing"));
                continue;
            }
        };
        let tip = replica.chain.tip().map(|b| (b.header.height.0, b.hash()));
        match reopened {
            Ok(r) if r.report.clean() && tip == Ok((r.report.height, r.report.tip)) => {}
            Ok(r) => failures.push(format!(
                "{name} store re-opened unclean or at another tip: {}",
                r.report.render().replace('\n', " ")
            )),
            Err(e) => failures.push(format!("{name} store failed to re-open: {e}")),
        }
    }
    failures
}

/// Run one spend workload end to end.
pub fn run(shape: &SpendShape, args: &RunArgs) -> Outcome {
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous world first so peak memory holds one world.
        drop(world.take());
        let started = Instant::now();
        world = Some(setup(shape, args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up");

    let registry = Registry::new();
    let core = CoreMetrics::in_registry(&registry);
    let mut run = Run::new(shape.name);
    let mut records: Vec<(usize, Vec<u64>)> = Vec::new();

    // Inputs for the expected op count, generated before timing starts.
    let pool = (args.seconds as usize * 500).max(MIN_OPS);
    let mut inputs = op_inputs(&w.group, args.seed, 0, pool);
    let hits_before = w.miner.index.stats();
    let fsyncs_before = StoreMetrics::global().wal_fsyncs.get();
    // Completed spends by the age of their coin's batch in batches, in
    // cells 0, 1, 2–3, 4–7, …, 64 and older (0 is the newest batch).
    let mut by_age = [0u64; 8];
    let mut open_spends = 0u64;

    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds as f64 || (run.attempted as usize) < MIN_OPS
    {
        let i = run.attempted as usize;
        if i == inputs.len() {
            // Past the pre-generated pool (a much faster build): extend it.
            inputs.extend(op_inputs(&w.group, args.seed, i, pool));
        }
        let input = &inputs[i];
        run.tr.set_on(args.trace && traced_op(i as u64));
        let started = Instant::now();
        let open = run.tr.enter(Call::Op);
        let result = spend_once(&mut w, input, &core, &mut run.tr, &mut run.counts);
        run.tr.exit(open);
        let us = started.elapsed().as_secs_f64() * 1e6;
        run.attempted += 1;
        // Tokens the miner minted get their keys, whether or not the peer
        // followed.
        let minted = w.miner.chain.token_count() - w.keys.len();
        for kp in &input.outputs[..minted] {
            w.keys.push(*kp);
            w.spent.push(false);
        }
        let rec = match result {
            Ok(rec) => rec,
            Err(why) => {
                if run.failed == 0 {
                    eprintln!("{}: op {i} failed: {why}", shape.name);
                }
                run.failed += 1;
                continue;
            }
        };
        run.timed(us);
        let counts = &mut run.counts;
        counts.ops += 1;
        counts.block_ops.push(rec.block_ops);
        let tx_len = transaction_to_bytes(&rec.block.transactions[0].tx).len() as u64;
        let block_len = block_to_bytes(&rec.block).len() as u64;
        counts.block_bytes.push(block_len);
        counts.cp_writes += u64::from(rec.cp_written);
        // The encoded size of the checkpoint just written, re-derived for
        // the digest's ops only: it costs as much as the write itself.
        let cp_bytes = match (rec.cp_written, i < DIGEST_OPS) {
            (true, true) => {
                let store = w.miner.store.as_ref().expect("attached");
                let fp = group_fingerprint(&w.group);
                let cp = Checkpoint::of_chain(&w.miner.chain, fp, store.wal_len());
                let len = cp.map_or(0, |cp| cp.encode().len() as u64);
                counts.cp_sized += 1;
                counts.cp_bytes += len;
                len
            }
            _ => 0,
        };
        run.ring_sizes += rec.ring.len() as u64;
        run.tx_bytes += tx_len;
        let cell = (usize::BITS - rec.batch_age.leading_zeros()) as usize;
        by_age[cell.min(by_age.len() - 1)] += 1;
        open_spends += u64::from(rec.batch_open);
        if i < DIGEST_OPS {
            run.digest.record(&[
                ("target", rec.target),
                ("attempts", rec.attempts),
                ("ring_size", rec.ring.len() as u64),
                ("tier", tier_code(rec.tier)),
                ("work", rec.work),
                ("block_ops", rec.block_ops),
                ("wal_bytes", rec.wal_bytes),
                ("checkpoint_bytes", cp_bytes),
                ("tx_bytes", tx_len),
                ("block_bytes", block_len),
            ]);
        }
        records.push((rec.batch, rec.ring));
    }
    let phase_s = phase.elapsed().as_secs_f64();
    run.tr.set_on(false);
    let hits_after = w.miner.index.stats();
    run.counts.snapshot_hits = hits_after.snapshot_hits - hits_before.snapshot_hits;
    run.counts.snapshot_misses = hits_after.snapshot_misses - hits_before.snapshot_misses;
    run.counts.wal_fsyncs = StoreMetrics::global().wal_fsyncs.get() - fsyncs_before;

    // Output checks, after the timed phase.
    run.failed += check_rings(&w.miner.index, &records, shape.requirement());
    let world_failures = check_world(&mut w);
    for f in &world_failures {
        eprintln!("{}: check failed: {f}", shape.name);
    }
    if !world_failures.is_empty() {
        // A diverged replica or store taints every op it carried.
        run.failed = run.attempted;
    }
    let notes = vec![
        format!("\"setup_s_each\": {setup_s:?}"),
        format!("\"chain_tokens\": {}", w.miner.chain.token_count()),
        format!("\"chain_blocks\": {}", w.miner.chain.height()),
        format!("\"rings_rechecked\": {}", records.len()),
        format!("\"spends_by_batch_age\": {by_age:?}"),
        format!("\"open_batch_spends\": {open_spends}"),
        format!("\"ladder_errors\": {}", run.counts.ladder_errors),
        format!(
            "\"definition5_refusals\": {}",
            run.counts.validation_rejects
        ),
    ];
    run.finish(args.trace, phase_s, &setup_s, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Digest;

    const TINY: SpendShape = SpendShape {
        name: "tiny",
        tokens: 600,
        lambda: 32,
        l: 2,
    };

    #[test]
    fn spend_ages_follow_the_fitted_law() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ages: Vec<u64> = (0..4_000).map(|_| spend_age(u64::MAX, &mut rng)).collect();
        ages.sort_unstable();
        // ln(seconds) has median ≈ (19.28 − 1/3) / 1.61 ≈ 11.77, about
        // 1,070 blocks of 120 s.
        let median = ages[ages.len() / 2];
        assert!((900..1_250).contains(&median), "median age {median}");
        let mut rng = StdRng::seed_from_u64(9);
        assert!((0..200).all(|_| spend_age(50, &mut rng) < 50));
    }

    #[test]
    fn the_chain_is_a_function_of_the_seed() {
        let (a, ka, _) = grow_chain(&TINY, 5);
        let (b, kb, _) = grow_chain(&TINY, 5);
        let (c, _, _) = grow_chain(&TINY, 6);
        assert_eq!(a.tip().unwrap().hash(), b.tip().unwrap().hash());
        assert_eq!(ka.len(), kb.len());
        assert_ne!(a.tip().unwrap().hash(), c.tip().unwrap().hash());
        assert!(a.audit());
        // Every committed claim is honest, so recovery re-verifies clean.
        assert!(dams_store::recheck_immutability(&a).violations.is_empty());
    }

    #[test]
    fn spends_commit_pass_every_check_and_repeat_exactly() {
        let mut summaries = Vec::new();
        for _ in 0..2 {
            let mut w = setup(&TINY, 3);
            let core = CoreMetrics::in_registry(&Registry::new());
            let mut tr = Tracer::new();
            let mut counts = Counts::default();
            let inputs = op_inputs(&w.group, 3, 0, 12);
            let mut records = Vec::new();
            let mut digest = Digest::new("tiny");
            for input in &inputs {
                let rec = spend_once(&mut w, input, &core, &mut tr, &mut counts).unwrap();
                assert!(!rec.batch_open, "coins come from closed batches only");
                for kp in &input.outputs {
                    w.keys.push(*kp);
                    w.spent.push(false);
                }
                digest.record(&[("ring", rec.ring.len() as u64), ("work", rec.work)]);
                records.push((rec.batch, rec.ring));
            }
            let req = TINY.requirement();
            assert_eq!(check_rings(&w.miner.index, &records, req), 0);
            assert_eq!(check_world(&mut w), Vec::<String>::new());
            summaries.push(digest.finish());

            // A corrupted ring is caught: one that was never committed as
            // recorded, and a committed one held to a requirement its HT
            // histogram misses.
            let (batch, ring) = records[0].clone();
            let mut corrupt = ring.clone();
            corrupt.truncate(1);
            assert_eq!(check_rings(&w.miner.index, &[(batch, corrupt)], req), 1);
            let strict = DiversityRequirement::new(0.1, ring.len());
            assert_eq!(check_rings(&w.miner.index, &[(batch, ring)], strict), 1);
        }
        assert_eq!(summaries[0], summaries[1], "same seed, same digest");
    }
}
