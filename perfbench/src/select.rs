//! The selection-only workload, `select-exact`: a closed loop of frontend
//! selections on small instances shaped like the exact-BFS figure's, with
//! a grant large enough that the exact tier (Algorithm 2) answers every
//! request. Also the size table behind `tx_bytes_mean` and the
//! signature-size row.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dams_blockchain::{
    signature_to_bytes, transaction_to_bytes, Amount, RingInput, TokenOutput, Transaction,
};
use dams_core::{CoreMetrics, DegradedSelection, Instance, SelectionPolicy};
use dams_crypto::{sign, KeyPair, SchnorrGroup};
use dams_diversity::{DiversityRequirement, HtId, RingIndex, RingSet, TokenId, TokenUniverse};
use dams_obs::Registry;
use dams_svc::{Frontend, FrontendConfig};

use crate::layers::{tier_code, Run, TierClock};
use crate::trace::{traced_op, Call, Tracer};
use crate::{Outcome, RunArgs, MIN_OPS, SETUP_REPS};

/// `select-exact`'s budget: enough ticks that the exact tier never runs out.
pub const EXACT_BUDGET_TICKS: u64 = 1 << 40;
/// `select-exact`'s (instance, target) pairs and how they are screened.
pub const EXACT_PAIRS: usize = 128;
const TARGETS_PER_INSTANCE: usize = 2;
const SCREEN_CANDIDATES: u64 = 4_000;
const EXACT_TOKENS: u32 = 18;
const EXACT_REQ: (f64, usize) = (0.5, 3);
/// Seed of the `select-exact` pool (the exact-BFS figure's seed).
const EXACT_POOL_SEED: u64 = 42;
/// Requests whose deterministic counts enter the digest.
pub const DIGEST_OPS: usize = 256;

const EXACT_DOMAIN: u64 = 0x6578_6163_7400_0003;

/// Encoded sizes per ring size `n` (index `n`): the standalone signature
/// and a one-input, two-output spend transaction carrying it, built from
/// real keys and real signatures.
pub struct SizeTable {
    pub sig_bytes: Vec<u64>,
    pub tx_bytes: Vec<u64>,
}

impl SizeTable {
    pub fn build(max_ring: usize) -> SizeTable {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(0x5173);
        let mut table = SizeTable {
            sig_bytes: vec![0],
            tx_bytes: vec![0],
        };
        for n in 1..=max_ring {
            let keys: Vec<KeyPair> = (0..n)
                .map(|_| KeyPair::generate(&group, &mut rng))
                .collect();
            let ring: Vec<_> = keys.iter().map(|k| k.public).collect();
            let mut tx = Transaction {
                inputs: vec![],
                outputs: (0..2)
                    .map(|_| TokenOutput {
                        owner: KeyPair::generate(&group, &mut rng).public,
                        amount: Amount(1),
                    })
                    .collect(),
                memo: vec![0; 8],
            };
            let signature = sign(&group, &tx.signing_payload(), &ring, &keys[0], &mut rng)
                .expect("signer in ring");
            table
                .sig_bytes
                .push(signature_to_bytes(&signature).len() as u64);
            tx.inputs.push(RingInput {
                ring: (0..n as u64).map(dams_blockchain::TokenId).collect(),
                signature,
                claimed_c: 1.0,
                claimed_l: 1,
            });
            table.tx_bytes.push(transaction_to_bytes(&tx).len() as u64);
        }
        table
    }

    pub fn tx_bytes(&self, ring: usize) -> u64 {
        match self.tx_bytes.get(ring) {
            Some(&b) => b,
            // Past the table each member adds one response scalar and
            // one ring entry.
            None => {
                let last = self.tx_bytes.len() - 1;
                self.tx_bytes[last] + (ring - last) as u64 * 16
            }
        }
    }

    /// `{"sig_bytes_by_ring_size": {"2": b, ..., "32": b}}`
    pub fn row(&self, from: usize, to: usize) -> String {
        let cells: Vec<String> = (from..=to)
            .map(|n| format!("\"{n}\": {}", self.sig_bytes[n]))
            .collect();
        format!("{{\"sig_bytes_by_ring_size\": {{{}}}}}", cells.join(", "))
    }
}

/// Frontend span with the ladder's own tier timers as nested children.
fn traced_select<T>(tr: &mut Tracer, core: &CoreMetrics, f: impl FnOnce() -> T) -> T {
    let open = tr.enter(Call::FrontendSelect);
    let clock = TierClock::start(core, tr);
    let out = f();
    if tr.is_on() {
        let (exact, all) = clock.elapsed(core);
        let ladder = tr.child(Call::DegradeSelect, all);
        tr.child_of(ladder, Call::BfsExact, exact);
    }
    tr.exit(open);
    out
}

/// Fold one answered request into the run.
fn record_answer(
    run: &mut Run,
    sel: &DegradedSelection,
    sizes: &SizeTable,
    i: usize,
    key: [u64; 2],
) {
    run.counts.ops += 1;
    run.counts.answer(sel);
    let size = sel.selection.size();
    run.ring_sizes += size as u64;
    run.tx_bytes += sizes.tx_bytes(size);
    if i < DIGEST_OPS {
        let stats = sel.selection.stats;
        run.digest.record(&[
            ("instance", key[0]),
            ("target", key[1]),
            ("ring_size", size as u64),
            ("tier", tier_code(sel.tier)),
            ("work", stats.diversity_checks + stats.candidates_examined),
        ]);
    }
}

/// An instance shaped like the exact-BFS figure's: 18 tokens over 5 HTs
/// (round-robin, then shuffled), 4 committed 3-token rings claiming
/// (2, 1).
pub fn exact_instance(rng: &mut StdRng) -> Instance {
    let (n_tokens, n_hts) = (EXACT_TOKENS, 5u32);
    let mut hts: Vec<HtId> = (0..n_tokens).map(|i| HtId(i % n_hts)).collect();
    for i in (1..hts.len()).rev() {
        hts.swap(i, rng.gen_range(0..=i));
    }
    let mut rings = RingIndex::new();
    let mut claims = Vec::new();
    for _ in 0..4 {
        let mut members = Vec::new();
        while members.len() < 3 {
            let t = TokenId(rng.gen_range(0..n_tokens));
            if !members.contains(&t) {
                members.push(t);
            }
        }
        rings.push(RingSet::new(members));
        claims.push(DiversityRequirement::new(2.0, 1));
    }
    Instance::new(TokenUniverse::new(hts), rings, claims)
}

/// The `select-exact` request pool: instances and targets on which the
/// exact search answers within [`SCREEN_CANDIDATES`] candidates.
/// Screening drops the rare pairs whose search must prove infeasibility
/// or runs for seconds, which would fail or stall a request. The pool is
/// drawn from a fixed seed, like the exact-BFS figure's instance, so every
/// run measures the same mix of search costs; the run's seed orders it.
pub fn exact_pool() -> (Vec<Instance>, Vec<(usize, u32)>) {
    let mut rng = StdRng::seed_from_u64(EXACT_POOL_SEED ^ EXACT_DOMAIN);
    let req = DiversityRequirement::new(EXACT_REQ.0, EXACT_REQ.1);
    let budget = dams_core::BfsBudget {
        deadline: Some(dams_core::Deadline::Ticks(SCREEN_CANDIDATES)),
        ..dams_core::BfsBudget::default()
    };
    let mut instances = Vec::new();
    let mut pairs = Vec::new();
    while pairs.len() < EXACT_PAIRS {
        let instance = exact_instance(&mut rng);
        for _ in 0..TARGETS_PER_INSTANCE {
            let target = rng.gen_range(0..EXACT_TOKENS);
            if dams_core::bfs(&instance, TokenId(target), req, budget).is_ok() {
                pairs.push((instances.len(), target));
            }
        }
        instances.push(instance);
    }
    (instances, pairs)
}

/// `select-exact` (see the module docs).
pub fn run_exact(args: &RunArgs, sizes: &SizeTable) -> Outcome {
    let mut setup_s = Vec::new();
    let mut pool = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        pool = exact_pool();
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let (instances, pairs) = pool;
    let req = DiversityRequirement::new(EXACT_REQ.0, EXACT_REQ.1);
    let policy = SelectionPolicy::new(req);
    let registry = Registry::new();
    let mut frontend = Frontend::new(&instances[0], policy, FrontendConfig::default(), &registry);
    let core = CoreMetrics::in_registry(&registry);
    let mut run = Run::new("select-exact");
    // Whole passes over the pool, each in a fresh seeded order.
    let mut rng = StdRng::seed_from_u64(args.seed ^ EXACT_DOMAIN);
    let mut picks: Vec<(usize, u32)> = Vec::new();
    while picks.len() < MIN_OPS.max(args.seconds as usize * 1_000) {
        let mut pass = pairs.clone();
        pass.shuffle(&mut rng);
        picks.extend(pass);
    }

    // The phase ends on a pass boundary, so every pair counts equally.
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds as f64
        || (run.attempted as usize) < MIN_OPS
        || !(run.attempted as usize).is_multiple_of(pairs.len())
    {
        let i = run.attempted as usize;
        let (which, target) = picks[i % picks.len()];
        let instance = &instances[which];
        run.tr.set_on(args.trace && traced_op(i as u64));
        let start = Instant::now();
        let open = run.tr.enter(Call::Op);
        let result = traced_select(&mut run.tr, &core, || {
            frontend.select_on(instance, None, TokenId(target), EXACT_BUDGET_TICKS, false)
        });
        run.tr.exit(open);
        run.timed(start.elapsed().as_secs_f64() * 1e6);
        run.attempted += 1;
        run.counts.offered += 1;
        run.counts.attempts += 1;
        match result {
            Ok(sel)
                if sel.selection.ring.contains(TokenId(target))
                    && req.satisfied_by_ring(&sel.selection.ring, &instance.universe) =>
            {
                record_answer(&mut run, &sel, sizes, i, [which as u64, target as u64]);
            }
            Ok(_) => run.failed += 1,
            Err(_) => {
                run.counts.shed += 1;
                run.failed += 1;
            }
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    run.tr.set_on(false);
    let notes = vec![format!("\"setup_s_each\": {setup_s:?}")];
    run.finish(args.trace, phase_s, &setup_s, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_exact_pool_is_fixed_and_every_pair_answers() {
        let (xi, xp) = exact_pool();
        let (yi, yp) = exact_pool();
        assert_eq!(xp, yp);
        let render = |v: &[Instance]| {
            v.iter()
                .map(|i| format!("{:?}", i.universe))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&xi), render(&yi));
        assert_eq!(xp.len(), EXACT_PAIRS);
        let req = DiversityRequirement::new(EXACT_REQ.0, EXACT_REQ.1);
        for &(which, target) in xp.iter().take(8) {
            let sel = dams_core::bfs(
                &xi[which],
                TokenId(target),
                req,
                dams_core::BfsBudget::default(),
            )
            .expect("screened pairs answer");
            assert!(sel.ring.contains(TokenId(target)));
            assert!(req.satisfied_by_ring(&sel.ring, &xi[which].universe));
        }
    }

    #[test]
    fn signature_bytes_grow_by_one_scalar_per_member() {
        let t = SizeTable::build(32);
        for n in 2..=32 {
            assert_eq!(t.sig_bytes[n], t.sig_bytes[2] + 8 * (n as u64 - 2));
        }
        assert_eq!(t.tx_bytes(40), t.tx_bytes[32] + 8 * 16);
        assert!(t
            .row(2, 32)
            .starts_with("{\"sig_bytes_by_ring_size\": {\"2\": "));
    }
}
