//! E-voting scenario (§1, §7's "Summary of Results"): tokens are ballots,
//! a ring signature hides which voter cast a given vote.
//!
//! The paper recommends the Progressive algorithm (TM_P) for e-voting —
//! voters queue at a polling station, so *generation latency* matters more
//! than ring size. This example runs a polling-station day: a precinct
//! issues one ballot token per registered voter, voters cast votes with
//! TM_P under a per-voter diversity requirement, and a tally-time audit
//! confirms that chain-reaction analysis cannot link any vote to a voter.
//!
//! ```text
//! cargo run --release --example evoting
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

use dams_core::{progressive, Instance, ModularInstance, SelectionPolicy};
use dams_diversity::{analyze, DiversityRequirement, HtId, RingIndex, TokenId, TokenUniverse};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Registration: 120 voters across 30 registration batches (each batch
    // is one "historical transaction" — ballots issued together).
    let voters = 120usize;
    let batches = 30usize;
    let universe = TokenUniverse::new((0..voters).map(|i| HtId((i % batches) as u32)).collect());
    println!("precinct: {voters} ballots issued in {batches} registration batches");

    // Election day: voters arrive in random order; each casts a ballot
    // with TM_P under recursive (1, 6)-diversity.
    let req = DiversityRequirement::new(1.0, 6);
    let policy = SelectionPolicy::new(req);
    let mut order: Vec<u32> = (0..voters as u32).collect();
    order.shuffle(&mut rng);

    let mut committed = RingIndex::new();
    let mut claims = Vec::new();
    let mut total_micros = 0f64;
    let mut max_micros = 0f64;
    let mut cast = 0usize;
    let turnout = 40usize;

    for &voter in order.iter().take(turnout) {
        // Rebuild the modular view over the current history. Ballots in no
        // committed ring are fresh tokens; committed rings are supers.
        let instance = Instance::new(universe.clone(), committed.clone(), claims.clone());
        let Ok(modular) = ModularInstance::decompose(&instance) else {
            println!("history violated the practical configuration — halting");
            break;
        };
        let start = Instant::now();
        match progressive(&modular, TokenId(voter), policy) {
            Ok(sel) => {
                let micros = start.elapsed().as_nanos() as f64 / 1000.0;
                total_micros += micros;
                max_micros = max_micros.max(micros);
                committed.push(sel.ring);
                claims.push(req);
                cast += 1;
            }
            Err(e) => {
                println!("voter {voter}: cannot cast yet ({e}) — would relax requirement");
            }
        }
    }
    println!(
        "votes cast: {cast}/{turnout}; mean TM_P latency {:.0} µs, worst {:.0} µs",
        total_micros / cast.max(1) as f64,
        max_micros
    );
    // The paper's polling-station arithmetic: +100 ms per vote delays a
    // 1000-voter queue by over a minute — TM_P stays far below that.
    assert!(
        max_micros < 100_000.0,
        "TM_P latency must stay polling-station friendly"
    );

    // Tally-time audit: the public bulletin board (all rings) yields no
    // vote-voter link under chain-reaction analysis.
    let audit = analyze(&committed, &[]);
    println!(
        "audit: {} of {} rings resolvable by chain-reaction analysis",
        audit.resolved_count(),
        committed.len()
    );
    assert_eq!(audit.resolved_count(), 0, "no vote may be linkable");

    // Even a coercer who watched some voters (side information) learns
    // nothing beyond those voters.
    let some_pairs: Vec<_> = audit
        .candidates
        .keys()
        .take(2)
        .map(|&rs| {
            let t = committed
                .ring(rs)
                .tokens()
                .first()
                .copied()
                .expect("rings are non-empty");
            dams_diversity::TokenRsPair::new(t, rs)
        })
        .collect();
    let coerced = analyze(&committed, &some_pairs);
    println!(
        "coercion probe: revealing {} ballots resolves {} rings total",
        some_pairs.len(),
        coerced.resolved_count()
    );

    let _ = rng.gen::<u8>(); // keep rng used even when turnout covers all arms
}
