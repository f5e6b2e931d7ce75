//! 64-seed sweep of the anonymity-floor admission contract.
//!
//! Under any mix of floors, budgets, and exactness requirements, the
//! system degrades latency, never privacy: every answered request is
//! served by a tier whose measured [`Tier::anonymity_score`] meets the
//! declared floor, every unsatisfiable floor is refused as the typed
//! [`ShedReason::AnonymityFloor`], and a floored overload run replays
//! byte-identically from its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{Instance, SelectionPolicy, Tier};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};
use dams_obs::Registry;
use dams_svc::{
    build_arrivals, calibrate, service_config, Frontend, FrontendConfig, OverloadConfig, Request,
    Service, ShedReason,
};

const SEEDS: u64 = 64;

fn instance() -> Instance {
    Instance::fresh(TokenUniverse::new(
        (0..24u32).map(|i| HtId(i % 8)).collect(),
    ))
}

fn policy() -> SelectionPolicy {
    SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
}

/// Frontend path: random floors across 64 seeds; no answer below floor,
/// impossible floors always shed typed.
#[test]
fn frontend_never_answers_below_the_declared_floor() {
    let inst = instance();
    let max_declared = Tier::DEFAULT_LADDER
        .iter()
        .map(|t| t.anonymity_score())
        .max()
        .unwrap_or(0);
    let mut answered = 0u64;
    let mut floor_sheds = 0u64;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            seed,
            ..FrontendConfig::default()
        };
        let mut frontend = Frontend::new(&inst, policy(), cfg, &registry);
        for i in 0..24u32 {
            let floor = rng.gen_range(0..=max_declared + 1);
            let budget = if rng.gen_range(0..4u32) == 0 {
                60
            } else {
                1 << 20
            };
            let require_exact = rng.gen_range(0..8u32) == 0;
            match frontend.select_floored(TokenId(i % 8), budget, require_exact, floor) {
                Ok(sel) => {
                    answered += 1;
                    assert!(
                        sel.tier.anonymity_score() >= floor,
                        "seed {seed}: tier {} (score {}) answered below floor {floor}",
                        sel.tier,
                        sel.tier.anonymity_score()
                    );
                }
                Err(ShedReason::AnonymityFloor) => {
                    floor_sheds += 1;
                    assert!(
                        floor > max_declared
                            || (require_exact && floor > Tier::ExactBfs.anonymity_score()),
                        "seed {seed}: satisfiable floor {floor} shed (require_exact \
                         {require_exact})"
                    );
                }
                Err(_) => {}
            }
        }
        // A floor past every declared score is refused outright.
        assert_eq!(
            frontend.select_floored(TokenId(0), 1 << 20, false, u32::MAX),
            Err(ShedReason::AnonymityFloor),
            "seed {seed}"
        );
    }
    assert!(answered > 0, "sweep answered nothing");
    assert!(floor_sheds > 0, "sweep never exercised the floor shed");
}

/// Service path: a floored 4x-overload run sheds floors typed, keeps the
/// terminal accounting closed, and replays byte-identically.
#[test]
fn floored_overload_replays_byte_identically_and_sheds_typed() {
    let inst = instance();
    let policy = policy();
    let calib = calibrate(&inst, policy, 4);
    let mut total_floor_sheds = 0u64;
    for seed in 0..SEEDS {
        let over = OverloadConfig {
            seed,
            requests: 24,
            ..OverloadConfig::default()
        };
        let max_declared = Tier::DEFAULT_LADDER
            .iter()
            .map(|t| t.anonymity_score())
            .max()
            .unwrap_or(0);
        let arrivals: Vec<(u64, Request)> =
            build_arrivals(&over, &calib, inst.universe.len() as u64)
                .into_iter()
                .enumerate()
                .map(|(i, (tick, req))| {
                    (
                        tick,
                        Request {
                            anonymity_floor: (i as u32) % (max_declared + 2),
                            ..req
                        },
                    )
                })
                .collect();
        let run = || {
            let mut service = Service::new(&inst, policy, service_config(&over, &calib));
            service.run(&arrivals)
        };
        let a = run();
        let b = run();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "seed {seed}: floored overload run diverged on replay"
        );
        assert_eq!(
            a.completed + a.failed + a.shed_total(),
            a.offered,
            "seed {seed}: terminal accounting broke: {a:?}"
        );
        total_floor_sheds += a.shed_anonymity_floor;
    }
    assert!(
        total_floor_sheds > 0,
        "64-seed overload sweep never shed on the anonymity floor"
    );
}
