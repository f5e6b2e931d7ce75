//! The 64-run adversarial-peer gauntlet.
//!
//! Every Byzantine actor kind, at strengths f ∈ {1, 2} against N ∈ {4, 5}
//! honest replicas, across 4 seeds per configuration — 64 scripted runs,
//! each demanding the fully defended state:
//!
//! * honest replicas converge on byte-identical tips at the
//!   adversary-free height;
//! * every Byzantine peer ends banned by every honest replica, with the
//!   offense that kind of actor actually commits on the record;
//! * no poisoned ring signature is adopted anywhere;
//! * honest selection verdicts (block bytes + derived batch list) are
//!   byte-identical to the same-seed adversary-free run;
//! * honest goodput over the fixed horizon stays within 10% of the
//!   adversary-free baseline.
//!
//! Failures name the seed and configuration so any regression replays
//! with a one-liner.

use dams_node::{run_byzantine_scenario, ActorKind, ByzantineReport, SCENARIO_HEIGHT};

/// The offense each playbook is guaranteed to put on the record.
fn signature_offense(kind: ActorKind) -> &'static str {
    match kind {
        ActorKind::Equivocator => "equivocation",
        ActorKind::Spammer => "flood_exceeded",
        ActorKind::Withholder => "stale_tip_spam",
        ActorKind::RingPoisoner => "diversity_violation",
    }
}

fn assert_defended(report: &ByzantineReport, ctx: &str) {
    assert!(report.ok(), "{ctx}: gauntlet failed\n{}", report.render());
    assert_eq!(report.height, SCENARIO_HEIGHT, "{ctx}");
    assert!(report.snapshot_match, "{ctx}: selection verdicts diverged");
    assert!(report.no_poison, "{ctx}: poisoned ring adopted");
    let ratio = report.goodput / report.baseline_goodput;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "{ctx}: goodput {:.4} vs baseline {:.4} (ratio {ratio:.3}) outside 10%",
        report.goodput,
        report.baseline_goodput
    );
    assert!(
        report.render().contains("verdict: CONVERGED"),
        "{ctx}: report must end in the grep-able verdict"
    );
}

#[test]
fn gauntlet_64_runs_across_actor_strength_and_size() {
    for (ki, kind) in ActorKind::ALL.into_iter().enumerate() {
        for f in [1usize, 2] {
            for honest in [4usize, 5] {
                for s in 0..4u64 {
                    let seed = (ki as u64) * 1009 + (f as u64) * 101 + (honest as u64) * 11 + s;
                    let actors = vec![kind; f];
                    let ctx = format!("kind {} f {f} honest {honest} seed {seed}", kind.label());
                    let report = run_byzantine_scenario(seed, honest, &actors)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_defended(&report, &ctx);
                    let expected = signature_offense(kind);
                    assert!(
                        report
                            .offenses
                            .iter()
                            .any(|(label, n)| label == expected && *n >= f as u64),
                        "{ctx}: expected offense {expected:?} on the record, got {:?}",
                        report.offenses
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_adversary_mob_is_fully_banned() {
    // All four playbooks at once against a 5-replica honest majority.
    for seed in [3u64, 17, 91] {
        let actors = ActorKind::mix(4);
        let report = run_byzantine_scenario(seed, 5, &actors).unwrap();
        assert_defended(&report, &format!("mixed mob seed {seed}"));
        for kind in ActorKind::ALL {
            let expected = signature_offense(kind);
            assert!(
                report.offenses.iter().any(|(label, _)| label == expected),
                "mixed mob seed {seed}: no {expected:?} record\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn gauntlet_replays_identically_from_one_seed() {
    let actors = ActorKind::mix(2);
    let a = run_byzantine_scenario(29, 4, &actors).unwrap();
    let b = run_byzantine_scenario(29, 4, &actors).unwrap();
    assert_eq!(
        a.render(),
        b.render(),
        "gauntlet must replay byte-identically"
    );
    assert_eq!(a.snapshot, b.snapshot);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.offenses, b.offenses);
}

#[test]
fn honest_peers_are_never_accused_on_a_lossless_transport() {
    // The gauntlet runs on a lossless transport, so every misbehavior
    // record must accuse a Byzantine id: zero false positives against
    // honest peers, for every playbook.
    for kind in ActorKind::ALL {
        let report = run_byzantine_scenario(7, 4, &[kind]).unwrap();
        assert_defended(&report, &format!("attribution {}", kind.label()));
        assert_eq!(
            report.honest_accusations,
            0,
            "kind {}: honest peer accused\n{}",
            kind.label(),
            report.render()
        );
    }
}
