//! Seed-sweep properties for the multi-node replication layer: the
//! scripted cluster scenario — gossip under the default fault model, a
//! minority partition healed mid-run, a crash/restart recovered from the
//! replica's own durable store and then caught up by range repair, and a
//! late joiner bootstrapped from a checkpoint bundle — must converge for
//! *every* seed, with the joiner's full verification bounded by the
//! checkpoint interval (O(tail), never O(chain)). A failure message names the seed so the
//! run replays exactly (`dams-cli cluster-sim --seed <seed>`).

use dams_node::run_cluster_scenario;
use dams_store::StoreConfig;

const SEEDS: u64 = 64;

/// The acceptance sweep: 64 seeds of the 3-node scenario, each asserting
/// convergence (byte-identical tips, identical batch lists, identical
/// violation-free (c, ℓ) verdicts), a clean restart and the joiner's
/// catch-up bounds.
#[test]
fn cluster_scenario_converges_across_seeds() {
    let interval = StoreConfig::default().checkpoint_interval;
    for seed in 0..SEEDS {
        let report = run_cluster_scenario(seed, 3).unwrap();
        assert!(report.converged, "seed {seed}:\n{}", report.render());
        assert!(report.batch_consensus, "seed {seed}: batch lists diverge");
        assert!(
            report.immutability_ok,
            "seed {seed}: selection verdicts diverge or violated"
        );
        assert!(report.ticks.is_some(), "seed {seed}: tick budget exhausted");
        assert_eq!(report.height, 11, "seed {seed}: lost mined blocks");

        // Crash/restart: local recovery must be clean. The blocks mined
        // while the replica was down reach it by range repair, so the
        // convergence checks above cover them.
        let clean = report.restart.expect("3-node scenario kills a replica");
        assert!(clean, "seed {seed}: restart recovery flagged");

        // Late joiner: bootstrap is O(tail) — full verification is bounded
        // by the checkpoint interval, everything earlier rides the
        // checkpoint attestation; every recovered ring re-verified.
        let joiner = report.joiner.expect("scenario spawns a late joiner");
        assert!(joiner.clean, "seed {seed}: joiner bootstrap flagged");
        assert!(
            joiner.tail_verified <= interval,
            "seed {seed}: verified {} blocks > checkpoint interval {interval} — \
             catch-up is not O(tail)",
            joiner.tail_verified
        );
        assert!(
            joiner.prefix_adopted + joiner.tail_verified >= 10,
            "seed {seed}: joiner missing blocks ({} + {})",
            joiner.prefix_adopted,
            joiner.tail_verified
        );

        // The peers' stores did the serving (store.checkpoint.served_total
        // feeds from the same per-store counters).
        assert!(
            report.blocks_served >= joiner.prefix_adopted + joiner.tail_verified,
            "seed {seed}: served {} blocks < catch-up work",
            report.blocks_served
        );
    }
}

/// Determinism: one seed, two runs, identical reports — including the
/// rendered text the CLI prints, which the CI gate greps.
#[test]
fn cluster_scenario_replays_identically_across_seeds() {
    for seed in 0..8 {
        let a = run_cluster_scenario(seed, 3).unwrap();
        let b = run_cluster_scenario(seed, 3).unwrap();
        assert_eq!(a.render(), b.render(), "seed {seed}: nondeterministic run");
        assert_eq!(a.fault_stats, b.fault_stats, "seed {seed}");
        assert_eq!(a.gossip_stats, b.gossip_stats, "seed {seed}");
    }
}

/// The scenario holds at the other bench sizes too (single replica and a
/// 5-replica cluster with a partitioned minority), on a reduced sweep.
#[test]
fn cluster_scenario_converges_at_other_sizes() {
    let interval = StoreConfig::default().checkpoint_interval;
    for seed in 0..16 {
        for nodes in [1usize, 5] {
            let report = run_cluster_scenario(seed, nodes).unwrap();
            assert!(
                report.converged && report.batch_consensus && report.immutability_ok,
                "seed {seed}, {nodes} nodes:\n{}",
                report.render()
            );
            let joiner = report.joiner.expect("every size spawns a joiner");
            assert!(
                joiner.tail_verified <= interval,
                "seed {seed}, {nodes} nodes: catch-up not O(tail)"
            );
        }
    }
}
