//! Seed-sweep properties for the fault model: the §4 consensus argument
//! must hold on a [`Cluster`] under drops, duplicates, reordering,
//! delays, partitions, and crash/restart — for *every* seed, not a lucky
//! one. Each property sweeps 64 PRNG seeds; a failure message names the
//! seed, and the run replays exactly from it.

use dams_crypto::SchnorrGroup;
use dams_node::{Cluster, FaultConfig};

const SEEDS: u64 = 64;

/// Partition-then-heal: a minority side cut off during mining must catch
/// back up after the heal, ending on the identical tip and batch list as
/// the majority.
#[test]
fn partition_then_heal_converges_across_seeds() {
    let group = SchnorrGroup::default();
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, FaultConfig::default()).unwrap();
        for _ in 0..3 {
            cluster.mine_on(0, 2).unwrap();
            cluster.step();
        }
        cluster.partition(&[2]).unwrap();
        for _ in 0..2 {
            cluster.mine_on(0, 2).unwrap();
            cluster.step();
        }
        cluster.heal();
        let ticks = cluster.run_until_converged(400);
        assert!(ticks.is_some(), "seed {seed}: no convergence after heal");
        assert!(cluster.converged(), "seed {seed}: divergent tips");
        assert!(
            cluster.batch_consensus(3),
            "seed {seed}: batch lists diverge"
        );
        assert!(
            cluster.fault_stats().partition_blocked > 0,
            "seed {seed}: partition inert"
        );
    }
}

/// Idempotence: aggressive duplication + delay + reordering (no losses)
/// must change nothing — every replica applies each block exactly once
/// and lands on the mined height.
#[test]
fn duplicated_reordered_delivery_is_idempotent_across_seeds() {
    let group = SchnorrGroup::default();
    let cfg = FaultConfig {
        drop_prob: 0.0,
        dup_prob: 0.6,
        delay_prob: 0.4,
        max_delay: 4,
        corrupt_prob: 0.0,
        reorder: true,
    };
    const MINED: usize = 5;
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, cfg).unwrap();
        for _ in 0..MINED {
            cluster.mine_on(0, 2).unwrap();
            cluster.step();
        }
        let ticks = cluster.run_until_converged(300);
        assert!(ticks.is_some(), "seed {seed}: no convergence");
        for id in cluster.live_ids() {
            // Genesis + each mined block exactly once, despite duplicates.
            assert_eq!(
                cluster.node(id).unwrap().chain().height(),
                MINED + 1,
                "seed {seed}: duplicate application on node {id}"
            );
        }
        assert!(
            cluster.batch_consensus(4),
            "seed {seed}: batch lists diverge"
        );
        assert!(
            cluster.fault_stats().duplicated > 0,
            "seed {seed}: fault model inert"
        );
    }
}

/// Crash/restart: a replica killed mid-run and restarted from its own
/// durable store by verified replay must reconverge with the survivors
/// on the same tip and batch list.
#[test]
fn crash_restart_reconverges_across_seeds() {
    let group = SchnorrGroup::default();
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, FaultConfig::default()).unwrap();
        for _ in 0..3 {
            cluster.mine_on(0, 2).unwrap();
            cluster.step();
        }
        cluster.kill(1).unwrap();
        let report = cluster.restart(1).unwrap();
        assert!(report.clean(), "seed {seed}: recovery flagged {report:?}");
        for _ in 0..2 {
            cluster.mine_on(0, 2).unwrap();
            cluster.step();
        }
        let ticks = cluster.run_until_converged(400);
        assert!(ticks.is_some(), "seed {seed}: no reconvergence after crash");
        assert!(cluster.converged(), "seed {seed}: divergent tips");
        assert!(
            cluster.batch_consensus(3),
            "seed {seed}: batch lists diverge"
        );
    }
}

/// Partition + heal interleaving with corrupted traffic still in flight
/// across the heal: healing restores *reachability*, never integrity. A
/// frame corrupted while the partition stood must still be refused when
/// it finally lands after the heal.
#[test]
fn corrupt_frame_in_flight_across_heal_is_rejected_across_seeds() {
    let group = SchnorrGroup::default();
    let cfg = FaultConfig {
        drop_prob: 0.0,
        dup_prob: 0.0,
        delay_prob: 1.0,
        max_delay: 8,
        corrupt_prob: 1.0,
        reorder: true,
    };
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, cfg).unwrap();
        cluster.partition(&[2]).unwrap();
        // The announcement to node 1 is corrupted and delayed in flight;
        // the copy for partitioned node 2 is suppressed at the source.
        cluster.mine_on(0, 1).unwrap();
        cluster.heal();
        for _ in 0..12 {
            cluster.step();
        }
        // The corrupted frame lands after the heal and is still refused:
        // a flipped bit fails the frame digest or the kind's length
        // check. No replica but the miner ever adopts anything.
        assert_eq!(cluster.node(0).unwrap().chain().height(), 2, "seed {seed}");
        for id in [1, 2] {
            assert_eq!(
                cluster.node(id).unwrap().chain().height(),
                1,
                "seed {seed}: corrupted frame was applied after the heal"
            );
        }
        let s = cluster.fault_stats();
        assert!(
            s.corrupted >= 1 && s.delayed >= 1,
            "seed {seed}: fault model inert {s:?}"
        );
        assert!(s.partition_blocked >= 1, "seed {seed}: partition inert");
        assert!(
            s.decode_rejected >= 1,
            "seed {seed}: corrupt frame rejected nowhere {s:?}"
        );
        assert_eq!(
            s.delivered, 0,
            "seed {seed}: a corrupt frame was staged {s:?}"
        );
    }
}
