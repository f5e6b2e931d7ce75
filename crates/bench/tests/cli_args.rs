//! Malformed arguments fail loudly: each command below exits 2 with an
//! error instead of running a default, panicking, or reporting success.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    out.status.code()
}

#[test]
fn malformed_seed_is_refused() {
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    assert_eq!(exit_code(bin, &["select", "--seed", "4x2"]), Some(2));
}

#[test]
fn zero_l_is_refused() {
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    assert_eq!(exit_code(bin, &["select", "--l", "0"]), Some(2));
}

#[test]
fn nan_c_is_refused() {
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    assert_eq!(exit_code(bin, &["select", "--c", "nan"]), Some(2));
}

#[test]
fn unknown_experiment_is_refused() {
    let bin = env!("CARGO_BIN_EXE_paper-experiments");
    assert_eq!(exit_code(bin, &["fig55", "--check-shapes"]), Some(2));
}

#[test]
fn zero_node_count_is_refused() {
    // A zero-node cluster would run as one node under a "nodes": 0 label.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = format!("{dir}/zero_nodes.json");
    let report = format!("{dir}/zero_nodes.txt");
    let args = [
        "cluster-sim",
        "--node-counts",
        "0",
        "--out",
        &out,
        "--report",
        &report,
    ];
    assert_eq!(exit_code(bin, &args), Some(2));
}
