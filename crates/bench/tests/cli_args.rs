//! Malformed arguments fail loudly: each command below exits 2 with an
//! error instead of running a default, panicking, or reporting success.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    out.status.code()
}

/// The exit code and stderr of one run.
fn refusal(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
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

#[test]
fn misspelled_flag_is_refused() {
    // `--sed` is a typo of `--seed`; it used to run on the default seed.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    let args = [
        "select",
        "--algorithm",
        "tm_g",
        "--c",
        "0.6",
        "--l",
        "20",
        "--target",
        "5",
        "--sed",
        "7",
    ];
    let (code, stderr) = refusal(bin, &args);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--sed"), "{stderr}");
}

#[test]
fn removed_flag_is_refused() {
    // `cluster-sim --requests` sized a deleted harness; nothing reads it.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = format!("{dir}/removed_flag.json");
    let report = format!("{dir}/removed_flag.txt");
    let args = [
        "cluster-sim",
        "--node-counts",
        "1",
        "--requests",
        "5",
        "--out",
        &out,
        "--report",
        &report,
    ];
    let (code, stderr) = refusal(bin, &args);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--requests"), "{stderr}");
}

#[test]
fn a_mode_refuses_the_flags_of_its_sibling() {
    // `serve-sim --soak` reads no `--workers`; plain `serve-sim` does.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    let (code, stderr) = refusal(bin, &["serve-sim", "--soak", "--workers", "2"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--workers"), "{stderr}");
}

#[test]
fn stray_positional_arguments_are_refused() {
    // Each used to run as if the extra word were absent.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    for (args, stray) in [
        (&["select", "--target", "5", "7"][..], "7"),
        (&["attack", "--rings", "1,2;1,2", "extra"][..], "extra"),
    ] {
        let (code, stderr) = refusal(bin, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(
            stderr.contains(&format!("unexpected argument {stray} for {}", args[0])),
            "{stderr}"
        );
    }
}

#[test]
fn known_flags_still_run() {
    // `--seed` and `--metrics` (with or without a value) go with any
    // command.
    let bin = env!("CARGO_BIN_EXE_dams-cli");
    let select = [
        "select",
        "--target",
        "5",
        "--seed",
        "7",
        "--metrics",
        "--l",
        "2",
    ];
    assert_eq!(exit_code(bin, &select), Some(0));
    let attack = ["attack", "--metrics", "json", "--rings", "1,2;1,2;2,3"];
    assert_eq!(exit_code(bin, &attack), Some(0));
}
