//! The `runner` binary refuses knobs outside what one run can address
//! with exit status 2 and an error line, before simulating anything.

use std::process::Command;

fn refuses(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_runner")).args(args).output().expect("runner runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "runner {args:?}: {stderr}");
    assert!(stderr.contains(needle), "runner {args:?} should name {needle:?}: {stderr}");
}

#[test]
fn run_refuses_a_member_port_range_overflow() {
    refuses(
        &["run", "--nodes", "1", "--sinks", "1", "--flows-per-node", "100000000"],
        "flows per node",
    );
}

#[test]
fn run_refuses_more_nodes_than_addresses() {
    refuses(&["run", "--nodes", "20000"], "nodes must be");
}

#[test]
fn run_refuses_more_sinks_than_addresses() {
    refuses(&["run", "--nodes", "1", "--sinks", "70000"], "sinks must be");
}

#[test]
fn run_refuses_a_sink_port_range_overflow() {
    refuses(
        &["run", "--nodes", "12000", "--sinks", "1", "--flows-per-node", "10"],
        "sink port range",
    );
}

#[test]
fn run_refuses_a_span_beyond_one_day() {
    let args = ["run", "--nodes", "1", "--sinks", "1", "--flows-per-node", "1"];
    refuses(&[&args[..], &["--seconds", "18446744073709"]].concat(), "--seconds");
}

#[test]
fn traffic_refuses_a_span_beyond_one_day() {
    refuses(&["traffic", "--seconds", "18446744073709"], "--seconds");
}

#[test]
fn traffic_refuses_more_reps_than_a_pack_allows() {
    // One past a pack's `[seeds] reps` bound. The refusal comes before any
    // job is built; the default single worker runs jobs on the calling
    // thread, so even a missing bound would start no thread.
    refuses(&["traffic", "--reps", "1001", "--seconds", "1"], "--reps");
}
