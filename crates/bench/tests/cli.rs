//! The `figures` binary refuses arguments it cannot run with exit status 1
//! and its usage line, before it simulates anything.

use std::process::Command;

fn refuses(args: &[&str], needle: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "figures {args:?}: {stderr}");
    assert!(stderr.contains(needle), "figures {args:?} should name {needle:?}: {stderr}");
    assert!(stderr.contains("usage: figures"), "figures {args:?} prints its usage: {stderr}");
    assert!(out.stdout.is_empty(), "figures {args:?} printed before refusing");
}

#[test]
fn refuses_zero_reps() {
    refuses(&["0"], "reps must be in 1..=1000");
}

#[test]
fn refuses_more_reps_than_a_pack_allows() {
    refuses(&["1001"], "reps must be in 1..=1000");
}

#[test]
fn refuses_zero_reps_of_the_bursty_campaign() {
    refuses(&["0", "--bursty"], "reps must be in 1..=1000");
}

#[test]
fn refuses_a_seed_that_is_not_a_number() {
    refuses(&["1", "abc"], "seed must be");
}

#[test]
fn refuses_a_third_positional_argument() {
    refuses(&["1", "2008", "7"], "unexpected argument: 7");
}

#[test]
fn refuses_zero_workers() {
    refuses(&["1", "--workers", "0"], "--workers needs a positive integer");
}
