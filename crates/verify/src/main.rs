//! `umtslab-verify` — CI entry point for the static isolation verifier.
//!
//! ```text
//! umtslab-verify --all-scenarios [--json]   verify every canned scenario
//! umtslab-verify --scenario NAME [--json]   verify one scenario
//! umtslab-verify --chaos                    supervised chaos campaign gate
//! umtslab-verify --list                     list scenario names
//! ```
//!
//! Exit status is 0 when every scenario meets its expectation (correct
//! nodes clean, seeded bugs detected with exactly the expected invariant
//! kinds) *and* every replayed witness agrees with the live simulator;
//! 1 otherwise. The run-twice hashes of the scenario campaign and the
//! chaos campaign are the `verify.*` entries of the `WITNESSES` manifest,
//! checked by `runner witnesses`.

use std::process::ExitCode;

use umtslab_verify::differential::replay_witnesses;
use umtslab_verify::invariants::analyze;
use umtslab_verify::report::{render_json, render_table};
use umtslab_verify::scenarios::{self, Scenario, SCENARIO_NAMES};
use umtslab_verify::{chaos, Analysis};

fn print_help() {
    println!(
        "umtslab-verify — static slice-isolation verifier\n\n\
         USAGE:\n  umtslab-verify --all-scenarios [--json]\n  \
         umtslab-verify --scenario NAME [--json]\n  \
         umtslab-verify --chaos\n  umtslab-verify --list\n\n\
         Scenarios: {}",
        SCENARIO_NAMES.join(", ")
    );
}

/// Verifies one scenario end to end: analyze, check the expectation both
/// ways, replay every witness differentially. Returns the analysis plus
/// whether the scenario passed.
fn verify_scenario(mut scenario: Scenario) -> (Analysis, bool) {
    let analysis = analyze(&scenario.node);
    let kinds = analysis.kinds();
    let expectation_met = scenario.expected.iter().all(|k| kinds.contains(k))
        && kinds.iter().all(|k| scenario.expected.contains(k));
    let diff = replay_witnesses(&mut scenario.node, scenario.now, &analysis);
    if !expectation_met {
        eprintln!(
            "{}: expected invariants {:?}, analyzer reported {:?}",
            scenario.name,
            scenario.expected.iter().map(|k| k.name()).collect::<Vec<_>>(),
            kinds.iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    for replay in diff.replays.iter().filter(|r| !r.agrees) {
        eprintln!(
            "{}: differential mismatch: static {} vs live {} for src={} dst={}:{}",
            scenario.name,
            replay.witness.verdict.label(),
            replay.live.label(),
            replay.witness.class.src,
            replay.witness.class.dst,
            replay.witness.class.dport
        );
    }
    (analysis, expectation_met && diff.all_agree())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let action: Vec<&str> = args.iter().map(String::as_str).filter(|&a| a != "--json").collect();
    match action[..] {
        ["--all-scenarios"] => verify(&SCENARIO_NAMES, json),
        ["--scenario", name] => verify(&[name], json),
        ["--chaos"] => chaos_gate(),
        ["--list"] => {
            SCENARIO_NAMES.iter().for_each(|name| println!("{name}"));
            ExitCode::SUCCESS
        }
        ["--help" | "-h"] => {
            print_help();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("error: pass one of --all-scenarios, --scenario NAME, --chaos or --list");
            print_help();
            ExitCode::FAILURE
        }
    }
}

/// The seeded session-fault campaign with the isolation audit at every
/// checkpoint.
fn chaos_gate() -> ExitCode {
    let check = chaos::run(chaos::DEFAULT_SEED);
    let a = check.report.availability;
    println!(
        "chaos: faults={} established={} drops={} redials={} \
         uptime={:.1}% checkpoints={} -> {}",
        a.faults_injected,
        a.sessions_established,
        a.session_drops,
        a.redials,
        a.uptime_fraction().unwrap_or(0.0) * 100.0,
        check.checkpoints,
        if check.passed() { "pass" } else { "FAIL" }
    );
    for v in &check.violations {
        eprintln!("chaos violation: {v}");
    }
    if check.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Verifies the named scenarios, as tables or as one JSON document.
fn verify(names: &[&str], json: bool) -> ExitCode {
    let mut analyses = Vec::new();
    let mut ok = true;
    for &name in names {
        let Some(scenario) = scenarios::build(name) else {
            eprintln!("error: unknown scenario '{name}' (try --list)");
            return ExitCode::FAILURE;
        };
        let expect_clean = scenario.expected.is_empty();
        let (analysis, passed) = verify_scenario(scenario);
        if !json {
            println!(
                "scenario {name} ({}): {}",
                if expect_clean { "expected clean" } else { "seeded bug" },
                if passed { "pass" } else { "FAIL" }
            );
            print!("{}", render_table(&analysis));
        }
        analyses.push(analysis);
        ok &= passed;
    }
    if json {
        print!("{}", render_json(&analyses));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
