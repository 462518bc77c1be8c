//! The headline reproduction test: run the paper's full evaluation
//! (both workloads × both paths, 120 s flows) and verify every shape
//! criterion from Figures 1–7.
//!
//! This is the simulated equivalent of the authors' Section 3 campaign;
//! absolute numbers depend on our synthetic operator profile, but the
//! qualitative structure — who wins, by what rough factor, where the
//! Figure-4 knee falls — must match the paper.

use umtslab::experiment::run_experiment;
use umtslab::paper::ablation::{ablation_checks, ablation_configs};
use umtslab::paper::{run_paper, shape_checks};

const SEED: u64 = 2008; // the paper's year; any seed must pass

#[test]
fn full_paper_run_satisfies_every_shape_criterion() {
    let run = run_paper(SEED, None).expect("paper run completes");
    let checks = shape_checks(&run);
    assert!(!checks.is_empty());
    let failures: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}: expected {}, measured {}", c.name, c.expectation, c.measured))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} shape checks failed:\n{}",
        failures.len(),
        checks.len(),
        failures.join("\n")
    );
}

#[test]
fn shape_criteria_hold_for_a_second_seed() {
    let run = run_paper(77, None).expect("paper run completes");
    let failures: Vec<String> = shape_checks(&run)
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}: {}", c.name, c.measured))
        .collect();
    assert!(failures.is_empty(), "failed:\n{}", failures.join("\n"));
}

/// Each ablation moves the CBR/UMTS job the way its claim says: a deeper
/// buffer trades loss for delay, the knee follows the upgrade sustain, a
/// larger grant cuts loss, and only the isolation rule stops a foreign
/// packet to the PPP peer.
#[test]
fn ablation_checks_hold() {
    for seed in [SEED, 77] {
        let results: Vec<_> = ablation_configs(seed)
            .into_iter()
            .map(|cfg| run_experiment(cfg).expect("ablation run completes"))
            .collect();
        let (_, checks) = ablation_checks(seed, &results);
        assert_eq!(checks.len(), 4);
        let failures: Vec<String> = checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{}: expected {}, measured {}", c.name, c.expectation, c.measured))
            .collect();
        assert!(failures.is_empty(), "seed {seed}:\n{}", failures.join("\n"));
    }
}
