//! Seeded random pack generation for the round-trip property tests.
//!
//! [`random_pack`] builds an arbitrary *valid* [`Pack`] from a
//! [`SimRng`], exercising every schema corner: every flow kind, every
//! fault spec, optional credentials and fault plans, awkward strings and
//! awkward floats. The property under test is that serializing any such
//! pack and re-parsing it reproduces the identical typed pack and the
//! identical bytes — so the generator's job is breadth, not realism.

use umtslab::{ExtraSlice, NodeRole, PathKind};
use umtslab_net::fault::{FaultConfig, LossModel};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};
use umtslab_supervisor::faults::CampaignConfig;
use umtslab_umts::at::DEVICE_PRESETS;
use umtslab_umts::attachment::SessionFault;
use umtslab_umts::operator::OPERATOR_PRESETS;

use crate::golden::{Golden, Metric};
use crate::schema::{
    FaultSpec, FlowDef, FlowKind, Pack, PackMeta, Seeds, Topology, TraceRef, UmtsSpec, CODEC_KEYS,
    MAX_EXPECTED_FAULTS,
};

fn pick<'a, T>(rng: &mut SimRng, items: &'a [T]) -> &'a T {
    &items[rng.uniform_u64(0, items.len() as u64 - 1) as usize]
}

/// A random identifier-ish string, occasionally spiced with characters
/// that need escaping.
fn random_name(rng: &mut SimRng, prefix: &str, salt: u64) -> String {
    let mut name = format!("{prefix}-{salt}");
    if rng.chance(0.2) {
        name.push_str(" \"quoted\"");
    }
    if rng.chance(0.1) {
        name.push_str("\\tab\there");
    }
    if rng.chance(0.1) {
        name.push('\u{00e9}'); // non-ASCII survives verbatim
    }
    name
}

/// A random duration in `(0, max]` with microsecond structure (not just
/// round seconds).
fn random_duration(rng: &mut SimRng, max: Duration) -> Duration {
    Duration::from_micros(rng.uniform_u64(1, max.total_micros()))
}

/// An awkward float: sometimes tiny, sometimes integer-valued, sometimes
/// many significant digits.
fn random_float(rng: &mut SimRng) -> f64 {
    match rng.uniform_u64(0, 3) {
        0 => rng.uniform01(),
        1 => rng.uniform_u64(0, 1_000_000) as f64,
        2 => rng.uniform01() * 1e-7,
        _ => rng.uniform(-1e6, 1e6),
    }
}

fn random_fault(rng: &mut SimRng) -> FaultSpec {
    match rng.uniform_u64(0, 3) {
        0 | 1 => FaultSpec::None,
        2 => FaultSpec::BurstyUmts,
        _ => FaultSpec::Custom(FaultConfig {
            loss: match rng.uniform_u64(0, 2) {
                0 => LossModel::None,
                1 => LossModel::Bernoulli { p: rng.uniform01() },
                _ => LossModel::GilbertElliott {
                    p_gb: rng.uniform01() * 0.1,
                    p_bg: rng.uniform01(),
                    loss_good: rng.uniform01() * 0.01,
                    loss_bad: rng.uniform01(),
                },
            },
            corrupt_prob: if rng.chance(0.5) { rng.uniform01() * 0.05 } else { 0.0 },
            duplicate_prob: if rng.chance(0.3) { rng.uniform01() * 0.05 } else { 0.0 },
            reorder_prob: if rng.chance(0.3) { rng.uniform01() * 0.05 } else { 0.0 },
            reorder_delay: if rng.chance(0.5) {
                random_duration(rng, Duration::from_millis(500))
            } else {
                Duration::ZERO
            },
        }),
    }
}

fn random_flow_kind(rng: &mut SimRng) -> FlowKind {
    match rng.uniform_u64(0, 7) {
        0 => FlowKind::VoipG711,
        1 => FlowKind::Cbr1Mbps,
        2 => FlowKind::VoipCodec { codec: pick(rng, &CODEC_KEYS).1 },
        3 => FlowKind::Cbr {
            rate_bps: rng.uniform_u64(8_000, 2_000_000),
            payload_bytes: rng.uniform_u64(16, 1_472) as u32,
        },
        4 => FlowKind::Poisson {
            mean_pps: rng.uniform(1.0, 500.0),
            payload_bytes: rng.uniform_u64(16, 1_472) as u32,
        },
        5 => FlowKind::TcpBulk { mss_bytes: rng.uniform_u64(64, 9_000) as u32 },
        6 => FlowKind::AdaptiveVideo { frame_bytes: rng.uniform_u64(64, 65_507) as u32 },
        _ => FlowKind::TraceReplay {
            rate_bps: rng.uniform_u64(8_000, 2_000_000),
            payload_bytes: rng.uniform_u64(16, 1_472) as u32,
        },
    }
}

/// Generates a random valid pack. Equal seeds produce equal packs.
pub fn random_pack(seed: u64) -> Pack {
    let rng = &mut SimRng::seed_from_u64(seed ^ 0x7061_636b_2d67_656e); // "pack-gen"

    let meta = PackMeta {
        name: random_name(rng, "gen", seed),
        description: random_name(rng, "random pack", seed),
        version: 1,
    };

    let topology = Topology {
        access_rate_bps: rng.uniform_u64(56_000, 1_000_000_000),
        access_delay: random_duration(rng, Duration::from_millis(100)),
        access_jitter: if rng.chance(0.7) {
            random_duration(rng, Duration::from_millis(5))
        } else {
            Duration::ZERO
        },
        fault: random_fault(rng),
    };

    let with_creds = rng.chance(0.7);
    let umts = UmtsSpec {
        operator: (*pick(rng, &OPERATOR_PRESETS)).to_string(),
        device: (*pick(rng, &DEVICE_PRESETS)).to_string(),
        username: with_creds.then(|| random_name(rng, "user", seed)),
        password: with_creds.then(|| random_name(rng, "pass", seed)),
    };

    let mut slices = vec![
        ExtraSlice {
            name: random_name(rng, "sender", 0),
            node: NodeRole::Napoli,
            umts_access: true,
        },
        ExtraSlice {
            name: random_name(rng, "probe", 1),
            node: NodeRole::Inria,
            umts_access: false,
        },
    ];
    for i in 0..rng.uniform_u64(0, 2) {
        slices.push(ExtraSlice {
            name: random_name(rng, "extra", 100 + i),
            node: *pick(rng, &[NodeRole::Napoli, NodeRole::Inria]),
            umts_access: rng.chance(0.3),
        });
    }

    let mut flows = Vec::new();
    for i in 0..rng.uniform_u64(1, 3) {
        flows.push(FlowDef {
            label: random_name(rng, "flow", i),
            kind: random_flow_kind(rng),
            path: *pick(rng, &[PathKind::UmtsToEthernet, PathKind::EthernetToEthernet]),
            duration: random_duration(rng, Duration::from_secs(120)),
            operator: rng.chance(0.2).then(|| (*pick(rng, &OPERATOR_PRESETS)).to_string()),
        });
    }

    // A trace_replay flow requires a [trace]; otherwise emit one
    // occasionally so the optional section still gets exercised.
    let needs_trace = flows.iter().any(|f| matches!(f.kind, FlowKind::TraceReplay { .. }));
    let trace = (needs_trace || rng.chance(0.2))
        .then(|| TraceRef { file: format!("traces/{}.csv", random_name(rng, "trace", seed)) });

    let fault_plan = rng.chance(0.4).then(|| {
        let start = Instant::ZERO + random_duration(rng, Duration::from_secs(30));
        let mut mix = Vec::new();
        for _ in 0..rng.uniform_u64(1, 3) {
            mix.push(*pick(rng, &SessionFault::ALL));
        }
        let window = random_duration(rng, Duration::from_secs(300));
        // The shortest gap that keeps the expected fault count in bounds.
        let min_gap = Duration::from_micros(window.total_micros().div_ceil(MAX_EXPECTED_FAULTS));
        CampaignConfig {
            start,
            horizon: start + window,
            mean_gap: random_duration(rng, Duration::from_secs(60)).max(min_gap),
            mix,
        }
    });

    let seeds = Seeds { base: rng.uniform_u64(1, 1_000_000), reps: rng.uniform_u64(1, 5) as u32 };

    let seed_set = seeds.expand();
    let mut goldens: Vec<Golden> = Vec::new();
    for _ in 0..rng.uniform_u64(0, 6) {
        let flow = pick(rng, &flows).label.clone();
        let run_seed = *pick(rng, &seed_set);
        let metric = *pick(rng, &Metric::ALL);
        if goldens.iter().any(|g| g.flow == flow && g.seed == run_seed && g.metric == metric) {
            continue;
        }
        let value = random_float(rng);
        goldens.push(Golden {
            flow,
            seed: run_seed,
            metric,
            value,
            tolerance: random_float(rng).abs(),
        });
    }
    goldens.sort_by(|a, b| (&a.flow, a.seed, a.metric).cmp(&(&b.flow, b.seed, b.metric)));

    Pack { meta, topology, umts, trace, slices, flows, fault_plan, seeds, goldens }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_pack(7), random_pack(7));
        assert_ne!(random_pack(7), random_pack(8));
    }

    #[test]
    fn generated_packs_hit_every_fault_and_flow_variant() {
        let mut saw_bursty = false;
        let mut saw_custom = false;
        let mut saw_plan = false;
        let mut saw_trace = false;
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..96 {
            let p = random_pack(seed);
            saw_bursty |= p.topology.fault == FaultSpec::BurstyUmts;
            saw_custom |= matches!(p.topology.fault, FaultSpec::Custom(_));
            saw_plan |= p.fault_plan.is_some();
            saw_trace |= p.trace.is_some();
            for f in &p.flows {
                kinds.insert(f.kind.key());
            }
        }
        assert!(saw_bursty && saw_custom && saw_plan && saw_trace);
        assert_eq!(kinds.len(), 8, "all eight flow kinds generated: {kinds:?}");
    }

    #[test]
    fn trace_replay_flows_always_come_with_a_trace_section() {
        for seed in 0..256 {
            let p = random_pack(seed);
            if p.flows.iter().any(|f| matches!(f.kind, FlowKind::TraceReplay { .. })) {
                assert!(p.trace.is_some(), "seed {seed} generated trace_replay without [trace]");
            }
        }
    }
}
