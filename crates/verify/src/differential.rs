//! Differential harness: replay analyzer witnesses through the live node.
//!
//! The evaluator decides a class with `Node::egress_decision`; live
//! traffic goes through `Node::send_from_slice`, which executes that
//! decision. For every replayable witness the harness builds the concrete
//! packet, sends it, and compares the live [`EgressAction`] against the
//! evaluator's verdict, so it checks both the executor and the
//! evaluator's reading of the decision. The single tolerated
//! divergence is queue pressure: a statically `umts` packet may come back
//! `drop(queue)` live when the uplink bearer buffer happens to be full,
//! which no static analysis can (or should) predict.

use umtslab_net::packet::{Packet, PacketIdAllocator};
use umtslab_net::trace::TraceKind;
use umtslab_net::wire::Endpoint;
use umtslab_planetlab::node::{EgressAction, Node};
use umtslab_sim::time::Instant;

use crate::classes::Sender;
use crate::eval::StaticVerdict;
use crate::invariants::{Analysis, Witness};

/// The outcome of replaying one witness.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The witness that was replayed.
    pub witness: Witness,
    /// What the live node did, in verdict form.
    pub live: StaticVerdict,
    /// Whether live and static agree (modulo queue pressure).
    pub agrees: bool,
}

/// The result of replaying every replayable witness of an analysis.
#[derive(Debug, Clone, Default)]
pub struct DifferentialResult {
    /// One entry per replayed witness, in report order.
    pub replays: Vec<Replay>,
    /// Witnesses skipped because they cannot go through the slice API.
    pub skipped: usize,
}

impl DifferentialResult {
    /// True if every replayed witness agreed.
    pub fn all_agree(&self) -> bool {
        self.replays.iter().all(|r| r.agrees)
    }
}

/// Maps a live egress action onto the static verdict vocabulary.
fn live_verdict(action: &EgressAction) -> StaticVerdict {
    match action {
        EgressAction::Wire { iface, .. } => StaticVerdict::Wire(*iface),
        EgressAction::Umts => StaticVerdict::Umts,
        EgressAction::Local => StaticVerdict::Local,
        EgressAction::Dropped(kind) => StaticVerdict::Drop(*kind),
    }
}

fn verdicts_agree(static_v: StaticVerdict, live: StaticVerdict) -> bool {
    if static_v == live {
        return true;
    }
    // Queue overflow on the uplink bearer is dynamic state the static
    // analysis deliberately abstracts away.
    matches!((static_v, live), (StaticVerdict::Umts, StaticVerdict::Drop(TraceKind::DropQueue)))
}

/// Replays every replayable witness of `analysis` through `node`.
///
/// The node is the *same* configured node the analysis read; replaying
/// mutates only its counters and trace, not its policy.
pub fn replay_witnesses(node: &mut Node, now: Instant, analysis: &Analysis) -> DifferentialResult {
    let mut alloc = PacketIdAllocator::new();
    let mut result = DifferentialResult::default();
    for violation in &analysis.violations {
        let Some(witness) = &violation.witness else {
            continue;
        };
        if !witness.replayable {
            result.skipped += 1;
            continue;
        }
        let Sender::Slice(slice) = witness.class.sender else {
            result.skipped += 1;
            continue;
        };
        let packet = Packet::udp(
            alloc.allocate(),
            Endpoint::new(witness.class.src, 9_000),
            Endpoint::new(witness.class.dst, witness.class.dport),
            vec![0; 32],
            now,
        );
        let action = node.send_from_slice(now, slice, packet);
        let live = live_verdict(&action);
        result.replays.push(Replay {
            witness: witness.clone(),
            live,
            agrees: verdicts_agree(witness.verdict, live),
        });
    }
    result
}

/// Replays a full packet-class sweep (not only violation witnesses)
/// through the live node and checks verdict agreement for every class.
/// Used by the differential tests; more expensive than
/// [`replay_witnesses`] but exhaustive.
pub fn replay_sweep(node: &mut Node, now: Instant) -> DifferentialResult {
    let classes = crate::classes::enumerate(node);
    let mut counters = crate::eval::SweepCounters::for_node(node);
    let mut alloc = PacketIdAllocator::new();
    let mut result = DifferentialResult::default();
    for class in &classes {
        let Sender::Slice(slice) = class.sender else {
            result.skipped += 1;
            continue;
        };
        let eval = crate::eval::evaluate(node, &mut counters, class);
        let packet = Packet::udp(
            alloc.allocate(),
            Endpoint::new(class.src, 9_000),
            Endpoint::new(class.dst, class.dport),
            vec![0; 32],
            now,
        );
        let action = node.send_from_slice(now, slice, packet);
        let live = live_verdict(&action);
        result.replays.push(Replay {
            witness: Witness { class: *class, verdict: eval.verdict, replayable: true },
            live,
            agrees: verdicts_agree(eval.verdict, live),
        });
    }
    result
}
