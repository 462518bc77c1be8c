//! Deterministic cross-shard packet handoff.
//!
//! When one coupled topology is split across N shards, packets that leave
//! one shard's partition must re-enter another's event loop without
//! making the result depend on the partitioning. The mailbox layer pins
//! that down:
//!
//! * every handoff is stamped with its due time, the **global** index of
//!   the node that produced it, and a per-origin sequence number
//!   ([`Handoff`]);
//! * an [`Outbox`] collects the handoffs one shard produces during a
//!   window, allocating sequence numbers in the origin's own event order;
//! * an [`Inbox`] stages handoffs received at window boundaries and
//!   releases the ones due before a horizon in the canonical merge order
//!   [`Handoff::key`] — `(at, origin, seq)`.
//!
//! The origin *node* — not the origin shard — is the tie-break lane: a
//! node's shard assignment changes with the shard count, but its global
//! index does not, so the merge order (and therefore every downstream
//! event order) is invariant under re-partitioning. In the fully sharded
//! limit of one node per shard the two notions coincide, which is the
//! sense in which this realizes the "(timestamp, shard, seq)" merge the
//! sharded-core design calls for.

use umtslab_sim::time::Instant;

use crate::packet::Packet;

/// How a handed-off packet enters the destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// Down the destination's wired access link into `eth0`.
    Wire,
    /// Into the destination's UMTS downlink (operator → subscriber).
    Umts,
}

/// One packet crossing the internet core between two nodes' partitions.
#[derive(Debug, Clone)]
pub struct Handoff {
    /// When the packet is at the core, ready to take the destination leg.
    pub at: Instant,
    /// Global index of the node whose activity produced the packet.
    pub origin: u32,
    /// Sequence number within the origin's lane, in origin event order.
    pub seq: u64,
    /// Global index of the destination node.
    pub dst: u32,
    /// How the destination leg delivers.
    pub kind: HandoffKind,
    /// The packet itself.
    pub packet: Packet,
}

impl Handoff {
    /// The canonical merge key: `(at, origin, seq)`. Sorting any set of
    /// handoffs by this key yields the same order no matter how they were
    /// batched across shards.
    pub fn key(&self) -> (Instant, u32, u64) {
        (self.at, self.origin, self.seq)
    }
}

/// Collects the handoffs one shard produces during a window.
///
/// Sequence numbers are allocated per origin lane in call order; since a
/// shard processes its events deterministically, the numbering is a pure
/// function of the origin node's event history.
#[derive(Debug, Default)]
pub struct Outbox {
    staged: Vec<Handoff>,
    /// Next sequence number per origin lane, keyed by global node index.
    /// Ordered map: diagnostics iterate it deterministically.
    next_seq: std::collections::BTreeMap<u32, u64>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Stages a handoff from `origin` to `dst`, stamping the next
    /// sequence number of the origin's lane.
    pub fn push(&mut self, at: Instant, origin: u32, dst: u32, kind: HandoffKind, packet: Packet) {
        let seq = self.next_seq.entry(origin).or_insert(0);
        self.staged.push(Handoff { at, origin, seq: *seq, dst, kind, packet });
        *seq += 1;
    }

    /// Takes everything staged so far, leaving the lane counters intact
    /// (sequence numbers keep increasing across windows).
    pub fn take(&mut self) -> Vec<Handoff> {
        std::mem::take(&mut self.staged)
    }

    /// Number of staged handoffs.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

/// Stages inbound handoffs until their window comes up.
#[derive(Debug, Default)]
pub struct Inbox {
    staged: Vec<Handoff>,
}

impl Inbox {
    /// An empty inbox.
    pub fn new() -> Inbox {
        Inbox::default()
    }

    /// Accepts a batch exchanged at a window boundary.
    pub fn accept(&mut self, batch: Vec<Handoff>) {
        self.staged.extend(batch);
    }

    /// Releases every staged handoff due strictly before `horizon`, in
    /// canonical `(at, origin, seq)` order. Later handoffs stay staged.
    pub fn due_before(&mut self, horizon: Instant) -> Vec<Handoff> {
        let (mut due, later): (Vec<Handoff>, Vec<Handoff>) =
            std::mem::take(&mut self.staged).into_iter().partition(|h| h.at < horizon);
        self.staged = later;
        due.sort_by_key(Handoff::key);
        due
    }

    /// The due time of the earliest staged handoff, if any.
    pub fn next_due(&self) -> Option<Instant> {
        self.staged.iter().map(|h| h.at).min()
    }

    /// Number of handoffs still staged.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketIdAllocator};
    use crate::wire::{Endpoint, Ipv4Address};
    use umtslab_sim::time::Duration;

    fn pkt(ids: &mut PacketIdAllocator) -> Packet {
        Packet::udp(
            ids.allocate(),
            Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 1000),
            Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 2000),
            vec![0u8; 8],
            Instant::ZERO,
        )
    }

    #[test]
    fn outbox_numbers_each_origin_lane_independently() {
        let mut ids = PacketIdAllocator::new();
        let mut ob = Outbox::new();
        let t = Instant::from_millis(5);
        ob.push(t, 7, 1, HandoffKind::Wire, pkt(&mut ids));
        ob.push(t, 3, 1, HandoffKind::Wire, pkt(&mut ids));
        ob.push(t, 7, 2, HandoffKind::Umts, pkt(&mut ids));
        let batch = ob.take();
        assert!(ob.is_empty());
        let lanes: Vec<(u32, u64)> = batch.iter().map(|h| (h.origin, h.seq)).collect();
        assert_eq!(lanes, vec![(7, 0), (3, 0), (7, 1)]);
        // Lane counters survive the take.
        ob.push(t, 7, 1, HandoffKind::Wire, pkt(&mut ids));
        assert_eq!(ob.take()[0].seq, 2);
    }

    #[test]
    fn inbox_releases_in_canonical_order_regardless_of_batching() {
        let mut ids = PacketIdAllocator::new();
        let t1 = Instant::from_millis(10);
        let t2 = Instant::from_millis(20);
        let horizon = Instant::from_millis(25);

        // The same four handoffs arriving as different batch splits must
        // come out in the same order.
        let mk = |ids: &mut PacketIdAllocator| {
            vec![
                Handoff {
                    at: t2,
                    origin: 1,
                    seq: 0,
                    dst: 0,
                    kind: HandoffKind::Wire,
                    packet: pkt(ids),
                },
                Handoff {
                    at: t1,
                    origin: 2,
                    seq: 0,
                    dst: 0,
                    kind: HandoffKind::Wire,
                    packet: pkt(ids),
                },
                Handoff {
                    at: t1,
                    origin: 1,
                    seq: 1,
                    dst: 0,
                    kind: HandoffKind::Wire,
                    packet: pkt(ids),
                },
                Handoff {
                    at: t1,
                    origin: 1,
                    seq: 0,
                    dst: 0,
                    kind: HandoffKind::Wire,
                    packet: pkt(ids),
                },
            ]
        };
        let mut one = Inbox::new();
        one.accept(mk(&mut ids));
        let mut two = Inbox::new();
        let mut batch = mk(&mut ids);
        let tail = batch.split_off(2);
        two.accept(tail);
        two.accept(batch);

        let keys = |v: Vec<Handoff>| v.iter().map(Handoff::key).collect::<Vec<_>>();
        let a = keys(one.due_before(horizon));
        let b = keys(two.due_before(horizon));
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![(t1, 1, 0), (t1, 1, 1), (t1, 2, 0), (t2, 1, 0)],
            "sorted by (at, origin, seq)"
        );
    }

    #[test]
    fn inbox_keeps_later_handoffs_staged() {
        let mut ids = PacketIdAllocator::new();
        let mut inbox = Inbox::new();
        let near = Instant::from_millis(10);
        let far = near + Duration::from_millis(50);
        inbox.accept(vec![
            Handoff {
                at: far,
                origin: 0,
                seq: 0,
                dst: 1,
                kind: HandoffKind::Wire,
                packet: pkt(&mut ids),
            },
            Handoff {
                at: near,
                origin: 0,
                seq: 1,
                dst: 1,
                kind: HandoffKind::Wire,
                packet: pkt(&mut ids),
            },
        ]);
        assert_eq!(inbox.next_due(), Some(near));
        let due = inbox.due_before(Instant::from_millis(20));
        assert_eq!(due.len(), 1);
        assert_eq!(inbox.next_due(), Some(far));
        assert_eq!(due[0].at, near);
        assert_eq!(inbox.len(), 1);
        // A handoff due exactly at the horizon stays staged for the
        // window that owns it.
        let due = inbox.due_before(far);
        assert!(due.is_empty());
        assert_eq!(inbox.due_before(far + Duration::from_millis(1)).len(), 1);
        assert!(inbox.is_empty());
        assert_eq!(inbox.next_due(), None);
    }
}
