//! Packet queues.
//!
//! [`PacketQueue`] is a drop-tail FIFO bounded in both packets and bytes —
//! the discipline of the PlanetLab node interfaces and of the operator-side
//! UMTS buffers whose depth produces the multi-second RTTs measured in the
//! paper's saturation experiment.

use crate::packet::Packet;

/// Counters describing the life of a queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets handed out of the queue.
    pub dequeued: u64,
    /// Packets rejected because the queue was full.
    pub dropped: u64,
}

/// A drop-tail FIFO bounded by a packet count and a byte count.
#[derive(Debug)]
pub struct PacketQueue {
    items: std::collections::VecDeque<Packet>,
    max_packets: usize,
    max_bytes: usize,
    cur_bytes: usize,
    stats: QueueStats,
}

impl PacketQueue {
    /// Creates a queue holding at most `max_packets` packets and
    /// `max_bytes` total wire bytes. A zero limit means "unlimited" for
    /// that dimension.
    pub fn new(max_packets: usize, max_bytes: usize) -> PacketQueue {
        PacketQueue {
            items: std::collections::VecDeque::new(),
            max_packets,
            max_bytes,
            cur_bytes: 0,
            stats: QueueStats::default(),
        }
    }

    /// The drop-tail test: true if a packet of `size` wire bytes fits
    /// under both limits now. [`PacketQueue::enqueue`] decides by this
    /// alone, so a caller can ask before it builds the packet.
    pub fn admits(&self, size: usize) -> bool {
        let over_packets = self.max_packets != 0 && self.items.len() >= self.max_packets;
        let over_bytes = self.max_bytes != 0 && self.cur_bytes + size > self.max_bytes;
        !(over_packets || over_bytes)
    }

    /// Counts a drop for a packet that [`PacketQueue::admits`] refused
    /// and that the caller therefore never built.
    pub fn refuse(&mut self) {
        self.stats.dropped += 1;
    }

    /// Attempts to enqueue; on overflow the packet is returned to the
    /// caller (dropped, in protocol terms) and the drop counter increments.
    pub fn enqueue(&mut self, packet: Packet) -> Result<(), Packet> {
        let size = packet.wire_len();
        if !self.admits(size) {
            self.refuse();
            return Err(packet);
        }
        self.cur_bytes += size;
        self.items.push_back(packet);
        self.stats.enqueued += 1;
        Ok(())
    }

    /// Removes and returns the head-of-line packet.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let p = self.items.pop_front()?;
        self.cur_bytes -= p.wire_len();
        self.stats.dequeued += 1;
        Some(p)
    }

    /// The head-of-line packet, if any.
    pub fn peek(&self) -> Option<&Packet> {
        self.items.front()
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total wire bytes currently queued.
    pub fn bytes(&self) -> usize {
        self.cur_bytes
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Drops everything queued (counted as drops).
    pub fn clear(&mut self) {
        self.stats.dropped += self.items.len() as u64;
        self.items.clear();
        self.cur_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use crate::wire::{Endpoint, Ipv4Address};
    use umtslab_sim::time::Instant;

    fn pkt(id: u64, payload: usize) -> Packet {
        Packet::udp(
            PacketId(id),
            Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 1),
            Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 2),
            vec![0; payload],
            Instant::ZERO,
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = PacketQueue::new(10, 0);
        for i in 0..5 {
            q.enqueue(pkt(i, 10)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().id, PacketId(i));
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn packet_limit_enforced() {
        let mut q = PacketQueue::new(2, 0);
        q.enqueue(pkt(0, 1)).unwrap();
        q.enqueue(pkt(1, 1)).unwrap();
        let rejected = q.enqueue(pkt(2, 1)).unwrap_err();
        assert_eq!(rejected.id, PacketId(2));
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn byte_limit_enforced() {
        // Each packet is 28 + payload bytes on the wire.
        let mut q = PacketQueue::new(0, 100);
        q.enqueue(pkt(0, 20)).unwrap(); // 48 bytes
        q.enqueue(pkt(1, 20)).unwrap(); // 96 bytes
        assert!(q.enqueue(pkt(2, 20)).is_err()); // would be 144
        assert_eq!(q.bytes(), 96);
        q.dequeue().unwrap();
        assert_eq!(q.bytes(), 48);
        q.enqueue(pkt(3, 20)).unwrap();
    }

    #[test]
    fn zero_limits_mean_unlimited() {
        let mut q = PacketQueue::new(0, 0);
        for i in 0..1000 {
            q.enqueue(pkt(i, 100)).unwrap();
        }
        assert_eq!(q.len(), 1000);
    }

    #[test]
    fn admits_decides_enqueue_and_refuse_counts_like_it() {
        let mut q = PacketQueue::new(3, 150);
        let mut twin = PacketQueue::new(3, 150);
        for (id, payload) in [20, 100, 20, 0, 10, 0, 0].into_iter().enumerate() {
            let p = pkt(id as u64, payload);
            let admitted = q.admits(p.wire_len());
            if admitted {
                twin.enqueue(p.clone()).unwrap();
            } else {
                twin.refuse();
            }
            assert_eq!(q.enqueue(p).is_ok(), admitted);
            assert_eq!((q.len(), q.bytes(), q.stats()), (twin.len(), twin.bytes(), twin.stats()));
        }
        assert_eq!(q.stats().dropped, 4);
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut q = PacketQueue::new(1, 0);
        q.enqueue(pkt(0, 1)).unwrap();
        let _ = q.enqueue(pkt(1, 1));
        q.dequeue();
        assert_eq!(q.stats(), QueueStats { enqueued: 1, dequeued: 1, dropped: 1 });
    }

    #[test]
    fn clear_counts_drops() {
        let mut q = PacketQueue::new(0, 0);
        q.enqueue(pkt(0, 1)).unwrap();
        q.enqueue(pkt(1, 1)).unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
        assert_eq!(q.stats().dropped, 2);
    }
}
