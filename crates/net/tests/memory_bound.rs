//! Long-run memory bounds of the two structures that live for a whole
//! run: the payload [`BufferPool`] and the cross-shard [`Inbox`].

use umtslab_net::bytes::{BufferPool, Bytes, POOL_CAP};
use umtslab_net::mailbox::{Handoff, HandoffKind, Inbox, Outbox};
use umtslab_net::packet::{Packet, PacketId};
use umtslab_net::wire::{Endpoint, Ipv4Address};
use umtslab_sim::rng::SimRng;
use umtslab_sim::time::{Duration, Instant};

/// Fill/reclaim cycles of varying lengths and burst sizes never leave
/// more than `POOL_CAP` buffers on the free list, and a payload that is
/// still shared, or a partial view of one, is never pooled.
#[test]
fn buffer_pool_never_holds_more_than_its_cap() {
    let mut rng = SimRng::seed_from_u64(0x0b0f);
    let mut pool = BufferPool::new();
    let mut outstanding: Vec<Bytes> = Vec::new();
    let mut fills = 0u64;
    for _ in 0..100_000 {
        // Bursts up to twice the cap, so returning them all would overflow
        // an uncapped free list.
        if outstanding.len() < 2 * POOL_CAP && rng.chance(0.55) {
            let len = rng.uniform_u64(0, 1_500) as usize;
            let bytes = pool.filled(len, |buf| buf.fill(0xA5));
            assert_eq!(bytes.len(), len);
            assert!(bytes.iter().all(|&b| b == 0xA5));
            fills += 1;
            outstanding.push(bytes);
        } else if let Some(bytes) = outstanding.pop() {
            let pooled = pool.pooled();
            if rng.chance(0.2) {
                // A second reference keeps the payload alive: reclaiming
                // the first must not pool the shared allocation.
                let shared = bytes.clone();
                pool.reclaim(bytes);
                assert_eq!(pool.pooled(), pooled, "a shared payload was pooled");
                pool.reclaim(shared);
            } else if !bytes.is_empty() && rng.chance(0.1) {
                pool.reclaim(bytes.slice(0..bytes.len() - 1));
                assert_eq!(pool.pooled(), pooled, "a partial view was pooled");
            } else {
                pool.reclaim(bytes);
            }
        }
        assert!(pool.pooled() <= POOL_CAP, "{} buffers pooled", pool.pooled());
    }
    let (hits, misses) = pool.stats();
    assert_eq!(hits + misses, fills);
    assert!(hits > misses, "the pool should serve most fills: {hits} reuses, {misses} fresh");
}

fn packet(id: u64) -> Packet {
    Packet::udp(
        PacketId(id),
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 1_000),
        Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 2_000),
        Vec::new(),
        Instant::ZERO,
    )
}

/// A long staged run in the shape of the sharded core: each window's
/// handoffs are due inside the next window and exchanged at the barrier.
/// After every `due_before(horizon)` the inbox is empty, and every staged
/// handoff comes out exactly once, inside its window.
#[test]
fn inbox_is_empty_after_every_window_of_a_long_staged_run() {
    let mut rng = SimRng::seed_from_u64(0x1b0c);
    let window = Duration::from_millis(6);
    let mut outbox = Outbox::new();
    let mut inbox = Inbox::new();
    let (mut staged, mut released, mut id) = (0u64, 0u64, 0u64);
    let mut horizon = Instant::ZERO;
    for _ in 0..20_000 {
        let next = horizon + window;
        for h in inbox.due_before(next) {
            assert!(h.at >= horizon && h.at < next, "handoff released outside its window");
            released += 1;
        }
        assert!(inbox.is_empty(), "{} handoffs left staged", inbox.len());
        // This window's activity stages handoffs due in the next one.
        for _ in 0..rng.uniform_u64(0, 8) {
            let at = next + Duration::from_micros(rng.uniform_u64(0, window.total_micros() - 1));
            let origin = rng.uniform_u64(0, 15) as u32;
            outbox.push(at, origin, 0, HandoffKind::Wire, packet(id));
            id += 1;
            staged += 1;
        }
        inbox.accept(outbox.take());
        horizon = next;
    }
    released += inbox.due_before(horizon + window).len() as u64;
    assert!(inbox.is_empty());
    assert_eq!(released, staged);
}

/// Handoffs due several windows ahead stay staged only until their
/// window: the inbox never holds more than what is still in flight.
#[test]
fn inbox_holds_only_what_is_still_in_flight() {
    let mut rng = SimRng::seed_from_u64(0x1b0d);
    let window = Duration::from_millis(2);
    let mut outbox = Outbox::new();
    let mut inbox = Inbox::new();
    let mut in_flight: Vec<Instant> = Vec::new();
    let mut horizon = Instant::ZERO;
    for i in 0..20_000u64 {
        let next = horizon + window;
        let keys: Vec<_> = inbox.due_before(next).iter().map(Handoff::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "release order is not canonical");
        in_flight.retain(|&at| at >= next);
        assert_eq!(inbox.len(), in_flight.len());
        for _ in 0..rng.uniform_u64(0, 4) {
            let at = next + Duration::from_micros(rng.uniform_u64(0, 4 * window.total_micros()));
            outbox.push(at, (i % 7) as u32, 0, HandoffKind::Umts, packet(i));
            in_flight.push(at);
        }
        inbox.accept(outbox.take());
        // At most 4 handoffs a window, each due within 5 windows.
        assert!(inbox.len() <= 4 * 5, "{} handoffs staged", inbox.len());
        horizon = next;
    }
}
