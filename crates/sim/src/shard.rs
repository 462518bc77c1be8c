//! Conservative time-windowed driving of sharded event loops.
//!
//! A sharded simulation splits one coupled topology across N independent
//! [`crate::sched::Scheduler`]s. Each shard runs its own event loop; the
//! only coupling between shards is message handoff with a minimum latency
//! of `lookahead`. Under that guarantee the classic conservative
//! synchronization scheme applies: advance every shard through a fixed
//! time window of width `lookahead`, exchange the messages produced, and
//! repeat. A message generated inside window `k` can — by the latency
//! bound — only be due in window `k+1` or later, so exchanging at the
//! boundary never delivers late.
//!
//! The driving logic is deliberately split from the shard state:
//!
//! * [`ShardScheduler`] is what a shard must expose — a clock, the
//!   instant of its next work and a "run until" primitive.
//! * [`drive`] owns the window loop. The caller supplies *how* to run the
//!   shards over one window (serially, or fanned out over a worker pool)
//!   and *how* to exchange messages at each boundary; the loop itself is
//!   identical either way, which is what makes shard counts and worker
//!   counts invisible in the results. A window in which no shard has
//!   work only moves the clocks, so the loop does that itself instead of
//!   fanning it out.
//! * [`window_ends`] enumerates the boundaries: fixed multiples of the
//!   lookahead from the origin, independent of where the run starts, so a
//!   run split into phases crosses the same boundaries as an unsplit one.

use crate::time::{Duration, Instant};

/// The event-loop surface a shard exposes to the window driver.
///
/// Implementors own a scheduler (clock + pending events) and any state the
/// events touch. The contract mirrors
/// [`crate::sched::Scheduler::next_before`]: after `run_window(h)` every
/// event strictly before `h` has been dispatched and the clock sits
/// exactly on `h`.
pub trait ShardScheduler {
    /// The shard's current simulated time.
    fn now(&self) -> Instant;

    /// The instant of the earliest work pending in the shard (a scheduled
    /// event or a staged inbound message), or `None` if it has none.
    fn next_work(&mut self) -> Option<Instant>;

    /// Dispatches every pending event strictly before `horizon` and
    /// advances the clock to `horizon`.
    fn run_window(&mut self, horizon: Instant);
}

/// The window boundaries a run from `from` to `horizon` crosses, ending
/// with `horizon` itself.
///
/// Boundaries sit on fixed multiples of `lookahead` counted from
/// [`Instant::ZERO`] — *not* from `from` — so a simulation executed as
/// several consecutive `drive` calls crosses exactly the boundaries an
/// uninterrupted run would, and results cannot depend on how the caller
/// phased the run.
pub fn window_ends(
    from: Instant,
    horizon: Instant,
    lookahead: Duration,
) -> impl Iterator<Item = Instant> {
    assert!(lookahead > Duration::ZERO, "lookahead must be positive");
    let step = lookahead.total_micros();
    let mut at = from;
    std::iter::from_fn(move || {
        if at >= horizon {
            return None;
        }
        // The next multiple of `step` strictly after `at`, capped at the
        // horizon (the final window may be truncated).
        let next = Instant::from_micros((at.total_micros() / step + 1) * step).min(horizon);
        at = next;
        Some(next)
    })
}

/// Drives `shards` from `from` to `horizon` in conservative windows of
/// width `lookahead`.
///
/// For every window the driver calls `run(shards, end)` — which must
/// advance each shard to `end`, in any order or in parallel — and then
/// `sync(shards, end)`, which exchanges the messages produced during the
/// window. `sync` runs on the caller's thread with all shards at the same
/// instant, so it may freely move data between them.
///
/// A window in which no shard has work before `end` is an idle window:
/// it is advanced with [`run_serial`] on the caller's thread instead of
/// `run`, which costs a clock move per shard rather than a fan-out. The
/// boundaries are the same either way, so no event changes its instant
/// or its order.
pub fn drive<S: ShardScheduler>(
    shards: &mut [S],
    from: Instant,
    horizon: Instant,
    lookahead: Duration,
    mut run: impl FnMut(&mut [S], Instant),
    mut sync: impl FnMut(&mut [S], Instant),
) {
    for end in window_ends(from, horizon, lookahead) {
        if shards.iter_mut().any(|s| s.next_work().is_some_and(|at| at < end)) {
            run(shards, end);
        } else {
            run_serial(shards, end);
        }
        debug_assert!(shards.iter().all(|s| s.now() == end), "a shard missed the window barrier");
        sync(shards, end);
    }
}

/// The serial window runner for [`drive`]: shards advance one after the
/// other. The parallel path (a worker pool fanning `run_window` out per
/// window) must produce byte-identical results to this.
pub fn run_serial<S: ShardScheduler>(shards: &mut [S], end: Instant) {
    for s in shards {
        s.run_window(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;

    /// A toy shard: fires timers and logs (time, tag) pairs.
    struct Toy {
        sched: Scheduler<u32>,
        log: Vec<(Instant, u32)>,
        inbox: Vec<(Instant, u32)>,
    }

    impl Toy {
        fn new() -> Toy {
            Toy { sched: Scheduler::new(), log: Vec::new(), inbox: Vec::new() }
        }
    }

    impl ShardScheduler for Toy {
        fn now(&self) -> Instant {
            self.sched.now()
        }

        fn next_work(&mut self) -> Option<Instant> {
            let staged = self.inbox.iter().map(|&(at, _)| at).min();
            [self.sched.peek_time(), staged].into_iter().flatten().min()
        }

        fn run_window(&mut self, horizon: Instant) {
            let mut due: Vec<(Instant, u32)> =
                std::mem::take(&mut self.inbox).into_iter().collect();
            due.sort_by_key(|&(at, tag)| (at, tag));
            for (at, tag) in due {
                self.sched.at(at.max(self.sched.now()), tag);
            }
            while let Some(tag) = self.sched.next_before(horizon) {
                let now = self.sched.now();
                self.log.push((now, tag));
            }
        }
    }

    #[test]
    fn window_ends_align_to_fixed_multiples() {
        let la = Duration::from_millis(10);
        let ends: Vec<Instant> = window_ends(Instant::ZERO, Instant::from_millis(35), la).collect();
        assert_eq!(
            ends,
            vec![
                Instant::from_millis(10),
                Instant::from_millis(20),
                Instant::from_millis(30),
                Instant::from_millis(35),
            ]
        );
        // Starting mid-window crosses the same absolute boundaries.
        let ends: Vec<Instant> =
            window_ends(Instant::from_millis(15), Instant::from_millis(35), la).collect();
        assert_eq!(
            ends,
            vec![Instant::from_millis(20), Instant::from_millis(30), Instant::from_millis(35)]
        );
        // A start on a boundary does not produce an empty window.
        let ends: Vec<Instant> =
            window_ends(Instant::from_millis(20), Instant::from_millis(30), la).collect();
        assert_eq!(ends, vec![Instant::from_millis(30)]);
    }

    #[test]
    fn phased_runs_cross_identical_boundaries() {
        let la = Duration::from_millis(7);
        let whole: Vec<Instant> =
            window_ends(Instant::ZERO, Instant::from_millis(100), la).collect();
        let mut phased: Vec<Instant> =
            window_ends(Instant::ZERO, Instant::from_millis(40), la).collect();
        phased.extend(window_ends(Instant::from_millis(40), Instant::from_millis(100), la));
        // The phase split adds its cut points but every multiple-of-7
        // boundary of the whole run is crossed by the phased run too.
        for b in whole {
            assert!(phased.contains(&b), "missing boundary {b}");
        }
    }

    #[test]
    fn drive_advances_all_shards_to_horizon() {
        let mut shards = vec![Toy::new(), Toy::new()];
        shards[0].sched.at(Instant::from_millis(3), 1);
        shards[1].sched.at(Instant::from_millis(23), 2);
        let (horizon, lookahead) = (Instant::from_millis(50), Duration::from_millis(10));
        drive(&mut shards, Instant::ZERO, horizon, lookahead, run_serial, |_, _| {});
        assert!(shards.iter().all(|s| s.now() == horizon));
        assert_eq!(shards[0].log, vec![(Instant::from_millis(3), 1)]);
        assert_eq!(shards[1].log, vec![(Instant::from_millis(23), 2)]);
    }

    /// Forwards every event shard 0 logged in the window ending at `end`
    /// to shard 1, due one lookahead later, tagged one higher.
    fn forward(shards: &mut [Toy], end: Instant, la: Duration) {
        let sent: Vec<(Instant, u32)> = shards[0]
            .log
            .iter()
            .filter(|&&(at, _)| at >= end - la && at < end)
            .map(|&(at, tag)| (at + la, tag + 1))
            .collect();
        shards[1].inbox.extend(sent);
    }

    #[test]
    fn sync_moves_messages_between_shards_at_boundaries() {
        // Shard 0 "sends" to shard 1 with one lookahead of latency: a
        // timer at t fires in shard 0, sync forwards it as an inbox entry
        // due at t + lookahead in shard 1.
        let la = Duration::from_millis(10);
        let mut shards = vec![Toy::new(), Toy::new()];
        shards[0].sched.at(Instant::from_millis(4), 100);
        let horizon = Instant::from_millis(40);
        drive(&mut shards, Instant::ZERO, horizon, la, run_serial, |shards, end| {
            forward(shards, end, la);
        });
        assert_eq!(shards[0].log, vec![(Instant::from_millis(4), 100)]);
        assert_eq!(shards[1].log, vec![(Instant::from_millis(14), 101)]);
    }

    #[test]
    fn idle_windows_are_not_fanned_out() {
        // 100 windows, three of which hold a timer.
        let la = Duration::from_millis(10);
        let horizon = Instant::from_millis(1_000);
        let timers = || {
            let mut shards = vec![Toy::new(), Toy::new()];
            shards[0].sched.at(Instant::from_millis(5), 1);
            shards[1].sched.at(Instant::from_millis(505), 2);
            shards[0].sched.at(Instant::from_millis(905), 3);
            shards
        };
        let mut shards = timers();
        let (mut fanned, mut clocks) = (0, Vec::new());
        let count = |shards: &mut [Toy], end| {
            fanned += 1;
            run_serial(shards, end);
        };
        drive(&mut shards, Instant::ZERO, horizon, la, count, |shards, end| {
            clocks.push((end, shards.iter().map(Toy::now).collect::<Vec<_>>()));
        });
        assert_eq!(fanned, 3, "only the windows holding a timer are fanned out");
        let expected: Vec<_> =
            window_ends(Instant::ZERO, horizon, la).map(|end| (end, vec![end, end])).collect();
        assert_eq!(expected.len(), 100);
        assert_eq!(clocks, expected, "every clock lands on every boundary");

        // The log equals that of a loop advancing every window serially.
        let mut reference = timers();
        for end in window_ends(Instant::ZERO, horizon, la) {
            run_serial(&mut reference, end);
        }
        for (got, want) in shards.iter().zip(&reference) {
            assert_eq!(got.log, want.log);
        }
        assert_eq!(shards[0].log.len() + shards[1].log.len(), 3);
    }

    #[test]
    fn a_staged_handoff_fans_its_window_out() {
        // Shard 1 has no timer of its own: only the handoff staged into
        // its inbox at the first boundary makes the second window busy.
        let la = Duration::from_millis(10);
        let mut shards = vec![Toy::new(), Toy::new()];
        shards[0].sched.at(Instant::from_millis(4), 100);
        let mut fanned = Vec::new();
        let count = |shards: &mut [Toy], end| {
            fanned.push(end);
            run_serial(shards, end);
        };
        drive(&mut shards, Instant::ZERO, Instant::from_millis(40), la, count, |shards, end| {
            forward(shards, end, la);
        });
        assert_eq!(fanned, vec![Instant::from_millis(10), Instant::from_millis(20)]);
        assert_eq!(shards[1].log, vec![(Instant::from_millis(14), 101)]);
    }
}
