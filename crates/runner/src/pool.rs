//! A scoped worker pool with deterministic result collection.
//!
//! Jobs are pulled from a shared queue by `workers` threads and may
//! finish in any order; results are written into a slot indexed by the
//! job's position in the input, so the returned `Vec` always matches the
//! input order. Combined with per-job seeding (every umtslab experiment
//! builds its own testbed from its own seed) this makes parallel runs
//! reproduce serial runs byte for byte.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A sensible worker count for this machine: the available parallelism,
/// capped at `jobs` (no point spawning idle threads).
pub fn default_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    hw.min(jobs).max(1)
}

/// Runs `f` over every job on a pool of `workers` threads and returns the
/// results in input order.
///
/// `f` is called as `f(index, &job)`. This is [`run_jobs_mut`] over
/// (job, result slot) pairs, so it shares that pool's scheduling: a
/// shared FIFO queue (long jobs don't serialize behind short ones), a
/// panic in any job propagating to the caller, and a plain in-order loop
/// on the caller's thread when `workers == 1`.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let mut slots: Vec<(J, Option<R>)> = jobs.into_iter().map(|job| (job, None)).collect();
    run_jobs_mut(&mut slots, workers, |idx, (job, out)| *out = Some(f(idx, job)));
    slots.into_iter().map(|(_, out)| out.expect("every job ran")).collect()
}

/// Runs `f` over every job **in place** on a pool of `workers` threads,
/// the caller's thread being one of them.
///
/// The threads pull jobs from a shared FIFO queue. The jobs are borrowed
/// mutably, not consumed — the shape the sharded testbed needs, where the
/// same shards are driven window after window and must survive between
/// calls. `f` is called as `f(index, &mut job)`; each job is visited
/// exactly once per call, by exactly one thread, and a panic in any job
/// propagates to the caller once the scope joins.
///
/// Only `workers - 1` scoped threads are spawned: the caller runs the
/// same pull loop instead of idling at the join, so a window of two
/// shards on two workers spawns one thread. With `workers == 1` nothing
/// is spawned and the jobs run as a plain in-order loop.
pub fn run_jobs_mut<J, F>(jobs: &mut [J], workers: usize, f: F)
where
    J: Send,
    F: Fn(usize, &mut J) + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return;
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        for (idx, job) in jobs.iter_mut().enumerate() {
            f(idx, job);
        }
        return;
    }
    let queue: Mutex<VecDeque<(usize, &mut J)>> = Mutex::new(jobs.iter_mut().enumerate().collect());
    let work = || loop {
        let Some((idx, job)) = queue.lock().expect("queue poisoned").pop_front() else {
            return;
        };
        f(idx, job);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn results_keep_input_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_jobs(jobs.clone(), workers, |_, j| j * j);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let got = run_jobs((0..100).collect::<Vec<_>>(), 7, |idx, j| {
            count.fetch_add(1, Ordering::SeqCst);
            assert_eq!(idx as i32, *j);
            idx
        });
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let got: Vec<u8> = run_jobs(Vec::<u8>::new(), 4, |_, j| *j);
        assert!(got.is_empty());
        let got = run_jobs(vec![9u8], 16, |_, j| *j);
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn run_jobs_mut_visits_every_job_once_in_place() {
        for workers in [1, 2, 5, 32] {
            let mut jobs: Vec<u64> = (0..23).collect();
            let calls = AtomicUsize::new(0);
            run_jobs_mut(&mut jobs, workers, |idx, j| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(idx as u64, *j);
                *j *= *j;
            });
            assert_eq!(calls.load(Ordering::SeqCst), 23, "workers={workers}");
            let expected: Vec<u64> = (0..23).map(|j| j * j).collect();
            assert_eq!(jobs, expected, "workers={workers}");
        }
        let mut empty: Vec<u8> = Vec::new();
        run_jobs_mut(&mut empty, 4, |_, _| unreachable!());
    }

    /// Runs `workers` jobs on `workers` threads, each job held until all
    /// have started (so no thread can take two), and returns the thread
    /// id each job ran on.
    fn thread_of_each_job(workers: usize) -> Vec<std::thread::ThreadId> {
        let barrier = Barrier::new(workers);
        let mut jobs = vec![None; workers];
        run_jobs_mut(&mut jobs, workers, |_, slot| {
            barrier.wait();
            *slot = Some(std::thread::current().id());
        });
        jobs.into_iter().map(|id| id.expect("every job ran")).collect()
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        for workers in [2, 3, 4] {
            let ids = thread_of_each_job(workers);
            assert!(ids.contains(&caller), "no job ran on the caller at workers={workers}");
            // The barrier put each job on its own thread.
            let others = ids.iter().filter(|&&id| id != caller).count();
            assert_eq!(others, workers - 1, "spawned threads at workers={workers}");
        }
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller() {
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let barrier = Barrier::new(2);
            let mut jobs = [0u8; 2];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_jobs_mut(&mut jobs, 2, |_, _| {
                    barrier.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("job failed");
                    }
                });
            }));
            assert!(run.is_err(), "panic lost (on the caller's thread: {on_caller})");
        }
    }

    #[test]
    fn default_workers_is_bounded() {
        assert_eq!(default_workers(0), 1);
        assert!(default_workers(3) <= 3);
        assert!(default_workers(1000) >= 1);
    }
}
