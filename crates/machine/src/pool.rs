//! The claim-cursor sweep every `par_*` fan-out rides on.
//!
//! [`sweep`] runs its workers inside one `std::thread::scope`: the
//! calling thread is worker 0, the others (at most 64) are spawned for
//! the sweep and joined before it returns, so no thread outlives the
//! call. Sweeps here run for milliseconds, so a spawn per sweep costs
//! well under a percent.
//!
//! * **One claim cursor.** The task indices `0..n` are handed out from
//!   one shared `AtomicUsize`: a worker claims the next [`auto_grain`]
//!   tasks with a single `fetch_add` and comes back for more until the
//!   cursor passes `n`. A worker stuck on an expensive task simply
//!   claims nothing further while the others drain the rest, so skewed
//!   costs level out without any per-worker queue. Claimed tasks are
//!   never re-queued, so each index runs exactly once.
//! * **Per-worker engines.** Each worker materializes its scratch state
//!   (`FaultSim`, `PhaseSim`, `AnalysisCache`, …) lazily via `init` and
//!   reuses it across every block it claims.
//! * **Determinism.** Each worker returns its `(index, result)` pairs,
//!   put into input order after the scope ends. Every result is a pure
//!   function of its config, so output and every statistic are
//!   bit-identical regardless of worker count or claim interleaving.
//!
//! A panicking task ends its worker; the others drain the remaining
//! tasks, then the first payload is re-raised on the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most threads one sweep runs on; a larger request shares the cursor
/// among this many threads.
const MAX_SWEEP_THREADS: usize = 64;

/// How one sweep actually executed — the effective worker count (after
/// clamping to the task count) and the grain. The bench harnesses
/// compute parallel efficiency against [`SweepReport::workers`], never
/// against the requested count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Worker count the caller asked for.
    pub requested: usize,
    /// Workers the sweep actually used: `requested` clamped to `[1, tasks]`.
    pub workers: usize,
    /// Total work units in the sweep.
    pub tasks: usize,
    /// Tasks claimed per cursor operation: [`auto_grain`]`(tasks, workers)`.
    pub grain: usize,
}

/// Pick a grain so each worker makes ~8 claims over the sweep: coarse
/// enough to amortize the atomic per block, fine enough that the last
/// blocks claimed level out a worker held up by one expensive task.
/// Calibrated in `BENCH_scaling.json`.
pub fn auto_grain(tasks: usize, workers: usize) -> usize {
    (tasks / (workers.max(1) * 8)).max(1)
}

/// One multi-worker sweep, shared by reference with every worker.
struct Sweep<'a, C, I, F> {
    configs: &'a [C],
    /// The first task index no worker has claimed yet.
    next: AtomicUsize,
    grain: usize,
    init: I,
    f: F,
}

impl<C, I, F> Sweep<'_, C, I, F> {
    /// One worker's run: claim `grain` tasks at a time until the cursor
    /// passes the end. The scratch state is built on the first claim and
    /// reused across every later one. Returns the worker's
    /// `(task index, result)` pairs.
    fn participate<S, R>(&self) -> Vec<(usize, R)>
    where
        I: Fn() -> S,
        F: Fn(&mut S, &C) -> R,
    {
        let n = self.configs.len();
        let mut state: Option<S> = None;
        let mut done = Vec::new();
        loop {
            // The cursor only hands out indices; results reach the caller
            // through the scope's join, so no ordering beyond the RMW.
            let a = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if a >= n {
                return done;
            }
            let b = (a + self.grain).min(n);
            let state = state.get_or_insert_with(&self.init);
            done.extend((a..b).map(|i| (i, (self.f)(state, &self.configs[i]))));
        }
    }
}

/// Run `f` over every config with `requested` workers (clamped to
/// `[1, n]`) claiming [`auto_grain`] tasks at a time. Results are in
/// input order, bit-identical for every worker count; the report says
/// how the sweep actually executed.
///
/// A panic inside `f` or `init` is re-raised here, with its original
/// payload, after every worker has ended.
pub fn sweep<C, R, S, I, F>(configs: &[C], requested: usize, init: I, f: F) -> (Vec<R>, SweepReport)
where
    C: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    let n = configs.len();
    let workers = requested.clamp(1, n.max(1));
    let mut report = SweepReport {
        requested,
        workers,
        tasks: n,
        ..SweepReport::default()
    };
    if n == 0 {
        return (Vec::new(), report);
    }
    report.grain = auto_grain(n, workers);
    if workers == 1 {
        // Single worker: run inline, spawning nothing.
        let mut state = init();
        return (configs.iter().map(|c| f(&mut state, c)).collect(), report);
    }

    let job = Sweep {
        configs,
        next: AtomicUsize::new(0),
        grain: report.grain,
        init,
        f,
    };
    let shares = std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = (1..workers.min(MAX_SWEEP_THREADS))
            .map(|_| scope.spawn(move || job.participate()))
            .collect();
        // Worker 0 is the calling thread; catching its panic lets every
        // spawned worker be joined before anything is re-raised.
        let mut shares = vec![catch_unwind(AssertUnwindSafe(|| job.participate()))];
        shares.extend(handles.into_iter().map(|h| h.join()));
        shares
    });

    let mut pairs = Vec::with_capacity(n);
    for share in shares {
        match share {
            Ok(done) => pairs.extend(done),
            Err(payload) => resume_unwind(payload),
        }
    }
    assert_eq!(pairs.len(), n, "every task claimed exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    (pairs.into_iter().map(|(_, r)| r).collect(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn auto_grain_is_sane() {
        assert_eq!(auto_grain(0, 4), 1);
        assert_eq!(auto_grain(7, 4), 1);
        assert_eq!(auto_grain(256, 4), 8);
        assert_eq!(auto_grain(1000, 1), 125);
    }

    #[test]
    fn sweep_preserves_order_and_reports_effective_workers() {
        let configs: Vec<u64> = (0..1000).collect();
        let (got, rep) = sweep(&configs, 6, || (), |(), &c| c * 3 + 1);
        assert_eq!(got, configs.iter().map(|c| c * 3 + 1).collect::<Vec<_>>());
        assert_eq!((rep.requested, rep.workers, rep.tasks), (6, 6, 1000));
        assert_eq!(rep.grain, auto_grain(1000, 6));

        // More workers than tasks: clamped, surfaced.
        let (_, rep) = sweep(&configs[..3], 64, || (), |(), &c| c);
        assert_eq!((rep.requested, rep.workers), (64, 3));

        // Empty input.
        let (got, rep) = sweep(&Vec::<u64>::new(), 4, || (), |(), &c: &u64| c);
        assert!(got.is_empty());
        assert_eq!(rep.tasks, 0);
    }

    #[test]
    fn skewed_tasks_are_bit_identical_across_worker_counts_and_grains() {
        // Task i busy-works proportionally to a skewed cost so claims
        // interleave unevenly, then returns a pure function of i. The grain
        // follows the worker count through `auto_grain`.
        let configs: Vec<usize> = (0..300).collect();
        let run = |workers: usize| {
            sweep(
                &configs,
                workers,
                || 0u64,
                |acc, &i| {
                    let cost = if i % 37 == 0 { 20_000 } else { 50 };
                    let mut h = i as u64 ^ 0x9e37;
                    for _ in 0..cost {
                        h = h.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    *acc = acc.wrapping_add(h); // per-worker state mutates freely
                    (i as u64).wrapping_mul(h ^ (h >> 31))
                },
            )
            .0
        };
        let serial = run(1);
        for workers in [2, 3, 8, 16, 40] {
            assert_eq!(serial, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_rebuilt() {
        let inits = AtomicUsize::new(0);
        let configs: Vec<usize> = (0..500).collect();
        let (_, rep) = sweep(
            &configs,
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &i| i,
        );
        assert!(rep.workers == 4);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "each worker builds its scratch at most once"
        );
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let configs: Vec<usize> = (0..64).collect();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            sweep(
                &configs,
                4,
                || (),
                |(), &i| {
                    assert!(i != 13, "boom at {i}");
                    i
                },
            )
        }));
        assert!(boom.is_err(), "the task panic must reach the submitter");
        // Subsequent sweeps still execute correctly.
        let (got, _) = sweep(&configs, 4, || (), |(), &i| i * 2);
        assert_eq!(got, configs.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_worker_panic_keeps_its_message() {
        // Whichever worker claims the last task, spawned or the caller,
        // the caller sees the original text.
        let configs: Vec<usize> = (0..64).collect();
        let last = configs.len() - 1;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            sweep(
                &configs,
                4,
                || (),
                |(), &i| {
                    if i == last {
                        panic!("task {i} failed");
                    }
                    i
                },
            )
        }))
        .expect_err("the task panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String payload");
        assert_eq!(msg, "task 63 failed");
        let (got, _) = sweep(&configs, 4, || (), |(), &i| i + 1);
        assert_eq!(got, configs.iter().map(|i| i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_worker_init_panic_keeps_its_payload() {
        // `init` panics on every spawned worker; the caller's `init` waits
        // until one has, so the panic is certain to come from a spawned
        // thread rather than depend on who claims first.
        #[derive(Debug, PartialEq)]
        struct InitFailed(u32);
        let caller = std::thread::current().id();
        let entered = AtomicBool::new(false);
        let configs: Vec<usize> = (0..64).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            sweep(
                &configs,
                4,
                || {
                    if std::thread::current().id() != caller {
                        entered.store(true, Ordering::Relaxed);
                        std::panic::panic_any(InitFailed(7));
                    }
                    while !entered.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                },
                |(), &i| i,
            )
        }))
        .expect_err("the init panic must reach the caller");
        assert_eq!(payload.downcast_ref::<InitFailed>(), Some(&InitFailed(7)));
        let (got, _) = sweep(&configs, 4, || (), |(), &i| i * 3);
        assert_eq!(got, configs.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn workers_beyond_the_thread_cap_share_the_cursor() {
        let configs: Vec<u64> = (0..100).collect();
        let (got, rep) = sweep(&configs, 100, || (), |(), &c| c * c);
        assert_eq!(got, configs.iter().map(|c| c * c).collect::<Vec<_>>());
        assert_eq!((rep.requested, rep.workers, rep.tasks), (100, 100, 100));
    }

    #[test]
    fn nested_sweeps_match_the_serial_map() {
        let outer: Vec<u64> = (0..8).collect();
        let inner = |o: u64| -> Vec<u64> { (0..50).map(|i| o * 1000 + i * i).collect() };
        let (got, _) = sweep(
            &outer,
            2,
            || (),
            |(), &o| {
                let configs: Vec<u64> = (0..50).collect();
                sweep(&configs, 2, || (), |(), &i| o * 1000 + i * i).0
            },
        );
        assert_eq!(got, outer.iter().map(|&o| inner(o)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_sweeps_do_not_interfere() {
        // Several callers sweep at once; every sweep's output must stay
        // bit-identical to its serial run.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let configs: Vec<u64> = (0..400).map(|i| i + 1000 * t).collect();
                    let want: Vec<u64> = configs.iter().map(|c| c ^ (c << 7)).collect();
                    for _ in 0..5 {
                        let (got, _) = sweep(&configs, 4, || (), |(), &c| c ^ (c << 7));
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}
