//! The shared work-stealing execution substrate every `par_*` fan-out
//! rides on.
//!
//! The old driver split a sweep's configs into `threads` static chunks
//! and spawned one scoped thread per chunk. That collapses the moment
//! task costs are skewed (one long chunk serializes the whole sweep) and
//! pays a spawn/join per call. This module replaces it with a
//! process-wide pool:
//!
//! * **Injector.** Sweeps are published to a global job queue; parked
//!   pool workers (spawned lazily, reused for the life of the process)
//!   pick jobs up from it, and the submitting thread always participates
//!   in its own job, so progress never depends on pool threads being
//!   free.
//! * **Per-worker deques.** A sweep's task indices `0..n` are pre-split
//!   into one contiguous range per worker, each held in a `RangeDeque`
//!   — a single packed `(start, end)` word updated by CAS. The owner
//!   claims `grain` tasks at a time from the front; a worker whose range
//!   is dry steals the **back half** of a victim's remaining range and
//!   installs the surplus in its own deque, so steal traffic is
//!   O(workers · log(n/grain)) per sweep rather than per task. This is a
//!   Chase–Lev deque specialized to index ranges: because tasks are
//!   slice indices, the deque is one atomic word — no buffers, no ABA
//!   (a packed `(start, end)` value always denotes the same pending
//!   tasks, and claimed tasks are never re-queued).
//! * **Per-worker engines.** Each worker materializes its scratch state
//!   (`FaultSim`, `PhaseSim`, `AnalysisCache`, …) lazily via `init` and
//!   reuses it across every task it claims or steals — zero cross-thread
//!   allocation in the hot loop.
//! * **Determinism.** Task `i`'s result is written into pre-sized slot
//!   `i`; every result must be (and, by the repo's sweep invariants, is)
//!   a pure function of its config, so output order and every statistic
//!   are bit-identical regardless of worker count or steal interleaving.
//!   The property tests drive this at random worker counts and random
//!   task-cost skew.
//!
//! A panicking task poisons the job: the first payload is captured and
//! re-raised on the submitting thread after the job drains, matching the
//! old scoped-thread behaviour; the pool itself survives.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on pool threads: a sweep may request more workers than this
/// (they are virtualized over the pool), but the process never holds
/// more parked threads.
const MAX_POOL_THREADS: usize = 64;

/// How one sweep actually executed — the effective worker count (after
/// clamping to the task count), the grain, and the steal traffic. The
/// bench harnesses compute parallel efficiency against
/// [`SweepReport::workers`], never against the requested count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Worker count the caller asked for.
    pub requested: usize,
    /// Workers the sweep actually used: `requested` clamped to `[1, tasks]`.
    pub workers: usize,
    /// Total work units in the sweep.
    pub tasks: usize,
    /// Tasks claimed per deque operation (the coarseness knob).
    pub grain: usize,
    /// Successful steal operations across the sweep.
    pub steals: u64,
}

/// Pick a grain so each worker sees ~8 claim operations on its own range
/// before any stealing starts: coarse enough to amortize the CAS per
/// block, fine enough that the back half of a lagging worker's range is
/// still worth stealing. Calibrated in `BENCH_scaling.json`.
pub fn auto_grain(tasks: usize, workers: usize) -> usize {
    (tasks / (workers.max(1) * 8)).max(1)
}

/// One worker's share of the task indices: `(start, end)` packed into a
/// single atomic word. Empty when `start >= end`.
struct RangeDeque {
    bounds: AtomicU64,
}

fn pack(start: usize, end: usize) -> u64 {
    ((start as u64) << 32) | end as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & 0xffff_ffff) as usize)
}

impl RangeDeque {
    fn new(start: usize, end: usize) -> Self {
        RangeDeque {
            bounds: AtomicU64::new(pack(start, end)),
        }
    }

    /// Claim up to `grain` tasks from the front (owner's fast path; also
    /// used by a thief draining its own freshly installed range).
    fn take_front(&self, grain: usize) -> Option<(usize, usize)> {
        let mut cur = self.bounds.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let take = grain.min(e - s);
            match self.bounds.compare_exchange_weak(
                cur,
                pack(s + take, e),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((s, s + take)),
                Err(now) => cur = now,
            }
        }
    }

    /// Steal the back half (rounded up) of the remaining range.
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut cur = self.bounds.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let keep = (e - s) / 2;
            match self.bounds.compare_exchange_weak(
                cur,
                pack(s, s + keep),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((s + keep, e)),
                Err(now) => cur = now,
            }
        }
    }

    /// Install a stolen range into this (empty, owner-local) deque so
    /// other thieves can share it. Only the owning worker stores; thieves
    /// only CAS-remove, so a plain store is race-free against them.
    fn install(&self, start: usize, end: usize) {
        self.bounds.store(pack(start, end), Ordering::Release);
    }
}

/// Type-erased bookkeeping of one in-flight sweep. Lives on the
/// submitting thread's stack; pool workers reach it through a raw
/// pointer that is guaranteed valid until the submitter has observed
/// `inside == 0` **after** unlisting the job from the injector.
struct JobCore {
    data: *const (),
    /// Monomorphized participation entry point: `(data, worker_slot)`.
    run: unsafe fn(*const (), usize),
    workers: usize,
    state: Mutex<JobState>,
    /// Signalled when a participant leaves (`inside` drops).
    done: Condvar,
}

struct JobState {
    /// Next worker slot to hand out; slots `>= workers` mean the job is
    /// fully subscribed.
    next_slot: usize,
    /// Participants currently inside `run` (including the submitter).
    inside: usize,
    /// First panic payload raised by any participant.
    panic: Option<Box<dyn Any + Send>>,
}

/// A `*const JobCore` that may cross threads: validity is enforced by
/// the unlist-then-drain protocol, not by the type system.
#[derive(Clone, Copy)]
struct JobPtr(*const JobCore);
unsafe impl Send for JobPtr {}

struct PoolShared {
    /// The injector: jobs currently open for pool workers to join.
    injector: Mutex<Vec<JobPtr>>,
    /// Signalled when a job is published.
    wake: Condvar,
    /// Pool threads spawned so far.
    spawned: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    POOL.get_or_init(|| PoolShared {
        injector: Mutex::new(Vec::new()),
        wake: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Make sure at least `want` pool threads exist (capped). Workers are
/// detached and live for the process; an idle worker parks on the
/// injector condvar and costs nothing.
fn ensure_threads(want: usize) {
    let shared = pool();
    let want = want.min(MAX_POOL_THREADS);
    loop {
        let cur = shared.spawned.load(Ordering::Acquire);
        if cur >= want {
            break;
        }
        if shared
            .spawned
            .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        std::thread::Builder::new()
            .name(format!("rescomm-pool-{cur}"))
            .spawn(worker_loop)
            .expect("spawning a pool worker");
    }
}

/// A parked pool thread's life: wait for a job with a free worker slot,
/// join it, participate until its deques drain, repeat.
fn worker_loop() {
    let shared = pool();
    loop {
        // Find a joinable job. Slot assignment happens under the
        // injector lock — the same lock a submitter unlists under — so a
        // job can never gain participants after it is unlisted.
        let (job, slot) = {
            let mut q = lock(&shared.injector);
            'find: loop {
                for &JobPtr(ptr) in q.iter() {
                    let core = unsafe { &*ptr };
                    let mut st = lock(&core.state);
                    if st.next_slot < core.workers {
                        let slot = st.next_slot;
                        st.next_slot += 1;
                        st.inside += 1;
                        break 'find (JobPtr(ptr), slot);
                    }
                }
                q = shared.wake.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let core = unsafe { &*job.0 };
        let run = core.run;
        let data = core.data;
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { run(data, slot) }));
        let mut st = lock(&core.state);
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.inside -= 1;
        // Notify while holding the lock: after we release it we must not
        // touch `core` again (the submitter may free it immediately).
        core.done.notify_all();
        drop(st);
    }
}

/// The monomorphic half of a job: everything the worker algorithm needs,
/// shared by reference across participants.
struct JobData<'a, C, R, S, I, F> {
    configs: &'a [C],
    /// Pre-sized output; slot `i` is written exactly once, by whichever
    /// worker claims task `i`.
    results: *mut R,
    deques: Vec<RangeDeque>,
    grain: usize,
    steals: AtomicU64,
    init: &'a I,
    f: &'a F,
    _marker: std::marker::PhantomData<S>,
}

/// `results` is a raw pointer only to erase the unique-borrow; every
/// task index is claimed by exactly one worker, so writes never alias.
unsafe impl<C: Sync, R: Send, S, I: Sync, F: Sync> Sync for JobData<'_, C, R, S, I, F> {}

impl<C, R, S, I, F> JobData<'_, C, R, S, I, F>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    /// One worker's participation: drain the own deque, then steal until
    /// a full victim scan comes up empty. The scratch state is built on
    /// first use and reused across owned *and* stolen tasks.
    fn participate(&self, slot: usize) {
        let workers = self.deques.len();
        let mut state: Option<S> = None;
        loop {
            if let Some((a, b)) = self.deques[slot].take_front(self.grain) {
                self.run_block(&mut state, a, b);
                continue;
            }
            // Own range dry: scan for a victim, nearest neighbour first.
            let mut stolen = None;
            for off in 1..workers {
                if let Some(r) = self.deques[(slot + off) % workers].steal_back() {
                    stolen = Some(r);
                    break;
                }
            }
            let Some((s, e)) = stolen else {
                return; // every deque empty: the sweep is fully claimed
            };
            self.steals.fetch_add(1, Ordering::Relaxed);
            let take = self.grain.min(e - s);
            // Expose the surplus *before* running so other idle workers
            // can share the stolen range immediately.
            if s + take < e {
                self.deques[slot].install(s + take, e);
            }
            self.run_block(&mut state, s, s + take);
        }
    }

    fn run_block(&self, state: &mut Option<S>, a: usize, b: usize) {
        let state = state.get_or_insert_with(self.init);
        for i in a..b {
            let r = (self.f)(state, &self.configs[i]);
            // Assignment (not `write`) so the pre-sized `Default` slot is
            // dropped, never leaked. Slot `i` is claimed by exactly one
            // worker, so the `&mut` never aliases.
            unsafe { *self.results.add(i) = r };
        }
    }
}

unsafe fn run_erased<C, R, S, I, F>(data: *const (), slot: usize)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    let job = &*data.cast::<JobData<'_, C, R, S, I, F>>();
    job.participate(slot);
}

/// Run `f` over every config on the shared pool with `requested`
/// workers (clamped to `[1, n]`) and the given `grain` (`0` =
/// [`auto_grain`]). Results are in input order, bit-identical for every
/// worker count; the report says how the sweep actually executed.
///
/// A panic inside `f` or `init` is re-raised here after the job drains.
pub fn sweep<C, R, S, I, F>(
    configs: &[C],
    requested: usize,
    grain: usize,
    init: I,
    f: F,
) -> (Vec<R>, SweepReport)
where
    C: Sync,
    R: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    let n = configs.len();
    let mut report = SweepReport {
        requested,
        workers: requested.clamp(1, n.max(1)),
        tasks: n,
        grain: 0,
        steals: 0,
    };
    if n == 0 {
        return (Vec::new(), report);
    }
    let grain = if grain == 0 {
        auto_grain(n, report.workers)
    } else {
        grain
    };
    report.grain = grain;
    if report.workers <= 1 {
        // Single worker: run inline. Involving the pool buys nothing and
        // costs a publish + park/unpark round trip per sweep, which is
        // pure overhead on single-core hosts.
        let mut state = init();
        return (configs.iter().map(|c| f(&mut state, c)).collect(), report);
    }

    let workers = report.workers;
    let mut results = vec![R::default(); n];
    let chunk = n.div_ceil(workers);
    let deques: Vec<RangeDeque> = (0..workers)
        .map(|w| RangeDeque::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
        .collect();
    let job = JobData::<'_, C, R, S, I, F> {
        configs,
        results: results.as_mut_ptr(),
        deques,
        grain,
        steals: AtomicU64::new(0),
        init: &init,
        f: &f,
        _marker: std::marker::PhantomData,
    };
    let core = JobCore {
        data: (&raw const job).cast(),
        run: run_erased::<C, R, S, I, F>,
        workers,
        state: Mutex::new(JobState {
            next_slot: 1, // the submitter is slot 0
            inside: 1,
            panic: None,
        }),
        done: Condvar::new(),
    };

    let shared = pool();
    ensure_threads(workers - 1);
    {
        let mut q = lock(&shared.injector);
        q.push(JobPtr(&raw const core));
        shared.wake.notify_all();
    }

    // Participate as slot 0: the job completes even if every pool thread
    // is busy elsewhere.
    let outcome = catch_unwind(AssertUnwindSafe(|| job.participate(0)));

    // Unlist first (under the injector lock, so no new participant can
    // join), then drain the ones already inside.
    {
        let mut q = lock(&shared.injector);
        q.retain(|p| !std::ptr::eq(p.0, &raw const core));
    }
    let mut st = lock(&core.state);
    if let Err(payload) = outcome {
        st.panic.get_or_insert(payload);
    }
    st.inside -= 1;
    while st.inside > 0 {
        st = core.done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let panic = st.panic.take();
    drop(st);

    report.steals = job.steals.load(Ordering::Relaxed);
    drop(job);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn deque_take_and_steal_partition_exactly() {
        let d = RangeDeque::new(0, 100);
        let mut seen = [false; 100];
        let (a, b) = d.take_front(8).unwrap();
        assert_eq!((a, b), (0, 8));
        seen[a..b].iter_mut().for_each(|s| *s = true);
        let (s, e) = d.steal_back().unwrap();
        assert_eq!((s, e), (54, 100), "back half of 8..100");
        seen[s..e].iter_mut().for_each(|x| *x = true);
        // Drain the rest from the front.
        while let Some((a, b)) = d.take_front(7) {
            for (i, slot) in seen.iter_mut().enumerate().take(b).skip(a) {
                assert!(!*slot, "task {i} claimed twice");
                *slot = true;
            }
        }
        assert!(d.steal_back().is_none());
        assert!(seen[..54].iter().all(|&s| s), "front segment fully claimed");
    }

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
        let (got, rep) = sweep(&configs, 6, 0, || (), |(), &c| c * 3 + 1);
        assert_eq!(got, configs.iter().map(|c| c * 3 + 1).collect::<Vec<_>>());
        assert_eq!((rep.requested, rep.workers, rep.tasks), (6, 6, 1000));
        assert_eq!(rep.grain, auto_grain(1000, 6));

        // More workers than tasks: clamped, surfaced.
        let (_, rep) = sweep(&configs[..3], 64, 0, || (), |(), &c| c);
        assert_eq!((rep.requested, rep.workers), (64, 3));

        // Empty input.
        let (got, rep) = sweep(&Vec::<u64>::new(), 4, 0, || (), |(), &c: &u64| c);
        assert!(got.is_empty());
        assert_eq!(rep.tasks, 0);
    }

    #[test]
    fn skewed_tasks_are_bit_identical_across_worker_counts_and_grains() {
        // Task i busy-works proportionally to a skewed cost so stealing
        // actually happens, then returns a pure function of i.
        let configs: Vec<usize> = (0..300).collect();
        let run = |workers: usize, grain: usize| {
            sweep(
                &configs,
                workers,
                grain,
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
        let serial = run(1, 1);
        for (workers, grain) in [(2, 1), (3, 0), (8, 4), (16, 2)] {
            assert_eq!(
                serial,
                run(workers, grain),
                "workers={workers} grain={grain}"
            );
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_rebuilt() {
        let inits = AtomicUsize::new(0);
        let configs: Vec<usize> = (0..500).collect();
        let (_, rep) = sweep(
            &configs,
            4,
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
                1,
                || (),
                |(), &i| {
                    assert!(i != 13, "boom at {i}");
                    i
                },
            )
        }));
        assert!(boom.is_err(), "the task panic must reach the submitter");
        // The pool still executes subsequent sweeps correctly.
        let (got, _) = sweep(&configs, 4, 1, || (), |(), &i| i * 2);
        assert_eq!(got, configs.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_sweeps_do_not_interfere() {
        // Several submitters share the pool at once; every sweep's output
        // must stay bit-identical to its serial run.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let configs: Vec<u64> = (0..400).map(|i| i + 1000 * t).collect();
                    let want: Vec<u64> = configs.iter().map(|c| c ^ (c << 7)).collect();
                    for _ in 0..5 {
                        let (got, _) = sweep(&configs, 4, 0, || (), |(), &c| c ^ (c << 7));
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}
