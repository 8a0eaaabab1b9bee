//! Deterministic data parallelism for the MASS workspace.
//!
//! Every hot loop in the pipeline — Jacobi sweeps, PageRank pulls, naive
//! Bayes classification, page assembly — is data-parallel per element, but
//! floating-point reduction order is the classic trap: naive parallel sums
//! change bits with the thread count and silently reshuffle top-k rankings.
//! This crate provides the one execution discipline the whole workspace
//! uses (DESIGN.md §8):
//!
//! * work is split into **chunks whose boundaries depend only on the input
//!   length** — never on the thread count or the scheduler;
//! * chunk results land in **index-addressed slots**, so completion order
//!   is irrelevant;
//! * reductions combine the per-chunk partials in a **fixed tree keyed by
//!   chunk index** ([`Exec::par_reduce_det`]), so a sum over f64 is
//!   bit-identical whether it ran on 1 thread or 64.
//!
//! `threads == 1` never touches the pool: it is the exact serial path, and
//! the differential harness (`tests/parallel_determinism.rs` at the
//! workspace root) asserts the parallel paths reproduce it bit for bit.
//!
//! *Where* work runs is decided by its size, never by its bits: coarse
//! task lists fan out from two tasks ([`Exec::par_tasks_collect`]), and a
//! fine kernel whose work per pass is below its measured floor takes the
//! serial path ([`kernel_executor`], [`floor`]).
//!
//! Like the `shim-*` crates, this is dependency-free by policy (the build
//! environment has no crates.io access); the pool is built on
//! `std::thread` + park/unpark only.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

mod chunks;
pub use chunks::ChunkPlan;

/// Worker threads to use when the caller passes `0` ("auto"): the host's
/// available parallelism.
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `threads` knob: `0` means [`available`], anything else is
/// taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available()
    } else {
        threads
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One queued unit of work: a monomorphised entry point plus a type-erased
/// pointer to the caller's stack context. Raw pointers rather than
/// references so the job type is `'static` without transmuting lifetimes;
/// the region protocol (below) guarantees the context outlives every
/// dereference.
struct Job {
    run: unsafe fn(*const (), &Region),
    ctx: *const (),
    region: Arc<Region>,
    queued_at: Option<std::time::Instant>,
}

// SAFETY: `ctx` points at a `RegionCtx<F>` with `F: Sync` that the
// submitting thread keeps alive until `region.remaining` reaches zero, and
// every job decrements `remaining` only after its last access to `ctx`.
unsafe impl Send for Job {}

impl Job {
    fn execute(self) {
        if let Some(at) = self.queued_at {
            mass_obs::histogram("par.queue_wait_us").record(at.elapsed().as_micros() as f64);
        }
        // SAFETY: see the `Send` justification above.
        unsafe { (self.run)(self.ctx, &self.region) };
        // Everything after this line touches only `Arc`-owned state: once
        // `remaining` hits zero the caller may return and pop its stack.
        self.region.count_down();
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A lazily grown, shared worker pool. Workers park in a condvar when idle;
/// they carry no work-stealing deques because determinism comes from the
/// chunk plan, not the schedule — a plain shared queue is enough.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    max_workers: usize,
}

/// Upper bound on pool workers; far above any sane `--threads` request.
const MAX_POOL_WORKERS: usize = 64;

impl Pool {
    /// A pool with exactly `workers` worker threads (plus every caller,
    /// which always participates in its own regions).
    pub fn new(workers: usize) -> Pool {
        let pool = Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
            max_workers: workers.min(MAX_POOL_WORKERS),
        };
        pool.ensure_workers(pool.max_workers);
        pool
    }

    /// The process-wide pool. It starts empty and grows on demand up to the
    /// largest concurrency any [`executor`] call requests (so oversubscribed
    /// `--threads` still get real OS threads on small machines).
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
            max_workers: MAX_POOL_WORKERS,
        })
    }

    /// Current worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.lock().unwrap().len()
    }

    /// Spawns workers until at least `n` exist (capped at the pool's max).
    fn ensure_workers(&self, n: usize) {
        let n = n.min(self.max_workers);
        let mut workers = self.workers.lock().unwrap();
        while workers.len() < n {
            let shared = Arc::clone(&self.shared);
            let name = format!("mass-par-{}", workers.len());
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }

    fn submit(&self, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap();
        queue.push_back(job);
        drop(queue);
        self.shared.ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.shared.queue.lock().unwrap().pop_front()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The flag is set under the queue lock: a worker checks it and
        // parks on `ready` while holding that lock, so it either sees the
        // flag or is already waiting when `notify_all` fires. Set outside
        // the lock, the store and the notify could both land between a
        // worker's check and its wait, and `join` below would block
        // forever on a worker that never wakes.
        {
            let _queue = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.ready.notify_all();
        for handle in self.workers.get_mut().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        job.execute();
    }
}

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

/// Heap-shared state of one parallel region. Jobs touch the caller's stack
/// (`RegionCtx`) strictly before their final `count_down`; everything a job
/// may touch afterwards lives here, kept alive by the `Arc` even if the
/// caller has already returned.
struct Region {
    /// Next unclaimed chunk index.
    cursor: AtomicUsize,
    /// Helper jobs that have not finished yet.
    remaining: AtomicUsize,
    /// First panic payload observed in any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The caller, parked until `remaining` reaches zero.
    waiter: Thread,
}

impl Region {
    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiter.unpark();
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// The caller-stack side of a region: the user closure plus the chunk plan.
struct RegionCtx<'a, F> {
    f: &'a F,
    plan: ChunkPlan,
    record_chunks: bool,
}

/// Claims chunks off `region.cursor` and runs them until the plan is
/// exhausted. Shared by pool workers and the participating caller.
fn run_chunks<F: Fn(usize, Range<usize>) + Sync>(ctx: &RegionCtx<'_, F>, region: &Region) {
    let chunk_time = if ctx.record_chunks {
        Some(mass_obs::histogram("par.chunk_us"))
    } else {
        None
    };
    loop {
        let c = region.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= ctx.plan.chunks() {
            return;
        }
        let started = chunk_time.as_ref().map(|_| std::time::Instant::now());
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (ctx.f)(c, ctx.plan.range(c)))) {
            region.record_panic(payload);
            return;
        }
        if let (Some(h), Some(at)) = (&chunk_time, started) {
            h.record(at.elapsed().as_micros() as f64);
        }
    }
}

/// Monomorphised job entry: recovers the typed context and runs chunks.
///
/// # Safety
/// `ctx` must point at the `RegionCtx<F>` the submitting thread keeps alive
/// until `region.remaining` reaches zero.
unsafe fn job_entry<F: Fn(usize, Range<usize>) + Sync>(ctx: *const (), region: &Region) {
    let ctx = &*(ctx as *const RegionCtx<'_, F>);
    run_chunks(ctx, region);
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

/// A handle binding a pool to an effective concurrency. `threads == 1`
/// bypasses the pool entirely — the exact serial path.
#[derive(Clone, Copy)]
pub struct Exec<'p> {
    pool: Option<&'p Pool>,
    threads: usize,
}

/// An executor on the [global pool](Pool::global). `threads`: `0` = all
/// available cores, `1` = serial, `n` = at most `n`-way concurrency.
pub fn executor(threads: usize) -> Exec<'static> {
    Exec::on(Pool::global(), resolve_threads(threads))
}

/// Work floors of the fine kernels, in the kernel's work units per pass.
/// Below its floor a kernel's chunked loops lose to its serial loop, so
/// [`kernel_executor`] hands it the serial executor. The floors come from
/// sweeps on a 2-vCPU Xeon VM, 1 thread against auto (DESIGN.md §8,
/// EXPERIMENTS.md "Thread policy"). Kernels without a floor (the NB batch)
/// never measured slower at auto.
pub mod floor {
    /// One Jacobi sweep of the MASS solver: comments + posts + bloggers.
    /// Not a measured crossover: on 2 vCPUs the chunked sweep was 2.0×
    /// slower than the serial one at 0.77M units and 1.38× at 2.2M, and
    /// at 4.4M it was not shown faster (one kernel-sweep cell read 6%
    /// faster, X11 read 0.97× at 2 threads and 0.93× at 4). The floor
    /// sits where the two sides meet within noise, so hosts with more
    /// cores can still reach the chunked solve; whether it pays there is
    /// unverified.
    pub const SOLVE: usize = 1 << 22;
    /// One PageRank or HITS pull: nodes + edges. The chunked pull was
    /// 1.24× slower at 16.6k units, 7% faster at 20.8k and 1.4× faster
    /// at 29.8k.
    pub const LINK_ANALYSIS: usize = 20_000;
}

thread_local! {
    /// Set by [`without_work_floors`] for the scope of one closure.
    static FLOORS_OFF: Cell<bool> = const { Cell::new(false) };
}

/// The executor for a fine kernel that does `work` units per pass: the
/// serial executor below `floor`, else [`executor`]`(threads)`. A pure
/// scheduling choice — the serial and chunked paths are bit-identical.
pub fn kernel_executor(threads: usize, work: usize, floor: usize) -> Exec<'static> {
    if work < floor && !FLOORS_OFF.with(Cell::get) {
        Exec::serial()
    } else {
        executor(threads)
    }
}

/// Runs `f` with every work floor at 0 on this thread, so kernels on small
/// inputs take their chunked path. A test hook: the determinism suites use
/// it to keep comparing the parallel path against the serial one.
#[doc(hidden)]
pub fn without_work_floors<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FLOORS_OFF.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FLOORS_OFF.with(|c| c.replace(true)));
    f()
}

impl<'p> Exec<'p> {
    /// An executor over an explicit pool (tests use private pools so panics
    /// and stress cannot leak across cases).
    pub fn on(pool: &'p Pool, threads: usize) -> Exec<'p> {
        let threads = resolve_threads(threads).max(1);
        if threads == 1 {
            Exec {
                pool: None,
                threads: 1,
            }
        } else {
            pool.ensure_workers(threads - 1);
            Exec {
                pool: Some(pool),
                threads,
            }
        }
    }

    /// A serial executor (no pool, no threads) — the legacy path.
    pub fn serial() -> Exec<'static> {
        Exec {
            pool: None,
            threads: 1,
        }
    }

    /// Effective concurrency (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(chunk_index, element_range)` for every chunk of `0..len`.
    /// Chunk boundaries depend only on `len` ([`ChunkPlan`]); `f` must
    /// tolerate chunks running concurrently in any order. Panics in any
    /// chunk propagate to the caller after the region drains.
    pub fn for_each_chunk<F>(&self, len: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        self.run_plan(ChunkPlan::for_len(len), f);
    }

    /// Runs `f(chunk_index, element_range)` for every chunk of `plan`.
    fn run_plan<F>(&self, plan: ChunkPlan, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let pool = match self.pool {
            Some(pool) if plan.parallel_worthwhile() => pool,
            _ => {
                for c in 0..plan.chunks() {
                    f(c, plan.range(c));
                }
                return;
            }
        };

        let helpers = (self.threads - 1).min(plan.chunks() - 1);
        let telemetry = mass_obs::active();
        let _span = if telemetry {
            mass_obs::span_with(
                "par.region",
                vec![
                    mass_obs::field("len", plan.len()),
                    mass_obs::field("chunks", plan.chunks()),
                    mass_obs::field("threads", self.threads),
                ],
            )
        } else {
            mass_obs::span("par.region")
        };
        if telemetry {
            mass_obs::counter("par.regions").inc();
            mass_obs::counter("par.tasks").add(plan.chunks() as u64);
        }

        let region = Arc::new(Region {
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(helpers),
            panic: Mutex::new(None),
            waiter: std::thread::current(),
        });
        let ctx = RegionCtx {
            f: &f,
            plan,
            record_chunks: telemetry,
        };
        let ctx_ptr = &ctx as *const RegionCtx<'_, F> as *const ();
        for _ in 0..helpers {
            pool.submit(Job {
                run: job_entry::<F>,
                ctx: ctx_ptr,
                region: Arc::clone(&region),
                queued_at: telemetry.then(std::time::Instant::now),
            });
        }

        // The caller participates, then helps drain the pool while waiting:
        // a region never deadlocks even when every worker is itself a
        // waiting caller (nested or concurrent regions on a saturated pool).
        run_chunks(&ctx, &region);
        while region.remaining.load(Ordering::Acquire) > 0 {
            match pool.try_pop() {
                Some(job) => job.execute(),
                None => std::thread::park(),
            }
        }

        let payload = region.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// `f(i)` for every `i` in `0..len`, results in index order.
    pub fn par_map_collect<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.collect_plan(ChunkPlan::for_len(len), len, f)
    }

    /// [`par_map_collect`](Exec::par_map_collect) for a coarse task list:
    /// each `f(i)` carries milliseconds of work, so every element is its
    /// own task and two of them already fan out ([`ChunkPlan::per_task`]).
    /// Results land in index order, so the output is the serial one.
    pub fn par_tasks_collect<U, F>(&self, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.collect_plan(ChunkPlan::per_task(len), len, f)
    }

    fn collect_plan<U, F>(&self, plan: ChunkPlan, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut out: Vec<std::mem::MaybeUninit<U>> = Vec::with_capacity(len);
        out.resize_with(len, std::mem::MaybeUninit::uninit);
        let slots = SendPtr(out.as_mut_ptr());
        self.run_plan(plan, |_c, range| {
            let slots = &slots;
            for i in range {
                // SAFETY: chunk ranges partition 0..len, so every slot is
                // written exactly once, by exactly one thread. On panic the
                // region propagates before the transmute below, leaking the
                // initialised prefix instead of dropping uninitialised slots.
                unsafe { slots.0.add(i).write(std::mem::MaybeUninit::new(f(i))) };
            }
        });
        // SAFETY: every slot was initialised above; MaybeUninit<U> has the
        // same layout as U.
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut U, out.len(), out.capacity())
        }
    }

    /// Maps a slice, preserving order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_collect(items.len(), |i| f(&items[i]))
    }

    /// Overwrites `out[i] = f(i)` for every slot.
    pub fn par_fill<U, F>(&self, out: &mut [U], f: F)
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let len = out.len();
        let slots = SendPtr(out.as_mut_ptr());
        self.for_each_chunk(len, |_c, range| {
            let slots = &slots;
            for i in range {
                // SAFETY: disjoint chunk ranges; each slot written once.
                unsafe { *slots.0.add(i) = f(i) };
            }
        });
    }

    /// Rewrites `out[i] = f(i, &out[i])` in place (each slot reads only
    /// itself, so chunks stay independent).
    pub fn par_update<U, F>(&self, out: &mut [U], f: F)
    where
        U: Send + Sync,
        F: Fn(usize, &U) -> U + Sync,
    {
        let len = out.len();
        let slots = SendPtr(out.as_mut_ptr());
        self.for_each_chunk(len, |_c, range| {
            let slots = &slots;
            for i in range {
                // SAFETY: disjoint chunk ranges; each slot touched once.
                unsafe {
                    let slot = slots.0.add(i);
                    *slot = f(i, &*slot);
                }
            }
        });
    }

    /// Fused fill + deterministic reduction: `out[i] = fill(i)` for every
    /// slot, while folding `fold(acc, i, &out[i])` per chunk and combining
    /// the per-chunk partials in the same fixed ascending-chunk tournament
    /// as [`Exec::par_reduce_det`]. One pass over `out` instead of a fill
    /// followed by a re-read — the building block for fused solver sweeps
    /// where a pass both writes a vector and needs its max/residual.
    ///
    /// The reduction shape depends only on `out.len()`, so for a fixed
    /// input both `out` and the returned accumulator are bit-identical at
    /// every thread count, and equal to `par_fill` + `par_reduce_det` over
    /// the same inputs.
    pub fn par_fill_fold<U, A, F, M, C>(
        &self,
        out: &mut [U],
        fill: F,
        identity: A,
        fold: M,
        combine: C,
    ) -> A
    where
        U: Send + Sync,
        A: Send + Sync + Clone,
        F: Fn(usize) -> U + Sync,
        M: Fn(A, usize, &U) -> A + Sync,
        C: Fn(A, A) -> A + Sync,
    {
        let len = out.len();
        if len == 0 {
            return identity;
        }
        let plan = ChunkPlan::for_len(len);
        let slots = SendPtr(out.as_mut_ptr());
        let mut partials: Vec<std::mem::MaybeUninit<A>> = Vec::with_capacity(plan.chunks());
        partials.resize_with(plan.chunks(), std::mem::MaybeUninit::uninit);
        let pslots = SendPtr(partials.as_mut_ptr());
        self.for_each_chunk(len, |c, range| {
            let slots = &slots;
            let pslots = &pslots;
            let mut acc = identity.clone();
            for i in range {
                // SAFETY: chunk ranges partition 0..len; each slot is
                // written once, then read back only by the same thread.
                unsafe {
                    let slot = slots.0.add(i);
                    *slot = fill(i);
                    acc = fold(acc, i, &*slot);
                }
            }
            // SAFETY: one partial slot per chunk, written exactly once.
            unsafe { pslots.0.add(c).write(std::mem::MaybeUninit::new(acc)) };
        });
        // SAFETY: for_each_chunk ran every chunk (or propagated a panic
        // before reaching this line), so every partial is initialised.
        let mut partials: Vec<A> = unsafe {
            let mut p = std::mem::ManuallyDrop::new(partials);
            Vec::from_raw_parts(p.as_mut_ptr() as *mut A, p.len(), p.capacity())
        };
        // Fixed-shape tournament over chunk index — identical association
        // to par_reduce_det for the same length.
        while partials.len() > 1 {
            let mut next = Vec::with_capacity(partials.len().div_ceil(2));
            let mut it = partials.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => combine(a, b),
                    None => a,
                });
            }
            partials = next;
        }
        partials.pop().expect("non-empty reduction")
    }

    /// Fills a flat row-major matrix: `f(r, row)` receives the mutable row
    /// slice `out[r*width .. (r+1)*width]` for every row `r`. Chunk
    /// boundaries depend only on the row count, so the row slices handed to
    /// concurrent chunks are disjoint and the result is thread-invariant.
    /// This is the one-allocation batch shape (`rows × width` flat) used by
    /// the compiled NB gather instead of a `Vec<Vec<f64>>`.
    pub fn par_fill_rows<U, F>(&self, out: &mut [U], width: usize, f: F)
    where
        U: Send,
        F: Fn(usize, &mut [U]) + Sync,
    {
        if width == 0 {
            assert!(out.is_empty(), "width 0 with non-empty output");
            return;
        }
        assert_eq!(
            out.len() % width,
            0,
            "flat matrix length must be a multiple of width"
        );
        let rows = out.len() / width;
        let slots = SendPtr(out.as_mut_ptr());
        self.for_each_chunk(rows, |_c, range| {
            let slots = &slots;
            for r in range {
                // SAFETY: disjoint chunk row ranges → disjoint row slices.
                let row = unsafe { std::slice::from_raw_parts_mut(slots.0.add(r * width), width) };
                f(r, row);
            }
        });
    }

    /// Deterministic tree reduction of `map(0) ⊕ map(1) ⊕ … ⊕ map(len-1)`.
    ///
    /// Each chunk folds left from `identity`; the per-chunk partials are
    /// then combined pairwise in ascending chunk order until one value
    /// remains. The association depends only on `len` — never on the thread
    /// count or completion order — so for a fixed input the result is
    /// bit-identical at every `threads` setting, including 1.
    ///
    /// With an associative-and-exact combine (f64 `max` over non-NaN,
    /// integer sums) the result also equals the plain serial left fold.
    pub fn par_reduce_det<U, F, C>(&self, len: usize, identity: U, map: F, combine: C) -> U
    where
        U: Send + Sync + Clone,
        F: Fn(usize) -> U + Sync,
        C: Fn(U, U) -> U + Sync,
    {
        if len == 0 {
            return identity;
        }
        let plan = ChunkPlan::for_len(len);
        let mut partials = self.par_map_collect(plan.chunks(), |c| {
            plan.range(c)
                .fold(identity.clone(), |acc, i| combine(acc, map(i)))
        });
        // Fixed-shape tournament over chunk index.
        while partials.len() > 1 {
            let mut next = Vec::with_capacity(partials.len().div_ceil(2));
            let mut it = partials.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => combine(a, b),
                    None => a,
                });
            }
            partials = next;
        }
        partials.pop().expect("non-empty reduction")
    }

    /// Deterministic f64 sum (tree reduction with `+`).
    pub fn par_sum(&self, len: usize, map: impl Fn(usize) -> f64 + Sync) -> f64 {
        self.par_reduce_det(len, 0.0, map, |a, b| a + b)
    }

    /// Maximum of non-negative f64s. Grouping-insensitive, so this equals
    /// the serial `fold(0.0, f64::max)` bit for bit.
    pub fn par_max(&self, values: &[f64]) -> f64 {
        self.par_reduce_det(values.len(), 0.0, |i| values[i], f64::max)
    }
}

/// A raw pointer that crosses threads. Safe because every use writes
/// disjoint index ranges derived from a [`ChunkPlan`] partition.
struct SendPtr<U>(*mut U);
unsafe impl<U: Send> Send for SendPtr<U> {}
unsafe impl<U: Send> Sync for SendPtr<U> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_executor_never_builds_a_pool() {
        let ex = Exec::serial();
        assert_eq!(ex.threads(), 1);
        let out = ex.par_map_collect(10, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn par_map_matches_serial_map() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..2000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        let par = Exec::on(&pool, 4).par_map(&items, |&x| x * 3 + 1);
        assert_eq!(par, serial);
    }

    #[test]
    fn par_fill_and_update_write_every_slot() {
        let pool = Pool::new(2);
        let ex = Exec::on(&pool, 3);
        let mut v = vec![0usize; 777];
        ex.par_fill(&mut v, |i| i + 1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        ex.par_update(&mut v, |_, &x| x * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i + 1) * 2));
    }

    #[test]
    fn reduce_det_is_thread_count_invariant() {
        // A sum designed to be rounding-sensitive: magnitudes differ by
        // ~2^40 so association genuinely changes low bits.
        let values: Vec<f64> = (0..4096)
            .map(|i| ((i * 2654435761u64 % 97) as f64) * (2.0f64).powi((i % 40) as i32 - 20))
            .collect();
        let pool = Pool::new(8);
        let reference =
            Exec::serial().par_reduce_det(values.len(), 0.0, |i| values[i], |a, b| a + b);
        for threads in [2, 3, 5, 8] {
            let got = Exec::on(&pool, threads).par_reduce_det(
                values.len(),
                0.0,
                |i| values[i],
                |a, b| a + b,
            );
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "threads={threads} drifted"
            );
        }
    }

    #[test]
    fn reduce_det_empty_and_singleton() {
        let pool = Pool::new(2);
        let ex = Exec::on(&pool, 2);
        assert_eq!(ex.par_reduce_det(0, 7.0, |_| unreachable!(), f64::max), 7.0);
        assert_eq!(ex.par_sum(1, |_| 42.5), 42.5);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let pool = Pool::new(3);
        let ex = Exec::on(&pool, 4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            ex.for_each_chunk(10_000, |_, range| {
                if range.contains(&7321) {
                    panic!("chunk exploded");
                }
            });
        }));
        let payload = caught.expect_err("must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk exploded");
        // The pool must remain usable after a panicked region.
        assert_eq!(Exec::on(&pool, 4).par_sum(100, |i| i as f64), 4950.0);
    }

    #[test]
    fn pool_drop_never_loses_the_shutdown_wakeup() {
        // Regression: the shutdown flag used to be stored outside the queue
        // lock, so a worker between its flag check and its condvar wait
        // missed the wakeup and `drop` hung in `join` (within a few
        // thousand create/use/drop cycles). A watchdog turns a hang into a
        // failure.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..10_000 {
                let pool = Pool::new(8);
                assert_eq!(Exec::on(&pool, 8).par_sum(4_096, |_| 1.0), 4_096.0);
                drop(pool);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("Pool::drop hung joining its workers");
    }

    #[test]
    fn nested_regions_complete_on_a_tiny_pool() {
        let pool = Pool::new(1);
        let ex = Exec::on(&pool, 2);
        let out = ex.par_map_collect(64, |i| {
            Exec::on(&pool, 2).par_sum(i + 1, |j| j as f64) as usize
        });
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(got, i * (i + 1) / 2);
        }
    }

    #[test]
    fn sub_floor_regions_run_inline_on_the_caller() {
        let pool = Pool::new(3);
        let ex = Exec::on(&pool, 4);
        // 63 elements → multiple chunks, but below the work floor: every
        // chunk must execute on the calling thread, in chunk order.
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        ex.for_each_chunk(63, |c, _range| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "chunk {c} left the caller"
            );
            seen.lock().unwrap().push(c);
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.len() > 1,
            "63 elements should still be multiple chunks"
        );
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "inline order: {seen:?}"
        );
        // And the inline path produces the same bits as the true serial one.
        let got = ex.par_map_collect(63, |i| (i as f64) * 0.1);
        let reference = Exec::serial().par_map_collect(63, |i| (i as f64) * 0.1);
        assert_eq!(got, reference);
    }

    #[test]
    fn fill_fold_matches_fill_plus_reduce_bitwise() {
        // Rounding-sensitive values: association genuinely changes low bits,
        // so equality here proves the tournament shape is the same one
        // par_reduce_det uses — not merely close.
        let pool = Pool::new(8);
        for len in [0usize, 1, 5, 63, 64, 1024, 4097] {
            let value = |i: usize| {
                ((i as u64 * 2654435761 % 97) as f64) * (2.0f64).powi((i % 40) as i32 - 20)
            };
            let reference_sum = Exec::serial().par_reduce_det(len, 0.0, value, |a, b| a + b);
            for threads in [1, 2, 4, 8] {
                let ex = Exec::on(&pool, threads);
                let mut out = vec![0.0f64; len];
                let sum = ex.par_fill_fold(
                    &mut out,
                    value,
                    0.0,
                    |acc, _i, &v: &f64| acc + v,
                    |a, b| a + b,
                );
                assert_eq!(
                    sum.to_bits(),
                    reference_sum.to_bits(),
                    "len={len} threads={threads} fold drifted"
                );
                assert!(
                    out.iter()
                        .enumerate()
                        .all(|(i, &v)| v.to_bits() == value(i).to_bits()),
                    "len={len} threads={threads} fill drifted"
                );
            }
        }
    }

    #[test]
    fn fill_fold_sees_the_index() {
        // The fold closure receives the element index, so residual-style
        // folds can consult sibling arrays (|next[i] - inf[i]|).
        let pool = Pool::new(4);
        let prev: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut next = vec![0.0f64; 500];
        let residual = Exec::on(&pool, 4).par_fill_fold(
            &mut next,
            |i| (i as f64) + if i == 137 { 9.5 } else { 0.25 },
            0.0,
            |acc: f64, i, &v: &f64| acc.max((v - prev[i]).abs()),
            f64::max,
        );
        assert_eq!(residual, 9.5);
    }

    #[test]
    fn fill_rows_hands_out_disjoint_rows() {
        let pool = Pool::new(4);
        for threads in [1, 4] {
            let ex = Exec::on(&pool, threads);
            let (rows, width) = (301usize, 7usize);
            let mut flat = vec![0.0f64; rows * width];
            ex.par_fill_rows(&mut flat, width, |r, row| {
                assert_eq!(row.len(), width);
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = (r * width + c) as f64;
                }
            });
            assert!(flat.iter().enumerate().all(|(i, &v)| v == i as f64));
            // Degenerate shapes.
            let mut empty: [f64; 0] = [];
            ex.par_fill_rows(&mut empty, 0, |_, _| unreachable!());
            ex.par_fill_rows(&mut empty, 3, |_, _| unreachable!());
        }
    }

    /// Blocks until `n` callers have arrived or `timeout` passes, and
    /// returns whether all `n` arrived. A task list that ran inline on one
    /// thread times out instead of deadlocking.
    fn rendezvous(arrived: &(Mutex<usize>, Condvar), n: usize) -> bool {
        let (count, cv) = arrived;
        let mut count = count.lock().unwrap();
        *count += 1;
        cv.notify_all();
        let (count, _) = cv
            .wait_timeout_while(count, std::time::Duration::from_secs(20), |c| *c < n)
            .unwrap();
        *count >= n
    }

    #[test]
    fn two_tasks_run_on_two_threads() {
        // Each task waits for the other: only two threads can finish both
        // without timing out. A fine-loop plan of two elements runs inline
        // on the caller, so this fails on `par_map_collect`.
        let pool = Pool::new(1);
        let arrived = (Mutex::new(0usize), Condvar::new());
        let out = Exec::on(&pool, 2).par_tasks_collect(2, |i| {
            (i, rendezvous(&arrived, 2), std::thread::current().id())
        });
        assert_eq!(out.iter().map(|t| t.0).collect::<Vec<_>>(), [0, 1]);
        assert!(out.iter().all(|t| t.1), "a task waited alone: {out:?}");
        assert_ne!(out[0].2, out[1].2, "both tasks ran on one thread");
    }

    #[test]
    fn task_lists_match_serial_and_propagate_panics() {
        let pool = Pool::new(3);
        for threads in [1, 2, 4] {
            let ex = Exec::on(&pool, threads);
            for len in [0usize, 1, 2, 5, 70] {
                let got = ex.par_tasks_collect(len, |i| i * i + 1);
                assert_eq!(got, (0..len).map(|i| i * i + 1).collect::<Vec<_>>());
            }
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Exec::on(&pool, 4).par_tasks_collect(3, |i| {
                assert_ne!(i, 2, "task exploded");
                i
            })
        }));
        assert!(caught.is_err(), "a task panic must reach the caller");
    }

    #[test]
    fn kernels_below_their_floor_run_serial() {
        assert_eq!(kernel_executor(4, 99, 100).threads(), 1);
        assert_eq!(kernel_executor(4, 100, 100).threads(), 4);
        assert_eq!(kernel_executor(1, 1_000, 100).threads(), 1);
        assert_eq!(kernel_executor(0, 100, 100).threads(), available());
    }

    #[test]
    fn the_floor_hook_is_scoped_and_panic_safe() {
        let threads = without_work_floors(|| kernel_executor(3, 0, floor::SOLVE).threads());
        assert_eq!(threads, 3);
        assert_eq!(kernel_executor(3, 0, floor::SOLVE).threads(), 1);
        let _ = catch_unwind(|| without_work_floors(|| panic!("inside the hook")));
        assert_eq!(
            kernel_executor(3, 0, floor::SOLVE).threads(),
            1,
            "a panic left the floors off"
        );
        // Nested scopes restore the outer setting.
        without_work_floors(|| {
            without_work_floors(|| {});
            assert_eq!(kernel_executor(3, 0, floor::SOLVE).threads(), 3);
        });
        // Thread-local: another thread keeps its floors.
        without_work_floors(|| {
            let other = std::thread::spawn(|| kernel_executor(3, 0, floor::SOLVE).threads());
            assert_eq!(other.join().unwrap(), 1);
        });
    }

    #[test]
    fn auto_threads_resolves_available_parallelism() {
        assert_eq!(resolve_threads(0), available());
        assert_eq!(resolve_threads(5), 5);
    }
}
