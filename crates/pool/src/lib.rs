//! # ncss-pool — the shared persistent worker pool
//!
//! One long-lived chunked worker pool for everything in the workspace
//! that fans independent cells out across cores: the parameter sweeps in
//! `ncss-analysis`, the sharded fleet replay in `ncss-multi`, the
//! dual-bound integral in `ncss-opt`, and the fault/contract suites under
//! `tests/`. Worker threads are spawned **once per process** behind a
//! `OnceLock` and then fed tasks through a ticket queue, so a short map no
//! longer pays a per-call `std::thread::scope` spawn/join round trip.
//!
//! ## Determinism contract
//!
//! Every map in this crate is **order-preserving and interleaving-free**:
//! `pool.map(items, f)` equals `items.iter().map(f).collect()` for any
//! pure `f`, bit for bit, regardless of worker count or OS scheduling.
//! Each index is claimed by exactly one participant via an atomic cursor
//! and written to its own output slot, so downstream order-sensitive folds
//! (e.g. floating-point sums over per-segment integrals) see the same
//! operand sequence as the serial path. The serial==sharded fleet and
//! sweep determinism tests in this workspace are the enforcement.
//!
//! ## Lifecycle and nesting
//!
//! A call to [`Pool::map`] enqueues `k − 1` *tickets* for the resident
//! workers and then **participates in its own task**: the calling thread
//! claims chunks from the same cursor until the input is exhausted. The
//! call therefore completes even if every resident worker is busy — which
//! is exactly what makes *nested* maps (an OPT solve fanning out its
//! dual-bound terms from inside a sweep cell that is itself a pool task)
//! deadlock-free by construction. Workers that pick a ticket up late find the task closed
//! and drop it without touching the caller's borrowed closure; the caller
//! does not return until every registered participant has checked out, so
//! the type-erased borrow can never dangle.
//!
//! Panics inside `f` are caught on whichever thread hit them, the task's
//! cursor is exhausted so other participants stop claiming, and the first
//! payload is re-thrown on the **calling** thread. Resident workers
//! survive and the next map reuses them — see the drop/re-entry tests.
//!
//! ## Worker count
//!
//! [`Pool::auto`] sizes itself to `std::thread::available_parallelism`,
//! clamped to the item count; a single worker short-circuits to a plain
//! serial map with zero synchronisation. [`Pool::with_threads`] forces an
//! explicit count — larger *or smaller* than the core count — which is how
//! the determinism tests exercise real cross-thread interleavings even on
//! single-core CI runners, and how benches pin comparisons. The resident
//! worker set grows on demand to the largest count any call has requested
//! (bounded by [`MAX_RESIDENT_WORKERS`]) and is never shrunk. The
//! `NCSS_POOL_THREADS` environment variable overrides [`Pool::auto`]
//! globally for experiments.

#![deny(missing_docs)]

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on resident worker threads. Oversubscribed requests (the
/// determinism tests force up to 32 workers on any machine) are honoured
/// up to this bound; beyond it the caller's own participation still
/// guarantees completion, so the cap never affects results — only how many
/// OS threads can interleave.
pub const MAX_RESIDENT_WORKERS: usize = 256;

/// A sizing policy for the persistent worker pool.
///
/// The pool itself is process-global: long-lived workers are spawned
/// lazily on first parallel use and shared by every `Pool` value, so a
/// `Pool` is nothing but a worker-count policy and is `Copy`.
///
/// # Examples
///
/// ```
/// use ncss_pool::Pool;
///
/// let squares = Pool::auto().map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
///
/// // Forcing a worker count exercises real threads even on one core, and
/// // the result is identical to the serial path by construction.
/// let forced = Pool::with_threads(8).map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(forced, squares);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    /// Explicit worker count, or `None` for the auto policy.
    threads: Option<usize>,
}

impl Default for Pool {
    fn default() -> Self {
        Self::auto()
    }
}

impl Pool {
    /// Size to the machine: `available_parallelism` workers (overridable
    /// via the `NCSS_POOL_THREADS` environment variable), clamped to the
    /// item count at each call.
    #[must_use]
    pub fn auto() -> Self {
        Self { threads: None }
    }

    /// Force an explicit worker count (≥ 1; 0 is treated as 1). Counts
    /// above the core count are honoured — oversubscription is exactly
    /// what the serial==parallel tests need on small machines.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: Some(threads.max(1)) }
    }

    /// The worker count this pool would use for `n` items.
    #[must_use]
    pub fn worker_count(&self, n: usize) -> usize {
        let auto = || {
            std::env::var("NCSS_POOL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        };
        self.threads.unwrap_or_else(auto).min(n).max(1)
    }

    /// Map `f` over `items` in parallel, preserving input order.
    ///
    /// Work is distributed dynamically via an atomic cursor (one item per
    /// claim), so uneven cell costs — OPT solves of different sizes,
    /// fleet machines with very different queue lengths — balance
    /// automatically.
    pub fn map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        self.map_chunked(items, 1, f)
    }

    /// Map `f` over `items` in parallel with contiguous chunks of `chunk`
    /// items per claim, preserving input order.
    ///
    /// Prefer this over [`Pool::map`] when cells are cheap and uniform:
    /// the cursor is touched once per chunk and adjacent results are
    /// produced by the same worker. `chunk = 0` picks a default of
    /// `n / (8 · workers)`, clamped to at least 1 (≈8 claims per worker
    /// keeps the tail balanced).
    pub fn map_chunked<T: Sync, U: Send>(
        &self,
        items: &[T],
        chunk: usize,
        f: impl Fn(&T) -> U + Sync,
    ) -> Vec<U> {
        let n = items.len();
        let threads = self.worker_count(n);
        if threads <= 1 {
            return items.iter().map(&f).collect();
        }
        let chunk = if chunk == 0 { (n / (8 * threads)).max(1) } else { chunk };
        persistent_indexed_map(items, f, threads, chunk)
    }
}

/// Map `f` over `items` in parallel with the [`Pool::auto`] policy,
/// preserving order. Free-function form of [`Pool::map`] for call sites
/// that don't carry a pool.
pub fn parallel_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    Pool::auto().map(items, f)
}

/// Map `f` over `items` in parallel with contiguous chunks, preserving
/// order. Free-function form of [`Pool::map_chunked`].
pub fn parallel_map_chunked<T: Sync, U: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    Pool::auto().map_chunked(items, chunk, f)
}

/// Number of resident worker threads spawned so far in this process.
///
/// Grows monotonically (on demand, up to [`MAX_RESIDENT_WORKERS`]) and
/// never shrinks — the persistence tests assert it stays flat across
/// repeated maps once the high-water request has been seen.
#[must_use]
pub fn resident_workers() -> usize {
    shared().spawned.load(Ordering::Relaxed)
}

// --- the process-global worker set ----------------------------------------

/// What a ticket points at: one parallel map call in flight.
struct Task {
    /// Next unclaimed input index; claims are `fetch_add(chunk)`.
    cursor: AtomicUsize,
    /// Input length: claims at or past this are void.
    n: usize,
    /// Indices per claim.
    chunk: usize,
    /// Type-erased borrow of the caller's "execute indices `[lo, hi)`"
    /// closure. The `'static` is a lie told via `transmute`; the
    /// close/participants protocol below guarantees no participant touches
    /// it after the owning call returns (see `participate`).
    run: &'static (dyn Fn(usize, usize) + Sync),
    /// Close flag, participant count, and the first caught panic.
    state: Mutex<TaskState>,
    /// Signalled when the last participant checks out.
    done: Condvar,
}

struct TaskState {
    /// Set by the owning caller right before it starts waiting; workers
    /// that pop a ticket for a closed task drop it untouched.
    closed: bool,
    /// Threads currently inside `run_chunks` for this task.
    participants: usize,
    /// First panic payload caught from `run`; re-thrown on the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Task {
    /// Worker-side entry: register, drain the cursor, check out. The
    /// registration handshake is what makes the `'static` lie in `run`
    /// sound — `closed` is checked and `participants` bumped under the
    /// same lock the caller takes before waiting, so either this thread
    /// never touches `run`, or the caller blocks until it is done.
    fn participate(&self) {
        {
            let mut st = self.state.lock().expect("pool task state");
            if st.closed {
                return;
            }
            st.participants += 1;
        }
        self.run_chunks();
        let mut st = self.state.lock().expect("pool task state");
        st.participants -= 1;
        if st.participants == 0 {
            self.done.notify_all();
        }
    }

    /// Claim and execute chunks until the cursor is exhausted. A panic in
    /// `run` is caught, recorded (first wins), and the cursor jumped past
    /// the end so other participants stop claiming; the caller re-throws.
    fn run_chunks(&self) {
        loop {
            let lo = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if lo >= self.n {
                return;
            }
            let hi = (lo + self.chunk).min(self.n);
            let run = self.run;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(lo, hi))) {
                let mut st = self.state.lock().expect("pool task state");
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
                drop(st);
                self.cursor.store(self.n, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// The resident worker set: ticket queue plus spawn bookkeeping.
struct Shared {
    /// Pending tickets. Each map call pushes `k − 1` clones of its task.
    queue: Mutex<VecDeque<Arc<Task>>>,
    /// Signalled when tickets are enqueued.
    ready: Condvar,
    /// Resident threads spawned so far (monotone, ≤ `MAX_RESIDENT_WORKERS`).
    spawned: AtomicUsize,
    /// Serialises grow decisions so concurrent callers don't over-spawn.
    grow: Mutex<()>,
}

/// The once-per-process worker set, lazily initialised on first parallel
/// map. Workers are detached and park on the ticket queue for the life of
/// the process — there is deliberately no shutdown: they hold no resources
/// beyond a stack, and joining daemons at exit buys nothing.
fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        spawned: AtomicUsize::new(0),
        grow: Mutex::new(()),
    })
}

impl Shared {
    /// Grow the resident set to at least `want` workers (capped). Spawn
    /// failures are tolerated: the caller participates in its own task, so
    /// fewer helpers only means less overlap, never an incomplete map.
    fn ensure_workers(&'static self, want: usize) {
        let want = want.min(MAX_RESIDENT_WORKERS);
        if self.spawned.load(Ordering::Relaxed) >= want {
            return;
        }
        let _g = self.grow.lock().expect("pool grow lock");
        while self.spawned.load(Ordering::Relaxed) < want {
            let ok = std::thread::Builder::new()
                .name("ncss-pool".into())
                .spawn(move || self.worker_main())
                .is_ok();
            if !ok {
                return;
            }
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resident worker loop: park on the queue, drain tickets forever.
    fn worker_main(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().expect("pool queue");
                loop {
                    if let Some(t) = q.pop_front() {
                        break t;
                    }
                    q = self.ready.wait(q).expect("pool queue wait");
                }
            };
            task.participate();
        }
    }
}

/// Shared view of the output slots. Participants write disjoint indices
/// (each index is claimed exactly once by the cursor), which is the whole
/// justification for the `Sync` impl.
struct Slots<'a, U>(&'a [UnsafeCell<Option<U>>]);

unsafe impl<U: Send> Sync for Slots<'_, U> {}

impl<U> Slots<'_, U> {
    /// Write slot `i`. Safe only while `i` is exclusively claimed by the
    /// calling participant — guaranteed by the cursor. (A method rather
    /// than direct field access so closures capture the whole `Slots`,
    /// keeping the `Sync` promise attached.)
    unsafe fn set(&self, i: usize, value: U) {
        *self.0[i].get() = Some(value);
    }
}

/// The persistent-pool map: enqueue `threads − 1` tickets, participate
/// from the calling thread, then close the task and wait out any stragglers
/// before touching the results.
fn persistent_indexed_map<T: Sync, U: Send>(
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
    threads: usize,
    chunk: usize,
) -> Vec<U> {
    let n = items.len();
    let out: Vec<UnsafeCell<Option<U>>> = (0..n).map(|_| UnsafeCell::new(None)).collect();
    let slots = Slots(&out);
    let work = move |lo: usize, hi: usize| {
        for i in lo..hi {
            // Each index is claimed by exactly one participant, so this
            // write is the only access to slot `i` until the caller
            // collects results after the participants-drained barrier.
            unsafe { slots.set(i, f(&items[i])) };
        }
    };
    let run: &(dyn Fn(usize, usize) + Sync) = &work;
    // SAFETY: lifetime erasure only. `close-then-wait` below proves no
    // participant can be inside (or ever enter) `run` once this function
    // returns: registration checks `closed` under the state lock, and the
    // caller holds that lock when it flips `closed` and then blocks until
    // `participants == 0`.
    let run: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(run) };
    let task = Arc::new(Task {
        cursor: AtomicUsize::new(0),
        n,
        chunk,
        run,
        state: Mutex::new(TaskState { closed: false, participants: 0, panic: None }),
        done: Condvar::new(),
    });

    let shared = shared();
    shared.ensure_workers(threads - 1);
    {
        let mut q = shared.queue.lock().expect("pool queue");
        for _ in 0..threads - 1 {
            q.push_back(Arc::clone(&task));
        }
    }
    shared.ready.notify_all();

    // The caller always participates: the map completes even if every
    // resident worker is busy (or this map was issued *from* a worker).
    task.run_chunks();

    let payload = {
        let mut st = task.state.lock().expect("pool task state");
        st.closed = true;
        while st.participants > 0 {
            st = task.done.wait(st).expect("pool done wait");
        }
        st.panic.take()
    };
    if let Some(p) = payload {
        resume_unwind(p);
    }
    out.into_iter()
        .map(|c| c.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_preserves_order_for_every_chunk_size() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for chunk in [0, 1, 2, 7, 64, 300] {
            let out = parallel_map_chunked(&items, chunk, |&x| x * 3 + 1);
            assert_eq!(out, serial, "chunk {chunk}");
        }
    }

    #[test]
    fn forced_thread_counts_match_serial_exactly() {
        // Oversubscription (threads ≫ cores) and undersubscription both
        // reduce to the same ordered result — the determinism contract.
        let items: Vec<u64> = (0..313).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
        for threads in [1, 2, 3, 8, 32] {
            let out = Pool::with_threads(threads).map(&items, |x| x.wrapping_mul(0x9E37_79B9));
            assert_eq!(out, serial, "threads {threads}");
            let out = Pool::with_threads(threads).map_chunked(&items, 5, |x| {
                x.wrapping_mul(0x9E37_79B9)
            });
            assert_eq!(out, serial, "chunked threads {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
        let out: Vec<u64> = Pool::with_threads(4).map_chunked(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_balances() {
        // Mix trivial and heavy items; result must still be ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = Pool::with_threads(4).map(&items, |&x| {
            if x % 7 == 0 {
                (0..50_000u64).fold(x, |a, b| a.wrapping_add(b % 13))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn worker_count_clamps_to_items() {
        assert_eq!(Pool::with_threads(16).worker_count(3), 3);
        assert_eq!(Pool::with_threads(0).worker_count(10), 1);
        assert!(Pool::auto().worker_count(1000) >= 1);
        assert_eq!(Pool::auto().worker_count(0), 1);
    }

    #[test]
    fn ordered_float_sums_are_bitwise_stable() {
        // The property order-sensitive folds rest on: summing the
        // order-preserved parallel results gives the exact serial sum.
        let items: Vec<f64> = (0..1000).map(|i| 1.0 / f64::from(i + 1)).collect();
        let cell = |&x: &f64| (x * 1.000_000_1).sin();
        let serial: f64 = items.iter().map(cell).sum();
        for threads in [2, 5, 17] {
            let par: f64 = Pool::with_threads(threads).map(&items, cell).iter().sum();
            assert_eq!(par.to_bits(), serial.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn repeated_maps_reuse_resident_workers_bit_for_bit() {
        // Persistence: after the high-water thread request is seen, the
        // resident set stays flat — no per-call spawning — and every call
        // still matches the serial map exactly.
        let items: Vec<u64> = (0..613).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.rotate_left(7) ^ 0xA5A5).collect();
        for threads in [2, 4, 8] {
            let _ = Pool::with_threads(threads).map(&items, |x| x.rotate_left(7) ^ 0xA5A5);
        }
        let resident_after_warmup = resident_workers();
        assert!(resident_after_warmup >= 1, "helpers were spawned");
        for round in 0..50 {
            for threads in [2, 4, 8] {
                let out = Pool::with_threads(threads).map(&items, |x| x.rotate_left(7) ^ 0xA5A5);
                assert_eq!(out, serial, "round {round} threads {threads}");
            }
        }
        assert_eq!(
            resident_workers(),
            resident_after_warmup,
            "repeated maps must not spawn new workers"
        );
    }

    #[test]
    fn panicking_tasks_propagate_and_the_pool_reenters_cleanly() {
        // Drop/re-entry: a panic inside `f` must surface on the caller,
        // and the resident workers must survive to serve later maps — no
        // deadlock, no poisoned queue.
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for round in 0..3 {
            let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::with_threads(6).map(&items, |&x| {
                    assert!(x != 13, "injected failure");
                    x + 1
                })
            }));
            assert!(boom.is_err(), "round {round}: panic must propagate to the caller");
            for threads in [2, 6, 9] {
                let out = Pool::with_threads(threads).map(&items, |&x| x + 1);
                assert_eq!(out, serial, "round {round}: pool must survive a panicking task");
            }
        }
    }

    #[test]
    fn nested_maps_complete_without_deadlock() {
        // A map issued from inside a pool task must finish even when every
        // resident worker is occupied by the outer map: the caller always
        // participates in its own cursor.
        let outer: Vec<u64> = (0..8).collect();
        let expect: Vec<u64> = outer.iter().map(|&x| (0..32).map(|y| x * 31 + y).sum()).collect();
        for _ in 0..10 {
            let got = Pool::with_threads(4).map(&outer, |&x| {
                let inner: Vec<u64> = (0..32).collect();
                Pool::with_threads(4).map(&inner, |&y| x * 31 + y).iter().sum::<u64>()
            });
            assert_eq!(got, expect);
        }
    }
}
