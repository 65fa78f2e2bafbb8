//! Deterministic worker-pool parallelism for the math kernels.
//!
//! Every hot kernel in this crate (the matmul family, `im2col`/`col2im`,
//! `softmax_rows`, the elementwise activations) is written on top of the
//! small API in this module, which fans contiguous chunks of the output
//! out to a persistent pool of `std::thread` workers. The build
//! environment is offline, so this is a from-scratch pool — no rayon —
//! with the subset of behavior the kernels need:
//!
//! * **Pool size.** Taken from the `SQDM_THREADS` environment variable,
//!   defaulting to [`std::thread::available_parallelism`]. Tests (and any
//!   scoped override) use [`with_threads`].
//! * **Bitwise determinism.** Work is always partitioned into contiguous
//!   blocks so that every output element is produced by exactly one task
//!   running the exact serial code, in the exact serial order. Results are
//!   therefore bitwise identical for *every* thread count, including 1.
//! * **Nested calls run serially.** A kernel invoked from inside a pool
//!   task sees [`current_threads`]` == 1` and runs inline, so the pool
//!   never deadlocks on itself and the partitioning stays flat.
//! * **Panic propagation.** A panic inside any task is caught, forwarded
//!   to the caller of the parallel region, and resumed there after all
//!   sibling tasks have finished (which is also what makes the lifetime
//!   erasure below sound).
//!
//! Small workloads bypass the pool entirely: dispatching a task costs a
//! queue lock plus a condvar wake (tens of microseconds on a small
//! host), so regions are only split when each task gets at least
//! `MIN_WORK_PER_TASK` work units (roughly flops, about a million).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of pool work whose borrows have been erased to `'static`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work units (roughly fused multiply-adds) below which splitting off an
/// extra task costs more in dispatch latency than it recovers in compute.
///
/// Measured on a 2-vCPU x86-64 host, where splitting a batch-1 16×16
/// integer conv (≈20 µs serial) costs more in condvar wake and latch wait
/// than it saves. Sweeping the grain from 4 096 to 4 194 304 units, batch-1
/// temporal-delta sampling rose from 4.9 to 9.1 images/s at 1 048 576
/// and stayed within run-to-run spread above it, while batch-8 32×32
/// serving stayed flat (its kernels are millions of units and still
/// split) and f32 training set-up moved by at most ~10 %.
const MIN_WORK_PER_TASK: usize = 1 << 20;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    /// Number of worker threads spawned so far; grown on demand so that
    /// `with_threads(n)` scopes larger than the default still get `n`-way
    /// execution.
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while the current thread is executing inside a parallel
    /// region (as a pool worker, or as the caller running its own share);
    /// kernels re-entered in that state run serially.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Ensures at least `n` workers exist (workers are daemons: they park
    /// on the queue condvar and are never joined).
    fn ensure_workers(&self, n: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < n {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("sqdm-worker-{spawned}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn sqdm worker thread");
            *spawned += 1;
        }
    }

    fn submit(&self, job: Job) {
        self.shared.queue.lock().unwrap().push_back(job);
        self.shared.available.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_PARALLEL.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        job();
    }
}

/// Pool size when no [`with_threads`] scope is active: `SQDM_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SQDM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The number of threads parallel regions started from this thread will
/// use: 1 inside a parallel region, the innermost [`with_threads`]
/// override if one is active, the `SQDM_THREADS`/auto default otherwise.
pub fn current_threads() -> usize {
    if IN_PARALLEL.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Runs `f` with parallel regions on this thread capped at `threads`
/// workers, restoring the previous setting afterwards (including on
/// panic). `with_threads(1, ..)` forces fully serial execution and is the
/// reference the equivalence tests compare against.
///
/// # Panics
///
/// Panics if `threads` is zero.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::{current_threads, with_threads};
/// let n = with_threads(3, current_threads);
/// assert_eq!(n, 3);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "with_threads requires at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(threads))));
    f()
}

/// Countdown latch used by [`run_tasks`] to wait for offloaded jobs,
/// carrying the first panic payload observed on a worker.
struct Latch {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new((count, None)),
            done: Condvar::new(),
        })
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed, then re-raises the first
    /// worker panic, if any.
    fn wait_and_rethrow(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 > 0 {
            state = self.done.wait(state).unwrap();
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

/// Executes every task, offloading all but the first to the pool and
/// running the first on the calling thread. Returns (or unwinds) only
/// after *all* tasks have finished.
fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let mut tasks = tasks.into_iter();
    let Some(own) = tasks.next() else { return };
    if tasks.len() == 0 {
        own();
        return;
    }
    let pool = pool();
    pool.ensure_workers(tasks.len());
    let latch = Latch::new(tasks.len());
    for task in tasks {
        // SAFETY: the transmute only erases the borrow lifetime of the
        // task; `run_tasks` does not return (normally or by unwinding)
        // until `latch.wait_and_rethrow()` has observed every offloaded
        // job complete, so all borrows strictly outlive the job.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                task,
            )
        };
        let latch = Arc::clone(&latch);
        pool.submit(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            latch.complete(outcome.err());
        }));
    }
    let own_outcome = {
        struct Exit(bool);
        impl Drop for Exit {
            fn drop(&mut self) {
                IN_PARALLEL.with(|c| c.set(self.0));
            }
        }
        let _exit = Exit(IN_PARALLEL.with(|c| c.replace(true)));
        catch_unwind(AssertUnwindSafe(own))
    };
    latch.wait_and_rethrow();
    if let Err(payload) = own_outcome {
        resume_unwind(payload);
    }
}

/// Number of tasks to split `items` independent work items into, given
/// the approximate work units each item costs.
fn task_count(items: usize, work_per_item: usize) -> usize {
    let threads = current_threads();
    if threads <= 1 || items <= 1 {
        return 1;
    }
    let total = items.saturating_mul(work_per_item.max(1));
    threads.min(items).min((total / MIN_WORK_PER_TASK).max(1))
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and calls `f(chunk_index, chunk)` for each,
/// distributing contiguous *blocks of chunks* over the pool.
///
/// `chunk_work` is the approximate work units (roughly flops) one chunk
/// costs; regions too small to amortize a dispatch run inline. Chunk
/// indices are global and ascending within each task, so any computation
/// whose serial form iterates chunks in order is reproduced bitwise.
///
/// # Panics
///
/// Panics if `chunk_len` is zero while `data` is non-empty, or if a task
/// closure panics (the panic is propagated to the caller).
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::par_chunks_mut;
/// let mut rows = vec![0u32; 6];
/// par_chunks_mut(&mut rows, 2, 1 << 20, |i, chunk| {
///     for v in chunk {
///         *v = i as u32;
///     }
/// });
/// assert_eq!(rows, [0, 0, 1, 1, 2, 2]);
/// ```
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, chunk_work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "par_chunks_mut requires a nonzero chunk_len");
    let n_chunks = data.len().div_ceil(chunk_len);
    let n_tasks = task_count(n_chunks, chunk_work);
    if n_tasks <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks_per_task = n_chunks.div_ceil(n_tasks);
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_tasks);
    let mut rest = data;
    let mut first_chunk = 0usize;
    while !rest.is_empty() {
        let take = (chunks_per_task * chunk_len).min(rest.len());
        let (block, tail) = rest.split_at_mut(take);
        rest = tail;
        let base = first_chunk;
        tasks.push(Box::new(move || {
            for (offset, chunk) in block.chunks_mut(chunk_len).enumerate() {
                f(base + offset, chunk);
            }
        }));
        first_chunk += chunks_per_task;
    }
    run_tasks(tasks);
}

/// Computes `f(0), f(1), …, f(n - 1)` — possibly in parallel — and
/// returns the results in index order. `item_work` is the approximate
/// work units one call costs.
///
/// # Panics
///
/// Propagates panics from `f`.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::parallel::par_map_indexed;
/// let squares = par_map_indexed(5, 1 << 20, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map_indexed<R, F>(n: usize, item_work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut out, 1, item_work, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|r| r.expect("par_map_indexed task did not fill its slot"))
        .collect()
}

/// Runs two closures — possibly in parallel — and returns both results.
///
/// # Panics
///
/// Propagates panics from either closure.
pub fn par_join<RA, RB, FA, FB>(a: FA, b: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
{
    if current_threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    run_tasks(vec![
        Box::new(|| ra = Some(a())),
        Box::new(|| rb = Some(b())),
    ]);
    (
        ra.expect("par_join first closure did not run"),
        rb.expect("par_join second closure did not run"),
    )
}

/// Applies `f` to every element of `data` in place, in parallel for large
/// slices. `item_work` is the approximate work units one element costs.
pub fn par_map_inplace(data: &mut [f32], item_work: usize, f: impl Fn(f32) -> f32 + Sync) {
    let chunk = elementwise_chunk_len(data.len());
    par_chunks_mut(data, chunk, chunk.saturating_mul(item_work), |_, block| {
        for v in block {
            *v = f(*v);
        }
    });
}

/// Sets `dst[i] = f(dst[i], src[i])` for every element, in parallel for
/// large slices. The slices must have equal lengths.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn par_zip_inplace(
    dst: &mut [f32],
    src: &[f32],
    item_work: usize,
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    assert_eq!(dst.len(), src.len(), "par_zip_inplace length mismatch");
    let chunk = elementwise_chunk_len(dst.len());
    par_chunks_mut(dst, chunk, chunk.saturating_mul(item_work), |i, block| {
        let s = &src[i * chunk..i * chunk + block.len()];
        for (d, &v) in block.iter_mut().zip(s.iter()) {
            *d = f(*d, v);
        }
    });
}

/// Chunk length for elementwise sweeps: large enough to amortize
/// dispatch, small enough to split across the pool.
pub(crate) fn elementwise_chunk_len(len: usize) -> usize {
    len.div_ceil(current_threads().max(1)).clamp(1, 1 << 14)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(5, || {
            assert_eq!(current_threads(), 5);
            with_threads(2, current_threads)
        });
        assert_eq!(inner, 2);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outer = current_threads();
        let caught = catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn par_chunks_mut_covers_every_chunk_once() {
        // 103 elements in chunks of 10 -> 11 chunks, the last of length 3.
        let mut data = vec![0usize; 103];
        with_threads(4, || {
            par_chunks_mut(&mut data, 10, 1 << 20, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += i + 1;
                }
            });
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, pos / 10 + 1, "element {pos}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = with_threads(7, || par_map_indexed(23, 1 << 20, |i| i * 3));
        assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        assert!(with_threads(4, || par_map_indexed(0, 1, |i| i)).is_empty());
    }

    #[test]
    fn par_join_returns_both_results() {
        let (a, b) = with_threads(2, || par_join(|| 6 * 7, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_regions_run_serially() {
        let depths = with_threads(4, || par_map_indexed(4, 1 << 20, |_| current_threads()));
        // Every task (the caller's own share included) sees a serial
        // context, so nested kernels cannot re-enter the pool.
        assert_eq!(depths, [1, 1, 1, 1]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(8, 1 << 20, |i| {
                    if i == 5 {
                        panic!("injected task failure");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
        // The pool must remain usable after a task panic.
        let ok = with_threads(4, || par_map_indexed(8, 1 << 20, |i| i + 1));
        assert_eq!(ok, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_equivalence_regions_still_split() {
        // `large_kernels_engage_the_pool_and_stay_bitwise_equal` in
        // tests/parallel_equivalence.rs only exercises the pool while its
        // smallest regions split: the matmul transposes (1024 rows of
        // `2 · 1024` work units) and the conv output relayouts (256
        // planes of `2 · 4096`). A grain change must keep it that way.
        assert!(with_threads(2, || task_count(1024, 2 * 1024)) > 1);
        assert!(with_threads(2, || task_count(256, 2 * 4096)) > 1);
        // Below the grain a region stays on the calling thread.
        assert_eq!(with_threads(2, || task_count(4, MIN_WORK_PER_TASK / 8)), 1);
    }

    #[test]
    fn elementwise_helpers_match_serial() {
        let src: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        let mut par = src.clone();
        with_threads(3, || par_map_inplace(&mut par, 4, |v| v * 2.0 + 1.0));
        let serial: Vec<f32> = src.iter().map(|&v| v * 2.0 + 1.0).collect();
        assert_eq!(par, serial);

        let mut zip = src.clone();
        with_threads(3, || {
            par_zip_inplace(&mut zip, &serial, 4, |a, b| a + b);
        });
        let expect: Vec<f32> = src.iter().zip(&serial).map(|(&a, &b)| a + b).collect();
        assert_eq!(zip, expect);
    }
}
