//! # geopattern-par
//!
//! A small in-tree parallel runtime for the `geopattern` system. The build
//! environment has no registry access, so `rayon` is not an option; this
//! crate provides one work pool, built on `std::thread::scope`, behind the
//! three entry points the hot paths need:
//!
//! * [`try_par_map`] — order-preserving parallel map over a slice that
//!   checks a [`CancelToken`] at every chunk boundary and catches worker
//!   panics ([`Interrupt::WorkerPanic`]) instead of aborting, draining
//!   and joining the pool cleanly on any interruption;
//! * [`try_par_map_reduce`] — parallel fold over contiguous chunks with a
//!   deterministic in-order reduction of the per-chunk accumulators, with
//!   the same cancellation and panic isolation;
//! * [`par_map`] — [`try_par_map`] without a token, for stages that
//!   cannot be interrupted; a caught worker panic is raised again on the
//!   calling thread;
//! * [`control`] — the cooperative fault-tolerance primitives shared by
//!   the whole system: [`CancelToken`] (atomic flag + optional monotonic
//!   deadline), [`MemoryBudget`] (byte accounting with a peak watermark,
//!   for tracking or typed refusal), and the [`ApproxBytes`] estimate
//!   trait.
//!
//! Work distribution is *chunked self-scheduling*: the input is cut into
//! more chunks than workers (bounding imbalance to one chunk) and workers
//! claim chunks from a shared atomic cursor. Every result lands in the
//! output slot of its input index, so the output is identical to the
//! serial map regardless of thread count or scheduling — parallelism is
//! never allowed to change answers, only wall-clock. The one output-slot
//! write the pool needs is the crate's only `unsafe` code; the crate
//! denies `unsafe_code` everywhere else.
//!
//! Thread counts come from [`Threads`]: `Serial` (1), `Fixed(n)`, or
//! `Auto`, which honours the `GEOPATTERN_THREADS` environment variable and
//! falls back to [`std::thread::available_parallelism`].
//!
//! ## Adaptive granularity
//!
//! Spawning workers is only worth it when each worker gets enough work to
//! amortise thread start-up and scheduling. Every pool entry point
//! therefore *plans* its worker count instead of taking the request at
//! face value:
//!
//! * the request is clamped to the host's available parallelism — more
//!   workers than cores can never reduce wall-clock, only add
//!   oversubscription overhead (`GEOPATTERN_HOST_PARALLELISM` overrides
//!   the detected value, which the test suite uses to exercise the real
//!   pool on single-core CI hosts);
//! * a minimum-work-per-worker threshold, estimated from the item count
//!   and the stage's declared [`Grain`], drops workers until every one of
//!   them has enough items — down to the exact serial code path when the
//!   input is too small to parallelise at all;
//! * cheap-per-element stages ([`Grain::Fine`]) use larger chunks than
//!   expensive ones ([`Grain::Coarse`]), trading self-scheduling balance
//!   for fewer trips to the shared cursor.
//!
//! The plan only ever changes wall-clock: outputs are bit-identical for
//! every thread count, grain, and host width.

#![deny(unsafe_code)]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod control;
pub mod journal;

pub use control::{ApproxBytes, BudgetGuard, CancelToken, Interrupt, MemoryBudget};
pub use journal::{atomic_write, fnv1a64, Journal};

/// Upper bound on configurable worker counts; anything above this is a
/// typo or an attack, not a machine.
pub const MAX_THREADS: usize = 4096;

/// How many worker threads a parallel stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// One thread: the exact serial code path, no pool involved.
    Serial,
    /// `GEOPATTERN_THREADS` if set and valid, else the machine's available
    /// parallelism. The default.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl Threads {
    /// Resolves to a concrete thread count (always at least 1).
    pub fn get(self) -> usize {
        match self {
            Threads::Serial => 1,
            Threads::Fixed(n) => n.clamp(1, MAX_THREADS),
            Threads::Auto => env_threads().unwrap_or_else(available_threads),
        }
    }

    /// Parses a CLI-style value: `"auto"`/`"0"` → `Auto`, `"1"` → `Serial`,
    /// `"n"` → `Fixed(n)`. Counts above [`MAX_THREADS`] are rejected — no
    /// real machine wants them and spawning unbounded workers is how a
    /// typo becomes an outage.
    pub fn parse(s: &str) -> Result<Threads, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" | "0" => Ok(Threads::Auto),
            "1" => Ok(Threads::Serial),
            n => match n.parse::<usize>() {
                Ok(count) if count > MAX_THREADS => Err(format!(
                    "thread count {count} is absurd (maximum {MAX_THREADS})"
                )),
                Ok(count) => Ok(Threads::Fixed(count)),
                Err(_) => {
                    Err(format!("bad thread count {s:?} (expected a number or \"auto\")"))
                }
            },
        }
    }
}

/// The `GEOPATTERN_THREADS` override, when set to a positive integer no
/// larger than [`MAX_THREADS`].
fn env_threads() -> Option<usize> {
    std::env::var("GEOPATTERN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0 && n <= MAX_THREADS)
}

/// The machine's available parallelism (1 when unknown).
fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How expensive one element of a parallel stage is, which decides how
/// much work a worker must receive before spawning it pays off and how
/// coarsely the input is chunked.
///
/// This is a *scheduling hint only*: every entry point produces output
/// bit-identical to the serial map for either grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Grain {
    /// Each element does substantial work (geometry pairs, vertical
    /// equivalence classes). Parallelism pays off almost immediately, and
    /// small chunks keep the pool balanced. The default.
    #[default]
    Coarse,
    /// Each element is cheap (counting one encoded transaction). Workers
    /// need on the order of a thousand elements each to amortise spawn
    /// cost, and larger chunks cut shared-cursor traffic.
    Fine,
}

impl Grain {
    /// The policy/metric name of the grain.
    pub fn name(self) -> &'static str {
        match self {
            Grain::Coarse => "coarse",
            Grain::Fine => "fine",
        }
    }

    /// Fewest items a worker must receive for spawning it to pay off.
    fn min_items_per_worker(self) -> usize {
        match self {
            Grain::Coarse => 2,
            Grain::Fine => 1024,
        }
    }

    /// Chunks handed to each worker: more chunks bound imbalance to one
    /// chunk, fewer chunks cut trips to the shared cursor.
    fn chunks_per_worker(self) -> usize {
        match self {
            Grain::Coarse => 4,
            Grain::Fine => 2,
        }
    }
}

/// The host's usable parallelism: `GEOPATTERN_HOST_PARALLELISM` when set
/// to a positive integer no larger than [`MAX_THREADS`], else
/// [`std::thread::available_parallelism`]. Worker counts are clamped to
/// this — oversubscribing cores only adds scheduling overhead. The env
/// override exists so tests can exercise the real pool on single-core
/// hosts (and conversely pin benchmarks to a known width).
pub fn host_parallelism() -> usize {
    std::env::var("GEOPATTERN_HOST_PARALLELISM")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0 && n <= MAX_THREADS)
        .unwrap_or_else(available_threads)
}

/// Pure scheduling policy: how many workers to actually use for `len`
/// items at the given grain on a host with `host` cores, and the chunk
/// size they claim. `requested` is the resolved [`Threads`] count.
///
/// Workers are clamped to the host width and to the number of
/// minimum-work slices in the input; one worker means the exact serial
/// code path. Exposed for policy tests — the pool entry points plan
/// internally.
pub fn plan_for(requested: usize, host: usize, len: usize, grain: Grain) -> (usize, usize) {
    let workers = requested
        .min(host)
        .min(len / grain.min_items_per_worker())
        .max(1);
    let chunk = len.div_ceil(workers * grain.chunks_per_worker()).max(1);
    (workers, chunk)
}

/// [`plan_for`] against the live host width.
fn plan(threads: Threads, len: usize, grain: Grain) -> (usize, usize) {
    plan_for(threads.get(), host_parallelism(), len, grain)
}

/// Maps `f` over `items` on `threads` workers, preserving order. With one
/// thread (or up to one item) this is exactly `items.iter().map(f)` on the
/// calling thread. `f` receives the item index alongside the item.
/// Schedules at [`Grain::Coarse`]. A panic in `f` is caught by the pool
/// and raised again on the calling thread once every worker has stopped.
pub fn par_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map(threads, &CancelToken::none(), "par_map", items, f) {
        Ok(out) => out,
        Err(interrupt) => panic!("{interrupt}"),
    }
}

/// Fallible [`par_map`]: identical output on success, but the token is
/// checked at every chunk boundary and worker panics are caught instead of
/// aborting the process.
///
/// On any interrupt the pool *drains and joins cleanly* — remaining chunks
/// are abandoned, every scoped thread exits, and the first interrupt (in
/// wall-clock order) is returned as [`Interrupt::Cancelled`],
/// [`Interrupt::DeadlineExceeded`] or [`Interrupt::WorkerPanic`] tagged
/// with `stage`. With a disabled token and no panic the output is the
/// serial map's, at any thread count.
pub fn try_par_map<T, R, F>(
    threads: Threads,
    cancel: &CancelToken,
    stage: &str,
    items: &[T],
    f: F,
) -> Result<Vec<R>, Interrupt>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    pool(threads, Grain::Coarse, cancel, stage, items, f)
}

/// A `Send`/`Sync` wrapper for the output-buffer pointer shared with the
/// scoped workers. Safe because workers write disjoint indices.
struct SendPtr<T>(*mut T);
// SAFETY: the one field points into `pool`'s output buffer, which outlives
// the worker scope; workers only move `T` values into disjoint slots, so
// sending the pointer to another thread needs only `T: Send`.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: workers share `&SendPtr` only to write disjoint slots through the
// pointer, never to read or alias a slot, so `T: Send` suffices as above.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Records the first interrupt and tells every worker to stop claiming
/// chunks. Later interrupts are dropped: the first is the cause, the rest
/// are echoes of the shutdown.
fn report_interrupt(error: &Mutex<Option<Interrupt>>, stop: &AtomicBool, interrupt: Interrupt) {
    let mut slot = error.lock().unwrap_or_else(|poison| poison.into_inner());
    if slot.is_none() {
        *slot = Some(interrupt);
    }
    stop.store(true, Ordering::Release);
}

/// The one pool body behind every entry point: plans workers and chunk
/// size for `grain`, then maps `f` over `items` into per-index output
/// slots. The grain only affects scheduling (worker count, chunk size,
/// serial fall-back); success output and interrupt semantics do not
/// change with it.
#[allow(unsafe_code)]
fn pool<T, R, F>(
    threads: Threads,
    grain: Grain,
    cancel: &CancelToken,
    stage: &str,
    items: &[T],
    f: F,
) -> Result<Vec<R>, Interrupt>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (workers, chunk) = plan(threads, items.len(), grain);
    if workers <= 1 || items.len() <= 1 {
        // Serial path: same cadence of cancel checks (one per chunk-sized
        // run of items), one catch_unwind around the whole loop.
        let mut out = Vec::with_capacity(items.len());
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), Interrupt> {
            for (i, item) in items.iter().enumerate() {
                if i % chunk == 0 {
                    cancel.check()?;
                }
                out.push(f(i, item));
            }
            Ok(())
        }));
        return match run {
            Ok(Ok(())) => {
                // Final check: a token tripped during the last items (e.g.
                // by a cooperating closure that then truncated its own
                // work) must surface as an interrupt, never as Ok with
                // partial output.
                cancel.check()?;
                Ok(out)
            }
            Ok(Err(interrupt)) => Err(interrupt),
            Err(payload) => Err(Interrupt::WorkerPanic {
                stage: stage.to_string(),
                message: control::panic_message(payload.as_ref()),
            }),
        };
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let error: Mutex<Option<Interrupt>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    {
        // Hand each worker a raw view of the output buffer; every index is
        // written at most once because the chunk cursor hands out disjoint
        // ranges.
        let slots_ptr = SendPtr(slots.as_mut_ptr());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let slots_ptr = &slots_ptr;
                let cursor = &cursor;
                let f = &f;
                let error = &error;
                let stop = &stop;
                scope.spawn(move || loop {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Err(interrupt) = cancel.check() {
                        report_interrupt(error, stop, interrupt);
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    // Catch per chunk: a panicking closure poisons only its
                    // own chunk; the slots it did write are discarded with
                    // the buffer when the error path returns.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        for (i, item) in items[start..end].iter().enumerate() {
                            let idx = start + i;
                            // SAFETY: idx is claimed by exactly one worker
                            // via the atomic cursor, and `slots` outlives
                            // the scope.
                            unsafe { *slots_ptr.0.add(idx) = Some(f(idx, item)) };
                        }
                    }));
                    if let Err(payload) = outcome {
                        report_interrupt(
                            error,
                            stop,
                            Interrupt::WorkerPanic {
                                stage: stage.to_string(),
                                message: control::panic_message(payload.as_ref()),
                            },
                        );
                        break;
                    }
                });
            }
        });
    }
    if let Some(interrupt) = error.into_inner().unwrap_or_else(|poison| poison.into_inner()) {
        return Err(interrupt);
    }
    // Same final check as the serial path: a cancellation that landed
    // after every chunk was claimed (so no worker re-checked the token)
    // must not yield Ok — closures cooperating with the token may have
    // truncated their own output.
    cancel.check()?;
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every slot written by the pool"))
        .collect())
}

/// Folds contiguous chunks of `items` in parallel and reduces the chunk
/// accumulators **in chunk order**, so the result is deterministic even
/// for non-commutative `reduce`. `map` receives `(chunk_start_index,
/// chunk)` and returns the chunk's accumulator; the result is `None` for
/// empty input.
///
/// Cancellation and panic isolation are [`try_par_map`]'s, on one thread
/// too: a panic in `map` surfaces as [`Interrupt::WorkerPanic`] rather
/// than unwinding through the caller.
/// The `grain` only affects scheduling; the reduction is the same for any
/// grain, thread count, and host width.
pub fn try_par_map_reduce<T, A, M, R>(
    threads: Threads,
    grain: Grain,
    cancel: &CancelToken,
    stage: &str,
    items: &[T],
    map: M,
    reduce: R,
) -> Result<Option<A>, Interrupt>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    if items.is_empty() {
        return Ok(None);
    }
    let (workers, chunk) = plan(threads, items.len(), grain);
    // One worker maps the whole input as a single chunk.
    let chunk = if workers <= 1 { items.len() } else { chunk };
    let starts: Vec<usize> = (0..items.len()).step_by(chunk).collect();
    // Each start now stands for a whole chunk of work, so the inner map
    // is coarse regardless of the caller's grain.
    let accs = pool(Threads::Fixed(workers), Grain::Coarse, cancel, stage, &starts, |_, &start| {
        let end = (start + chunk).min(items.len());
        map(start, &items[start..end])
    })?;
    Ok(accs.into_iter().reduce(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pretend the host has 8 cores so multi-thread tests exercise the
    /// real pool even on single-core CI machines. Every caller sets the
    /// same value, so concurrent test threads racing on the variable are
    /// benign (this crate's tests share one process, like the existing
    /// `GEOPATTERN_THREADS` test).
    fn wide_host() {
        std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "8");
    }

    #[test]
    fn par_map_matches_serial_map() {
        wide_host();
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
            let parallel = par_map(threads, &items, |_, &x| x * x + 1);
            assert_eq!(parallel, serial, "{threads:?}");
        }
    }

    #[test]
    fn plan_clamps_to_host_width() {
        // Asking for 8 workers on a 1-core host is pure overhead: the plan
        // must fall back to the exact serial path.
        assert_eq!(plan_for(8, 1, 100_000, Grain::Coarse).0, 1);
        assert_eq!(plan_for(8, 1, 100_000, Grain::Fine).0, 1);
        // On a wide host the request wins (given enough work).
        assert_eq!(plan_for(8, 16, 100_000, Grain::Coarse).0, 8);
        // And the host wins when narrower than the request.
        assert_eq!(plan_for(16, 4, 100_000, Grain::Coarse).0, 4);
    }

    #[test]
    fn plan_serialises_underfilled_inputs() {
        // Fine grain: every worker needs >= 1024 items.
        assert_eq!(plan_for(8, 8, 1023, Grain::Fine).0, 1);
        assert_eq!(plan_for(8, 8, 2048, Grain::Fine).0, 2);
        assert_eq!(plan_for(8, 8, 3000, Grain::Fine).0, 2);
        assert_eq!(plan_for(8, 8, 1_000_000, Grain::Fine).0, 8);
        // Coarse grain: two items per worker suffice.
        assert_eq!(plan_for(8, 8, 1, Grain::Coarse).0, 1);
        assert_eq!(plan_for(8, 8, 6, Grain::Coarse).0, 3);
        assert_eq!(plan_for(8, 8, 100, Grain::Coarse).0, 8);
        // Degenerate lengths never plan zero workers or zero chunk.
        assert_eq!(plan_for(8, 8, 0, Grain::Coarse), (1, 1));
        assert_eq!(plan_for(1, 1, 0, Grain::Fine), (1, 1));
    }

    #[test]
    fn plan_fine_grain_uses_larger_chunks() {
        let (workers_c, chunk_c) = plan_for(4, 8, 100_000, Grain::Coarse);
        let (workers_f, chunk_f) = plan_for(4, 8, 100_000, Grain::Fine);
        assert_eq!((workers_c, workers_f), (4, 4));
        // Coarse: 4 chunks per worker; fine: 2 — so fine chunks are twice
        // the size for the same worker count.
        assert_eq!(chunk_c, 100_000usize.div_ceil(16));
        assert_eq!(chunk_f, 100_000usize.div_ceil(8));
        assert!(chunk_f > chunk_c);
    }

    #[test]
    fn host_parallelism_env_override() {
        // Same value as wide_host(): concurrent tests racing on the
        // variable all write "8".
        std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "8");
        assert_eq!(host_parallelism(), 8);
    }

    #[test]
    fn grained_variants_match_serial_for_both_grains() {
        wide_host();
        let items: Vec<u64> = (0..5000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        let expected_sum: u64 = serial.iter().sum();
        let token = CancelToken::none();
        for grain in [Grain::Coarse, Grain::Fine] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let mapped = pool(threads, grain, &token, "test", &items, |_, &x| {
                    x.wrapping_mul(31) ^ 7
                })
                .expect("disabled token never interrupts");
                assert_eq!(mapped, serial, "{grain:?} {threads:?}");
                let reduced = try_par_map_reduce(
                    threads,
                    grain,
                    &token,
                    "test",
                    &items,
                    |_, chunk| chunk.iter().map(|&x| x.wrapping_mul(31) ^ 7).sum::<u64>(),
                    |a, b| a + b,
                )
                .expect("disabled token never interrupts");
                assert_eq!(reduced, Some(expected_sum), "{grain:?} {threads:?}");
            }
        }
    }

    #[test]
    fn par_map_passes_indices() {
        wide_host();
        let items = vec!["a"; 257];
        let got = par_map(Threads::Fixed(4), &items, |i, _| i);
        assert_eq!(got, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        wide_host();
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Threads::Fixed(4), &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(Threads::Fixed(4), &[7u32], |_, &x| x + 1), vec![8]);
        // More threads than items.
        let small: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(Threads::Fixed(16), &small, |_, &x| x), small);
    }

    /// Sums `items` through [`try_par_map_reduce`] with a disabled token.
    fn uncontrolled_reduce<T: Sync, A: Send>(
        threads: Threads,
        items: &[T],
        map: impl Fn(usize, &[T]) -> A + Sync,
        reduce: impl Fn(A, A) -> A,
    ) -> Option<A> {
        try_par_map_reduce(threads, Grain::Coarse, &CancelToken::none(), "test", items, map, reduce)
            .expect("disabled token never interrupts")
    }

    #[test]
    fn par_map_reduce_sums_deterministically() {
        wide_host();
        let items: Vec<u64> = (1..=10_000).collect();
        let expected: u64 = items.iter().sum();
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
            let got = uncontrolled_reduce(
                threads,
                &items,
                |_, chunk| chunk.iter().sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(got, Some(expected), "{threads:?}");
        }
        let empty: Vec<u64> = Vec::new();
        assert_eq!(
            uncontrolled_reduce(Threads::Fixed(4), &empty, |_, c| c.len(), |a, b| a + b),
            None
        );
    }

    #[test]
    fn par_map_reduce_order_preserving_reduction() {
        wide_host();
        // Concatenation is non-commutative: the reduction must run in
        // chunk order for the result to equal the serial concatenation.
        let items: Vec<u32> = (0..500).collect();
        let serial: Vec<u32> = items.clone();
        let got = uncontrolled_reduce(
            Threads::Fixed(8),
            &items,
            |_, chunk| chunk.to_vec(),
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .expect("non-empty input always yields a reduction");
        assert_eq!(got, serial);
    }

    #[test]
    fn try_par_map_matches_par_map_when_uncontrolled() {
        wide_host();
        let items: Vec<u64> = (0..1000).collect();
        let token = CancelToken::none();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
            let tried = try_par_map(threads, &token, "test", &items, |_, &x| x * 3 + 1)
                .expect("disabled token never interrupts");
            assert_eq!(tried, serial, "{threads:?}");
        }
        // An enabled-but-untripped token also changes nothing.
        let live = CancelToken::new();
        let tried = try_par_map(Threads::Fixed(4), &live, "test", &items, |_, &x| x + 1)
            .expect("untripped token never interrupts");
        assert_eq!(tried, items.iter().map(|&x| x + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_raises_a_worker_panic_again() {
        wide_host();
        let items: Vec<u64> = (0..1000).collect();
        for threads in [Threads::Serial, Threads::Fixed(4)] {
            let caught = std::panic::catch_unwind(|| {
                par_map(threads, &items, |i, &x| {
                    if i == 500 {
                        panic!("injected failure at {i}");
                    }
                    x
                })
            });
            let payload = caught.expect_err("a worker panic must reach the caller");
            let message = control::panic_message(payload.as_ref());
            assert!(message.contains("injected failure at 500"), "{threads:?}: {message}");
        }
    }

    #[test]
    fn try_par_map_observes_pre_cancelled_token() {
        wide_host();
        let items: Vec<u64> = (0..100).collect();
        let token = CancelToken::new();
        token.cancel();
        for threads in [Threads::Serial, Threads::Fixed(4)] {
            let got = try_par_map(threads, &token, "test", &items, |_, &x| x);
            assert_eq!(got, Err(Interrupt::Cancelled), "{threads:?}");
        }
    }

    #[test]
    fn try_par_map_stops_after_mid_run_cancel() {
        wide_host();
        // A worker closure trips the token itself; later chunks must be
        // abandoned and the call must report Cancelled, not complete.
        let items: Vec<u64> = (0..10_000).collect();
        let token = CancelToken::new();
        let calls = AtomicUsize::new(0);
        let got = try_par_map(Threads::Fixed(4), &token, "test", &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                token.cancel();
            }
            x
        });
        assert_eq!(got, Err(Interrupt::Cancelled));
        assert!(
            calls.load(Ordering::Relaxed) < items.len(),
            "cancellation should abandon the tail of the input"
        );
    }

    #[test]
    fn try_par_map_reports_expired_deadline() {
        wide_host();
        let items: Vec<u64> = (0..100).collect();
        let token =
            CancelToken::with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let got = try_par_map(Threads::Fixed(4), &token, "test", &items, |_, &x| x);
        assert_eq!(got, Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn try_par_map_isolates_worker_panics() {
        wide_host();
        let items: Vec<u64> = (0..1000).collect();
        let token = CancelToken::none();
        for threads in [Threads::Serial, Threads::Fixed(4)] {
            let got = try_par_map(threads, &token, "unit/panic", &items, |i, &x| {
                if i == 500 {
                    panic!("injected failure at {i}");
                }
                x
            });
            match got {
                Err(Interrupt::WorkerPanic { stage, message }) => {
                    assert_eq!(stage, "unit/panic", "{threads:?}");
                    assert!(message.contains("injected failure"), "{threads:?}: {message}");
                }
                other => panic!("{threads:?}: expected WorkerPanic, got {other:?}"),
            }
        }
        // The pool is an ordinary scoped construct: a panic in one call
        // leaves nothing behind, and the next call works.
        let again = try_par_map(Threads::Fixed(4), &token, "test", &items, |_, &x| x + 1)
            .expect("pool must be reusable after a caught panic");
        assert_eq!(again.len(), items.len());
    }

    #[test]
    fn try_par_map_reduce_matches_infallible_variant() {
        wide_host();
        let items: Vec<u64> = (1..=10_000).collect();
        // A disabled token, and an enabled one that never trips, both
        // leave the serial sum.
        for token in [CancelToken::none(), CancelToken::new()] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let got = try_par_map_reduce(
                    threads,
                    Grain::Coarse,
                    &token,
                    "test",
                    &items,
                    |_, chunk| chunk.iter().sum::<u64>(),
                    |a, b| a + b,
                )
                .expect("an untripped token never interrupts");
                assert_eq!(got, Some(items.iter().sum::<u64>()), "{threads:?}");
            }
        }
    }

    #[test]
    fn try_par_map_reduce_propagates_serial_panic() {
        let items: Vec<u64> = (0..10).collect();
        let got = try_par_map_reduce(
            Threads::Serial,
            Grain::Coarse,
            &CancelToken::none(),
            "unit/serial-panic",
            &items,
            |_, _chunk| -> u64 { panic!("serial map panicked") },
            |a, b| a + b,
        );
        match got {
            Err(Interrupt::WorkerPanic { stage, message }) => {
                assert_eq!(stage, "unit/serial-panic");
                assert!(message.contains("serial map panicked"));
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::Serial.get(), 1);
        assert_eq!(Threads::Fixed(3).get(), 3);
        assert_eq!(Threads::Fixed(0).get(), 1);
        assert!(Threads::Auto.get() >= 1);
    }

    #[test]
    fn threads_parse() {
        assert_eq!(Threads::parse("auto"), Ok(Threads::Auto));
        assert_eq!(Threads::parse("0"), Ok(Threads::Auto));
        assert_eq!(Threads::parse("1"), Ok(Threads::Serial));
        assert_eq!(Threads::parse("6"), Ok(Threads::Fixed(6)));
        assert!(Threads::parse("six").is_err());
        // The absurdity guard: 4096 is the last acceptable count.
        assert_eq!(Threads::parse("4096"), Ok(Threads::Fixed(MAX_THREADS)));
        let err = Threads::parse("4097").expect_err("counts above MAX_THREADS are rejected");
        assert!(err.contains("absurd"), "{err}");
        assert!(Threads::parse("1000000").is_err());
    }

    #[test]
    fn env_override_is_honoured() {
        // Set for this test only; tests in this crate run in one process,
        // so pick a name-spaced check through the public API.
        std::env::set_var("GEOPATTERN_THREADS", "5");
        assert_eq!(Threads::Auto.get(), 5);
        std::env::set_var("GEOPATTERN_THREADS", "not-a-number");
        assert_eq!(Threads::Auto.get(), available_threads());
        std::env::remove_var("GEOPATTERN_THREADS");
    }
}
