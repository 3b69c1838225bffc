//! # geopattern-obs
//!
//! A zero-dependency, in-tree observability runtime for the `geopattern`
//! system: monotonic span timers with a thread-aware scoped-span stack,
//! named counters, and fixed-log2-bucket histograms.
//!
//! The design mirrors the merge discipline of `geopattern-par`: workers
//! accumulate into private, lock-free [`Metrics`] values, and the owner
//! absorbs them in a deterministic order. Every metric kind merges by
//! addition (commutative), so aggregates are *exactly* the serial numbers
//! for any thread count — instrumentation is never allowed to change
//! answers, and the mined output of an instrumented run is bit-identical
//! to an uninstrumented one.
//!
//! The central handle is [`Recorder`]:
//!
//! * [`Recorder::new`] — an enabled recorder (shared aggregate behind a
//!   mutex; cheap to clone, `Send + Sync`);
//! * [`Recorder::disabled`] — a no-op handle with near-zero cost, so
//!   instrumented code paths need no `Option` plumbing;
//! * [`Recorder::span`] — a scoped timer guard: on creation the span name
//!   is pushed onto a *per-thread* stack, and the recorded key is the
//!   `/`-joined path of the stack (`"mine/apriori/pass2"`), giving
//!   phase-nested timings without any global coordination;
//! * [`Recorder::counter`] / [`Recorder::record`] — named counters and
//!   histogram samples, locked once per call (instrument phase-level
//!   aggregates, not per-item hot loops — workers should fill a local
//!   [`Metrics`] and hand it to [`Recorder::absorb`]);
//! * [`Recorder::snapshot`] — the aggregated [`Metrics`], renderable as
//!   deterministic JSON via [`Metrics::to_json`].
//!
//! ```
//! use geopattern_obs::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let _phase = rec.span("extract");
//!     {
//!         let _inner = rec.span("rows");
//!         rec.counter("pairs", 42);
//!     }
//! }
//! let m = rec.snapshot();
//! assert_eq!(m.counter("pairs"), Some(42));
//! assert_eq!(m.span("extract/rows").unwrap().count, 1);
//! assert!(m.span("extract").unwrap().total_ns >= m.span("extract/rows").unwrap().total_ns);
//! ```

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;

pub use metrics::{Histogram, Metrics, SpanStat, HISTOGRAM_BUCKETS};

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// The calling thread's stack of active span names. Worker threads
    /// start with an empty stack, so spans opened inside a thread pool
    /// root their own paths — no cross-thread coordination needed.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Handle to a metric sink. Cloning shares the sink; a disabled recorder
/// makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Metrics>>>,
}

impl Recorder {
    /// An enabled recorder with an empty aggregate.
    pub fn new() -> Recorder {
        Recorder { inner: Some(Arc::new(Mutex::new(Metrics::new()))) }
    }

    /// A no-op recorder (also what [`Recorder::default`] returns), for
    /// uninstrumented runs.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a scoped span timer. The guard records the elapsed time on
    /// drop under the `/`-joined path of the calling thread's span stack.
    /// Guards must be dropped in LIFO order (the natural scoping).
    pub fn span(&self, name: &str) -> Span<'_> {
        if self.inner.is_none() {
            return Span { rec: self, path: None, start: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_string());
            stack.join("/")
        });
        Span { rec: self, path: Some(path), start: Some(Instant::now()) }
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("metrics mutex").add_counter(name, delta);
        }
    }

    /// Records one histogram sample under `name`.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("metrics mutex").record(name, value);
        }
    }

    /// Merges a worker-local [`Metrics`] into the aggregate. Callers merge
    /// worker outputs in a deterministic order (e.g. input order), though
    /// the addition semantics make the result order-independent anyway.
    pub fn absorb(&self, local: &Metrics) {
        if let Some(inner) = &self.inner {
            if !local.is_empty() {
                inner.lock().expect("metrics mutex").merge(local);
            }
        }
    }

    /// A copy of the aggregated metrics (empty for a disabled recorder).
    pub fn snapshot(&self) -> Metrics {
        match &self.inner {
            Some(inner) => inner.lock().expect("metrics mutex").clone(),
            None => Metrics::new(),
        }
    }

    /// Clears the aggregate (no-op when disabled).
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            *inner.lock().expect("metrics mutex") = Metrics::new();
        }
    }
}

/// Scoped span guard returned by [`Recorder::span`]; records on drop.
#[must_use = "a span guard records its timing when dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    rec: &'a Recorder,
    /// The full `/`-joined path (None when the recorder is disabled).
    path: Option<String>,
    start: Option<Instant>,
}

impl Span<'_> {
    /// The path this span records under (None when disabled).
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(path), Some(start)) = (self.path.take(), self.start) else {
            return;
        };
        let elapsed = start.elapsed().as_nanos();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        if let Some(inner) = &self.rec.inner {
            inner.lock().expect("metrics mutex").add_span(&path, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let span = rec.span("phase");
            assert_eq!(span.path(), None);
            rec.counter("c", 1);
            rec.record("h", 2);
        }
        assert!(rec.snapshot().is_empty());
        // Default is disabled too.
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn nested_spans_build_paths() {
        let rec = Recorder::new();
        {
            let outer = rec.span("extract");
            assert_eq!(outer.path(), Some("extract"));
            {
                let inner = rec.span("rows");
                assert_eq!(inner.path(), Some("extract/rows"));
            }
            // Stack popped: a sibling gets the outer prefix, not "rows/".
            let sib = rec.span("merge");
            assert_eq!(sib.path(), Some("extract/merge"));
        }
        let m = rec.snapshot();
        assert_eq!(m.span("extract").unwrap().count, 1);
        assert_eq!(m.span("extract/rows").unwrap().count, 1);
        assert_eq!(m.span("extract/merge").unwrap().count, 1);
        // After all guards dropped, a new span is a root again.
        let root = rec.span("mine");
        assert_eq!(root.path(), Some("mine"));
    }

    #[test]
    fn span_stacks_are_per_thread() {
        let rec = Recorder::new();
        let _outer = rec.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                // Worker thread: fresh stack, no "outer/" prefix.
                let span = rec.span("worker");
                assert_eq!(span.path(), Some("worker"));
            });
        });
        let m = rec.snapshot();
        assert_eq!(m.span("worker").unwrap().count, 1);
    }

    #[test]
    fn counters_and_absorb_from_workers() {
        let rec = Recorder::new();
        rec.counter("direct", 5);
        // Simulate the par-pool discipline: per-worker local metrics,
        // absorbed in input order.
        let locals: Vec<Metrics> = (0..4)
            .map(|i| {
                let mut m = Metrics::new();
                m.add_counter("pairs", i + 1);
                m.record("row_len", i);
                m
            })
            .collect();
        for l in &locals {
            rec.absorb(l);
        }
        let m = rec.snapshot();
        assert_eq!(m.counter("direct"), Some(5));
        assert_eq!(m.counter("pairs"), Some(10));
        assert_eq!(m.histogram("row_len").unwrap().count, 4);
    }

    #[test]
    fn clones_share_the_sink_and_reset_clears() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.counter("x", 3);
        assert_eq!(rec.snapshot().counter("x"), Some(3));
        rec.reset();
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn span_times_are_monotone() {
        let rec = Recorder::new();
        {
            let _s = rec.span("work");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let st = rec.snapshot().span("work").unwrap();
        assert_eq!(st.count, 1);
        assert!(st.mean_ns() <= st.total_ns.max(1));
    }
}
