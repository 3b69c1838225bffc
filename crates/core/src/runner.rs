//! A retrying job runner: capped exponential backoff around a fallible
//! pipeline run.
//!
//! Crash-safety in this stack has three cooperating layers:
//!
//! 1. the **journal** ([`geopattern_par::Journal`]) makes completed work
//!    durable — extraction tiles, mining levels, FP-Growth branches;
//! 2. **checkpoint/resume** makes a rerun cheap — journaled units are
//!    served from disk and only the missing tail is recomputed;
//! 3. the **runner** (this module) makes the rerun *happen* — a transient
//!    failure (an isolated worker panic) is retried with capped
//!    exponential backoff, and each retry naturally resumes from the
//!    journal the failed attempt left behind.
//!
//! Only [`Error::WorkerPanic`] is retryable: a panic is the one failure
//! mode that is plausibly transient and that the pool has already isolated
//! and drained. Cancellation and deadlines are deliberate, and
//! configuration, data and exceeded-budget errors are deterministic —
//! retrying any of them would either fight the operator or repeat the
//! failure verbatim.
//!
//! Backoff is deterministic: the delay for attempt `n` is
//! `min(base·2ⁿ, cap)` plus a jitter fraction drawn from a seeded
//! [`geopattern_testkit::Rng`], so two runs with the same seed sleep the
//! same schedule — testable to the millisecond without mocking time.

use crate::error::Error;
use geopattern_obs::Recorder;
use geopattern_testkit::Rng;
use std::time::Duration;

/// Retries a fallible job with capped exponential backoff.
///
/// ```
/// use geopattern::{Error, JobRunner};
///
/// let runner = JobRunner::new(2).with_backoff(
///     std::time::Duration::from_millis(1),
///     std::time::Duration::from_millis(4),
/// );
/// let got = runner.run(|attempt| {
///     if attempt == 0 {
///         Err(Error::WorkerPanic { stage: "mine".into(), message: "flaky".into() })
///     } else {
///         Ok(attempt)
///     }
/// });
/// assert_eq!(got.unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct JobRunner {
    /// Retries allowed after the initial attempt (`0` = run exactly once).
    pub max_retries: u32,
    /// First retry's base delay.
    pub base_delay: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Metric sink: each retry bumps `robust/retries`. Disabled by
    /// default.
    pub recorder: Recorder,
}

impl JobRunner {
    /// A runner allowing `max_retries` retries with the default backoff
    /// (50 ms base, 2 s cap).
    pub fn new(max_retries: u32) -> JobRunner {
        JobRunner {
            max_retries,
            base_delay: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the backoff window (builder style).
    pub fn with_backoff(mut self, base_delay: Duration, cap: Duration) -> JobRunner {
        self.base_delay = base_delay;
        self.cap = cap;
        self
    }

    /// Sets the jitter seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> JobRunner {
        self.seed = seed;
        self
    }

    /// Attaches a metric recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> JobRunner {
        self.recorder = recorder;
        self
    }

    /// True when `error` is worth retrying.
    ///
    /// Worker panics are isolated, drained, and plausibly transient.
    /// Everything else is either deliberate (cancellation, deadline) or
    /// deterministic (configuration, data) — a retry would repeat it.
    pub fn is_retryable(error: &Error) -> bool {
        matches!(error, Error::WorkerPanic { .. })
    }

    /// The pre-sleep delay before retry `retry` (0-based): capped
    /// exponential backoff plus up to 50% deterministic jitter.
    pub fn delay_for(&self, retry: u32, rng: &mut Rng) -> Duration {
        let base = self.base_delay.as_nanos() as u64;
        let exp = base.saturating_shl(retry);
        let capped = exp.min(self.cap.as_nanos() as u64);
        let jitter = ((capped / 2) as f64 * rng.f64()) as u64;
        Duration::from_nanos(capped.saturating_add(jitter))
    }

    /// Runs `job` until it succeeds, fails terminally, or exhausts the
    /// retry budget.
    ///
    /// `job` receives the 0-based attempt number and must build any
    /// per-attempt state itself — in particular a **fresh
    /// [`geopattern_par::CancelToken`]** when the job uses one (a token
    /// tripped by a panicking attempt would poison every retry). A
    /// [`geopattern_par::Journal`] is the opposite: share ONE across
    /// attempts, so each retry resumes from the work the failed attempt
    /// journaled.
    ///
    /// Returns the first success, the first terminal error, or
    /// [`Error::RetriesExhausted`] wrapping the final retryable error.
    /// With `max_retries == 0` there is no retry budget to exhaust, so
    /// the error passes through unwrapped — wrapping the runner around a
    /// job is a no-op until retries are actually requested.
    pub fn run<T>(&self, mut job: impl FnMut(u32) -> Result<T, Error>) -> Result<T, Error> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut attempt = 0u32;
        loop {
            match job(attempt) {
                Ok(value) => return Ok(value),
                Err(error) if !Self::is_retryable(&error) => return Err(error),
                Err(error) if attempt >= self.max_retries => {
                    if self.max_retries == 0 {
                        return Err(error);
                    }
                    return Err(Error::RetriesExhausted {
                        attempts: attempt + 1,
                        last: Box::new(error),
                    });
                }
                Err(_) => {
                    self.recorder.counter("robust/retries", 1);
                    let delay = self.delay_for(attempt, &mut rng);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

/// `u64::checked_shl` that saturates instead of wrapping — `base << 40`
/// must cap, not overflow.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            0
        } else if rhs >= self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn panic_error() -> Error {
        Error::WorkerPanic { stage: "mine".into(), message: "boom".into() }
    }

    fn fast() -> JobRunner {
        JobRunner::new(3).with_backoff(Duration::from_micros(1), Duration::from_micros(4))
    }

    #[test]
    fn succeeds_without_retries() {
        let calls = Cell::new(0u32);
        let got = fast().run(|_| {
            calls.set(calls.get() + 1);
            Ok::<_, Error>(7)
        });
        assert_eq!(got.unwrap(), 7);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn retries_worker_panics_until_success() {
        let rec = Recorder::new();
        let got = fast().with_recorder(rec.clone()).run(|attempt| {
            if attempt < 2 {
                Err(panic_error())
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(got.unwrap(), 2);
        assert_eq!(rec.snapshot().counter("robust/retries"), Some(2));
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        for terminal in [
            Error::Cancelled,
            Error::DeadlineExceeded,
            Error::InvalidMinSupport(0.0),
            Error::EmptyReferenceLayer,
            Error::BudgetExceeded { stage: "mining/fpgrowth.grow".into(), requested: 64, limit: 1 },
        ] {
            let calls = Cell::new(0u32);
            let got = fast().run(|_| -> Result<(), Error> {
                calls.set(calls.get() + 1);
                Err(terminal.clone())
            });
            assert_eq!(got.unwrap_err(), terminal);
            assert_eq!(calls.get(), 1, "{terminal:?} must not retry");
        }
    }

    #[test]
    fn exhausted_retries_wrap_the_last_error_with_exit_code_6() {
        let rec = Recorder::new();
        let runner = JobRunner::new(2)
            .with_backoff(Duration::from_micros(1), Duration::from_micros(2))
            .with_recorder(rec.clone());
        let got = runner.run(|_| -> Result<(), Error> { Err(panic_error()) });
        let err = got.unwrap_err();
        assert_eq!(err.exit_code(), 6);
        match err {
            Error::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, panic_error());
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(rec.snapshot().counter("robust/retries"), Some(2));
    }

    #[test]
    fn zero_retry_budget_passes_the_error_through_unwrapped() {
        // The runner must be a no-op wrapper at max_retries = 0: a
        // worker panic keeps its own exit code (5), not 6.
        let got = JobRunner::new(0).run(|_| -> Result<(), Error> { Err(panic_error()) });
        assert_eq!(got.unwrap_err(), panic_error());
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_seeded() {
        let runner = JobRunner::new(8)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_seed(42);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..8).map(|r| runner.delay_for(r, &mut rng)).collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed, same schedule");
        let c = schedule(43);
        assert_ne!(a, c, "different seed, different jitter");
        for (r, d) in a.iter().enumerate() {
            // Jitter adds at most 50% of the capped delay.
            let capped = (10u64 << r).min(80);
            assert!(*d >= Duration::from_millis(capped), "retry {r}: {d:?}");
            assert!(*d <= Duration::from_millis(capped + capped / 2), "retry {r}: {d:?}");
        }
        // Huge retry numbers cap instead of overflowing.
        let mut rng = Rng::seed_from_u64(0);
        let huge = runner.delay_for(63, &mut rng);
        assert!(huge <= Duration::from_millis(120));
    }
}
