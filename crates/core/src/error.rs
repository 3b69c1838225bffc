//! Pipeline configuration and data errors.
//!
//! The staged pipeline API ([`crate::MiningPipeline::extract`] /
//! [`crate::MiningPipeline::encode`] / [`crate::MiningPipeline::mine`])
//! validates its inputs up front and returns one of these instead of
//! panicking or silently mining nonsense. The CLI maps each variant to a
//! stable process exit code via [`Error::exit_code`].
//!
//! Interrupted runs (cancellation, deadline, isolated worker panic,
//! refused memory budget — see [`geopattern_par::Interrupt`]) map onto
//! the same enum via [`From`], with their own exit codes: `4` for
//! cancelled / timed-out runs, `5` for a worker panic, `7` for a run that
//! does not fit its memory budget.

use geopattern_par::Interrupt;
use std::fmt;

/// Everything that can go wrong configuring or feeding a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// `min_confidence` must lie in `[0, 1]`.
    InvalidMinConfidence(f64),
    /// A fractional minimum support must be finite and in `(0, 1]`.
    InvalidMinSupport(f64),
    /// The dataset's reference layer has no features — there is nothing
    /// to build transactions from.
    EmptyReferenceLayer,
    /// `granularity(taxonomy, levels)` asked for more generalisation steps
    /// than the taxonomy is deep; every type would stay unchanged, which
    /// almost always means a mis-configured level.
    TaxonomyTooDeep {
        /// The requested number of generalisation steps.
        levels: usize,
        /// The deepest leaf-to-root distance in the supplied taxonomy.
        max_depth: usize,
    },
    /// The run's [`geopattern_par::CancelToken`] was cancelled.
    Cancelled,
    /// The run's deadline (e.g. the CLI's `--timeout`) expired.
    DeadlineExceeded,
    /// A worker thread panicked; the pool isolated the panic and drained
    /// cleanly.
    WorkerPanic {
        /// The pipeline stage the panicking worker was executing.
        stage: String,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The run does not fit its memory budget: a miner that refuses work
    /// over budget (FP-Growth's conditional trees) could not reserve what
    /// it needed. No truncated output is returned.
    BudgetExceeded {
        /// The stage whose reservation was refused.
        stage: String,
        /// Bytes the refused reservation asked for.
        requested: usize,
        /// The budget's byte limit.
        limit: usize,
    },
    /// A [`crate::JobRunner`] exhausted its retry budget; `last` is the
    /// error of the final attempt.
    RetriesExhausted {
        /// Total attempts made (initial run plus retries).
        attempts: u32,
        /// The final attempt's error.
        last: Box<Error>,
    },
}

impl Error {
    /// Stable process exit code for the CLI: configuration errors are `2`,
    /// data errors are `3`, cancelled or timed-out runs are `4`, isolated
    /// worker panics are `5`, exhausted retry budgets are `6`, exceeded
    /// memory budgets are `7`.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::InvalidMinConfidence(_)
            | Error::InvalidMinSupport(_)
            | Error::TaxonomyTooDeep { .. } => 2,
            Error::EmptyReferenceLayer => 3,
            Error::Cancelled | Error::DeadlineExceeded => 4,
            Error::WorkerPanic { .. } => 5,
            Error::RetriesExhausted { .. } => 6,
            Error::BudgetExceeded { .. } => 7,
        }
    }
}

impl From<Interrupt> for Error {
    fn from(i: Interrupt) -> Error {
        match i {
            Interrupt::Cancelled => Error::Cancelled,
            Interrupt::DeadlineExceeded => Error::DeadlineExceeded,
            Interrupt::WorkerPanic { stage, message } => Error::WorkerPanic { stage, message },
            Interrupt::BudgetExceeded { stage, requested, limit } => {
                Error::BudgetExceeded { stage, requested, limit }
            }
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidMinConfidence(c) => {
                write!(f, "min_confidence must be in [0, 1], got {c}")
            }
            Error::InvalidMinSupport(s) => {
                write!(f, "fractional min_support must be finite and in (0, 1], got {s}")
            }
            Error::EmptyReferenceLayer => {
                write!(f, "the dataset's reference layer has no features")
            }
            Error::TaxonomyTooDeep { levels, max_depth } => write!(
                f,
                "granularity of {levels} level(s) exceeds the taxonomy depth of {max_depth}; \
                 generalisation would be a no-op for every feature type"
            ),
            Error::Cancelled => write!(f, "run cancelled"),
            Error::DeadlineExceeded => write!(f, "deadline exceeded"),
            Error::WorkerPanic { stage, message } => {
                write!(f, "worker panicked in stage {stage:?}: {message}")
            }
            Error::BudgetExceeded { stage, requested, limit } => write!(
                f,
                "memory budget exceeded in stage {stage:?}: {requested} bytes requested, \
                 limit {limit} bytes"
            ),
            Error::RetriesExhausted { attempts, last } => {
                write!(f, "job failed after {attempts} attempt(s); last error: {last}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_exit_codes() {
        assert_eq!(Error::InvalidMinConfidence(1.5).exit_code(), 2);
        assert_eq!(Error::InvalidMinSupport(0.0).exit_code(), 2);
        assert_eq!(Error::TaxonomyTooDeep { levels: 3, max_depth: 2 }.exit_code(), 2);
        assert_eq!(Error::EmptyReferenceLayer.exit_code(), 3);

        assert!(Error::InvalidMinConfidence(1.5).to_string().contains("[0, 1]"));
        assert!(Error::InvalidMinSupport(-0.1).to_string().contains("(0, 1]"));
        assert!(Error::EmptyReferenceLayer.to_string().contains("reference layer"));
        assert!(Error::TaxonomyTooDeep { levels: 3, max_depth: 2 }
            .to_string()
            .contains("taxonomy depth"));
    }

    #[test]
    fn interrupt_variants_map_to_their_own_exit_codes() {
        assert_eq!(Error::from(Interrupt::Cancelled), Error::Cancelled);
        assert_eq!(Error::from(Interrupt::DeadlineExceeded), Error::DeadlineExceeded);
        assert_eq!(Error::Cancelled.exit_code(), 4);
        assert_eq!(Error::DeadlineExceeded.exit_code(), 4);
        let panic = Error::from(Interrupt::WorkerPanic {
            stage: "mining/apriori.count".into(),
            message: "boom".into(),
        });
        assert_eq!(panic.exit_code(), 5);
        assert!(panic.to_string().contains("mining/apriori.count"));
        assert!(panic.to_string().contains("boom"));
        let budget = Error::from(Interrupt::BudgetExceeded {
            stage: "mining/fpgrowth.grow".into(),
            requested: 4096,
            limit: 1,
        });
        assert_eq!(
            budget,
            Error::BudgetExceeded {
                stage: "mining/fpgrowth.grow".into(),
                requested: 4096,
                limit: 1
            }
        );
        assert_eq!(budget.exit_code(), 7);
        assert!(budget.to_string().contains("4096 bytes requested"));
    }

    #[test]
    fn retries_exhausted_wraps_the_final_error() {
        let e = Error::RetriesExhausted {
            attempts: 3,
            last: Box::new(Error::WorkerPanic { stage: "mine".into(), message: "boom".into() }),
        };
        assert_eq!(e.exit_code(), 6);
        assert!(e.to_string().contains("3 attempt(s)"));
        assert!(e.to_string().contains("boom"));
    }
}
