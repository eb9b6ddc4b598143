//! Admission types: a submitted job and the reasons a submission is
//! refused.
//!
//! Admission never blocks: a full admit queue refuses the job immediately
//! so the caller can shed load or retry with backoff — the same
//! backpressure stance as the SHMEM layer's bounded symmetric heap.

use crate::job::{JobCell, JobRequest};
use crate::templates::TemplateId;
use std::sync::Arc;
use std::time::Instant;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; try again later.
    QueueFull,
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// A sweep job referenced a template id the engine does not know.
    UnknownTemplate(TemplateId),
    /// A sweep job supplied fewer parameters than its template requires.
    BadParamCount {
        /// Parameters the template requires.
        expected: usize,
        /// Parameters the job supplied.
        got: usize,
    },
    /// An identical job has already failed repeatedly; the engine refuses
    /// it until the quarantine is lifted (degradation instead of burning
    /// workers on a poison job).
    Quarantined {
        /// Consecutive final failures recorded for this job shape.
        failures: u32,
    },
    /// Admitting this job would push the engine's in-flight state-vector
    /// bytes over the [`crate::AllocMode::LimitMemory`] cap; try again
    /// once in-flight work drains.
    MemoryExceeded {
        /// Bytes this job would pin while in flight.
        needed: u64,
        /// The configured in-flight byte cap.
        limit: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "queue full, job rejected"),
            Self::ShuttingDown => write!(f, "engine shutting down, job rejected"),
            Self::UnknownTemplate(id) => write!(f, "unknown template {id}"),
            Self::BadParamCount { expected, got } => {
                write!(
                    f,
                    "template needs {expected} parameters, job supplied {got}"
                )
            }
            Self::Quarantined { failures } => {
                write!(f, "job quarantined after {failures} repeated failures")
            }
            Self::MemoryExceeded { needed, limit } => {
                write!(
                    f,
                    "job needs {needed} in-flight bytes, over the {limit}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A submitted job: its request, result cell, and enqueue instant.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub(crate) request: JobRequest,
    pub(crate) cell: Arc<JobCell>,
    pub(crate) enqueued_at: Instant,
}

impl QueuedJob {
    /// The template id if this is a sweep job (the coalescing key).
    pub(crate) fn template(&self) -> Option<TemplateId> {
        match &self.request.spec {
            crate::job::JobSpec::Sweep { template, .. } => Some(*template),
            crate::job::JobSpec::OneShot { .. } => None,
        }
    }
}
