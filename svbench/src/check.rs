//! Output checks. Every timed operation is counted as attempted; one that
//! errors, is refused, or fails any check is counted as failed and
//! reported on stderr.

use std::sync::atomic::{AtomicU64, Ordering};

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checker {
    /// Count one operation; `problems` lists every check it failed.
    pub fn record(&self, op: &str, problems: &[String]) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !problems.is_empty() {
            self.failed.fetch_add(1, Ordering::Relaxed);
            for p in problems {
                eprintln!("CHECK FAILED [{op}]: {p}");
            }
        }
    }

    /// Operations attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Push a problem unless `got == want`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    got: &T,
    want: &T,
) {
    if got != want {
        problems.push(format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// Push a problem unless the squared norm is within 1e-10 of 1.
pub fn expect_unit_norm(problems: &mut Vec<String>, what: &str, norm_sqr: f64) {
    if (norm_sqr - 1.0).abs() > 1e-10 || !norm_sqr.is_finite() {
        problems.push(format!(
            "{what}: squared norm {norm_sqr} is not within 1e-10 of 1"
        ));
    }
}

/// SHMEM counts of one run, summed over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Remote one-sided operations (gets + puts).
    pub remote_ops: u64,
    /// Bytes moved by remote operations.
    pub remote_bytes: u64,
    /// Local one-sided operations (gets + puts).
    pub local_ops: u64,
    /// `barrier_all` calls.
    pub barriers: u64,
    /// Atomic operations.
    pub atomics: u64,
}

impl Counts {
    /// Sum the per-worker traffic of a run.
    #[must_use]
    pub fn of(summary: &svsim_core::RunSummary) -> Self {
        let t = summary.total_traffic();
        Self {
            remote_ops: t.remote_ops(),
            remote_bytes: t.remote_get_bytes + t.remote_put_bytes,
            local_ops: t.local_gets + t.local_puts,
            barriers: t.barriers,
            atomics: t.atomics,
        }
    }
}

/// Which distributed fabric produced a run's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Peer access: one counted operation per remote amplitude.
    PeerAccess,
    /// SHMEM: an amplitude moves as two 8-byte words, one operation each.
    Shmem,
}

/// Push a problem unless the measured remote ops, local ops and remote
/// bytes equal what `Simulator::predict_traffic` gives for the circuit's
/// gates. Barriers and atomics have no prediction; the caller checks that
/// they repeat.
pub fn expect_predicted(
    problems: &mut Vec<String>,
    what: &str,
    fabric: Fabric,
    measured: &Counts,
    predicted: &svsim_core::GateTraffic,
) {
    let words = match fabric {
        Fabric::PeerAccess => 1,
        Fabric::Shmem => 2,
    };
    expect_eq(
        problems,
        &format!("{what} remote ops vs predict_traffic"),
        &measured.remote_ops,
        &(words * predicted.remote_amp_ops),
    );
    expect_eq(
        problems,
        &format!("{what} local ops vs predict_traffic"),
        &measured.local_ops,
        &(words * predicted.local_amp_ops),
    );
    expect_eq(
        problems,
        &format!("{what} remote bytes vs predict_traffic"),
        &measured.remote_bytes,
        &predicted.remote_bytes,
    );
}
