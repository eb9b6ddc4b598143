//! The three workloads and the circuit pass two of them share.

pub mod dist_n20;
pub mod serve_mix;
pub mod wide_single;

use crate::check::{Checker, Counts};
use crate::report::Report;
use crate::trace::{Span, Tracer};
use std::time::Instant;
use svsim_core::Simulator;

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 3] = ["wide_single", "dist_n20", "serve_mix"];

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Shots sampled after every circuit of the circuit workloads.
pub const SHOTS: usize = 4096;

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: an untraced half and a traced half.
    pub trace: bool,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured.
    pub report: Report,
    /// Operation and failure counts.
    pub checker: Checker,
    /// Spans of the traced half (empty when untraced).
    pub spans: Vec<Span>,
}

/// Run workload `name`.
///
/// # Errors
/// Unknown workload, or a set-up step the program refused.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    match name {
        "wide_single" => wide_single::run(opts),
        "dist_n20" => dist_n20::run(opts),
        "serve_mix" => serve_mix::run(opts),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping all but the last result, and
/// return it with the median set-up time in seconds.
///
/// # Errors
/// The first set-up error.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        kept.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Call `pass` until `seconds` have elapsed, not starting a pass that would
/// likely end more than half a pass past the limit; at least one pass runs.
pub fn for_seconds(seconds: f64, mut pass: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0u32;
    loop {
        pass();
        n += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / f64::from(n) >= seconds {
            break;
        }
    }
}

/// One circuit's trip through a simulator: parse, compile, `run_plan`,
/// sample, reset, each timed, plus what the checks need.
#[derive(Debug, Clone, Default)]
pub struct CircuitRun {
    /// Seconds in `parse_circuit`.
    pub parse_s: f64,
    /// Seconds in `compile_plan`.
    pub compile_s: f64,
    /// Seconds in `run_plan`.
    pub run_s: f64,
    /// Seconds in `sample`.
    pub sample_s: f64,
    /// Seconds in `reset`.
    pub reset_s: f64,
    /// Register width of the simulator.
    pub n_qubits: u32,
    /// Gates in the parsed circuit.
    pub gates: usize,
    /// Amplitude passes of the plan.
    pub passes: usize,
    /// Source kernels of the plan before fusion.
    pub source_kernels: usize,
    /// `state_checksum` after the run.
    pub checksum: u64,
    /// Squared norm after the run.
    pub norm_sqr: f64,
    /// Classical register after the run.
    pub cbits: u64,
    /// Sampled outcomes.
    pub samples: Vec<u64>,
    /// SHMEM counts of the run.
    pub counts: Counts,
}

impl CircuitRun {
    /// Seconds of the timed calls.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.compile_s + self.run_s + self.sample_s + self.reset_s
    }
}

/// Drive one circuit, given as QASM text, through `sim`. Request id `req`
/// labels its spans.
///
/// # Errors
/// The parse or run error, as text.
pub fn run_circuit(
    tr: &Tracer,
    sim: &mut Simulator,
    qasm: &str,
    req: u64,
    shots: usize,
) -> Result<CircuitRun, String> {
    let (circuit, parse_s) = tr.timed("qasm.parse", req, || svsim_qasm::parse_circuit(qasm));
    let circuit = circuit.map_err(|e| format!("parse: {e}"))?;
    let (plan, compile_s) = tr.timed("plan.compile_plan", req, || sim.compile_plan(&circuit));
    let (summary, run_s) = tr.timed("exec.run_plan", req, || sim.run_plan(&circuit, &plan));
    let summary = summary.map_err(|e| format!("run_plan: {e}"))?;
    let checksum = sim.state_checksum();
    let norm_sqr = sim.state().norm_sqr();
    let (samples, sample_s) = tr.timed("measure.sample", req, || sim.sample(shots));
    let ((), reset_s) = tr.timed("exec.reset", req, || sim.reset());
    Ok(CircuitRun {
        parse_s,
        compile_s,
        run_s,
        sample_s,
        reset_s,
        n_qubits: sim.n_qubits(),
        gates: circuit.gates().count(),
        passes: plan.n_kernels(),
        source_kernels: plan.n_source_kernels(),
        checksum,
        norm_sqr,
        cbits: summary.cbits,
        samples,
        counts: Counts::of(&summary),
    })
}

/// Medians over passes of the per-circuit timings, into `report`: parse,
/// compile and sample per call; plan shape per circuit.
pub fn put_call_medians(report: &mut Report, runs: &[CircuitRun]) {
    use crate::stats::median;
    let col = |f: fn(&CircuitRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    report.put("qasm.parse_ms", median(&col(|r| r.parse_s)) * 1e3, "ms");
    report.put("plan.compile_ms", median(&col(|r| r.compile_s)) * 1e3, "ms");
    report.put(
        "measure.sample_ms",
        median(&col(|r| r.sample_s)) * 1e3,
        "ms",
    );
    let passes: usize = runs.iter().map(|r| r.passes).sum();
    let sources: usize = runs.iter().map(|r| r.source_kernels).sum();
    let n = runs.len().max(1) as f64;
    report.put("plan.passes", passes as f64 / n, "count");
    report.put("plan.source_kernels", sources as f64 / n, "count");
    report.put(
        "plan.gates_per_pass",
        sources as f64 / passes.max(1) as f64,
        "ratio",
    );
}

/// `passes × 2^n × 32 B` summed over `runs`, over their `run_plan`
/// seconds, in GB/s: the bytes the kernel passes would move reading and
/// writing every amplitude once. Computed, not measured.
#[must_use]
pub fn gbps_computed(runs: &[CircuitRun]) -> f64 {
    let bytes: f64 = runs
        .iter()
        .map(|r| r.passes as f64 * (1u64 << r.n_qubits) as f64 * 32.0)
        .sum();
    let secs: f64 = runs.iter().map(|r| r.run_s).sum();
    bytes / secs / 1e9
}

/// Host bandwidth probe over arrays the size of the n=25 state (two
/// arrays of 2^25 f64, like its real and imaginary parts), reported with
/// the array and L3 sizes.
pub fn put_host_probe(report: &mut Report) {
    const LEN: usize = 1 << 25;
    let gbps = crate::host::stream_gbps(LEN, 2, 4);
    report.put("host.stream_gbps", gbps, "GB/s");
    report.put("host.stream_array_mib", (LEN * 8) as f64 / 1048576.0, "MiB");
    report.put("host.stream_arrays", 2.0, "count");
    if let Some(l3) = crate::host::l3_bytes() {
        report.put("host.l3_mib", l3 as f64 / 1048576.0, "MiB");
    }
    if let Some(single) = report.get("exec.gbps_computed.single") {
        report.put("exec.roofline_frac", single / gbps, "ratio");
    }
}

/// Per-layer self times and span count of a traced half, plus the tracing
/// overhead: the workload's headline timing `headline` from both halves
/// (`trace.untraced.<headline>`, `trace.traced.<headline>`) and
/// `traced / untraced - 1`.
pub fn put_trace(report: &mut Report, spans: &[Span], headline: &str, untraced: f64, traced: f64) {
    let selfs = crate::trace::self_seconds(spans);
    for layer in crate::report::TRACED_LAYERS {
        report.put(
            format!("trace.self_s.{layer}"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    report.put("trace.spans", spans.len() as f64, "count");
    let unit = if headline.ends_with("_ms") { "ms" } else { "s" };
    report.put(format!("trace.untraced.{headline}"), untraced, unit);
    report.put(format!("trace.traced.{headline}"), traced, unit);
    report.put("trace.overhead_frac", traced / untraced - 1.0, "ratio");
}
