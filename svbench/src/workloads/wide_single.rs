//! `wide_single`: n=25 on the single device only.
//!
//! The state is 512 MiB (SoA, 2^25 × 16 B), at least four times the host's
//! 105 MiB L3, so every kernel pass streams from memory: the
//! bandwidth-bound regime where kernel, fusion and tiling changes show. No
//! SHMEM or engine code runs here, so a change to the distributed or the
//! serving path should show no change on this workload.

use super::{
    for_seconds, gbps_computed, put_call_medians, put_host_probe, put_trace, repeated_setup,
    run_circuit, CircuitRun, Options, Outcome, SHOTS,
};
use crate::check::{expect_eq, expect_unit_norm, Checker};
use crate::gen::{layered_ansatz, random_basic};
use crate::rng::Rng;
use crate::stats::{describe, median};
use crate::trace::Tracer;
use svsim_core::{SimConfig, Simulator};

/// Register width.
pub const N: u32 = 25;
/// Layers of the layered ansatz (each: a rotation on every qubit and a CX
/// ring).
pub const LAYERS: u32 = 1;
/// Gates of the random basic-gate circuit.
pub const RANDOM_GATES: u32 = 21;

/// The workload's circuits for `seed`, as QASM text.
#[must_use]
pub fn circuits(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    vec![
        layered_ansatz(N, LAYERS, &mut rng),
        random_basic(N, RANDOM_GATES, &mut rng),
    ]
}

struct Phase {
    pass_s: Vec<f64>,
    run_s: Vec<f64>,
    runs: Vec<CircuitRun>,
}

fn phase(
    tr: &Tracer,
    sim: &mut Simulator,
    sources: &[String],
    first: &mut Vec<CircuitRun>,
    checker: &Checker,
    seconds: f64,
) -> Phase {
    let mut out = Phase {
        pass_s: Vec::new(),
        run_s: Vec::new(),
        runs: Vec::new(),
    };
    for_seconds(seconds, || {
        let pass = out.pass_s.len() as u64;
        let mut pass_s = 0.0;
        let mut run_s = 0.0;
        tr.timed("bench.pass", pass, || {
            for (i, src) in sources.iter().enumerate() {
                let req = pass * 100 + i as u64;
                let (run, _) = tr.timed("bench.circuit", req, || {
                    run_circuit(tr, sim, src, req, SHOTS)
                });
                let mut problems = Vec::new();
                match run {
                    Ok(run) => {
                        expect_unit_norm(&mut problems, "state", run.norm_sqr);
                        // The first pass is the reference: a later pass
                        // over the same text and seed must repeat it.
                        if let Some(f) = first.get(i) {
                            expect_eq(&mut problems, "state checksum", &run.checksum, &f.checksum);
                            expect_eq(&mut problems, "samples", &run.samples, &f.samples);
                        } else {
                            first.push(run.clone());
                        }
                        pass_s += run.total_s();
                        run_s += run.run_s;
                        out.runs.push(CircuitRun {
                            samples: Vec::new(),
                            ..run
                        });
                    }
                    Err(e) => problems.push(e),
                }
                checker.record(&format!("wide_single circuit {i}"), &problems);
            }
        });
        out.pass_s.push(pass_s);
        out.run_s.push(run_s);
    });
    out
}

/// Run the workload.
///
/// # Errors
/// A set-up step the program refused.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let ((sources, mut sim), setup_s) = repeated_setup(|| {
        let sources = circuits(opts.seed);
        let mut sim = Simulator::new(N, SimConfig::single_device().with_seed(opts.seed))
            .map_err(|e| e.to_string())?;
        // First touch of every amplitude page.
        sim.reset();
        Ok((sources, sim))
    })?;
    let r = &mut outcome.report;
    r.put("setup_s", setup_s, "s");
    r.put("state_mib", (16u64 << N) as f64 / 1048576.0, "MiB");

    let mut first = Vec::new();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = phase(
        &Tracer::new(false),
        &mut sim,
        &sources,
        &mut first,
        &outcome.checker,
        seconds,
    );
    let circuit_s = median(&plain.pass_s);
    println!("timing circuit_s {}", describe(&plain.pass_s));
    let gates: usize = plain.runs.iter().take(sources.len()).map(|r| r.gates).sum();
    r.put("circuit_s", circuit_s, "s");
    r.put("latency_p50_s", circuit_s, "s");
    r.put(
        "gate_amp_rate",
        gates as f64 * (1u64 << N) as f64 / circuit_s / 1e9,
        "Gamp/s",
    );
    r.put("peak_rss_mb", crate::host::peak_rss_mb(), "MB");

    if opts.trace {
        let tr = Tracer::new(true);
        let traced = phase(
            &tr,
            &mut sim,
            &sources,
            &mut first,
            &outcome.checker,
            seconds,
        );
        drop(sim);
        put_call_medians(r, &traced.runs);
        r.put("exec.run_s.single", median(&traced.run_s), "s");
        r.put(
            "exec.gbps_computed.single",
            gbps_computed(&traced.runs),
            "GB/s",
        );
        put_host_probe(r);
        outcome.spans = tr.spans();
        put_trace(
            r,
            &outcome.spans,
            "circuit_s",
            circuit_s,
            median(&traced.pass_s),
        );
    }
    Ok(outcome)
}
