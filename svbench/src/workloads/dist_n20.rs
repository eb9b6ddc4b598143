//! `dist_n20`: n=20 on the single device, scale-up(2), scale-out(2) with
//! thread PEs and scale-out(2) with process PEs.
//!
//! The state is 16 MiB and stays in cache, so distributed access overhead
//! dominates. The gate circuits use one-sided get/put; the measuring
//! circuit adds reductions and barriers. The single-device row is the
//! baseline the distributed rows are judged against. Every backend's
//! state checksum, classical bits and samples must equal the single
//! device's, and every SHMEM count must equal `predict_traffic` and repeat
//! exactly from pass to pass.

use super::{
    for_seconds, gbps_computed, put_call_medians, put_host_probe, put_trace, repeated_setup,
    run_circuit, CircuitRun, Options, Outcome, SHOTS,
};
use crate::check::{expect_eq, expect_predicted, expect_unit_norm, Checker, Counts, Fabric};
use crate::gen::{layered_ansatz, measured, random_basic};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{describe, median};
use crate::trace::Tracer;
use svsim_core::{GateTraffic, ShmemBackend, SimConfig, Simulator};

/// Register width.
pub const N: u32 = 20;
/// Layers of the layered ansatz.
pub const LAYERS: u32 = 1;
/// Gates of the random basic-gate circuit.
pub const RANDOM_GATES: u32 = 28;

/// Backend rows: metric label, configuration, and the fabric that counts
/// its traffic (`None` for the single device).
#[must_use]
pub fn backends(seed: u64) -> Vec<(&'static str, SimConfig, Option<Fabric>)> {
    vec![
        ("single", SimConfig::single_device(), None),
        ("up2", SimConfig::scale_up(2), Some(Fabric::PeerAccess)),
        ("out2", SimConfig::scale_out(2), Some(Fabric::Shmem)),
        (
            "out2proc",
            SimConfig::scale_out(2).with_shmem_backend(ShmemBackend::Process),
            Some(Fabric::Shmem),
        ),
    ]
    .into_iter()
    .map(|(name, config, fabric)| (name, config.with_seed(seed), fabric))
    .collect()
}

/// The workload's circuits for `seed`, as QASM text.
#[must_use]
pub fn circuits(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    vec![
        layered_ansatz(N, LAYERS, &mut rng),
        random_basic(N, RANDOM_GATES, &mut rng),
        measured(N, &mut rng),
    ]
}

struct Row {
    name: &'static str,
    fabric: Option<Fabric>,
    sim: Simulator,
    /// `predict_traffic` per circuit.
    predicted: Vec<GateTraffic>,
    /// Counts of the first pass per circuit, which later passes repeat.
    first: Vec<Counts>,
}

/// Rows in the order one pass runs them. The single device runs before
/// each distributed row, so its baseline is measured beside each of them
/// and `circuit_s` gets three samples per pass.
const ORDER: [usize; 6] = [0, 1, 0, 2, 0, 3];

struct Phase {
    /// Per backend row: seconds per pass and seconds in `run_plan` per pass.
    pass_s: Vec<Vec<f64>>,
    run_s: Vec<Vec<f64>>,
    /// Per backend row: the runs of the last pass, and of every pass.
    last: Vec<Vec<CircuitRun>>,
    all: Vec<Vec<CircuitRun>>,
}

/// Check one distributed run against the single device's run of the same
/// circuit in the same pass, and against the predicted and first-pass
/// counts.
#[must_use]
pub fn check_row(
    what: &str,
    run: &CircuitRun,
    single: &CircuitRun,
    fabric: Fabric,
    predicted: &GateTraffic,
    first: Option<&Counts>,
) -> Vec<String> {
    let mut p = Vec::new();
    expect_eq(
        &mut p,
        &format!("{what} state checksum vs single device"),
        &run.checksum,
        &single.checksum,
    );
    expect_eq(
        &mut p,
        &format!("{what} cbits vs single device"),
        &run.cbits,
        &single.cbits,
    );
    expect_eq(
        &mut p,
        &format!("{what} samples vs single device"),
        &run.samples,
        &single.samples,
    );
    expect_predicted(&mut p, what, fabric, &run.counts, predicted);
    if let Some(first) = first {
        expect_eq(
            &mut p,
            &format!("{what} counts vs first pass"),
            &run.counts,
            first,
        );
    }
    p
}

fn phase(
    tr: &Tracer,
    rows: &mut [Row],
    sources: &[String],
    checker: &Checker,
    seconds: f64,
) -> Phase {
    let mut out = Phase {
        pass_s: vec![Vec::new(); rows.len()],
        run_s: vec![Vec::new(); rows.len()],
        last: vec![Vec::new(); rows.len()],
        all: vec![Vec::new(); rows.len()],
    };
    let mut pass = 0u64;
    for_seconds(seconds, || {
        tr.timed("bench.pass", pass, || {
            let mut single: Vec<CircuitRun> = Vec::new();
            for (step, &b) in ORDER.iter().enumerate() {
                let row = &mut rows[b];
                let mut runs = Vec::new();
                for (i, src) in sources.iter().enumerate() {
                    let req = pass * 100 + (step * 10 + i) as u64;
                    let what = format!("dist_n20 {} circuit {i}", row.name);
                    let (run, _) = tr.timed("bench.circuit", req, || {
                        run_circuit(tr, &mut row.sim, src, req, SHOTS)
                    });
                    let problems = match (&run, row.fabric, single.get(i)) {
                        (Err(e), _, _) => vec![e.clone()],
                        (Ok(run), None, s) => {
                            let mut p = Vec::new();
                            expect_unit_norm(&mut p, &what, run.norm_sqr);
                            // Later single-device runs in a pass repeat
                            // the first.
                            if let Some(s) = s {
                                expect_eq(
                                    &mut p,
                                    &format!("{what} state checksum"),
                                    &run.checksum,
                                    &s.checksum,
                                );
                                expect_eq(&mut p, &format!("{what} cbits"), &run.cbits, &s.cbits);
                                expect_eq(
                                    &mut p,
                                    &format!("{what} samples"),
                                    &run.samples,
                                    &s.samples,
                                );
                            }
                            p
                        }
                        (Ok(run), Some(fabric), Some(s)) => {
                            check_row(&what, run, s, fabric, &row.predicted[i], row.first.get(i))
                        }
                        (Ok(_), Some(_), None) => {
                            vec![format!("{what}: no single-device run to compare with")]
                        }
                    };
                    checker.record(&what, &problems);
                    if let Ok(run) = run {
                        if row.first.len() <= i {
                            row.first.push(run.counts);
                        }
                        runs.push(run);
                    }
                }
                out.pass_s[b].push(runs.iter().map(CircuitRun::total_s).sum());
                out.run_s[b].push(runs.iter().map(|r| r.run_s).sum());
                if b == 0 && single.is_empty() {
                    single.clone_from(&runs);
                }
                out.all[b].extend(runs.iter().cloned());
                out.last[b] = runs;
            }
        });
        pass += 1;
    });
    out
}

fn put_rows(r: &mut Report, rows: &[Row], ph: &Phase) {
    for (b, row) in rows.iter().enumerate() {
        r.put(
            format!("exec.run_s.{}", row.name),
            median(&ph.run_s[b]),
            "s",
        );
        r.put(
            format!("exec.gbps_computed.{}", row.name),
            gbps_computed(&ph.all[b]),
            "GB/s",
        );
        if row.fabric.is_some() {
            let total = ph.last[b].iter().fold(Counts::default(), |a, c| Counts {
                remote_ops: a.remote_ops + c.counts.remote_ops,
                remote_bytes: a.remote_bytes + c.counts.remote_bytes,
                local_ops: a.local_ops + c.counts.local_ops,
                barriers: a.barriers + c.counts.barriers,
                atomics: a.atomics + c.counts.atomics,
            });
            let n = row.name;
            r.put(
                format!("shmem.{n}.remote_ops"),
                total.remote_ops as f64,
                "count",
            );
            r.put(
                format!("shmem.{n}.remote_bytes"),
                total.remote_bytes as f64,
                "B",
            );
            r.put(
                format!("shmem.{n}.local_ops"),
                total.local_ops as f64,
                "count",
            );
            r.put(
                format!("shmem.{n}.barriers"),
                total.barriers as f64,
                "count",
            );
            r.put(format!("shmem.{n}.atomics"), total.atomics as f64, "count");
        }
    }
}

/// Run the workload.
///
/// # Errors
/// A set-up step the program refused.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let ((sources, mut rows), setup_s) = repeated_setup(|| {
        let sources = circuits(opts.seed);
        let parsed = sources
            .iter()
            .map(|s| svsim_qasm::parse_circuit(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = backends(opts.seed)
            .into_iter()
            .map(|(name, config, fabric)| {
                let mut sim = Simulator::new(N, config).map_err(|e| e.to_string())?;
                sim.reset();
                let predicted = parsed.iter().map(|c| sim.predict_traffic(c)).collect();
                Ok(Row {
                    name,
                    fabric,
                    sim,
                    predicted,
                    first: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((sources, rows))
    })?;
    let r = &mut outcome.report;
    r.put("setup_s", setup_s, "s");

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = phase(
        &Tracer::new(false),
        &mut rows,
        &sources,
        &outcome.checker,
        seconds,
    );
    let row_s: Vec<f64> = plain.pass_s.iter().map(|v| median(v)).collect();
    for (row, samples) in rows.iter().zip(&plain.pass_s) {
        println!("timing {}_pass_s {}", row.name, describe(samples));
    }
    let gates: usize = plain.last[0].iter().map(|c| c.gates).sum();
    r.put("circuit_s", row_s[0], "s");
    r.put("scaleup2_s", row_s[1], "s");
    r.put("scaleout2_s", row_s[2], "s");
    r.put("scaleout2_proc_s", row_s[3], "s");
    // The circuits once on every backend. The distributed rows dominate
    // it, so it is steadier from run to run than the single device's
    // in-cache row, which jumps between a fast and a slow mode on a
    // shared host.
    let pass_s: f64 = row_s.iter().sum();
    r.put("pass_s", pass_s, "s");
    r.put("latency_p50_s", pass_s, "s");
    r.put(
        "gate_amp_rate",
        (rows.len() * gates) as f64 * (1u64 << N) as f64 / pass_s / 1e9,
        "Gamp/s",
    );
    r.put("peak_rss_mb", crate::host::peak_rss_mb(), "MB");

    if opts.trace {
        let tr = Tracer::new(true);
        let traced = phase(&tr, &mut rows, &sources, &outcome.checker, seconds);
        put_rows(r, &rows, &traced);
        put_call_medians(r, &traced.all[0]);
        put_host_probe(r);
        outcome.spans = tr.spans();
        let traced_pass_s = traced.pass_s.iter().map(|v| median(v)).sum();
        put_trace(r, &outcome.spans, "pass_s", pass_s, traced_pass_s);
    }
    Ok(outcome)
}
