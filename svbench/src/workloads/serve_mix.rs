//! `serve_mix`: the default `Engine`, single-device jobs only, under two
//! kinds of load at once.
//!
//! - Open loop: one-shots arrive as QASM text at a fixed rate, about half
//!   the engine's capacity on a 2-core host. Narrow deep n=10 circuits,
//!   half from a small fixed pool (plan-cache hits) and half unique
//!   (misses); one request in sixteen is a wide n=18 circuit sampling 2048
//!   shots. Each request is timed from when it was due, and includes the
//!   client's parse.
//! - Closed loop: one optimizer client submits a batch of sweep points of
//!   one template, waits for all of them, and repeats.
//!
//! Parse, the plan cache, the stage queues, the instance pool, batching and
//! readback do most of the work while the kernels stay in cache, so a
//! kernel change that only pays out of cache shows nothing here and any
//! per-call cost it adds does show. The hit/miss mix exposes a cache change
//! that helps repeats but slows new circuits. Every output is checked
//! against a serial `Simulator` reference computed during set-up.

use super::{
    for_seconds, gbps_computed, put_call_medians, put_host_probe, put_trace, repeated_setup,
    run_circuit, CircuitRun, Options, Outcome,
};
use crate::check::{expect_eq, Checker};
use crate::gen::{serve_inputs, ServeInputs, ServeShape, Shot, SweepPoint};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_core::{measure, state_checksum, ParamCircuit, ParamValue, SimConfig, Simulator};
use svsim_engine::{
    Engine, EngineConfig, JobError, JobHandle, JobOutput, JobRequest, JobSpec, MetricsSnapshot,
    SweepReturn, TemplateId,
};
use svsim_ir::GateKind;

/// Input shape of the mix.
pub const SHAPE: ServeShape = ServeShape {
    small_qubits: 10,
    small_layers: 20,
    pool: 8,
    unique: 256,
    wide_qubits: 18,
    wide: 4,
    wide_every: 16,
    stream: 4096,
    sweep_points: 256,
    sweep_batch: 8,
    sweep_params: [QAOA_PARAMS, QNN_PARAMS],
};

/// Open-loop arrival rate, requests per second.
pub const RATE_PER_S: f64 = 150.0;
/// Seconds of serial reference passes after the serving window; with the
/// set-up's passes they give `circuit_s`.
pub const SERIAL_SECONDS: f64 = 10.0;
/// Shots of each wide request.
pub const WIDE_SHOTS: usize = 2048;

const QAOA_QUBITS: u32 = 10;
const QAOA_LAYERS: usize = 2;
const QAOA_PARAMS: usize = 2 * QAOA_LAYERS;
const QNN_QUBITS: u32 = 8;
const QNN_LAYERS: usize = 2;
const QNN_PARAMS: usize = QNN_QUBITS as usize * QNN_LAYERS;
/// `<Z...Z>` masks the sweep points return, by template.
const SWEEP_MASKS: [u64; 2] = [0b11, 1 << (QNN_QUBITS - 1)];

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// QAOA on a ring: H on every qubit, then per layer RZZ(gamma) on every
/// ring edge and RX(beta) on every qubit.
fn qaoa_template() -> Result<ParamCircuit, String> {
    let mut t = ParamCircuit::new(QAOA_QUBITS);
    for q in 0..QAOA_QUBITS {
        t.push_fixed(GateKind::H, &[q], &[]).map_err(text)?;
    }
    for l in 0..QAOA_LAYERS {
        for q in 0..QAOA_QUBITS {
            let edge = [q, (q + 1) % QAOA_QUBITS];
            t.push(GateKind::RZZ, &edge, &[ParamValue::Var(2 * l)])
                .map_err(text)?;
        }
        for q in 0..QAOA_QUBITS {
            t.push(GateKind::RX, &[q], &[ParamValue::Var(2 * l + 1)])
                .map_err(text)?;
        }
    }
    Ok(t)
}

/// QNN-style ansatz: per layer RY(w) on every qubit and a CX chain.
fn qnn_template() -> Result<ParamCircuit, String> {
    let mut t = ParamCircuit::new(QNN_QUBITS);
    for l in 0..QNN_LAYERS {
        for q in 0..QNN_QUBITS {
            let var = ParamValue::Var(l * QNN_QUBITS as usize + q as usize);
            t.push(GateKind::RY, &[q], &[var]).map_err(text)?;
        }
        for q in 0..QNN_QUBITS - 1 {
            t.push_fixed(GateKind::CX, &[q, q + 1], &[]).map_err(text)?;
        }
    }
    Ok(t)
}

/// Engine seed of a one-shot, fixed per distinct circuit so its reference
/// holds for every repeat.
fn job_seed(seed: u64, shot: Shot) -> u64 {
    let (kind, i) = match shot {
        Shot::Pool(i) => (1, i),
        Shot::Unique(i) => (2, i),
        Shot::Wide(i) => (3, i),
    };
    seed ^ (kind << 60) ^ i as u64
}

/// What a correct engine returns, per distinct request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct References {
    /// State checksums of the pooled narrow circuits.
    pub pool: Vec<u64>,
    /// State checksums of the unique narrow circuits.
    pub unique: Vec<u64>,
    /// Sample histograms of the wide circuits.
    pub wide: Vec<BTreeMap<u64, usize>>,
    /// `<Z...Z>` values of the sweep points.
    pub sweep: Vec<f64>,
    /// Gates of each distinct one-shot, for the work rate: pool, unique,
    /// wide.
    pub gates: [Vec<usize>; 3],
    /// Gates of each sweep template.
    pub template_gates: [usize; 2],
}

impl References {
    fn one_shot_gates(&self, shot: Shot) -> f64 {
        let (g, n) = match shot {
            Shot::Pool(i) => (self.gates[0][i], SHAPE.small_qubits),
            Shot::Unique(i) => (self.gates[1][i], SHAPE.small_qubits),
            Shot::Wide(i) => (self.gates[2][i], SHAPE.wide_qubits),
        };
        g as f64 * (1u64 << n) as f64
    }

    fn sweep_gates(&self, template: usize) -> f64 {
        let n = [QAOA_QUBITS, QNN_QUBITS][template];
        self.template_gates[template] as f64 * (1u64 << n) as f64
    }
}

/// Check one open-loop output against its reference.
#[must_use]
pub fn check_one_shot(
    shot: Shot,
    refs: &References,
    result: &Result<JobOutput, JobError>,
) -> Vec<String> {
    let mut p = Vec::new();
    match (shot, result) {
        (_, Err(e)) => p.push(format!("{shot:?}: {e}")),
        (Shot::Wide(i), Ok(JobOutput::OneShot { samples, .. })) => {
            expect_eq(
                &mut p,
                &format!("{shot:?} samples"),
                samples,
                &Some(refs.wide[i].clone()),
            );
        }
        (Shot::Pool(i) | Shot::Unique(i), Ok(JobOutput::OneShot { state, .. })) => {
            let want = if matches!(shot, Shot::Pool(_)) {
                refs.pool[i]
            } else {
                refs.unique[i]
            };
            let got = state.as_ref().map(state_checksum);
            expect_eq(
                &mut p,
                &format!("{shot:?} state checksum"),
                &got,
                &Some(want),
            );
        }
        (_, Ok(other)) => p.push(format!("{shot:?}: unexpected output {other:?}")),
    }
    p
}

/// Check one sweep output against its reference value.
#[must_use]
pub fn check_sweep(point: usize, want: f64, result: &Result<JobOutput, JobError>) -> Vec<String> {
    let mut p = Vec::new();
    match result {
        Ok(JobOutput::Sweep { value, .. }) => {
            expect_eq(
                &mut p,
                &format!("sweep point {point} value"),
                value,
                &Some(want),
            );
        }
        Ok(other) => p.push(format!("sweep point {point}: unexpected output {other:?}")),
        Err(e) => p.push(format!("sweep point {point}: {e}")),
    }
    p
}

/// Serial reference: every distinct request run once through a
/// `Simulator` (parse, compile, `run_plan`, sample for the wide ones,
/// reset; sweep points are bound from their template instead of parsed).
/// Returns the references, the one-shot runs, and the seconds the
/// simulator calls took.
///
/// # Errors
/// A parse or run error, as text.
pub fn references(
    inputs: &ServeInputs,
    seed: u64,
) -> Result<(References, Vec<CircuitRun>, f64), String> {
    let mut refs = References::default();
    let mut runs = Vec::new();
    let mut secs = 0.0;
    let mut sims: BTreeMap<u32, Simulator> = BTreeMap::new();
    fn sim_for(
        sims: &mut BTreeMap<u32, Simulator>,
        n: u32,
        seed: u64,
    ) -> Result<&mut Simulator, String> {
        let sim = match sims.entry(n) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                e.insert(Simulator::new(n, SimConfig::single_device()).map_err(text)?)
            }
        };
        sim.set_seed(seed);
        Ok(sim)
    }
    let off = Tracer::new(false);
    let kinds = [
        (&inputs.pool, SHAPE.small_qubits, 0usize, 0usize),
        (&inputs.unique, SHAPE.small_qubits, 0, 1),
        (&inputs.wide, SHAPE.wide_qubits, WIDE_SHOTS, 2),
    ];
    for (sources, n, shots, kind) in kinds {
        for (i, q) in sources.iter().enumerate() {
            let shot = [Shot::Pool(i), Shot::Unique(i), Shot::Wide(i)][kind];
            let run = run_circuit(
                &off,
                sim_for(&mut sims, n, job_seed(seed, shot))?,
                q,
                0,
                shots,
            )?;
            secs += run.total_s();
            refs.gates[kind].push(run.gates);
            match shot {
                Shot::Pool(_) => refs.pool.push(run.checksum),
                Shot::Unique(_) => refs.unique.push(run.checksum),
                Shot::Wide(_) => {
                    let mut hist = BTreeMap::new();
                    for &s in &run.samples {
                        *hist.entry(s).or_insert(0) += 1;
                    }
                    refs.wide.push(hist);
                }
            }
            runs.push(CircuitRun {
                samples: Vec::new(),
                ..run
            });
        }
    }
    let templates = [qaoa_template()?, qnn_template()?];
    for (t, tpl) in templates.iter().enumerate() {
        refs.template_gates[t] = tpl
            .bind(&vec![0.0; tpl.n_vars()])
            .map_err(text)?
            .gates()
            .count();
    }
    for SweepPoint { template, params } in &inputs.sweep {
        let t0 = Instant::now();
        let c = templates[*template].bind(params).map_err(text)?;
        let sim = sim_for(&mut sims, c.n_qubits(), seed)?;
        let plan = sim.compile_plan(&c);
        sim.run_plan(&c, &plan).map_err(text)?;
        let value = measure::expval_z_mask(sim.state(), SWEEP_MASKS[*template]);
        sim.reset();
        secs += t0.elapsed().as_secs_f64();
        refs.sweep.push(value);
    }
    Ok((refs, runs, secs))
}

struct Served {
    inputs: ServeInputs,
    refs: References,
    reference_runs: Vec<CircuitRun>,
    reference_s: f64,
    engine: Engine,
    templates: [TemplateId; 2],
}

/// Narrow requests return their state; wide ones return samples.
fn one_shot_request(seed: u64, shot: Shot, circuit: svsim_ir::Circuit) -> JobRequest {
    let config = SimConfig::single_device().with_seed(job_seed(seed, shot));
    JobRequest::new(JobSpec::OneShot {
        circuit: Arc::new(circuit),
        config,
        shots: if matches!(shot, Shot::Wide(_)) {
            WIDE_SHOTS
        } else {
            0
        },
        return_state: !matches!(shot, Shot::Wide(_)),
    })
}

fn sweep_request(templates: &[TemplateId; 2], point: &SweepPoint) -> JobRequest {
    JobRequest::new(JobSpec::Sweep {
        template: templates[point.template],
        params: point.params.clone(),
        returning: SweepReturn::ExpZ(SWEEP_MASKS[point.template]),
    })
}

fn qasm_of(inputs: &ServeInputs, shot: Shot) -> &str {
    match shot {
        Shot::Pool(i) => &inputs.pool[i],
        Shot::Unique(i) => &inputs.unique[i],
        Shot::Wide(i) => &inputs.wide[i],
    }
}

fn setup(seed: u64, checker: &Checker) -> Result<Served, String> {
    let inputs = serve_inputs(&SHAPE, seed);
    let (refs, reference_runs, reference_s) = references(&inputs, seed)?;
    let engine = Engine::start(EngineConfig::default());
    let templates = [
        engine
            .register_template("qaoa_ring", &qaoa_template()?)
            .map_err(text)?,
        engine
            .register_template("qnn_chain", &qnn_template()?)
            .map_err(text)?,
    ];
    // Untimed warm-up: every pooled and wide circuit once, and one batch
    // of each template.
    let shots: Vec<Shot> = (0..SHAPE.pool)
        .map(Shot::Pool)
        .chain((0..SHAPE.wide).map(Shot::Wide))
        .collect();
    let mut handles = Vec::new();
    for &shot in &shots {
        let c = svsim_qasm::parse_circuit(qasm_of(&inputs, shot)).map_err(text)?;
        let h = engine
            .submit(one_shot_request(seed, shot, c))
            .map_err(text)?;
        handles.push(h);
    }
    for (&shot, h) in shots.iter().zip(&handles) {
        checker.record("serve_mix warm-up", &check_one_shot(shot, &refs, &h.wait()));
    }
    let points = 2 * SHAPE.sweep_batch;
    let handles = (0..points)
        .map(|i| {
            engine
                .submit(sweep_request(&templates, &inputs.sweep[i]))
                .map_err(text)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, h) in handles.iter().enumerate() {
        checker.record(
            "serve_mix warm-up",
            &check_sweep(i, refs.sweep[i], &h.wait()),
        );
    }
    Ok(Served {
        inputs,
        refs,
        reference_runs,
        reference_s,
        engine,
        templates,
    })
}

struct Pending {
    k: usize,
    shot: Shot,
    due: Instant,
    handle: JobHandle,
}

#[derive(Default)]
struct Load {
    small_ms: Vec<f64>,
    wide_ms: Vec<f64>,
    late_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    submit_us: Vec<f64>,
    sweep_points: usize,
    sweep_s: f64,
    work: f64,
    end: Option<Instant>,
}

/// Wait on the oldest narrow request (narrow ones finish in arrival order
/// far more often than wide ones) for at most 1 ms or until `until`, then
/// collect every finished request.
fn collect(
    tr: &Tracer,
    pending: &mut VecDeque<Pending>,
    until: Instant,
    served: &Served,
    checker: &Checker,
    load: &mut Load,
) {
    let now = Instant::now();
    let slice = until
        .saturating_duration_since(now)
        .min(Duration::from_millis(1));
    let oldest = pending
        .iter()
        .position(|p| !matches!(p.shot, Shot::Wide(_)))
        .or((!pending.is_empty()).then_some(0));
    let Some(oldest) = oldest else {
        std::thread::sleep(slice);
        return;
    };
    let p = &pending[oldest];
    let (first, _) = tr.timed("engine.wait", p.k as u64, || p.handle.wait_timeout(slice));
    let mut done = Vec::new();
    if let Some(r) = first {
        done.push((pending.remove(oldest).expect("index in range"), r));
    }
    let mut i = 0;
    while i < pending.len() {
        if let Some(r) = pending[i].handle.try_take() {
            done.push((pending.remove(i).expect("index in range"), r));
        } else {
            i += 1;
        }
    }
    let now = Instant::now();
    for (p, r) in done {
        let ms = now.duration_since(p.due).as_secs_f64() * 1e3;
        let problems = check_one_shot(p.shot, &served.refs, &r);
        if problems.is_empty() {
            load.work += served.refs.one_shot_gates(p.shot);
            load.end = Some(now);
        }
        checker.record("serve_mix one-shot", &problems);
        match p.shot {
            Shot::Wide(_) => load.wide_ms.push(ms),
            _ => load.small_ms.push(ms),
        }
    }
}

fn open_loop(
    tr: &Tracer,
    served: &Served,
    seed: u64,
    seconds: f64,
    offset: usize,
    checker: &Checker,
) -> Load {
    let mut load = Load::default();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let mut pending = VecDeque::new();
    for k in 0.. {
        let due = start + interval * k as u32;
        if due >= start + window {
            break;
        }
        while Instant::now() < due {
            collect(tr, &mut pending, due, served, checker, &mut load);
        }
        let shot = served.inputs.stream[(offset + k) % served.inputs.stream.len()];
        load.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        tr.timed("bench.request", k as u64, || {
            let (c, parse_s) = tr.timed("qasm.parse", k as u64, || {
                svsim_qasm::parse_circuit(qasm_of(&served.inputs, shot))
            });
            load.parse_ms.push(parse_s * 1e3);
            let c = match c {
                Ok(c) => c,
                Err(e) => {
                    checker.record("serve_mix one-shot", &[format!("parse: {e}")]);
                    return;
                }
            };
            let request = one_shot_request(seed, shot, c);
            let (h, us) = tr.timed("engine.submit", k as u64, || served.engine.submit(request));
            load.submit_us.push(us * 1e6);
            match h {
                Ok(handle) => pending.push_back(Pending {
                    k,
                    shot,
                    due,
                    handle,
                }),
                Err(e) => checker.record("serve_mix one-shot", &[format!("submit refused: {e}")]),
            }
        });
    }
    let far = Instant::now() + Duration::from_secs(3600);
    while !pending.is_empty() {
        collect(tr, &mut pending, far, served, checker, &mut load);
    }
    let secs = load
        .end
        .map_or(seconds, |e| e.duration_since(start).as_secs_f64());
    load.work /= secs;
    load
}

fn closed_loop(
    tr: &Tracer,
    served: &Served,
    seconds: f64,
    offset: usize,
    checker: &Checker,
) -> Load {
    let mut load = Load::default();
    let start = Instant::now();
    let n = served.inputs.sweep.len();
    let mut next = offset;
    let mut batch_no = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let ids: Vec<usize> = (0..SHAPE.sweep_batch).map(|j| (next + j) % n).collect();
        next += SHAPE.sweep_batch;
        tr.timed("bench.batch", batch_no, || {
            let mut handles = Vec::with_capacity(ids.len());
            for &i in &ids {
                let req = sweep_request(&served.templates, &served.inputs.sweep[i]);
                let (h, us) = tr.timed("engine.submit", batch_no, || served.engine.submit(req));
                load.submit_us.push(us * 1e6);
                match h {
                    Ok(h) => handles.push((i, h)),
                    Err(e) => checker.record("serve_mix sweep", &[format!("submit refused: {e}")]),
                }
            }
            for (i, h) in handles {
                let (r, _) = tr.timed("engine.wait", batch_no, || h.wait());
                let problems = check_sweep(i, served.refs.sweep[i], &r);
                if problems.is_empty() {
                    load.sweep_points += 1;
                    load.work += served.refs.sweep_gates(served.inputs.sweep[i].template);
                }
                checker.record("serve_mix sweep", &problems);
            }
        });
        batch_no += 1;
    }
    load.sweep_s = start.elapsed().as_secs_f64();
    load.work /= load.sweep_s;
    load
}

/// Run both load threads for `seconds`; `offset` shifts where the
/// cycled streams start, so a second phase sends fresh requests.
fn phase(
    tr: &Tracer,
    served: &Served,
    seed: u64,
    seconds: f64,
    offset: usize,
    checker: &Checker,
) -> Load {
    std::thread::scope(|s| {
        let open = s.spawn(|| open_loop(tr, served, seed, seconds, offset, checker));
        let closed = s.spawn(|| closed_loop(tr, served, seconds, offset, checker));
        let mut open = open.join().expect("open-loop client panicked");
        let closed = closed.join().expect("closed-loop client panicked");
        open.submit_us.extend(closed.submit_us);
        open.sweep_points = closed.sweep_points;
        open.sweep_s = closed.sweep_s;
        open.work += closed.work;
        open
    })
}

fn put_load(r: &mut Report, load: &Load) {
    r.put("serve.small_p50_ms", median(&load.small_ms), "ms");
    r.put("serve.small_p99_ms", quantile(&load.small_ms, 0.99), "ms");
    r.put("serve.wide_p50_ms", median(&load.wide_ms), "ms");
    r.put(
        "serve.sweep_points_per_s",
        load.sweep_points as f64 / load.sweep_s,
        "1/s",
    );
    r.put("serve.small_requests", load.small_ms.len() as f64, "count");
    r.put("serve.wide_requests", load.wide_ms.len() as f64, "count");
    r.put("client.late_ms", quantile(&load.late_ms, 0.99), "ms");
    r.put("client.late_max_ms", quantile(&load.late_ms, 1.0), "ms");
    println!(
        "timing serve.small_ms {}",
        crate::stats::describe(&load.small_ms)
    );
    println!(
        "timing serve.wide_ms {}",
        crate::stats::describe(&load.wide_ms)
    );
    println!(
        "timing engine.submit_us {}",
        crate::stats::describe(&load.submit_us)
    );
}

fn put_engine(r: &mut Report, before: &MetricsSnapshot, after: &MetricsSnapshot, load: &Load) {
    r.put("engine.submit_us", median(&load.submit_us), "us");
    let us = |v: u64| v as f64;
    r.put(
        "engine.queue_wait_p50_us",
        us(after.queue_wait.quantile_us(0.5)),
        "us",
    );
    r.put(
        "engine.queue_wait_p99_us",
        us(after.queue_wait.quantile_us(0.99)),
        "us",
    );
    r.put(
        "engine.execution_p50_us",
        us(after.execution.quantile_us(0.5)),
        "us",
    );
    r.put(
        "engine.execution_p99_us",
        us(after.execution.quantile_us(0.99)),
        "us",
    );
    for (s, b) in after.stages.iter().zip(&before.stages) {
        let name = s.name;
        r.put(
            format!("engine.stage.{name}.high_water"),
            s.high_water as f64,
            "count",
        );
        r.put(
            format!("engine.stage.{name}.blocked"),
            (s.blocked - b.blocked) as f64,
            "count",
        );
        r.put(
            format!("engine.stage.{name}.rejected"),
            (s.rejected - b.rejected) as f64,
            "count",
        );
    }
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let lookups = hits + after.plan_cache_misses - before.plan_cache_misses;
    r.put(
        "engine.plan_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    r.put("engine.plan_cache_lookups", lookups as f64, "count");
    let reused = after.pool_reused - before.pool_reused;
    let checkouts = reused + after.pool_created - before.pool_created;
    r.put(
        "engine.pool_reuse_ratio",
        reused as f64 / checkouts.max(1) as f64,
        "ratio",
    );
    r.put("engine.pool_checkouts", checkouts as f64, "count");
    let batches = after.batches - before.batches;
    let batched = after.batched_jobs - before.batched_jobs;
    r.put(
        "engine.mean_batch",
        batched as f64 / batches.max(1) as f64,
        "jobs",
    );
    r.put(
        "engine.mem_high_water_mb",
        after.mem_high_water_bytes as f64 / 1048576.0,
        "MB",
    );
}

/// Run the workload.
///
/// # Errors
/// A set-up step the program refused.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut reference_s = Vec::new();
    let (served, setup_s) = repeated_setup(|| {
        let s = setup(opts.seed, &outcome.checker)?;
        reference_s.push(s.reference_s);
        Ok(s)
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
        &served,
        opts.seed,
        seconds,
        0,
        &outcome.checker,
    );
    put_load(r, &plain);
    r.put("latency_p50_s", median(&plain.small_ms) / 1e3, "s");
    if !opts.trace {
        r.put("gate_amp_rate", plain.work / 1e9, "Gamp/s");
        // The serial pass again, after the serving window: more samples
        // for `circuit_s`, and the references must repeat.
        for_seconds(SERIAL_SECONDS, || {
            let again = references(&served.inputs, opts.seed);
            let mut problems = Vec::new();
            match again {
                Ok((refs, _, secs)) => {
                    expect_eq(&mut problems, "serial references", &refs, &served.refs);
                    reference_s.push(secs);
                }
                Err(e) => problems.push(e),
            }
            outcome.checker.record("serve_mix serial pass", &problems);
        });
        r.put("circuit_s", median(&reference_s), "s");
        println!("timing circuit_s {}", crate::stats::describe(&reference_s));
        r.put("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    } else {
        let before = served.engine.metrics();
        let tr = Tracer::new(true);
        let offset = SHAPE.stream / 2;
        let traced = phase(&tr, &served, opts.seed, seconds, offset, &outcome.checker);
        let after = served.engine.metrics();
        r.put("client.late_ms", quantile(&traced.late_ms, 0.99), "ms");
        put_engine(r, &before, &after, &traced);
        put_call_medians(r, &served.reference_runs);
        let wide_sample_s: Vec<f64> = served
            .reference_runs
            .iter()
            .filter(|c| c.n_qubits == SHAPE.wide_qubits)
            .map(|c| c.sample_s)
            .collect();
        r.put("measure.sample_ms", median(&wide_sample_s) * 1e3, "ms");
        // Parse cost as the open-loop client paid it.
        r.put("qasm.parse_ms", median(&traced.parse_ms), "ms");
        let run_s: f64 = served.reference_runs.iter().map(|c| c.run_s).sum();
        r.put("exec.run_s.single", run_s, "s");
        r.put(
            "exec.gbps_computed.single",
            gbps_computed(&served.reference_runs),
            "GB/s",
        );
        put_host_probe(r);
        outcome.spans = tr.spans();
        put_trace(
            r,
            &outcome.spans,
            "serve.small_p50_ms",
            median(&plain.small_ms),
            median(&traced.small_ms),
        );
    }
    let end = served.engine.shutdown();
    if end.in_flight() != 0 {
        outcome.checker.record(
            "serve_mix shutdown",
            &[format!("{} jobs still in flight", end.in_flight())],
        );
    }
    Ok(outcome)
}
