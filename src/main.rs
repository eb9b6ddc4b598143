//! `sv-sim` — command-line front door to the simulator.
//!
//! ```text
//! sv-sim run <file.qasm> [--backend single|up:N|out:N] [--pe-mode thread|process]
//!                        [--shots N] [--seed S] [--generic] [--runtime-parse]
//!                        [--optimize] [--remap] [--fuse W] [--amplitudes K] [--traffic]
//! sv-sim stats <file.qasm>
//! sv-sim estimate <file.qasm> --platform <name> [--workers N]
//! sv-sim platforms
//! sv-sim serve-bench [--workers N] [--sweeps N] [--one-shots N]
//!                    [--batch N] [--seed S] [--reps N]
//!                    [--stage-capacity N] [--sched fifo|lifo]
//!                    [--limit-memory-mb N] [--assert-min-ratio R]
//! sv-sim fuse-bench [--window W] [--seed S] [--reps N] [--min-gates G]
//!                   [--max-qubits M] [--out FILE] [--assert-min-gates-per-pass R]
//! sv-sim fault-bench [--fault kill-pe|drop-put|poison-barrier|hang-pe|torn-checkpoint|exec]
//!                    [--chaos] [--recovery retry|respawn|degrade] [--hang-ms MS]
//!                    [--pes N] [--pe-mode thread|process] [--every K]
//!                    [--seed S] [--one-shots N] [--sweeps N] [--attempts N]
//! sv-sim analyze <file.qasm>|--suite [--pes N] [--detect]
//!                [--merge-epochs I] [--max-qubits M] [--seed S]
//! sv-sim verify [--max-states N]
//! sv-sim lint [--root DIR] [--deny-warnings]
//! ```

use std::process::ExitCode;
use sv_sim::core::{measure, BackendKind, DispatchMode, SimConfig, Simulator};
use sv_sim::perfmodel::{compile_for_estimate, devices, interconnects, scale_up, single_device};
use sv_sim::qasm::parse_circuit;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sv-sim run <file.qasm> [--backend single|up:N|out:N] \
         [--pe-mode thread|process] [--shots N] \
         [--seed S] [--generic] [--runtime-parse] [--optimize] [--remap] [--fuse W] \
         [--amplitudes K] [--traffic]\n  \
         sv-sim stats <file.qasm>\n  \
         sv-sim estimate <file.qasm> --platform <name> [--workers N]\n  \
         sv-sim platforms\n  \
         sv-sim serve-bench [--workers N] [--sweeps N] [--one-shots N] [--batch N] [--seed S] [--reps N] \
         [--stage-capacity N] [--sched fifo|lifo] [--limit-memory-mb N] [--assert-min-ratio R]\n  \
         sv-sim fuse-bench [--window W] [--seed S] [--reps N] [--min-gates G] [--max-qubits M] \
         [--out FILE] [--assert-min-gates-per-pass R]\n  \
         sv-sim fault-bench [--fault kill-pe|drop-put|poison-barrier|hang-pe|torn-checkpoint|exec] \
         [--chaos] [--recovery retry|respawn|degrade] [--hang-ms MS] [--pes N] \
         [--pe-mode thread|process] [--every K] \
         [--seed S] [--one-shots N] [--sweeps N] [--attempts N]\n  \
         sv-sim analyze <file.qasm>|--suite [--pes N] [--detect] [--remap] [--merge-epochs I] \
         [--max-qubits M] [--seed S]\n  \
         sv-sim remap-bench [--pes N] [--seed S] [--max-qubits M] [--min-gates G] \
         [--out FILE] [--assert-max-ratio R]\n  \
         sv-sim verify [--max-states N]\n  \
         sv-sim lint [--root DIR] [--deny-warnings]"
    );
    ExitCode::from(2)
}

fn platform_by_name(name: &str) -> Option<&'static sv_sim::perfmodel::DeviceSpec> {
    match name.to_ascii_lowercase().as_str() {
        "epyc" | "epyc7742" => Some(&devices::EPYC_7742),
        "p8276" | "intel" => Some(&devices::INTEL_P8276),
        "p8276-avx512" | "intel-avx512" => Some(&devices::INTEL_P8276_AVX512),
        "power9" | "p9" => Some(&devices::POWER9),
        "phi" | "phi7230" => Some(&devices::PHI_7230),
        "phi-avx512" => Some(&devices::PHI_7230_AVX512),
        "v100" => Some(&devices::V100),
        "a100" => Some(&devices::A100),
        "mi100" => Some(&devices::MI100),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "estimate" => cmd_estimate(&args[1..]),
        "serve-bench" => cmd_serve_bench(&args[1..]),
        "fault-bench" => cmd_fault_bench(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "remap-bench" => cmd_remap_bench(&args[1..]),
        "fuse-bench" => cmd_fuse_bench(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "platforms" => {
            println!("modeled platforms (see svsim-perfmodel):");
            for d in [
                &devices::EPYC_7742,
                &devices::INTEL_P8276,
                &devices::INTEL_P8276_AVX512,
                &devices::POWER9,
                &devices::PHI_7230,
                &devices::PHI_7230_AVX512,
                &devices::V100,
                &devices::A100,
                &devices::MI100,
            ] {
                println!(
                    "  {:<22} {:>6.1} GB/s effective, {:>7.0} GF/s, {:.2} us/gate floor",
                    d.name, d.mem_bw_gbps, d.flops_gflops, d.gate_overhead_us
                );
            }
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<sv_sim::ir::Circuit, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path)?;
    Ok(parse_circuit(&src)?)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let backend = match flag_value(args, "--backend") {
        None | Some("single") => BackendKind::SingleDevice,
        Some(spec) => {
            let (kind, count) = spec
                .split_once(':')
                .ok_or("backend must be single, up:N, or out:N")?;
            let n: usize = count.parse()?;
            match kind {
                "up" => BackendKind::ScaleUp { n_devices: n },
                "out" => BackendKind::ScaleOut { n_pes: n },
                other => return Err(format!("unknown backend `{other}`").into()),
            }
        }
    };
    let mut config = SimConfig::single_device();
    config.backend = backend;
    if args.iter().any(|a| a == "--generic") {
        config.specialized = false;
    }
    if args.iter().any(|a| a == "--runtime-parse") {
        config.dispatch = DispatchMode::RuntimeParse;
    }
    if args.iter().any(|a| a == "--remap") {
        if !matches!(backend, BackendKind::ScaleOut { .. }) {
            return Err("--remap applies to the scale-out backend (--backend out:N)".into());
        }
        config.remap = true;
    }
    match flag_value(args, "--pe-mode") {
        None | Some("thread") => {}
        Some("process") => {
            if !matches!(backend, BackendKind::ScaleOut { .. }) {
                return Err("--pe-mode process applies to the scale-out backend \
                            (--backend out:N)"
                    .into());
            }
            config.shmem_backend = sv_sim::core::ShmemBackend::Process;
        }
        Some(other) => return Err(format!("unknown PE mode `{other}` (thread|process)").into()),
    }
    if let Some(seed) = flag_value(args, "--seed") {
        config.seed = seed.parse()?;
    }
    if let Some(window) = flag_value(args, "--fuse") {
        config = config.with_fusion(window.parse()?);
    }
    let shots: usize = flag_value(args, "--shots").map_or(Ok(1024), str::parse)?;

    let circuit = if args.iter().any(|a| a == "--optimize") {
        let (optimized, stats) = sv_sim::ir::optimize(&circuit);
        println!(
            "optimizer: {} -> {} gates ({} cancelled, {} fused, {} dropped)",
            stats.before, stats.after, stats.cancelled, stats.fused, stats.dropped
        );
        optimized
    } else {
        circuit
    };

    let start = std::time::Instant::now();
    let mut sim = Simulator::new(circuit.n_qubits(), config)?;
    let summary = sim.run(&circuit)?;
    let elapsed = start.elapsed();
    println!(
        "ran {} gates on {} qubits in {:.3} ms ({:?})",
        summary.gates,
        circuit.n_qubits(),
        elapsed.as_secs_f64() * 1e3,
        config.backend,
    );
    if config.fuse > 0 {
        let plan = sv_sim::core::CompiledPlan::compile(&circuit, circuit.n_qubits(), &config);
        println!(
            "fusion: window {} collapsed {} kernels into {} amplitude passes ({:.2} gates/pass)",
            plan.fuse_window(),
            plan.n_source_kernels(),
            plan.n_kernels(),
            plan.n_source_kernels() as f64 / plan.n_kernels().max(1) as f64,
        );
    }
    if circuit.n_cbits() > 0 {
        println!(
            "classical register: {:0width$b}",
            summary.cbits,
            width = circuit.n_cbits() as usize
        );
    }
    if args.iter().any(|a| a == "--traffic") {
        let t = summary.total_traffic();
        println!(
            "traffic: {} one-sided ops ({} remote, {} bytes over the fabric), {} barriers",
            t.total_ops(),
            t.remote_ops(),
            t.remote_bytes(),
            t.barriers
        );
        if summary.remap_swaps > 0 {
            println!("remap: {} relabeling slab exchanges", summary.remap_swaps);
        }
    }
    if let Some(k) = flag_value(args, "--amplitudes") {
        let k: usize = k.parse()?;
        let amps = sim.amplitudes();
        let mut indexed: Vec<(usize, f64)> = amps
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.norm_sqr()))
            .collect();
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {k} amplitudes:");
        for (idx, p) in indexed.into_iter().take(k) {
            println!(
                "  |{:0width$b}>  p={:.6}  amp={}",
                idx,
                p,
                amps[idx],
                width = circuit.n_qubits() as usize
            );
        }
    }
    if shots > 0 {
        let samples = sim.sample(shots);
        let hist = measure::histogram(&samples);
        println!("sampled {shots} shots:");
        for (state, count) in hist.iter().take(16) {
            println!(
                "  |{:0width$b}> x{count}",
                state,
                width = circuit.n_qubits() as usize
            );
        }
        if hist.len() > 16 {
            println!("  ... {} more outcomes", hist.len() - 16);
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let s = circuit.stats();
    println!("qubits:     {}", s.qubits);
    println!("cbits:      {}", circuit.n_cbits());
    println!("gates:      {}", s.gates);
    println!("entangling: {}", s.cx);
    println!("measures:   {}", s.measures);
    println!("depth:      {}", s.depth);
    println!(
        "state size: {} bytes",
        sv_sim::types::state_bytes(s.qubits as usize)
    );
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let name = flag_value(args, "--platform").ok_or("missing --platform")?;
    let dev = platform_by_name(name).ok_or_else(|| format!("unknown platform `{name}`"))?;
    let compiled = compile_for_estimate(&circuit);
    let workers: u64 = flag_value(args, "--workers").map_or(Ok(1), str::parse)?;
    let breakdown = if workers <= 1 {
        single_device(dev, &compiled, circuit.n_qubits())
    } else {
        // Pick a plausible fabric for the device family.
        let ic = if dev.cache_mib > 0.0 {
            &interconnects::QPI
        } else {
            &interconnects::NVSWITCH
        };
        scale_up(dev, ic, &compiled, circuit.n_qubits(), workers)
    };
    println!(
        "modeled latency on {} x{workers}: {:.3} ms (compute {:.3} ms, comm {:.3} ms, sync {:.3} ms)",
        dev.name,
        breakdown.total() * 1e3,
        breakdown.compute_s * 1e3,
        breakdown.comm_s * 1e3,
        breakdown.sync_s * 1e3,
    );
    Ok(())
}

/// Parse `--sched fifo|lifo` (FIFO when absent).
fn parse_sched(args: &[String]) -> Result<sv_sim::engine::SchedMode, String> {
    use sv_sim::engine::SchedMode;
    match flag_value(args, "--sched") {
        None | Some("fifo") => Ok(SchedMode::Fifo),
        Some("lifo") => Ok(SchedMode::Lifo),
        Some(other) => Err(format!("unknown --sched {other} (fifo|lifo)")),
    }
}

/// Parse `--limit-memory-mb N` into the engine's allocation mode
/// (unbounded packet count when absent).
fn parse_alloc(args: &[String]) -> Result<sv_sim::engine::AllocMode, Box<dyn std::error::Error>> {
    use sv_sim::engine::AllocMode;
    Ok(match flag_value(args, "--limit-memory-mb") {
        Some(mb) => AllocMode::LimitMemory(mb.parse::<u64>()?.saturating_mul(1024 * 1024)),
        None => AllocMode::default(),
    })
}

/// Submit treating backpressure as flow control: a rejected submission
/// (`QueueFull`, or `MemoryExceeded` under `AllocMode::LimitMemory`) is
/// the engine saying "later", so the bench client parks briefly and
/// resubmits — exactly what a real front-end does with a 429. Any other
/// refusal is a real error, and sustained rejection (~5 s) gives up.
fn submit_flow_controlled(
    engine: &sv_sim::engine::Engine,
    request: &sv_sim::engine::JobRequest,
) -> Result<sv_sim::engine::JobHandle, String> {
    use sv_sim::engine::SubmitError;
    for _ in 0..25_000 {
        match engine.submit(request.clone()) {
            Ok(handle) => return Ok(handle),
            Err(SubmitError::QueueFull | SubmitError::MemoryExceeded { .. }) => {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("engine kept rejecting submissions for ~5s".into())
}

/// Drive the serving engine with a synthetic request mix — Table 4 medium
/// circuits arriving as OpenQASM one-shots plus QAOA/QNN parameter sweeps —
/// then replay the identical work naively (fresh simulator, re-synthesized
/// circuit per request) and compare wall-clock. Every job's output must be
/// bit-identical between the two paths (gate counts equal, sweep values
/// equal through `f64::to_bits`); with `--assert-min-ratio R` the
/// engine/naive throughput ratio becomes a hard floor.
fn cmd_serve_bench(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::sync::Arc;
    use std::time::Instant;
    use sv_sim::engine::{
        Engine, EngineConfig, JobOutput, JobRequest, JobSpec, Priority, SweepReturn,
    };
    use sv_sim::types::SvRng;
    use sv_sim::vqa::{qaoa_params, qaoa_template, qnn_params, qnn_template};
    use sv_sim::workloads::qaoa::Graph;
    use sv_sim::workloads::qnn::qnn_n_weights;

    // Default worker count follows EngineConfig::default() (available
    // parallelism): on a single-CPU host extra workers only add context
    // switching, while on multicore hosts they scale the sweep throughput.
    let default_workers = EngineConfig::default().workers;
    let workers: usize = flag_value(args, "--workers").map_or(Ok(default_workers), str::parse)?;
    let sweeps: usize = flag_value(args, "--sweeps").map_or(Ok(240), str::parse)?;
    let one_shots: usize = flag_value(args, "--one-shots").map_or(Ok(12), str::parse)?;
    let max_batch: usize = flag_value(args, "--batch").map_or(Ok(16), str::parse)?;
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(0x5EBE), str::parse)?;
    let reps: usize = flag_value(args, "--reps").map_or(Ok(3), str::parse)?.max(1);
    let stage_capacity: usize = flag_value(args, "--stage-capacity").map_or(Ok(0), str::parse)?;
    let sched = parse_sched(args)?;
    let alloc = parse_alloc(args)?;
    let assert_min_ratio: Option<f64> = flag_value(args, "--assert-min-ratio")
        .map(str::parse)
        .transpose()?;

    // --- Synthetic mix ----------------------------------------------------
    // One-shots cross the service boundary as OpenQASM text; parsing is
    // client work and happens identically on both paths. The circuits are
    // wide-and-shallow state-prep / sampling requests — the one-shot shape
    // a service actually sees in volume, and the one where the `2^n`
    // allocation is a large share of the job (so instance pooling matters).
    use sv_sim::workloads::{algos::cat_state, states::w_state};
    let qasm_sources = [
        sv_sim::qasm::to_qasm(&cat_state(16)?)?,
        sv_sim::qasm::to_qasm(&w_state(16)?)?,
        sv_sim::qasm::to_qasm(&cat_state(17)?)?,
        sv_sim::qasm::to_qasm(&w_state(17)?)?,
    ];

    let graph = Graph::random(8, 0.4, seed);
    let qaoa = qaoa_template(&graph, 2)?;
    let qnn = qnn_template(7, 2)?;
    let n_weights = qnn_n_weights(7, 2);
    // Each sweep family: its template and the Z mask its jobs read out.
    let families = [(&qaoa, (1u64 << 8) - 1), (&qnn, 1u64 << 7)];

    let mut rng = SvRng::seed_from_u64(seed);
    let qaoa_points: Vec<Vec<f64>> = (0..sweeps.div_ceil(2))
        .map(|_| {
            let gammas = [rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)];
            let betas = [rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)];
            qaoa_params(&gammas, &betas)
        })
        .collect();
    let qnn_points: Vec<Vec<f64>> = (0..sweeps / 2)
        .map(|_| {
            let features: Vec<f64> = (0..7).map(|_| rng.range_f64(0.0, 1.0)).collect();
            let weights: Vec<f64> = (0..n_weights).map(|_| rng.range_f64(-1.5, 1.5)).collect();
            qnn_params(&features, &weights)
        })
        .collect();

    // The request stream in submission order: the one-shots, then the two
    // sweep families interleaved so coalescing has to pick same-template
    // neighbors out of a mixed queue.
    enum Work<'a> {
        OneShot { src: &'a str, seed: u64, high: bool },
        Sweep { family: usize, params: &'a [f64] },
    }
    let mut stream: Vec<Work<'_>> = qasm_sources
        .iter()
        .cycle()
        .take(one_shots)
        .enumerate()
        .map(|(i, src)| Work::OneShot {
            src,
            seed: seed ^ i as u64,
            high: i % 4 == 0,
        })
        .collect();
    for i in 0..qaoa_points.len().max(qnn_points.len()) {
        for (family, points) in [&qaoa_points, &qnn_points].into_iter().enumerate() {
            if let Some(params) = points.get(i) {
                stream.push(Work::Sweep { family, params });
            }
        }
    }

    println!(
        "serve-bench: {} one-shots + {} sweep points ({} QAOA, {} QNN), {} workers, batch {}, best of {} reps",
        one_shots,
        qaoa_points.len() + qnn_points.len(),
        qaoa_points.len(),
        qnn_points.len(),
        workers,
        max_batch,
        reps,
    );

    // Each path yields one word per job, in stream order: a one-shot's gate
    // count, or the bit pattern of a sweep's expectation value.

    // --- Engine-served path -----------------------------------------------
    // The engine persists across repetitions, as a real service would: the
    // templates stay registered and the instance pool stays warm. Each rep
    // replays the identical request stream; report the best rep (the OS
    // scheduler adds multi-ms run-to-run noise).
    let engine = Engine::start(
        EngineConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_stage_capacity(stage_capacity)
            .with_sched(sched)
            .with_alloc(alloc),
    );
    let ids = [
        engine.register_template("qaoa_maxcut_n8", &qaoa)?,
        engine.register_template("qnn_grid_n8", &qnn)?,
    ];

    let mut engine_elapsed = std::time::Duration::MAX;
    let mut engine_outputs = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(stream.len());
        for work in &stream {
            let request = match *work {
                Work::OneShot { src, seed, high } => JobRequest::new(JobSpec::OneShot {
                    circuit: Arc::new(parse_circuit(src)?),
                    config: SimConfig::single_device().with_seed(seed),
                    shots: 0,
                    return_state: false,
                })
                .with_priority(if high {
                    Priority::High
                } else {
                    Priority::Normal
                }),
                Work::Sweep { family, params } => JobRequest::new(JobSpec::Sweep {
                    template: ids[family],
                    params: params.to_vec(),
                    returning: SweepReturn::ExpZ(families[family].1),
                })
                .with_priority(Priority::Low),
            };
            handles.push(submit_flow_controlled(&engine, &request)?);
        }
        // Wait newest-first: one blocking wait covers most of the backlog and
        // the remaining results are already published when reached.
        let mut outputs = vec![0u64; handles.len()];
        for (out, h) in outputs.iter_mut().zip(&handles).rev() {
            *out = match h.wait().map_err(|e| e.to_string())? {
                JobOutput::Sweep { value, .. } => value.ok_or("sweep returned no value")?.to_bits(),
                JobOutput::OneShot { summary, .. } => summary.gates as u64,
            };
        }
        engine_elapsed = engine_elapsed.min(t0.elapsed());
        engine_outputs = outputs;
    }
    let metrics = engine.shutdown();

    // --- Naive sequential path --------------------------------------------
    // The same logical work the way a library client does it: re-parse /
    // re-synthesize every circuit, construct a fresh simulator per request.
    let mut naive_elapsed = std::time::Duration::MAX;
    let mut naive_outputs = Vec::new();
    for _ in 0..reps {
        let t1 = Instant::now();
        let mut outputs = Vec::with_capacity(stream.len());
        for work in &stream {
            outputs.push(match *work {
                Work::OneShot { src, seed, .. } => {
                    let circuit = parse_circuit(src)?;
                    let config = SimConfig::single_device().with_seed(seed);
                    let mut sim = Simulator::new(circuit.n_qubits(), config)?;
                    sim.run(&circuit)?.gates as u64
                }
                Work::Sweep { family, params } => {
                    let (template, mask) = families[family];
                    let circuit = template.bind(params)?;
                    let mut sim = Simulator::new(circuit.n_qubits(), SimConfig::single_device())?;
                    sim.run(&circuit)?;
                    measure::expval_z_mask(sim.state(), mask).to_bits()
                }
            });
        }
        naive_elapsed = naive_elapsed.min(t1.elapsed());
        naive_outputs = outputs;
    }

    // --- Report ------------------------------------------------------------
    let speedup = naive_elapsed.as_secs_f64() / engine_elapsed.as_secs_f64();
    let mismatches = engine_outputs
        .iter()
        .zip(&naive_outputs)
        .filter(|(e, n)| e != n)
        .count();
    println!();
    println!("{metrics}");
    println!();
    println!(
        "engine-served: {:>9.3} ms",
        engine_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "naive serial:  {:>9.3} ms",
        naive_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "outputs: {} of {} jobs bit-identical",
        engine_outputs.len() - mismatches,
        engine_outputs.len()
    );
    println!("speedup: {speedup:.2}x");
    if metrics.races_detected > 0 {
        return Err(format!("{} SHMEM protocol races detected", metrics.races_detected).into());
    }
    if mismatches > 0 || engine_outputs.len() != naive_outputs.len() {
        return Err(format!(
            "{mismatches} of {} job outputs differ between engine and naive",
            engine_outputs.len()
        )
        .into());
    }
    if let Some(min) = assert_min_ratio {
        if speedup < min {
            return Err(
                format!("engine/naive throughput {speedup:.3}x below required {min}x").into(),
            );
        }
    }
    Ok(())
}

/// Run a serve-bench-style mix under a seeded fault schedule and prove
/// recovery: every job killed by an injected fault must be retried (from
/// its last checkpoint where one exists) and finish **bit-identical** to a
/// fault-free reference run. Exits nonzero on any checksum mismatch.
fn cmd_fault_bench(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::sync::Arc;
    use std::time::Duration;
    use sv_sim::core::state_checksum;
    use sv_sim::engine::{
        DegradePolicy, Engine, EngineConfig, JobOutput, JobRequest, JobSpec, RetryPolicy,
        SweepReturn,
    };
    use sv_sim::shmem::{FaultAction, FaultPlan};
    use sv_sim::types::{PeOp, SvRng};
    use sv_sim::vqa::{qaoa_params, qaoa_template};
    use sv_sim::workloads::{algos::cat_state, states::w_state};

    let fault_kind = flag_value(args, "--fault").unwrap_or("kill-pe");
    let pes: usize = flag_value(args, "--pes").map_or(Ok(4), str::parse)?;
    let every: u32 = flag_value(args, "--every").map_or(Ok(2), str::parse)?;
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(0xFA17), str::parse)?;
    let one_shots: usize = flag_value(args, "--one-shots").map_or(Ok(4), str::parse)?;
    let sweeps: usize = flag_value(args, "--sweeps").map_or(Ok(8), str::parse)?;
    let attempts: u32 = flag_value(args, "--attempts").map_or(Ok(4), str::parse)?;
    let process_pes = match flag_value(args, "--pe-mode") {
        None | Some("thread") => false,
        Some("process") => true,
        Some(other) => return Err(format!("unknown PE mode `{other}` (thread|process)").into()),
    };
    let chaos = args.iter().any(|a| a == "--chaos");
    let recovery = flag_value(args, "--recovery").unwrap_or("retry");
    let hang_ms: u32 = flag_value(args, "--hang-ms").map_or(Ok(1500), str::parse)?;
    let degrade = match recovery {
        "retry" => DegradePolicy::None,
        "respawn" => DegradePolicy::Respawn { max_respawns: 2 },
        "degrade" => DegradePolicy::HalvePes {
            failures_per_rung: 1,
            min_pes: 1,
        },
        other => return Err(format!("unknown recovery `{other}` (retry|respawn|degrade)").into()),
    };

    // The fault schedule: `exec` targets the engine worker itself (rank 0,
    // since the bench pins one worker); `torn-checkpoint` targets the
    // host-side persistence points of the job's checkpoint store; the SHMEM
    // kinds target whichever PE reaches a seeded trigger count first inside
    // the scale-out launch, so short circuits still hit the fault.
    let (op, action) = match fault_kind {
        "kill-pe" => (PeOp::Put, FaultAction::Kill),
        "drop-put" => (PeOp::Put, FaultAction::Drop),
        "poison-barrier" => (PeOp::Barrier, FaultAction::Poison),
        "hang-pe" => (PeOp::Put, FaultAction::Hang),
        "torn-checkpoint" => (PeOp::Checkpoint, FaultAction::TornCheckpoint),
        "exec" => (PeOp::Exec, FaultAction::Kill),
        other => return Err(format!("unknown fault kind `{other}`").into()),
    };
    // `--chaos` overrides the fixed kind per one-shot with a seeded pick
    // from the self-healing trio: PE kill, PE hang, torn checkpoint write.
    let job_fault = |i: usize| -> (PeOp, FaultAction) {
        if !chaos {
            return (op, action);
        }
        let mut rng = SvRng::seed_from_u64(
            seed ^ 0x000C_4A05 ^ (i as u64).wrapping_mul(0x517C_C1B7_2722_0A95),
        );
        match (rng.next_f64() * 3.0) as usize {
            0 => (PeOp::Put, FaultAction::Kill),
            1 => (PeOp::Put, FaultAction::Hang),
            _ => (PeOp::Checkpoint, FaultAction::TornCheckpoint),
        }
    };
    let make_plan = |job_seed: u64, op: PeOp, action: FaultAction| -> Arc<FaultPlan> {
        if op == PeOp::Exec {
            return Arc::new(FaultPlan::new().with(0, PeOp::Exec, 1, action));
        }
        let mut rng = SvRng::seed_from_u64(job_seed);
        if op == PeOp::Checkpoint {
            // Tear a mid-run generation so at least one good one precedes
            // it — the recovery path the store's fallback exists for.
            let at = 2 + (rng.next_f64() * 2.0) as u64;
            return Arc::new(FaultPlan::new().with(0, PeOp::Checkpoint, at, action));
        }
        let at = 1 + (rng.next_f64() * 8.0) as u64;
        Arc::new(FaultPlan::new().with(None, op, at, action))
    };
    let retry = RetryPolicy::attempts(attempts.max(2))
        .with_base_backoff(Duration::from_millis(1))
        .with_max_backoff(Duration::from_millis(8))
        .with_jitter_seed(seed);

    // --- The mix ------------------------------------------------------------
    // One-shots arrive as OpenQASM text and execute scale-out with periodic
    // checkpoints; sweeps are QAOA points on a registered template.
    let qasm_sources = [
        sv_sim::qasm::to_qasm(&cat_state(8)?)?,
        sv_sim::qasm::to_qasm(&w_state(8)?)?,
    ];
    let one_shot_jobs: Vec<(sv_sim::ir::Circuit, sv_sim::core::SimConfig)> = (0..one_shots)
        .map(|i| {
            let circuit = parse_circuit(&qasm_sources[i % qasm_sources.len()])?;
            // Thread PEs run under the race detector: recovery must be both
            // bit-identical AND protocol-clean (races_detected fails the
            // bench below). Process PEs cannot host the in-process detector;
            // they instead prove recovery across real fork/SIGKILL deaths.
            let mut config = sv_sim::core::SimConfig::scale_out(pes)
                .with_seed(seed ^ i as u64)
                .with_checkpoint_every(every)
                .with_hang_deadline_ms(hang_ms);
            if process_pes {
                config = config.with_process_backend();
            } else {
                config = config.with_race_detection();
            }
            Ok::<_, Box<dyn std::error::Error>>((circuit, config))
        })
        .collect::<Result<_, _>>()?;

    let graph = sv_sim::workloads::qaoa::Graph::random(8, 0.4, seed);
    let qaoa = qaoa_template(&graph, 2)?;
    let qaoa_mask = (1u64 << 8) - 1;
    let mut rng = SvRng::seed_from_u64(seed ^ 0x0051_eeb5);
    let sweep_points: Vec<Vec<f64>> = (0..sweeps)
        .map(|_| {
            let gammas = [rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)];
            let betas = [rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)];
            qaoa_params(&gammas, &betas)
        })
        .collect();

    // --- Fault-free reference ----------------------------------------------
    let mut ref_checksums = Vec::with_capacity(one_shots);
    for (circuit, config) in &one_shot_jobs {
        let mut sim = Simulator::new(circuit.n_qubits(), *config)?;
        sim.run(circuit)?;
        ref_checksums.push(state_checksum(sim.state()));
    }
    let mut compiled = qaoa.compile()?;
    let ref_values: Vec<f64> = sweep_points
        .iter()
        .map(|p| {
            let state = compiled.run(p)?;
            Ok::<_, Box<dyn std::error::Error>>(measure::expval_z_mask(&state, qaoa_mask))
        })
        .collect::<Result<_, _>>()?;

    // --- Faulted run --------------------------------------------------------
    // Injected PE deaths are panics by design (the launcher converts them
    // into typed per-PE errors); silence their default backtrace spew so
    // the bench output stays readable. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<sv_sim::shmem::PeFailure>()
            .is_none()
        {
            default_hook(info);
        }
    }));
    // One worker: execution order (and the Exec fault's PE rank) is fixed.
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let qaoa_id = engine.register_template("qaoa_maxcut_n8", &qaoa)?;
    let mut plans = Vec::new();

    // Every one-shot persists its checkpoints into a crash-consistent
    // per-job store — the surface torn-write faults tear and lost
    // in-memory checkpoints recover from.
    let ckpt_root = std::env::temp_dir().join(format!("svsim-fault-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let one_shot_handles: Vec<_> = one_shot_jobs
        .iter()
        .enumerate()
        .map(|(i, (circuit, config))| {
            let (job_op, job_action) = job_fault(i);
            let plan = make_plan(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                job_op,
                job_action,
            );
            plans.push(Arc::clone(&plan));
            engine
                .submit(
                    JobRequest::new(JobSpec::OneShot {
                        circuit: Arc::new(circuit.clone()),
                        config: *config,
                        shots: 0,
                        return_state: true,
                    })
                    .with_retry(retry)
                    .with_degrade(degrade)
                    .with_checkpoint_dir(ckpt_root.join(format!("job-{i}")))
                    .with_fault_plan(plan),
                )
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let sweep_handles: Vec<_> = sweep_points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut request = JobRequest::new(JobSpec::Sweep {
                template: qaoa_id,
                params: p.clone(),
                returning: SweepReturn::ExpZ(qaoa_mask),
            })
            .with_retry(retry);
            // SHMEM-level faults have no trigger inside a single-device
            // template sweep; Exec faults target every other sweep point.
            if !chaos && op == PeOp::Exec && i % 2 == 0 {
                let plan = make_plan(seed ^ (i as u64) << 7, op, action);
                plans.push(Arc::clone(&plan));
                request = request.with_fault_plan(plan);
            }
            engine.submit(request).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let mut mismatches = 0usize;
    for (i, h) in one_shot_handles.iter().enumerate() {
        let JobOutput::OneShot { state, .. } = h.wait().map_err(|e| e.to_string())? else {
            unreachable!("one-shot job");
        };
        let got = state_checksum(&state.expect("state requested"));
        if got != ref_checksums[i] {
            eprintln!(
                "one-shot {i}: checksum {got:#018x} != reference {:#018x}",
                ref_checksums[i]
            );
            mismatches += 1;
        }
    }
    for (i, h) in sweep_handles.iter().enumerate() {
        let JobOutput::Sweep { value, .. } = h.wait().map_err(|e| e.to_string())? else {
            unreachable!("sweep job");
        };
        let got = value.expect("ExpZ requested");
        if got.to_bits() != ref_values[i].to_bits() {
            eprintln!("sweep {i}: value {got:?} != reference {:?}", ref_values[i]);
            mismatches += 1;
        }
    }
    let metrics = engine.shutdown();

    let _ = std::fs::remove_dir_all(&ckpt_root);
    let scheduled = plans.len();
    let fired: usize = plans.iter().map(|p| p.len() - p.armed_remaining()).sum();
    println!(
        "fault-bench: fault={} recovery={recovery} pes={pes} pe-mode={} every={every} \
         seed={seed:#x} ({one_shots} one-shots, {sweeps} sweep points)",
        if chaos { "chaos" } else { fault_kind },
        if process_pes { "process" } else { "thread" },
    );
    println!("faults: {fired}/{scheduled} scheduled faults fired");
    println!("{metrics}");
    let total = one_shots + sweeps;
    if metrics.races_detected > 0 {
        return Err(format!(
            "{} SHMEM protocol races detected during recovery",
            metrics.races_detected
        )
        .into());
    }
    if mismatches > 0 {
        return Err(
            format!("{mismatches}/{total} jobs diverged from the fault-free reference").into(),
        );
    }
    println!("OK: all {total} job checksums match the fault-free reference");
    Ok(())
}

/// Static (and optionally dynamic) race analysis of the one-sided SHMEM
/// access protocol. `--suite` analyzes every Table 4 workload instead of a
/// QASM file; `--detect` additionally executes each plan under the runtime
/// race detector and cross-checks the verdicts; `--merge-epochs I`
/// deliberately removes the barrier after epoch `I` to demonstrate conflict
/// detection. Exits nonzero on any conflict, dynamic race, or disagreement.
/// Benchmark naive vs remapped scale-out over the Table 4 suite: per
/// workload, run both paths, verify each is bit-identical to the
/// single-device reference, and emit machine-readable results (predicted
/// remote amplitude ops, measured remote bytes, wall time) as JSON.
/// `--assert-max-ratio R` turns the report into a CI gate: every deep
/// circuit (>= `--min-gates` gates, default 100) whose naive plan moves
/// remote data must see its remapped remote bytes at most `R` times naive.
fn cmd_remap_bench(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::fmt::Write as _;
    use std::time::Instant;

    let pes: usize = flag_value(args, "--pes").map_or(Ok(8), str::parse)?;
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(0xC0FFEE), str::parse)?;
    let max_qubits: u32 = flag_value(args, "--max-qubits").map_or(Ok(u32::MAX), str::parse)?;
    let min_gates: usize = flag_value(args, "--min-gates").map_or(Ok(100), str::parse)?;
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_5.json");
    let assert_ratio: Option<f64> = flag_value(args, "--assert-max-ratio")
        .map(str::parse)
        .transpose()?;

    struct PathResult {
        remote_amp_ops: u64,
        remote_bytes: u64,
        wall_ms: f64,
    }
    struct Row {
        name: String,
        n_qubits: u32,
        gates: usize,
        swaps: usize,
        bit_identical: bool,
        naive: PathResult,
        remapped: PathResult,
    }
    struct PathRun {
        result: PathResult,
        checksum: u64,
        cbits: u64,
        gates: usize,
        swaps: usize,
    }

    let run_path = |circuit: &sv_sim::ir::Circuit,
                    config: SimConfig|
     -> Result<PathRun, Box<dyn std::error::Error>> {
        let mut sim = Simulator::new(circuit.n_qubits(), config)?;
        let predicted = sim.predict_traffic(circuit);
        let t0 = Instant::now();
        let summary = sim.run(circuit)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let total = summary.total_traffic();
        Ok(PathRun {
            result: PathResult {
                remote_amp_ops: predicted.remote_amp_ops,
                remote_bytes: total.remote_get_bytes + total.remote_put_bytes,
                wall_ms,
            },
            checksum: sim.state_checksum(),
            cbits: summary.cbits,
            gates: summary.gates,
            swaps: summary.remap_swaps,
        })
    };

    let mut rows: Vec<Row> = Vec::new();
    for spec in sv_sim::workloads::medium_suite()
        .into_iter()
        .chain(sv_sim::workloads::large_suite())
    {
        let circuit = spec.circuit()?;
        if circuit.n_qubits() > max_qubits {
            continue;
        }
        let mut reference = Simulator::new(
            circuit.n_qubits(),
            SimConfig::single_device().with_seed(seed),
        )?;
        let ref_summary = reference.run(&circuit)?;
        let ref_checksum = reference.state_checksum();

        let base = SimConfig::scale_out(pes).with_seed(seed);
        let nv = run_path(&circuit, base)?;
        let rm = run_path(&circuit, base.with_remap())?;
        let (naive, naive_sum, naive_cbits, gates) = (nv.result, nv.checksum, nv.cbits, nv.gates);
        let (remapped, remap_sum, remap_cbits, swaps) =
            (rm.result, rm.checksum, rm.cbits, rm.swaps);
        let bit_identical = naive_sum == ref_checksum
            && remap_sum == ref_checksum
            && naive_cbits == ref_summary.cbits
            && remap_cbits == ref_summary.cbits;
        let verdict = if bit_identical {
            "ok".to_string()
        } else {
            // Name the failing comparisons so a divergence is actionable.
            let mut parts = Vec::new();
            if naive_sum != ref_checksum {
                parts.push("naive-state");
            }
            if remap_sum != ref_checksum {
                parts.push("remap-state");
            }
            if naive_cbits != ref_summary.cbits {
                parts.push("naive-cbits");
            }
            if remap_cbits != ref_summary.cbits {
                parts.push("remap-cbits");
            }
            format!("DIVERGED [{}]", parts.join(" "))
        };
        println!(
            "{:<16} n={:<2} gates={:<5} swaps={:<4} remote_bytes {:>12} -> {:>10} ({:})  {}",
            spec.name,
            circuit.n_qubits(),
            gates,
            swaps,
            naive.remote_bytes,
            remapped.remote_bytes,
            if naive.remote_bytes > 0 {
                format!(
                    "{:.1}%",
                    100.0 * remapped.remote_bytes as f64 / naive.remote_bytes as f64
                )
            } else {
                "all-local".to_string()
            },
            verdict,
        );
        rows.push(Row {
            name: spec.name.to_string(),
            n_qubits: circuit.n_qubits(),
            gates,
            swaps,
            bit_identical,
            naive,
            remapped,
        });
    }

    let mut json = String::new();
    writeln!(json, "{{")?;
    writeln!(json, "  \"bench\": \"remap\",")?;
    writeln!(json, "  \"pes\": {pes},")?;
    writeln!(json, "  \"seed\": {seed},")?;
    writeln!(json, "  \"min_gates_deep\": {min_gates},")?;
    writeln!(json, "  \"workloads\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"n_qubits\": {}, \"gates\": {}, \"deep\": {}, \
             \"bit_identical\": {}, \"remap_swaps\": {}, \
             \"naive\": {{\"remote_amp_ops\": {}, \"remote_bytes\": {}, \"wall_ms\": {:.3}}}, \
             \"remapped\": {{\"remote_amp_ops\": {}, \"remote_bytes\": {}, \"wall_ms\": {:.3}}}}}{comma}",
            r.name,
            r.n_qubits,
            r.gates,
            r.gates >= min_gates,
            r.bit_identical,
            r.swaps,
            r.naive.remote_amp_ops,
            r.naive.remote_bytes,
            r.naive.wall_ms,
            r.remapped.remote_amp_ops,
            r.remapped.remote_bytes,
            r.remapped.wall_ms,
        )?;
    }
    writeln!(json, "  ]")?;
    writeln!(json, "}}")?;
    std::fs::write(out_path, &json)?;
    println!("wrote {out_path} ({} workloads at {pes} PEs)", rows.len());

    if let Some(diverged) = rows.iter().find(|r| !r.bit_identical) {
        return Err(format!(
            "{} diverged from the single-device reference",
            diverged.name
        )
        .into());
    }
    if let Some(max_ratio) = assert_ratio {
        let mut offenders = Vec::new();
        for r in &rows {
            if r.gates < min_gates || r.naive.remote_bytes == 0 {
                continue;
            }
            let ratio = r.remapped.remote_bytes as f64 / r.naive.remote_bytes as f64;
            if ratio > max_ratio {
                offenders.push(format!("{} ({ratio:.2} > {max_ratio})", r.name));
            }
        }
        if !offenders.is_empty() {
            return Err(format!(
                "remapped remote traffic exceeds {max_ratio}x naive on deep circuits: {}",
                offenders.join(", ")
            )
            .into());
        }
        println!("OK: remapped remote traffic <= {max_ratio}x naive on every deep circuit");
    }
    Ok(())
}

/// `fuse-bench`: gate-fusion efficacy over the deep Table 4 workloads.
///
/// For every suite circuit deep enough to be bandwidth-bound
/// (`--min-gates`), compiles an unfused and a fused plan, reports the
/// collapse in amplitude passes (gates-per-pass) and wall-clock, and
/// checks the fused run bit-identical to the unfused one. With
/// `--assert-min-gates-per-pass R` the mean gates-per-pass over the deep
/// set becomes a hard floor (unfused plans are exactly 1.0 by
/// construction, so R = 2 asserts a >=2x pass collapse).
fn cmd_fuse_bench(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::fmt::Write as _;
    use std::time::Instant;
    use sv_sim::core::CompiledPlan;

    let window: u8 = flag_value(args, "--window").map_or(Ok(3), str::parse)?;
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(0xF05E), str::parse)?;
    let reps: usize = flag_value(args, "--reps").map_or(Ok(3), str::parse)?.max(1);
    let min_gates: usize = flag_value(args, "--min-gates").map_or(Ok(300), str::parse)?;
    let max_qubits: u32 = flag_value(args, "--max-qubits").map_or(Ok(u32::MAX), str::parse)?;
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_10.json");
    let assert_gpp: Option<f64> = flag_value(args, "--assert-min-gates-per-pass")
        .map(str::parse)
        .transpose()?;
    if window == 0 {
        return Err("--window must be 1..=3".into());
    }

    struct Row {
        name: String,
        n_qubits: u32,
        source_kernels: usize,
        passes_unfused: usize,
        passes_fused: usize,
        gates_per_pass: f64,
        wall_unfused_ms: f64,
        wall_fused_ms: f64,
        bit_identical: bool,
    }

    // Best-of-reps wall clock: fusion's win is fewer passes over the
    // state, so the minimum is the least-noisy estimator on shared hosts.
    let timed_run = |circuit: &sv_sim::ir::Circuit,
                     config: SimConfig|
     -> Result<(f64, u64, u64), Box<dyn std::error::Error>> {
        let mut best = f64::MAX;
        let mut checksum = 0u64;
        let mut cbits = 0u64;
        for _ in 0..reps {
            let mut sim = Simulator::new(circuit.n_qubits(), config)?;
            let t0 = Instant::now();
            let summary = sim.run(circuit)?;
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            checksum = sim.state_checksum();
            cbits = summary.cbits;
        }
        Ok((best, checksum, cbits))
    };

    let mut rows: Vec<Row> = Vec::new();
    for spec in sv_sim::workloads::medium_suite()
        .into_iter()
        .chain(sv_sim::workloads::large_suite())
    {
        let circuit = spec.circuit()?;
        if circuit.n_qubits() > max_qubits || circuit.stats().gates < min_gates {
            continue;
        }
        let n = circuit.n_qubits();
        let base = SimConfig::single_device().with_seed(seed);
        let fused_cfg = base.with_fusion(window);
        let unfused_plan = CompiledPlan::compile(&circuit, n, &base);
        let fused_plan = CompiledPlan::compile(&circuit, n, &fused_cfg);
        let (wall_unfused_ms, ref_sum, ref_cbits) = timed_run(&circuit, base)?;
        let (wall_fused_ms, fused_sum, fused_cbits) = timed_run(&circuit, fused_cfg)?;
        let gates_per_pass =
            fused_plan.n_source_kernels() as f64 / fused_plan.n_kernels().max(1) as f64;
        let bit_identical = fused_sum == ref_sum && fused_cbits == ref_cbits;
        println!(
            "{:<16} n={:<2} kernels={:<5} passes {:>5} -> {:<5} ({gates_per_pass:.2} gates/pass)  \
             wall {wall_unfused_ms:>8.3} -> {wall_fused_ms:>8.3} ms  {}",
            spec.name,
            n,
            fused_plan.n_source_kernels(),
            unfused_plan.n_kernels(),
            fused_plan.n_kernels(),
            if bit_identical { "ok" } else { "DIVERGED" },
        );
        rows.push(Row {
            name: spec.name.to_string(),
            n_qubits: n,
            source_kernels: fused_plan.n_source_kernels(),
            passes_unfused: unfused_plan.n_kernels(),
            passes_fused: fused_plan.n_kernels(),
            gates_per_pass,
            wall_unfused_ms,
            wall_fused_ms,
            bit_identical,
        });
    }
    if rows.is_empty() {
        return Err("no workload passed the --min-gates/--max-qubits filters".into());
    }
    let mean_gpp = rows.iter().map(|r| r.gates_per_pass).sum::<f64>() / rows.len() as f64;

    let mut json = String::new();
    writeln!(json, "{{")?;
    writeln!(json, "  \"bench\": \"fuse\",")?;
    writeln!(json, "  \"window\": {window},")?;
    writeln!(json, "  \"seed\": {seed},")?;
    writeln!(json, "  \"reps\": {reps},")?;
    writeln!(json, "  \"min_gates\": {min_gates},")?;
    writeln!(json, "  \"mean_gates_per_pass\": {mean_gpp:.3},")?;
    writeln!(json, "  \"workloads\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"n_qubits\": {}, \"source_kernels\": {}, \
             \"passes_unfused\": {}, \"passes_fused\": {}, \"gates_per_pass\": {:.3}, \
             \"wall_unfused_ms\": {:.3}, \"wall_fused_ms\": {:.3}, \
             \"bit_identical\": {}}}{comma}",
            r.name,
            r.n_qubits,
            r.source_kernels,
            r.passes_unfused,
            r.passes_fused,
            r.gates_per_pass,
            r.wall_unfused_ms,
            r.wall_fused_ms,
            r.bit_identical,
        )?;
    }
    writeln!(json, "  ]")?;
    writeln!(json, "}}")?;
    std::fs::write(out_path, &json)?;
    println!(
        "wrote {out_path} ({} deep workloads, window {window}, mean {mean_gpp:.2} gates/pass)",
        rows.len()
    );

    if let Some(diverged) = rows.iter().find(|r| !r.bit_identical) {
        return Err(format!(
            "{} fused run diverged from the unfused reference",
            diverged.name
        )
        .into());
    }
    if let Some(min_gpp) = assert_gpp {
        if mean_gpp < min_gpp {
            return Err(format!(
                "mean gates-per-pass {mean_gpp:.3} below required minimum {min_gpp}"
            )
            .into());
        }
        println!("OK: mean gates-per-pass {mean_gpp:.2} >= {min_gpp}");
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use sv_sim::analyzer::{
        analyze_circuit, analyze_circuit_remapped, check_plan, cross_validate,
        cross_validate_remapped, CommPlan, Verdict,
    };

    let pes: u64 = flag_value(args, "--pes").map_or(Ok(8), str::parse)?;
    let detect = args.iter().any(|a| a == "--detect");
    let remap = args.iter().any(|a| a == "--remap");
    let fuse: u8 = flag_value(args, "--fuse").map_or(Ok(0), str::parse)?;
    if fuse > 0 && (remap || detect) {
        return Err("--fuse models the fused kernel schedule statically; \
                    combine it with neither --remap nor --detect"
            .into());
    }
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(0xACE5), str::parse)?;
    let merge: Option<usize> = flag_value(args, "--merge-epochs")
        .map(str::parse)
        .transpose()?;
    let max_qubits: u32 = flag_value(args, "--max-qubits").map_or(Ok(u32::MAX), str::parse)?;

    let mut targets: Vec<(String, sv_sim::ir::Circuit)> = Vec::new();
    if args.iter().any(|a| a == "--suite") {
        for spec in sv_sim::workloads::medium_suite()
            .into_iter()
            .chain(sv_sim::workloads::large_suite())
        {
            let c = spec.circuit()?;
            if c.n_qubits() <= max_qubits {
                targets.push((spec.name.to_string(), c));
            }
        }
    } else {
        let path = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("analyze needs <file.qasm> or --suite")?;
        targets.push((path.clone(), load(path)?));
    }

    let mut bad = 0usize;
    for (name, circuit) in &targets {
        let report = if let Some(i) = merge {
            if remap {
                return Err("--merge-epochs and --remap are mutually exclusive".into());
            }
            let mut plan = CommPlan::from_circuit(circuit);
            plan.merge_epochs(i)?;
            check_plan(&plan, pes)?
        } else if remap {
            analyze_circuit_remapped(circuit, pes)?
        } else if fuse > 0 {
            check_plan(&CommPlan::from_circuit_fused(circuit, fuse), pes)?
        } else {
            analyze_circuit(circuit, pes)?
        };
        print!("{name}: {report}");
        if report.verdict() != Verdict::ProvenSafe {
            bad += 1;
        }
        if detect {
            if merge.is_some() {
                return Err("--detect cross-validates the executor's own schedule; \
                            it cannot execute a --merge-epochs plan"
                    .into());
            }
            let cv = if remap {
                cross_validate_remapped(name, circuit, usize::try_from(pes)?, seed)?
            } else {
                cross_validate(name, circuit, usize::try_from(pes)?, seed)?
            };
            println!(
                "  dynamic: {} races at {} PEs, verdicts {}",
                cv.races.len(),
                cv.n_pes,
                if cv.agrees() { "agree" } else { "DISAGREE" }
            );
            for r in &cv.races {
                println!("    {r}");
            }
            if !cv.agrees() || !cv.races.is_empty() {
                bad += 1;
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad}/{} analyses failed the protocol check", targets.len()).into());
    }
    println!(
        "OK: {} plan(s) proven conflict-free at {pes} PEs{}",
        targets.len(),
        if detect {
            ", dynamic detector agrees"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let max_states: usize = flag_value(args, "--max-states").map_or(Ok(2_000_000), str::parse)?;

    println!("exhaustive protocol check (state cap {max_states}):");
    match sv_sim::verify::check_all(max_states) {
        Ok(bounds) => {
            for b in &bounds {
                println!("  {b}");
            }
            println!("OK: {} properties proven exhaustively", bounds.len());
            Ok(())
        }
        Err(violation) => Err(format!("protocol property violated\n{violation}").into()),
    }
}

fn cmd_lint(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let root = flag_value(args, "--root").unwrap_or(".");
    let report = sv_sim::verify::lint::run(std::path::Path::new(root))?;
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "lint: {} files scanned, rules [{}], {} error(s), {} warning(s)",
        report.files_scanned,
        report.rules_run.join(", "),
        report.errors(),
        report.warnings(),
    );
    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        return Err("lint failed".into());
    }
    Ok(())
}
