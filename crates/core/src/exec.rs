//! Circuit executors: single-device, scale-up, and scale-out.
//!
//! All three run one step walker over the same step stream with the same
//! kernels; they differ only in the memory fabric ([`crate::view`]) and the
//! synchronization between gates — none for a single device (worker 0 of
//! 1, in place on the state vector), a shared-memory barrier across device
//! threads for scale-up (the cooperative multi-grid sync of Listing 4), and
//! `shmem_barrier_all` across PEs for scale-out (Listing 5).

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::{resolve, KernelFn};
use crate::kernels::worker_range;
use crate::measure;
use crate::plan::{build_segment, remap_pes, PlanSegment};
use crate::sim::{BackendKind, SimConfig};
use crate::state::StateVector;
use crate::view::{LocalView, PeerView, ShmemView, StateView};
use std::sync::Arc;
use svsim_ir::{Gate, GateKind, Op};
use svsim_shmem::{
    FaultPlan, MetricsTable, ProcOptions, RaceDetector, RaceReport, SenseBarrier, SharedF64Vec,
    ShmemBackend, TrafficSnapshot,
};
use svsim_types::{SvError, SvResult, SvRng};

/// How gates are bound to kernels at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchMode {
    /// Resolve kernel function pointers once at upload (the paper's CUDA
    /// device-function-pointer design, Listing 1).
    #[default]
    PreloadedFnPointer,
    /// Parse and branch per gate at every execution (the HIP/MI100
    /// fallback, §3.2.1).
    RuntimeParse,
}

/// One executable step derived from a circuit op. Compiled kernels live in
/// one flat contiguous queue (the paper's device-resident circuit buffer);
/// steps reference ranges of it.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Unitary gate (raw form kept for the runtime-parse mode).
    Gate {
        raw: Gate,
        compiled: std::ops::Range<usize>,
    },
    /// Projective measurement using pre-drawn random `r_idx`.
    Measure { qubit: u32, cbit: u32, r_idx: usize },
    /// Reset using pre-drawn random `r_idx`.
    Reset { qubit: u32, r_idx: usize },
    /// Conditioned gate.
    IfEq {
        creg_lo: u32,
        creg_len: u32,
        value: u64,
        raw: Gate,
        compiled: std::ops::Range<usize>,
    },
    /// A fused run of adjacent gates ([`crate::fuse`]): `compiled` is one
    /// window-sweep kernel; `raws` keeps every constituent gate so the
    /// runtime-parse mode can replay them gate-by-gate (bit-identical —
    /// windows are disjoint, so per-window replay commutes with the
    /// global order).
    Fused {
        raws: Vec<Gate>,
        compiled: std::ops::Range<usize>,
    },
}

/// Lower an op slice (a whole circuit or one checkpoint segment of it)
/// into steps plus the flat compiled-kernel queue; returns the number of
/// random draws measurement/reset will consume.
pub(crate) fn build_steps(
    ops: &[Op],
    n_qubits: u32,
    specialized: bool,
) -> (Vec<Step>, Vec<CompiledGate>, usize) {
    let mut steps = Vec::with_capacity(ops.len());
    let mut queue: Vec<CompiledGate> = Vec::new();
    let mut n_rand = 0usize;
    for op in ops {
        match op {
            Op::Gate(g) => {
                let start = queue.len();
                compile_gate(g, n_qubits, specialized, &mut queue);
                steps.push(Step::Gate {
                    raw: *g,
                    compiled: start..queue.len(),
                });
            }
            Op::Measure { qubit, cbit } => {
                steps.push(Step::Measure {
                    qubit: *qubit,
                    cbit: *cbit,
                    r_idx: n_rand,
                });
                n_rand += 1;
            }
            Op::Reset { qubit } => {
                steps.push(Step::Reset {
                    qubit: *qubit,
                    r_idx: n_rand,
                });
                n_rand += 1;
            }
            Op::Barrier(_) => {} // scheduling hint only
            Op::IfEq {
                creg_lo,
                creg_len,
                value,
                gate,
            } => {
                let start = queue.len();
                compile_gate(gate, n_qubits, specialized, &mut queue);
                steps.push(Step::IfEq {
                    creg_lo: *creg_lo,
                    creg_len: *creg_len,
                    value: *value,
                    raw: *gate,
                    compiled: start..queue.len(),
                });
            }
        }
    }
    (steps, queue, n_rand)
}

#[inline]
fn cond_holds(cbits: u64, lo: u32, len: u32, value: u64) -> bool {
    let mask = if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    ((cbits >> lo) & mask) == value
}

/// What one backend dispatch hands back: classical bits, per-PE traffic
/// snapshots, dynamic race reports, relabeling-exchange count, and
/// in-place respawn count.
pub(crate) type LaunchOutput = (u64, Vec<TrafficSnapshot>, Vec<RaceReport>, usize, usize);

/// Validate a worker count for a given register width.
fn check_workers(n_workers: usize, n_qubits: u32, what: &str) -> SvResult<()> {
    if n_workers == 0 || !n_workers.is_power_of_two() {
        return Err(SvError::InvalidConfig(format!(
            "{what} count {n_workers} must be a nonzero power of two"
        )));
    }
    if (n_workers as u64) > (1u64 << n_qubits) {
        return Err(SvError::InvalidConfig(format!(
            "{what} count {n_workers} exceeds the state dimension"
        )));
    }
    Ok(())
}

/// One launch of a lowered segment: everything the workers of any backend
/// share, built once per dispatch by [`launch`].
struct Launch<'a> {
    seg: &'a PlanSegment,
    /// Measurement/reset randoms, pre-drawn so every worker sees the same
    /// stream.
    randoms: Vec<f64>,
    n_qubits: u32,
    n_workers: usize,
    specialized: bool,
    dispatch: DispatchMode,
    initial_cbits: u64,
}

/// Run `ops` on the backend `cfg` selects. `initial_cbits` carries the
/// classical register across checkpoint segments (0 for a whole-circuit
/// run); `seg` supplies a precompiled lowering of `ops` (from a
/// [`crate::CompiledPlan`]), `None` lowers on the fly; `faults` is the
/// scale-out fault plan.
pub(crate) fn launch(
    state: &mut StateVector,
    ops: &[Op],
    cfg: &SimConfig,
    faults: Option<Arc<FaultPlan>>,
    rng: &mut SvRng,
    initial_cbits: u64,
    seg: Option<&PlanSegment>,
) -> SvResult<LaunchOutput> {
    let n = state.n_qubits();
    let (n_workers, what) = match cfg.backend {
        BackendKind::SingleDevice => (1, "device"),
        BackendKind::ScaleUp { n_devices } => (n_devices, "device"),
        BackendKind::ScaleOut { n_pes } => (n_pes, "PE"),
    };
    check_workers(n_workers, n, what)?;
    let owned;
    let seg = match seg {
        Some(s) => s,
        None => {
            owned = build_segment(
                ops,
                0,
                ops.len(),
                n,
                cfg.specialized,
                remap_pes(cfg),
                cfg.fuse,
            );
            &owned
        }
    };
    let l = Launch {
        seg,
        randoms: (0..seg.n_rand).map(|_| rng.next_f64()).collect(),
        n_qubits: n,
        n_workers,
        specialized: cfg.specialized,
        dispatch: cfg.dispatch,
        initial_cbits,
    };
    match cfg.backend {
        BackendKind::SingleDevice => {
            // Worker 0 of 1, in place on the state vector: no partition
            // copy, a no-op sync and an identity reduce.
            let (re, im) = state.parts_mut();
            let view = LocalView::new(re, im);
            let cbits = l.walk(&view, &view, 0, &no_exchange, &|| {}, &|_, p| p)?;
            Ok((cbits, Vec::new(), Vec::new(), 0, 0))
        }
        BackendKind::ScaleUp { .. } => {
            let (cbits, traffic) = run_scaleup(state, &l)?;
            Ok((cbits, traffic, Vec::new(), 0, 0))
        }
        BackendKind::ScaleOut { .. } => run_scaleout(state, &l, cfg, faults),
    }
}

fn no_exchange(_: u32, _: u32) {
    unreachable!("relabeling exchanges run on the scale-out path only")
}

/// Per-partition measurement partial plus the reduce slot and physical
/// qubit for the collapse. `mine` is the worker's own partition, whose
/// first global index is `my_base`. Under a block-preserving snapshot
/// layout (`lay`) the partition holds the logical subcube whose top value
/// indexes the reduce slot, and the partial walks it in logical order so
/// the probability tree is the single-device logical tree bit-for-bit;
/// without a snapshot the layout is identity and the slot is the worker
/// rank.
fn measure_partial<M: StateView>(
    lay: Option<&crate::remap::QubitLayout>,
    mine: &M,
    my_base: u64,
    worker: u64,
    n_workers: u64,
    n_qubits: u32,
    qubit: u32,
) -> (f64, usize, u32) {
    match lay {
        Some(lay) => {
            let boundary = n_qubits - n_workers.trailing_zeros();
            let mut slot = 0usize;
            for j in 0..(n_qubits - boundary) {
                slot |= (((worker >> (lay.phys(boundary + j) - boundary)) & 1) as usize) << j;
            }
            let logical_base = (slot as u64) << boundary;
            let low_pos: Vec<u32> = (0..boundary).map(|k| lay.phys(k)).collect();
            let partial = measure::partial_prob_one_mapped(mine, logical_base, &low_pos, qubit);
            (partial, slot, lay.phys(qubit))
        }
        None => (
            measure::partial_prob_one(mine, my_base, qubit),
            worker as usize,
            qubit,
        ),
    }
}

impl Launch<'_> {
    /// The step walker every backend runs, as worker `worker` of
    /// `n_workers`. `view` reaches the whole state through the backend's
    /// memory fabric; `mine` is this worker's own partition, which the
    /// diagonal measurement and collapse read and write directly (on the
    /// single device both are the same [`LocalView`]). `sync` is called
    /// between dependent kernels; `reduce` turns a local probability
    /// contribution (deposited at a caller-chosen scratch slot) into the
    /// global one.
    ///
    /// A remapped segment lists the relabeling slab exchanges to run
    /// *before* each step, realized collectively through `exchange`.
    /// Relabeling is unconditional even for conditional steps — it is pure
    /// data movement, and all workers must reach the exchange barriers
    /// together. Its block-preserving layout snapshot at each
    /// Measure/Reset makes that step's `qubit` LOGICAL; collapse targets
    /// its physical position.
    fn walk<V: StateView, M: StateView>(
        &self,
        view: &V,
        mine: &M,
        worker: usize,
        exchange: &dyn Fn(u32, u32),
        sync: &dyn Fn(),
        reduce: &dyn Fn(usize, f64) -> f64,
    ) -> SvResult<u64> {
        let (n, n_workers, worker) = (self.n_qubits, self.n_workers as u64, worker as u64);
        let (steps, queue) = (&self.seg.steps, &self.seg.queue);
        let (pre_swaps, layouts) = self.seg.remap.as_ref().map_or((&[][..], &[][..]), |p| {
            (&p.pre_swaps[..], &p.measure_layouts[..])
        });
        let my_base = worker * mine.dim();
        let run = |f: KernelFn<V>, cg: &CompiledGate| {
            f(
                view,
                &cg.args,
                worker_range(cg.args.work, n_workers, worker),
            );
            sync();
        };
        let collapse = |si: usize, qubit: u32, r_idx: usize| -> SvResult<(u8, u32)> {
            let lay = layouts.get(si).and_then(Option::as_ref);
            let (partial, slot, phys_q) =
                measure_partial(lay, mine, my_base, worker, n_workers, n, qubit);
            let p1 = reduce(slot, partial);
            let outcome = u8::from(self.randoms[r_idx] < p1);
            let p = if outcome == 1 { p1 } else { 1.0 - p1 };
            if p < 1e-300 {
                return Err(SvError::Numeric(format!(
                    "collapse of qubit {qubit} with probability ~0"
                )));
            }
            measure::collapse_partition(mine, my_base, phys_q, outcome, 1.0 / p.sqrt());
            sync();
            Ok((outcome, phys_q))
        };
        // The fn-pointer path binds every kernel pointer once, up front — the
        // analog of preloading the device-function symbols; one flat pointer
        // table parallel to the flat compiled queue, nothing copied per gate.
        let uploaded: Vec<KernelFn<V>> = if self.dispatch == DispatchMode::PreloadedFnPointer {
            queue.iter().map(|c| resolve::<V>(c.id)).collect()
        } else {
            Vec::new()
        };
        let mut scratch: Vec<CompiledGate> = Vec::new();
        let mut cbits = self.initial_cbits;
        for (si, step) in steps.iter().enumerate() {
            for &(a, b) in pre_swaps.get(si).map_or(&[][..], Vec::as_slice) {
                exchange(a, b);
            }
            let (raws, compiled) = match step {
                Step::Gate { raw, compiled } => (std::slice::from_ref(raw), compiled),
                // One fused kernel ⇒ one barrier for the whole run. Safe:
                // windows are disjoint and each worker owns a disjoint
                // window sub-range, so no cross-worker dataflow exists
                // inside the sweep (same argument as any two-qubit kernel).
                Step::Fused { raws, compiled } => (raws.as_slice(), compiled),
                Step::IfEq {
                    creg_lo,
                    creg_len,
                    value,
                    raw,
                    compiled,
                } => {
                    // All workers hold identical cbits, so they branch
                    // identically — no divergence across the barrier.
                    if !cond_holds(cbits, *creg_lo, *creg_len, *value) {
                        continue;
                    }
                    (std::slice::from_ref(raw), compiled)
                }
                Step::Measure { qubit, cbit, r_idx } => {
                    let (outcome, _) = collapse(si, *qubit, *r_idx)?;
                    cbits = (cbits & !(1u64 << cbit)) | (u64::from(outcome) << cbit);
                    continue;
                }
                Step::Reset { qubit, r_idx } => {
                    if let (1, phys_q) = collapse(si, *qubit, *r_idx)? {
                        // X restores |0>.
                        scratch.clear();
                        let x = Gate::new(GateKind::X, &[phys_q], &[]).expect("x");
                        compile_gate(&x, n, true, &mut scratch);
                        run(resolve::<V>(scratch[0].id), &scratch[0]);
                    }
                    continue;
                }
            };
            match self.dispatch {
                DispatchMode::PreloadedFnPointer => {
                    for k in compiled.clone() {
                        run(uploaded[k], &queue[k]);
                    }
                }
                // Parse and branch per gate at every execution; a fused run
                // replays its constituents gate-by-gate (bit-identical —
                // windows are disjoint, so per-window replay commutes with
                // the global order).
                DispatchMode::RuntimeParse => {
                    for raw in raws {
                        scratch.clear();
                        compile_gate(raw, n, self.specialized, &mut scratch);
                        for cg in &scratch {
                            run(resolve::<V>(cg.id), cg);
                        }
                    }
                }
            }
        }
        Ok(cbits)
    }
}

/// Scale-up execution: the state vector partitioned across the launch's
/// device partitions in one process, accessed via the peer pointer table
/// (§3.2.2). Returns the classical bits and the peer traffic profile.
fn run_scaleup(state: &mut StateVector, l: &Launch<'_>) -> SvResult<(u64, Vec<TrafficSnapshot>)> {
    let n_dev = l.n_workers;
    let per_dev = state.dim() / n_dev;
    // Partition the state (the host-to-devices transfer).
    let scatter = |amps: &[f64]| -> Vec<SharedF64Vec> {
        amps.chunks(per_dev)
            .map(|c| {
                let part = SharedF64Vec::new(per_dev, 0.0);
                part.store_slice(0, c);
                part
            })
            .collect()
    };
    let re_parts = scatter(state.re());
    let im_parts = scatter(state.im());

    let metrics = MetricsTable::new(n_dev);
    let barrier = SenseBarrier::new(n_dev);
    let coll = SharedF64Vec::new(n_dev, 0.0);

    let mut cbits_out = 0u64;
    let mut err: Option<SvError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_dev)
            .map(|d| {
                let (re_parts, im_parts) = (&re_parts, &im_parts);
                let (metrics, barrier, coll) = (&metrics, &barrier, &coll);
                scope.spawn(move || -> SvResult<u64> {
                    let view = PeerView::new(re_parts, im_parts, d, Some(metrics.pe(d)));
                    let mine = PeerView::new(&re_parts[d..=d], &im_parts[d..=d], 0, None);
                    let token = std::cell::Cell::new(svsim_shmem::BarrierToken::default());
                    let sync = || {
                        let mut t = token.take();
                        barrier.wait(&mut t);
                        token.set(t);
                    };
                    let reduce = |slot: usize, x: f64| {
                        coll.store(slot, x);
                        sync();
                        let partials: Vec<f64> = (0..n_dev).map(|p| coll.load(p)).collect();
                        // Pairwise combine: each partial is a subtree node of
                        // the canonical probability tree (see svsim_types::
                        // numeric), so this matches prob_one bit-for-bit.
                        let total = svsim_types::numeric::pairwise_sum(&partials);
                        sync();
                        total
                    };
                    l.walk(&view, &mine, d, &no_exchange, &sync, &reduce)
                })
            })
            .collect();
        for (d, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(cb)) => {
                    if d == 0 {
                        cbits_out = cb;
                    }
                }
                Ok(Err(e)) => err = Some(e),
                Err(_) => err = Some(SvError::Shmem("scale-up worker panicked".into())),
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    // Devices-to-host readback.
    let (re, im) = state.parts_mut();
    for (d, (re, im)) in re
        .chunks_mut(per_dev)
        .zip(im.chunks_mut(per_dev))
        .enumerate()
    {
        re_parts[d].load_slice(0, re);
        im_parts[d].load_slice(0, im);
    }
    Ok((cbits_out, metrics.snapshot_all()))
}

/// Scale-out execution: SPMD over SHMEM PEs, each owning one partition of
/// the symmetric-heap state vector (§3.2.3). An optional [`FaultPlan`] is
/// threaded into the SHMEM world; if any PE dies (injected or real), the
/// whole segment fails with a typed error and `state` is left untouched at
/// its pre-segment contents — exactly what checkpoint/restart needs.
///
/// With `cfg.detect_races` set, the launch runs under a fresh
/// [`RaceDetector`]: every one-sided access is recorded against
/// epoch-scoped shadow state, and any access-protocol violations come back
/// as the third tuple element without failing the run.
///
/// With `cfg.remap` set, the segment was lowered through the
/// communication-avoiding planner ([`crate::remap::plan_remap`]): gates
/// touching partition-index qubit positions are preceded by bulk slab
/// exchanges that relabel those positions below the boundary, so the gates
/// themselves run entirely PE-local. Readback un-permutes the state, so
/// results are indistinguishable from the naive schedule. The fourth tuple
/// element counts the relabeling swaps executed (0 when off).
///
/// `cfg.shmem_backend` chooses the SHMEM substrate: thread-backed PEs
/// (default) or process-backed PEs forked over a shared `memfd` symmetric
/// heap. The same SPMD body runs on both; results are bit-identical. The
/// dynamic race detector records accesses through in-process `Arc` shadow
/// state, so race detection requires the thread backend.
///
/// `cfg.respawn_max` and `cfg.hang_deadline_ms` configure the process
/// backend's supervisor (in-place respawn budget and watchdog deadline);
/// ignored on the thread backend. The fifth tuple element counts in-place
/// respawns the supervisor performed (0 elsewhere). The body closure
/// captures the segment-initial amplitudes, so a respawned (or re-run) PE
/// reproduces its partition bit-identically.
fn run_scaleout(
    state: &mut StateVector,
    l: &Launch<'_>,
    cfg: &SimConfig,
    faults: Option<Arc<FaultPlan>>,
) -> SvResult<LaunchOutput> {
    if cfg.detect_races && cfg.shmem_backend == ShmemBackend::Process {
        return Err(SvError::InvalidConfig(
            "race detection requires the thread backend: the detector's shadow \
             state is in-process and cannot observe forked PEs"
                .into(),
        ));
    }
    let n_pes = l.n_workers;
    let per_pe = state.dim() / n_pes;
    let plan = l.seg.remap.as_ref();
    let n_swaps = plan.map_or(0, |p| p.n_swaps);
    let init_re = state.re().to_vec();
    let init_im = state.im().to_vec();

    let detector = if cfg.detect_races {
        Some(RaceDetector::new(n_pes)?)
    } else {
        None
    };
    let body = |ctx: &svsim_shmem::ShmemCtx<'_>| -> SvResult<(u64, Vec<f64>, Vec<f64>)> {
        let pe = ctx.my_pe();
        let sym_re = ctx.malloc_f64(per_pe)?;
        let sym_im = ctx.malloc_f64(per_pe)?;
        // Exchange staging buffers, only if the plan has relabeling swaps
        // (collective allocation: the plan is identical on every PE).
        let xch = if n_swaps > 0 {
            Some((ctx.malloc_f64(per_pe / 2)?, ctx.malloc_f64(per_pe / 2)?))
        } else {
            None
        };
        // Local initialization of this PE's slice (host scatter).
        let (my_re, my_im) = (sym_re.partition(pe), sym_im.partition(pe));
        my_re.store_slice(0, &init_re[pe * per_pe..(pe + 1) * per_pe]);
        my_im.store_slice(0, &init_im[pe * per_pe..(pe + 1) * per_pe]);
        ctx.try_barrier_all()?;

        let view = ShmemView::new(ctx, &sym_re, &sym_im);
        let mine = PeerView::new(
            std::slice::from_ref(my_re),
            std::slice::from_ref(my_im),
            0,
            None,
        );
        let exchange = |a: u32, b: u32| {
            let (xr, xi) = xch.as_ref().expect("staging buffers allocated");
            view.exchange_pair(a, b, xr, xi);
        };
        let sync = || ctx.barrier_all();
        let reduce = |slot: usize, x: f64| ctx.sum_reduce_f64_at(slot, x);
        let cbits = l.walk(&view, &mine, pe, &exchange, &sync, &reduce)?;
        ctx.try_barrier_all()?;
        Ok((cbits, my_re.to_vec(), my_im.to_vec()))
    };
    let out = match cfg.shmem_backend {
        ShmemBackend::Process => {
            // Symmetric heap: re + im (per_pe each) plus the optional pair
            // of half-partition exchange staging buffers; result slot: the
            // two returned partition vectors plus cbits/tag overhead.
            let opts = ProcOptions {
                respawn_max: cfg.respawn_max,
                hang_deadline_ms: u64::from(cfg.hang_deadline_ms),
                ..ProcOptions::sized_for(3 * per_pe + 64, 2 * per_pe + 64)
            };
            svsim_shmem::launch_process(n_pes, &opts, faults, body)?
        }
        ShmemBackend::Thread => match &detector {
            Some(det) => svsim_shmem::launch_detected(n_pes, faults, Arc::clone(det), body)?,
            None => svsim_shmem::launch_with_faults(n_pes, faults, body)?,
        },
    };

    // A PE death aborts the segment before any readback: the caller's
    // state vector still holds the pre-segment amplitudes. Failures can be
    // outer (the PE panicked / was killed) or inner (the body returned an
    // error, e.g. a fault during a collective allocation); prefer the
    // typed root cause over secondary "peer poisoned the barrier" reports.
    let root = out
        .results
        .iter()
        .filter_map(|r| match r {
            Err(e) | Ok(Err(e)) => Some(e),
            Ok(Ok(_)) => None,
        })
        .min_by_key(|e| match e {
            SvError::PeFailed { .. } | SvError::PeHung { .. } => 0u8,
            SvError::Shmem(msg) if msg.contains("poisoned") => 2,
            SvError::BarrierTimeout { .. } => 2,
            _ => 1,
        });
    if let Some(e) = root {
        return Err(e.clone());
    }
    let n_respawns = out.respawns.len();
    let mut cbits_out = 0u64;
    let (re, im) = state.parts_mut();
    for (pe, r) in out.results.into_iter().enumerate() {
        let (cb, pre, pim) = r
            .expect("failures handled above")
            .expect("failures handled above");
        if pe == 0 {
            cbits_out = cb;
        }
        re[pe * per_pe..(pe + 1) * per_pe].copy_from_slice(&pre);
        im[pe * per_pe..(pe + 1) * per_pe].copy_from_slice(&pim);
    }
    // The remapped run left the state in the final physical layout;
    // restore logical order host-side (no fabric traffic).
    if let Some(p) = plan {
        crate::remap::unpermute_state(&p.final_layout, re, im);
    }
    let races = detector.map_or_else(Vec::new, |d| d.take_reports());
    Ok((cbits_out, out.traffic, races, n_swaps, n_respawns))
}
