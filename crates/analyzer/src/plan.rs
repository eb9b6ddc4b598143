//! Communication plans: the barrier-epoch structure of a compiled circuit.
//!
//! The scale-out executor (the step walker in `svsim_core::exec`) interleaves
//! compiled kernels with barriers in a fixed, data-independent order: every
//! compiled kernel is followed by a `sync()`, and measurement/reset collapse
//! is likewise fenced before classical bits update. A [`CommPlan`] is the
//! static image of that schedule — one [`Epoch`] per barrier-to-barrier
//! window, each holding the gate kernels that run inside it.
//!
//! The plan is what the static checker ([`crate::check`]) consumes: it never
//! looks at amplitudes, only at which kernels share an epoch. Because the
//! real executor emits exactly one kernel per epoch, a freshly built plan is
//! conflict-free by construction; [`CommPlan::merge_epochs`] deliberately
//! removes a barrier so tests (and the CLI's `--merge-epochs` flag) can
//! exercise the checker against a mis-scheduled plan.

use svsim_core::compile::{compile_gate, CompiledGate, KernelId};
use svsim_ir::{Circuit, Gate, GateKind, Op};
use svsim_types::{SvError, SvResult};

/// Why an epoch exists — which kind of synchronized step it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// One gate kernel between barriers (or several, after a deliberate
    /// [`CommPlan::merge_epochs`]).
    Kernel,
    /// Measurement/reset collapse: each PE rescales only its own partition,
    /// and the probability reduction is internally synchronized.
    Collapse,
    /// One barrier-fenced stage of a relabeling slab exchange
    /// (`ShmemView::exchange_pair`). Each swap contributes two of these:
    /// the pack stage (each PE reads its own partition and puts into its
    /// unique partner's exchange buffer — one writer per exchange word by
    /// the pairing `partner = pe ^ (1 << (b - shift))`), then the unpack
    /// stage (purely PE-local moves from own exchange buffer into own
    /// partition). Conflict-free by construction in both stages.
    Exchange,
}

/// One gate kernel as scheduled: the compiled kernel plus its provenance in
/// the source circuit.
#[derive(Debug, Clone)]
pub struct PlanGate {
    /// Index of the originating op in [`Circuit::ops`].
    pub source_op: usize,
    /// Which specialized kernel runs.
    pub kernel: KernelId,
    /// Involved qubits, ascending.
    pub qubits: Vec<u32>,
    /// True when execution depends on classical bits (an `IfEq` gate, or
    /// the outcome-dependent X that restores `|0>` after a reset).
    pub conditional: bool,
    /// The compiled argument block (work size, masks, sorted qubits).
    pub cg: CompiledGate,
}

/// One barrier epoch: the plan gates running between two barriers.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// What closes this epoch.
    pub kind: EpochKind,
    /// Indices into [`CommPlan::gates`]; empty for collapse epochs.
    pub gates: Vec<usize>,
}

/// The barrier-epoch schedule of a whole circuit.
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// Circuit width.
    pub n_qubits: u32,
    /// Every scheduled gate kernel, in execution order.
    pub gates: Vec<PlanGate>,
    /// The epochs, in execution order.
    pub epochs: Vec<Epoch>,
}

fn push_gate_epochs(
    gates: &mut Vec<PlanGate>,
    epochs: &mut Vec<Epoch>,
    g: &Gate,
    n_qubits: u32,
    source_op: usize,
    conditional: bool,
) {
    let mut compiled = Vec::new();
    compile_gate(g, n_qubits, true, &mut compiled);
    for cg in compiled {
        let gi = gates.len();
        gates.push(PlanGate {
            source_op,
            kernel: cg.id,
            qubits: cg.args.sorted().to_vec(),
            conditional,
            cg,
        });
        epochs.push(Epoch {
            kind: EpochKind::Kernel,
            gates: vec![gi],
        });
    }
}

impl CommPlan {
    /// Derive the plan the scale-out executor would follow for `c`,
    /// mirroring its step lowering: one epoch per compiled kernel (the
    /// executor syncs after every kernel), one collapse epoch per
    /// measurement or reset, plus the conditional distributed X a reset may
    /// issue. Conditional gates are planned as if they execute — the
    /// conservative choice for safety analysis.
    #[must_use]
    pub fn from_circuit(c: &Circuit) -> Self {
        let n = c.n_qubits();
        let mut gates = Vec::new();
        let mut epochs = Vec::new();
        for (i, op) in c.ops().iter().enumerate() {
            match op {
                Op::Gate(g) => push_gate_epochs(&mut gates, &mut epochs, g, n, i, false),
                Op::IfEq { gate, .. } => {
                    push_gate_epochs(&mut gates, &mut epochs, gate, n, i, true);
                }
                Op::Measure { .. } => epochs.push(Epoch {
                    kind: EpochKind::Collapse,
                    gates: vec![],
                }),
                Op::Reset { qubit } => {
                    epochs.push(Epoch {
                        kind: EpochKind::Collapse,
                        gates: vec![],
                    });
                    let x = Gate::new(GateKind::X, &[*qubit], &[]).expect("X gate is valid");
                    push_gate_epochs(&mut gates, &mut epochs, &x, n, i, true);
                }
                Op::Barrier(_) => {} // scheduling hint; epochs already fence every kernel
            }
        }
        Self {
            n_qubits: n,
            gates,
            epochs,
        }
    }

    /// Derive the plan the scale-out executor would follow for `c` when
    /// the lowering fuses adjacent gates into ≤`window`-qubit dense sweeps
    /// (`SimConfig::with_fusion`). Mirrors the plan lowering's break
    /// rules: runs flush at measurement/reset collapses and at `IfEq`
    /// steps, and the same greedy pass (`svsim_core::fuse_compiled`,
    /// including its traffic-monotone `worth_fusing` cutoff) decides which
    /// runs actually merge — so the checker and the perfmodel see exactly
    /// the kernel stream the executor runs. A fused kernel's epoch claims
    /// the full window (every bit combination over its sorted qubits) via
    /// `kernel_access_patterns`, which keeps the per-epoch disjointness
    /// argument unchanged: one kernel per epoch, injective item bits.
    /// `window == 0` is exactly [`CommPlan::from_circuit`].
    #[must_use]
    pub fn from_circuit_fused(c: &Circuit, window: u8) -> Self {
        if window == 0 {
            return Self::from_circuit(c);
        }
        let n = c.n_qubits();
        let mut gates = Vec::new();
        let mut epochs = Vec::new();
        // Pending unconditional kernel run: the compiled queue plus the
        // source op of each entry, flushed through the fusion pass.
        let mut run: Vec<CompiledGate> = Vec::new();
        let mut run_ops: Vec<usize> = Vec::new();
        fn flush(
            run: &mut Vec<CompiledGate>,
            run_ops: &mut Vec<usize>,
            n: u32,
            window: u8,
            gates: &mut Vec<PlanGate>,
            epochs: &mut Vec<Epoch>,
        ) {
            if run.is_empty() {
                return;
            }
            let (fused, origin) = svsim_core::fuse_compiled(run, n, window);
            for (cg, covers) in fused.into_iter().zip(origin) {
                let gi = gates.len();
                gates.push(PlanGate {
                    source_op: run_ops[covers.start],
                    kernel: cg.id,
                    qubits: cg.args.sorted().to_vec(),
                    conditional: false,
                    cg,
                });
                epochs.push(Epoch {
                    kind: EpochKind::Kernel,
                    gates: vec![gi],
                });
            }
            run.clear();
            run_ops.clear();
        }
        for (i, op) in c.ops().iter().enumerate() {
            match op {
                Op::Gate(g) => {
                    let mut compiled = Vec::new();
                    compile_gate(g, n, true, &mut compiled);
                    for cg in compiled {
                        run.push(cg);
                        run_ops.push(i);
                    }
                }
                Op::IfEq { gate, .. } => {
                    flush(&mut run, &mut run_ops, n, window, &mut gates, &mut epochs);
                    push_gate_epochs(&mut gates, &mut epochs, gate, n, i, true);
                }
                Op::Measure { .. } => {
                    flush(&mut run, &mut run_ops, n, window, &mut gates, &mut epochs);
                    epochs.push(Epoch {
                        kind: EpochKind::Collapse,
                        gates: vec![],
                    });
                }
                Op::Reset { qubit } => {
                    flush(&mut run, &mut run_ops, n, window, &mut gates, &mut epochs);
                    epochs.push(Epoch {
                        kind: EpochKind::Collapse,
                        gates: vec![],
                    });
                    let x = Gate::new(GateKind::X, &[*qubit], &[]).expect("X gate is valid");
                    push_gate_epochs(&mut gates, &mut epochs, &x, n, i, true);
                }
                Op::Barrier(_) => {}
            }
        }
        flush(&mut run, &mut run_ops, n, window, &mut gates, &mut epochs);
        Self {
            n_qubits: n,
            gates,
            epochs,
        }
    }

    /// Derive the plan the *remapped* scale-out executor would follow for
    /// `c` at `n_pes` partitions. The schedule comes from the same planner
    /// the executor and the traffic model use
    /// ([`svsim_core::remap::plan_remap`]) — `CommPlan` stays the single
    /// source of truth for the epoch structure, and the planner stays the
    /// single source of truth for the relabeling policy. Each relabeling
    /// swap contributes two [`EpochKind::Exchange`] epochs (pack, unpack)
    /// mirroring the two barriers of `ShmemView::exchange_pair`; gates are
    /// planned at their *physical* positions, which is exactly what the
    /// executor's kernels index with.
    ///
    /// # Panics
    /// If `n_pes` is not a power of two or exceeds the state dimension
    /// (propagated from the planner).
    #[must_use]
    pub fn from_circuit_remapped(c: &Circuit, n_pes: u64) -> Self {
        let n = c.n_qubits();
        let plan = svsim_core::remap::plan_remap(c.ops(), n, n_pes);
        let mut gates = Vec::new();
        let mut epochs = Vec::new();
        for (i, (op, swaps)) in plan.ops.iter().zip(&plan.pre_swaps).enumerate() {
            for _ in swaps {
                epochs.push(Epoch {
                    kind: EpochKind::Exchange,
                    gates: vec![],
                });
                epochs.push(Epoch {
                    kind: EpochKind::Exchange,
                    gates: vec![],
                });
            }
            match op {
                Op::Gate(g) => push_gate_epochs(&mut gates, &mut epochs, g, n, i, false),
                Op::IfEq { gate, .. } => {
                    push_gate_epochs(&mut gates, &mut epochs, gate, n, i, true);
                }
                Op::Measure { .. } => epochs.push(Epoch {
                    kind: EpochKind::Collapse,
                    gates: vec![],
                }),
                Op::Reset { qubit } => {
                    epochs.push(Epoch {
                        kind: EpochKind::Collapse,
                        gates: vec![],
                    });
                    let x = Gate::new(GateKind::X, &[*qubit], &[]).expect("X gate is valid");
                    push_gate_epochs(&mut gates, &mut epochs, &x, n, i, true);
                }
                Op::Barrier(_) => unreachable!("the remap planner drops barriers"),
            }
        }
        Self {
            n_qubits: n,
            gates,
            epochs,
        }
    }

    /// Merge epoch `i + 1` into epoch `i`, modelling a schedule that omits
    /// the barrier between two kernels. Both epochs must be kernel epochs.
    ///
    /// # Errors
    /// If `i + 1` is out of range or either epoch is a collapse epoch.
    pub fn merge_epochs(&mut self, i: usize) -> SvResult<()> {
        if i + 1 >= self.epochs.len() {
            return Err(SvError::InvalidConfig(format!(
                "cannot merge epochs {i} and {}: plan has {} epochs",
                i + 1,
                self.epochs.len()
            )));
        }
        if self.epochs[i].kind != EpochKind::Kernel || self.epochs[i + 1].kind != EpochKind::Kernel
        {
            return Err(SvError::InvalidConfig(format!(
                "cannot merge epochs {i} and {}: only kernel epochs can merge",
                i + 1
            )));
        }
        let moved = self.epochs.remove(i + 1);
        self.epochs[i].gates.extend(moved.gates);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_epoch_per_compiled_kernel() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        let plan = CommPlan::from_circuit(&c);
        assert_eq!(plan.gates.len(), 3);
        assert_eq!(plan.epochs.len(), 3);
        assert!(plan
            .epochs
            .iter()
            .all(|e| e.kind == EpochKind::Kernel && e.gates.len() == 1));
    }

    #[test]
    fn compound_gates_expand_to_their_own_epochs() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::RCCX, &[0, 1, 2], &[]).unwrap();
        let plan = CommPlan::from_circuit(&c);
        assert!(plan.epochs.len() > 5, "RCCX lowers to a kernel sequence");
        assert!(plan.gates.iter().all(|g| g.source_op == 0));
    }

    #[test]
    fn measure_and_reset_produce_collapse_epochs() {
        let mut c = Circuit::with_cbits(2, 1);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c.reset(1).unwrap();
        let plan = CommPlan::from_circuit(&c);
        let kinds: Vec<EpochKind> = plan.epochs.iter().map(|e| e.kind).collect();
        // H kernel, measure collapse, reset collapse, conditional X kernel.
        assert_eq!(
            kinds,
            vec![
                EpochKind::Kernel,
                EpochKind::Collapse,
                EpochKind::Collapse,
                EpochKind::Kernel
            ]
        );
        assert!(plan.gates[1].conditional, "reset X is outcome-dependent");
    }

    #[test]
    fn remapped_plans_mirror_the_executor_schedule() {
        // n=4 at 4 PEs: boundary = 2, so H(3) triggers one relabeling swap
        // = two Exchange epochs before its kernel epoch, and the kernel is
        // planned at the swapped-in LOW physical position.
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let plan = CommPlan::from_circuit_remapped(&c, 4);
        let kinds: Vec<EpochKind> = plan.epochs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EpochKind::Exchange, EpochKind::Exchange, EpochKind::Kernel]
        );
        assert!(plan.gates[0].qubits[0] < 2, "gate localized below boundary");
    }

    #[test]
    fn remapped_exchange_epochs_cannot_merge() {
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let mut plan = CommPlan::from_circuit_remapped(&c, 4);
        assert!(plan.merge_epochs(0).is_err(), "exchange epochs never merge");
    }

    #[test]
    fn remapped_plan_at_one_pe_is_the_plain_plan() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[2], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 2], &[]).unwrap();
        let plain = CommPlan::from_circuit(&c);
        let remapped = CommPlan::from_circuit_remapped(&c, 1);
        assert_eq!(remapped.epochs.len(), plain.epochs.len());
        assert!(remapped.epochs.iter().all(|e| e.kind == EpochKind::Kernel));
    }

    #[test]
    fn fused_plans_collapse_epochs_and_stay_proven_safe() {
        // A deep rotation ladder on 3 qubits: every gate shares the same
        // ≤3-qubit window, so the fused plan collapses the whole run into
        // a handful of dense sweeps — and every epoch must still prove
        // conflict-free (one kernel per epoch, injective item bits).
        let mut c = Circuit::new(4);
        for layer in 0..6 {
            for q in 0..3 {
                c.apply(GateKind::H, &[q], &[]).unwrap();
                c.apply(GateKind::RZ, &[q], &[0.1 * f64::from(layer + 1)])
                    .unwrap();
            }
            c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
            c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        }
        let plain = CommPlan::from_circuit(&c);
        let fused = CommPlan::from_circuit_fused(&c, 3);
        assert!(
            fused.epochs.len() < plain.epochs.len() / 2,
            "fusion must collapse the ladder: {} vs {}",
            fused.epochs.len(),
            plain.epochs.len()
        );
        // No source kernel lost or invented by the rewrite.
        let queue: Vec<CompiledGate> = fused.gates.iter().map(|g| g.cg.clone()).collect();
        assert_eq!(svsim_core::source_kernels(&queue), plain.gates.len());
        let report = crate::check::check_plan(&fused, 8).unwrap();
        assert!(report.is_proven_safe(), "fused epochs must prove clean");
    }

    #[test]
    fn fused_runs_break_at_collapse_and_conditional_steps() {
        // The measure collapses the pending run: gates before and after it
        // may fuse among themselves but never across it, and the reset's
        // outcome-dependent X stays an unfused conditional kernel.
        let mut c = Circuit::with_cbits(3, 1);
        for _ in 0..4 {
            c.apply(GateKind::H, &[0], &[]).unwrap();
            c.apply(GateKind::H, &[1], &[]).unwrap();
        }
        c.measure(0, 0).unwrap();
        for _ in 0..4 {
            c.apply(GateKind::H, &[0], &[]).unwrap();
            c.apply(GateKind::H, &[1], &[]).unwrap();
        }
        c.reset(2).unwrap();
        let fused = CommPlan::from_circuit_fused(&c, 2);
        let kinds: Vec<EpochKind> = fused.epochs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EpochKind::Kernel,   // fused pre-measure run
                EpochKind::Collapse, // measure
                EpochKind::Kernel,   // fused post-measure run
                EpochKind::Collapse, // reset
                EpochKind::Kernel,   // conditional X
            ]
        );
        let last = fused.gates.last().unwrap();
        assert!(last.conditional, "reset X is outcome-dependent");
        assert!(last.cg.args.fused.is_empty(), "conditionals never fuse");
    }

    #[test]
    fn fused_plan_at_window_zero_is_the_plain_plan() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        let plain = CommPlan::from_circuit(&c);
        let fused = CommPlan::from_circuit_fused(&c, 0);
        assert_eq!(fused.epochs.len(), plain.epochs.len());
        assert_eq!(fused.gates.len(), plain.gates.len());
    }

    #[test]
    fn merge_validates_its_arguments() {
        let mut c = Circuit::with_cbits(2, 1);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.measure(0, 0).unwrap();
        let mut plan = CommPlan::from_circuit(&c);
        assert!(plan.merge_epochs(5).is_err(), "out of range");
        assert!(plan.merge_epochs(0).is_err(), "kernel + collapse");

        let mut c2 = Circuit::new(2);
        c2.apply(GateKind::H, &[0], &[]).unwrap();
        c2.apply(GateKind::H, &[1], &[]).unwrap();
        let mut plan2 = CommPlan::from_circuit(&c2);
        plan2.merge_epochs(0).unwrap();
        assert_eq!(plan2.epochs.len(), 1);
        assert_eq!(plan2.epochs[0].gates, vec![0, 1]);
    }
}
