//! Seeded input generators. Every circuit reaches the program as OpenQASM
//! text; the same seed gives byte-identical text and job streams.

use crate::rng::Rng;
use std::fmt::Write;

fn header(n: u32, cbits: u32) -> String {
    let mut s = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    if cbits > 0 {
        let _ = writeln!(s, "creg c[{cbits}];");
    }
    s
}

/// Layered ansatz: each layer rotates every qubit (RY on even layers, RZ on
/// odd ones) and closes with a CX ring. Long single-qubit runs and a
/// regular entangler, so fusion or tiling could merge it.
#[must_use]
pub fn layered_ansatz(n: u32, layers: u32, rng: &mut Rng) -> String {
    let mut s = header(n, 0);
    for layer in 0..layers {
        let rot = if layer % 2 == 0 { "ry" } else { "rz" };
        for q in 0..n {
            let _ = writeln!(s, "{rot}({}) q[{q}];", rng.angle());
        }
        for q in 0..n {
            let _ = writeln!(s, "cx q[{q}],q[{}];", (q + 1) % n);
        }
    }
    s
}

/// Random basic-gate circuit: the seed shuffles a fixed multiset of gate
/// kinds (so every seed does the same kind of work) and picks each gate's
/// qubits at random, so neighbouring gates rarely share qubits and barely
/// fuse.
#[must_use]
pub fn random_basic(n: u32, gates: u32, rng: &mut Rng) -> String {
    const KINDS: usize = 7;
    let mut kinds: Vec<usize> = (0..gates as usize).map(|i| i % KINDS).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut s = header(n, 0);
    for kind in kinds {
        let a = rng.below(u64::from(n)) as u32;
        let b = (a + 1 + rng.below(u64::from(n - 1)) as u32) % n;
        let _ = match kind {
            0 => writeln!(s, "h q[{a}];"),
            1 => writeln!(s, "x q[{a}];"),
            2 => writeln!(s, "s q[{a}];"),
            3 => writeln!(s, "t q[{a}];"),
            4 => writeln!(s, "rz({}) q[{a}];", rng.angle()),
            5 => writeln!(s, "cx q[{a}],q[{b}];"),
            _ => writeln!(s, "cz q[{a}],q[{b}];"),
        };
    }
    s
}

/// Entangled state that ends by measuring every qubit: H and RY on every
/// qubit, a randomly ordered CX chain, then `measure` on each qubit in turn.
#[must_use]
pub fn measured(n: u32, rng: &mut Rng) -> String {
    let mut s = header(n, n);
    for q in 0..n {
        let _ = writeln!(s, "h q[{q}];");
        let _ = writeln!(s, "ry({}) q[{q}];", rng.angle());
    }
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for w in order.windows(2) {
        let _ = writeln!(s, "cx q[{}],q[{}];", w[0], w[1]);
    }
    for q in 0..n {
        let _ = writeln!(s, "measure q[{q}] -> c[{q}];");
    }
    s
}

/// One open-loop request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shot {
    /// Narrow deep circuit from the small fixed pool (plan-cache hits).
    Pool(usize),
    /// Narrow deep circuit seen once per cycle (plan-cache misses).
    Unique(usize),
    /// Wide sampled circuit.
    Wide(usize),
}

/// One closed-loop sweep point: template index and its parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Index into the workload's sweep templates.
    pub template: usize,
    /// Parameter values, in template order.
    pub params: Vec<f64>,
}

/// Everything the serving mix sends, fixed by the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// QASM of the pooled narrow circuits.
    pub pool: Vec<String>,
    /// QASM of the unique narrow circuits.
    pub unique: Vec<String>,
    /// QASM of the wide sampled circuits.
    pub wide: Vec<String>,
    /// Open-loop arrival order (cycled when a run outlasts it).
    pub stream: Vec<Shot>,
    /// Closed-loop sweep points (cycled, batch by batch).
    pub sweep: Vec<SweepPoint>,
}

/// Shape of the serving mix's inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Narrow register width.
    pub small_qubits: u32,
    /// Ansatz layers of each narrow circuit.
    pub small_layers: u32,
    /// Pooled narrow circuits.
    pub pool: usize,
    /// Unique narrow circuits.
    pub unique: usize,
    /// Wide register width.
    pub wide_qubits: u32,
    /// Distinct wide circuits.
    pub wide: usize,
    /// One request in this many is wide.
    pub wide_every: usize,
    /// Open-loop requests before the stream cycles.
    pub stream: usize,
    /// Closed-loop sweep points before the list cycles.
    pub sweep_points: usize,
    /// Points per closed-loop batch; each batch sweeps one template.
    pub sweep_batch: usize,
    /// Parameter count of each sweep template, by template index.
    pub sweep_params: [usize; 2],
}

/// Generate the serving mix's inputs for `seed`.
#[must_use]
pub fn serve_inputs(shape: &ServeShape, seed: u64) -> ServeInputs {
    let mut rng = Rng::new(seed);
    let pool = (0..shape.pool)
        .map(|_| layered_ansatz(shape.small_qubits, shape.small_layers, &mut rng))
        .collect();
    let unique = (0..shape.unique)
        .map(|_| layered_ansatz(shape.small_qubits, shape.small_layers, &mut rng))
        .collect();
    let wide = (0..shape.wide)
        .map(|_| layered_ansatz(shape.wide_qubits, 2, &mut rng))
        .collect();
    let mut next_unique = 0;
    let mut narrow = 0u64;
    let stream = (0..shape.stream)
        .map(|k| {
            if k % shape.wide_every == shape.wide_every - 1 {
                return Shot::Wide(rng.below(shape.wide as u64) as usize);
            }
            narrow += 1;
            if narrow.is_multiple_of(2) {
                Shot::Pool(rng.below(shape.pool as u64) as usize)
            } else {
                next_unique = (next_unique + 1) % shape.unique;
                Shot::Unique(next_unique)
            }
        })
        .collect();
    let sweep = (0..shape.sweep_points)
        .map(|i| {
            let template = (i / shape.sweep_batch) % 2;
            let params = (0..shape.sweep_params[template])
                .map(|_| rng.angle())
                .collect();
            SweepPoint { template, params }
        })
        .collect();
    ServeInputs {
        pool,
        unique,
        wide,
        stream,
        sweep,
    }
}
