//! The same seed gives byte-identical inputs; another seed changes them.

use svbench::gen::serve_inputs;
use svbench::workloads::{dist_n20, serve_mix, wide_single};

#[test]
fn circuit_workloads_repeat_per_seed_and_change_across_seeds() {
    for circuits in [wide_single::circuits, dist_n20::circuits] {
        let a = circuits(11);
        assert_eq!(a, circuits(11));
        let b = circuits(12);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "a different seed must change every circuit");
        }
    }
}

#[test]
fn serve_stream_repeats_per_seed_and_changes_across_seeds() {
    let a = serve_inputs(&serve_mix::SHAPE, 11);
    assert_eq!(a, serve_inputs(&serve_mix::SHAPE, 11));
    let b = serve_inputs(&serve_mix::SHAPE, 12);
    assert_ne!(a.pool, b.pool);
    assert_ne!(a.unique, b.unique);
    assert_ne!(a.wide, b.wide);
    assert_ne!(a.stream, b.stream);
    assert_ne!(a.sweep, b.sweep);
}

#[test]
fn serve_stream_has_the_documented_mix() {
    use svbench::gen::Shot;
    let shape = serve_mix::SHAPE;
    let s = serve_inputs(&shape, 5);
    let wide = s
        .stream
        .iter()
        .filter(|x| matches!(x, Shot::Wide(_)))
        .count();
    let pool = s
        .stream
        .iter()
        .filter(|x| matches!(x, Shot::Pool(_)))
        .count();
    let unique = s
        .stream
        .iter()
        .filter(|x| matches!(x, Shot::Unique(_)))
        .count();
    assert_eq!(wide, shape.stream / shape.wide_every);
    assert!(pool.abs_diff(unique) <= 1, "pool {pool} vs unique {unique}");
    for w in s.sweep.chunks(shape.sweep_batch) {
        assert!(
            w.iter().all(|p| p.template == w[0].template),
            "one template per batch"
        );
    }
}

#[test]
fn every_generated_circuit_parses() {
    let s = serve_inputs(&serve_mix::SHAPE, 3);
    let sources = dist_n20::circuits(3)
        .into_iter()
        .chain(wide_single::circuits(3))
        .chain(s.pool)
        .chain(s.wide)
        .chain(s.unique.into_iter().take(4));
    for src in sources {
        svsim_qasm::parse_circuit(&src).expect("generated QASM parses");
    }
}
