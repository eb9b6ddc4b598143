//! A deliberately corrupted result is counted as failed.

use svbench::check::{expect_unit_norm, Checker, Fabric};
use svbench::gen::Shot;
use svbench::trace::Tracer;
use svbench::workloads::dist_n20::check_row;
use svbench::workloads::run_circuit;
use svbench::workloads::serve_mix::{check_one_shot, check_sweep, References};
use svsim_core::{state_checksum, SimConfig, Simulator};
use svsim_engine::{JobError, JobOutput};

const BELL_MEASURED: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[6];\n\
    h q[0];\ncx q[0],q[5];\nry(0.3) q[3];\ncx q[3],q[4];\nmeasure q[5] -> c[5];\n";

#[test]
fn distributed_row_checks_catch_each_corruption() {
    let tr = Tracer::new(false);
    let mut single = Simulator::new(6, SimConfig::single_device().with_seed(9)).unwrap();
    let mut out = Simulator::new(6, SimConfig::scale_out(2).with_seed(9)).unwrap();
    let s = run_circuit(&tr, &mut single, BELL_MEASURED, 0, 64).unwrap();
    let d = run_circuit(&tr, &mut out, BELL_MEASURED, 0, 64).unwrap();
    let parsed = svsim_qasm::parse_circuit(BELL_MEASURED).unwrap();
    let predicted = out.predict_traffic(&parsed);
    assert!(check_row("out2", &d, &s, Fabric::Shmem, &predicted, Some(&d.counts)).is_empty());

    let checker = Checker::default();
    let corruptions: [fn(&mut svbench::workloads::CircuitRun); 5] = [
        |r| r.checksum ^= 1,
        |r| r.cbits ^= 1,
        |r| r.samples[0] ^= 1,
        |r| r.counts.remote_ops += 1,
        |r| r.counts.barriers += 1,
    ];
    for corrupt in corruptions {
        let mut bad = d.clone();
        corrupt(&mut bad);
        let first = d.counts;
        let problems = check_row("out2", &bad, &s, Fabric::Shmem, &predicted, Some(&first));
        assert!(!problems.is_empty());
        checker.record("corrupted", &problems);
    }
    checker.record("clean", &[]);
    assert_eq!((checker.attempted(), checker.failed()), (6, 5));
}

#[test]
fn norm_check_allows_1e_10() {
    let mut p = Vec::new();
    expect_unit_norm(&mut p, "ok", 1.0 + 1e-12);
    assert!(p.is_empty());
    expect_unit_norm(&mut p, "bad", 1.0 + 2e-10);
    expect_unit_norm(&mut p, "nan", f64::NAN);
    assert_eq!(p.len(), 2);
}

#[test]
fn serve_checks_catch_corrupted_outputs() {
    let circuit = svsim_qasm::parse_circuit(BELL_MEASURED).unwrap();
    let mut sim = Simulator::new(6, SimConfig::single_device()).unwrap();
    let summary = sim.run(&circuit).unwrap();
    let good = sim.state().clone();
    let mut refs = References {
        pool: vec![state_checksum(&good)],
        ..References::default()
    };
    refs.wide.push([(3u64, 10usize)].into_iter().collect());
    let one_shot = |state, samples| {
        Ok(JobOutput::OneShot {
            summary: summary.clone(),
            state,
            samples,
        })
    };
    assert!(check_one_shot(Shot::Pool(0), &refs, &one_shot(Some(good.clone()), None)).is_empty());

    let mut amps = sim.amplitudes();
    amps[0].re = f64::from_bits(amps[0].re.to_bits() ^ 1);
    sim.set_state(&amps).unwrap();
    let corrupted = sim.state().clone();
    assert!(!check_one_shot(Shot::Pool(0), &refs, &one_shot(Some(corrupted), None)).is_empty());
    assert!(!check_one_shot(Shot::Pool(0), &refs, &one_shot(None, None)).is_empty());
    let err = Err(JobError::Cancelled);
    assert!(!check_one_shot(Shot::Pool(0), &refs, &err).is_empty());

    let hist = |n| Some([(3u64, n)].into_iter().collect());
    assert!(check_one_shot(Shot::Wide(0), &refs, &one_shot(None, hist(10))).is_empty());
    assert!(!check_one_shot(Shot::Wide(0), &refs, &one_shot(None, hist(9))).is_empty());

    let sweep = |v: f64| {
        Ok(JobOutput::Sweep {
            state: None,
            value: Some(v),
        })
    };
    assert!(check_sweep(0, 0.25, &sweep(0.25)).is_empty());
    assert!(!check_sweep(0, 0.25, &sweep(f64::from_bits(0.25f64.to_bits() + 1))).is_empty());
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let end = json[start..].find(']').expect("list end") + start;
        json[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let e2e: Vec<String> = svbench::report::END_TO_END
        .iter()
        .map(|m| m.0.to_string())
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = svbench::report::per_layer()
        .into_iter()
        .map(|m| m.0)
        .collect();
    assert_eq!(names("per_layer"), layers);
    let workloads: Vec<String> = svbench::workloads::NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names("workloads"), workloads);
}
