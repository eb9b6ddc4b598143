//! Named metrics with units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from untraced runs.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("gate_amp_rate", "Gamp/s"),
];

const BACKENDS: [&str; 4] = ["single", "up2", "out2", "out2proc"];
const FABRICS: [&str; 3] = ["up2", "out2", "out2proc"];
const COUNTS: [&str; 5] = [
    "remote_ops",
    "remote_bytes",
    "local_ops",
    "barriers",
    "atomics",
];
const STAGES: [&str; 3] = ["admit", "execute", "readback"];
const STAGE_STATS: [&str; 3] = ["high_water", "blocked", "rejected"];
/// Layers that carry spans in a traced run.
pub const TRACED_LAYERS: [&str; 6] = ["bench", "qasm", "plan", "exec", "measure", "engine"];

/// Per-layer metrics with their units, reported by every workload in a
/// traced run. A layer a workload does not exercise reports 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("qasm.parse_ms".into(), "ms"),
        ("plan.compile_ms".into(), "ms"),
        ("plan.passes".into(), "count"),
        ("plan.source_kernels".into(), "count"),
        ("plan.gates_per_pass".into(), "ratio"),
    ];
    for b in BACKENDS {
        m.push((format!("exec.run_s.{b}"), "s"));
        m.push((format!("exec.gbps_computed.{b}"), "GB/s"));
    }
    m.push(("exec.roofline_frac".into(), "ratio"));
    m.push(("host.stream_gbps".into(), "GB/s"));
    m.push(("measure.sample_ms".into(), "ms"));
    for f in FABRICS {
        for c in COUNTS {
            m.push((
                format!("shmem.{f}.{c}"),
                if c == "remote_bytes" { "B" } else { "count" },
            ));
        }
    }
    m.push(("engine.submit_us".into(), "us"));
    for h in ["queue_wait", "execution"] {
        for q in ["p50", "p99"] {
            m.push((format!("engine.{h}_{q}_us"), "us"));
        }
    }
    for s in STAGES {
        for k in STAGE_STATS {
            m.push((format!("engine.stage.{s}.{k}"), "count"));
        }
    }
    m.extend([
        ("engine.plan_cache_hit_ratio".into(), "ratio"),
        ("engine.plan_cache_lookups".into(), "count"),
        ("engine.pool_reuse_ratio".into(), "ratio"),
        ("engine.pool_checkouts".into(), "count"),
        ("engine.mean_batch".into(), "jobs"),
        ("engine.mem_high_water_mb".into(), "MB"),
        ("client.late_ms".into(), "ms"),
    ]);
    for l in TRACED_LAYERS {
        m.push((format!("trace.self_s.{l}"), "s"));
    }
    m.push(("trace.spans".into(), "count"));
    m.push(("trace.overhead_frac".into(), "ratio"));
    m
}

/// Metrics collected by one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, (f64, String)>,
}

impl Report {
    /// Set metric `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.values.insert(name.into(), (value, unit.to_string()));
    }

    /// Value of metric `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Print every metric as `metric <name> = <value> <unit>`.
    pub fn print(&self) {
        for (name, (value, unit)) in &self.values {
            println!("metric {name} = {value} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// with the end-to-end metrics when `traced` is false and the per-layer
    /// ones when true.
    ///
    /// # Panics
    /// If an end-to-end metric was not measured, or any value is not finite.
    #[must_use]
    pub fn result_line(&self, traced: bool, attempted: u64, failed: u64) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            metrics.join(", ")
        )
    }
}
