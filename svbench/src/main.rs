//! `svbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric as `metric <name> = <value>
//! <unit>`, and ends with one JSON result line. A traced run also writes
//! its spans to `.bench_out/trace-<workload>-<seed>.json`. Exit code 0 when
//! every check passed, 1 when one failed, 2 on bad usage or set-up.

use std::process::ExitCode;
use svbench::workloads::{self, Options};

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let need = |flag: &str| arg(args, flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((
        workload,
        Options {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "usage: svbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\nerror: {e}",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{workload}-{}.json", opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, svbench::trace::to_json(&outcome.spans)));
        match written {
            Ok(()) => println!(
                "trace {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let (attempted, failed) = (outcome.checker.attempted(), outcome.checker.failed());
    outcome.report.print();
    println!(
        "metric failed_frac = {} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        outcome.report.result_line(opts.trace, attempted, failed)
    );
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
