//! Host facts the benchmark reports beside the program's numbers.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set (VmHWM) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the last-level (L3) cache of CPU 0 in bytes, if the kernel
/// reports it.
#[must_use]
pub fn l3_bytes() -> Option<u64> {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let raw = raw.trim();
    let (digits, scale) = match raw.chars().last()? {
        'K' => (&raw[..raw.len() - 1], 1 << 10),
        'M' => (&raw[..raw.len() - 1], 1 << 20),
        'G' => (&raw[..raw.len() - 1], 1 << 30),
        _ => (raw, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

/// Single-thread in-place read+write bandwidth in GB/s (1e9 bytes/s):
/// `arrays` arrays of `len` f64 each are swept `reps` times after a
/// first-touch sweep, and the median sweep is reported. Each sweep reads
/// and writes every element, moving `2 * 8 * len * arrays` bytes.
#[must_use]
pub fn stream_gbps(len: usize, arrays: usize, reps: usize) -> f64 {
    let mut data: Vec<Vec<f64>> = (0..arrays).map(|_| vec![1.0; len]).collect();
    let mut times = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t0 = Instant::now();
        for a in &mut data {
            for x in a.iter_mut() {
                *x = *x * 0.999_999 + 1e-9;
            }
            black_box(a.as_mut_slice());
        }
        if rep > 0 {
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    let bytes = (2 * 8 * len * arrays) as f64;
    bytes / crate::stats::median(&times) / 1e9
}
