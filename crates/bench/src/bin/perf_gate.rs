//! CI perf gate over a `BENCH_ci.json`-style NDJSON report.
//!
//! ```text
//! perf_gate <report.json> [<report.json> …]
//! ```
//!
//! Exits nonzero — listing every violation — unless each report shows
//! `qgemm_int8` no slower than `dense_gemm_f32` at the gated 256³ shape,
//! carries the full delta-kernel sparsity sweep (0/25/50/75/90/95/97 %
//! unchanged rows), and covers every serving scenario in
//! `perf_gate::REQUIRED_SCENARIOS` — including one `serve_scenario_*`
//! row with p50/p95/p99 latency and queue-depth fields per traffic shape
//! in `sqdm_edm::traffic::catalogue`, and one `serve_energy_*` row per
//! shape proving energy-capped admission spends less simulated energy
//! per image than FIFO at bounded p99 inflation. This is what turns the
//! repo's central perf claims from prose into checked invariants: a
//! kernel, serving, or energy regression fails CI instead of silently
//! landing in the bench trajectory.

#![warn(missing_docs)]

use sqdm_bench::perf_gate;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: perf_gate <report.json> [<report.json> …]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let report = match std::fs::read_to_string(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf_gate: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let errs = perf_gate::violations(&report);
        if errs.is_empty() {
            println!("perf_gate: {path}: OK");
        } else {
            failed = true;
            eprintln!("perf_gate: {path}: FAILED");
            for e in &errs {
                eprintln!("  - {e}");
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
