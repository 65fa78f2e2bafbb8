//! # sqdm-bench
//!
//! Benchmark harness support for the SQ-DM reproduction: shared fixtures
//! for the Criterion benches (`benches/`) and the `repro_*` report binaries
//! (`src/bin/`) that regenerate every table and figure of the paper.
//!
//! Run `cargo run --release -p sqdm-bench --bin repro_all` for the complete
//! paper-scale report, or individual `repro_table1` … `repro_fig12`
//! binaries for single artifacts. `cargo bench` measures the kernels and
//! experiment components on small fixed workloads.

#![warn(missing_docs)]

use sqdm_core::{ExperimentScale, TrainedPair};
use sqdm_edm::DatasetKind;
use std::sync::{Mutex, OnceLock};

/// Scale used by the report binaries. Override the training budget with
/// `SQDM_FAST=1` for a fast smoke run.
pub fn report_scale() -> ExperimentScale {
    if std::env::var("SQDM_FAST").is_ok() {
        ExperimentScale::quick()
    } else {
        ExperimentScale::paper()
    }
}

/// Scale used by Criterion benches (small and fixed, so timing noise stays
/// low).
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::quick()
}

/// Deterministic Poisson-process arrival trace for the serving benches:
/// `n` arrival steps with exponential inter-arrival gaps of mean
/// `1.0 / rate` virtual steps, floored onto the scheduler's integer step
/// clock. Seeded, so every bench and CI run replays the identical trace.
pub fn poisson_arrivals(n: usize, rate: f64, seed: u64) -> Vec<usize> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = sqdm_tensor::Rng::seed_from(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential; uniform() is in [0, 1), so the
            // argument of ln stays strictly positive.
            let u = f64::from(rng.uniform());
            t += -(1.0 - u).ln() / rate;
            t.floor() as usize
        })
        .collect()
}

/// Deterministic scattered change mask for the delta-kernel sparsity
/// sweep: exactly `round((1 − unchanged_fraction) · k)` of the `k` rows
/// are marked changed, chosen by a seeded partial Fisher–Yates shuffle so
/// re-runs emit identical masks (and therefore reviewable `BENCH_ci.json`
/// diffs), while the scatter keeps the mask representative of real
/// temporal traces (changed rows spread across scale blocks rather than
/// packed at the front).
pub fn delta_sweep_mask(k: usize, unchanged_fraction: f64, seed: u64) -> Vec<bool> {
    assert!(
        (0.0..=1.0).contains(&unchanged_fraction),
        "unchanged_fraction must be in [0, 1]"
    );
    let changed = ((1.0 - unchanged_fraction) * k as f64).round() as usize;
    let changed = changed.min(k);
    let mut rows: Vec<usize> = (0..k).collect();
    let mut rng = sqdm_tensor::Rng::seed_from(seed);
    let mut mask = vec![false; k];
    for slot in 0..changed {
        let span = k - slot;
        let offset = ((f64::from(rng.uniform()) * span as f64) as usize).min(span - 1);
        rows.swap(slot, slot + offset);
        mask[rows[slot]] = true;
    }
    mask
}

/// Allocation accounting for the zero-allocation steady-state gate.
///
/// With the `alloc-count` feature a counting [`std::alloc::GlobalAlloc`]
/// wraps the system allocator so `repro_bench` can measure how many real
/// allocator calls a steady-state serving round performs (the arena pool
/// is deliberately *not* an allocator wrapper, so pool hits are invisible
/// here — exactly the point of the metric).
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The counting allocator: system allocation plus one relaxed atomic
    /// increment per `alloc`/`realloc` call.
    struct CountingAlloc;

    // SAFETY: delegates every operation unchanged to `System`; the counter
    // has no effect on the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Total allocator calls (`alloc` + `realloc`) since process start.
    /// Monotone; measure an interval by differencing two reads.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// The CI perf gate over `BENCH_ci.json`-style NDJSON reports.
pub mod perf_gate {
    /// The GEMM shape the int8-vs-f32 comparison is gated at.
    pub const GATED_SHAPE: &str = "256x256x256";
    /// The `unchanged_fraction` sweep points the delta speedup curve must
    /// cover (0/25/50/75/90/95/97 % unchanged rows). The last two sit
    /// below the measured sparse/dense crossover (6–10 % changed rows at
    /// 256³), so the sweep shows both sides of it.
    pub const SWEEP_FRACTIONS: [f64; 7] = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.97];
    /// Ceiling on marginal heap allocations per steady-state serving
    /// round. The arena pool absorbs every per-round buffer after warmup;
    /// the small slack covers amortized growth of the stats vectors.
    pub const MAX_ALLOCS_PER_ROUND: f64 = 2.0;
    /// Ceiling on p99 latency inflation the energy-capped policy may pay
    /// for its energy savings, as a multiple of the FIFO baseline's p99
    /// over the same trace.
    pub const ENERGY_P99_INFLATION_LIMIT: f64 = 4.0;
    /// Serving rows every `BENCH_ci.json` report must carry: the
    /// registry, daemon, and steady-state scenarios plus one
    /// `serve_scenario_<name>` row and one `serve_energy_<name>` row per
    /// traffic shape in `sqdm_edm::traffic::catalogue`. This is the
    /// single source both the perf gate and the CI scenario-coverage
    /// diff key on, so the catalogue cannot silently shrink.
    pub const REQUIRED_SCENARIOS: &[&str] = &[
        "serve_multi_tenant",
        "serve_daemon",
        "serve_steady_state",
        "serve_scenario_bursty",
        "serve_scenario_diurnal",
        "serve_scenario_heavy_tailed",
        "serve_scenario_coordinated_spike",
        "serve_scenario_slow_trickle",
        "serve_energy_bursty",
        "serve_energy_diurnal",
        "serve_energy_heavy_tailed",
        "serve_energy_coordinated_spike",
        "serve_energy_slow_trickle",
    ];

    /// One parsed NDJSON benchmark row (only the gated fields).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// `"bench"` field.
        pub bench: String,
        /// `"shape"` field.
        pub shape: String,
        /// `"ns_per_iter"` field, when present.
        pub ns_per_iter: Option<f64>,
        /// `"unchanged_fraction"` field, when present.
        pub unchanged_fraction: Option<f64>,
        /// `"allocs_per_round"` field, when present.
        pub allocs_per_round: Option<f64>,
        /// `"redundant_pack_builds"` field, when present.
        pub redundant_pack_builds: Option<f64>,
        /// `"p50_latency_steps"` field, when present.
        pub p50_latency_steps: Option<f64>,
        /// `"p95_latency_steps"` field, when present.
        pub p95_latency_steps: Option<f64>,
        /// `"p99_latency_steps"` field, when present.
        pub p99_latency_steps: Option<f64>,
        /// `"max_queue_depth"` field, when present.
        pub max_queue_depth: Option<f64>,
        /// `"mean_queue_depth"` field, when present.
        pub mean_queue_depth: Option<f64>,
        /// `"energy_per_image_pj"` field, when present.
        pub energy_per_image_pj: Option<f64>,
        /// `"fifo_energy_per_image_pj"` field, when present.
        pub fifo_energy_per_image_pj: Option<f64>,
        /// `"mean_occupancy"` field, when present.
        pub mean_occupancy: Option<f64>,
        /// `"peak_occupancy"` field, when present.
        pub peak_occupancy: Option<f64>,
        /// `"fifo_p99_latency_steps"` field, when present.
        pub fifo_p99_latency_steps: Option<f64>,
    }

    /// Extracts a `"key": <string>` field from one NDJSON line.
    fn str_field(line: &str, key: &str) -> Option<String> {
        let tag = format!("\"{key}\": \"");
        let start = line.find(&tag)? + tag.len();
        let end = line[start..].find('"')?;
        Some(line[start..start + end].to_string())
    }

    /// Extracts a `"key": <number>` field from one NDJSON line.
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let tag = format!("\"{key}\": ");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Parses the benchmark rows out of an NDJSON report (lines without a
    /// `"bench"` field — and the `meta` line — are skipped).
    pub fn parse_rows(report: &str) -> Vec<Row> {
        report
            .lines()
            .filter_map(|line| {
                let bench = str_field(line, "bench")?;
                if bench == "meta" {
                    return None;
                }
                Some(Row {
                    bench,
                    shape: str_field(line, "shape").unwrap_or_default(),
                    ns_per_iter: num_field(line, "ns_per_iter"),
                    unchanged_fraction: num_field(line, "unchanged_fraction"),
                    allocs_per_round: num_field(line, "allocs_per_round"),
                    redundant_pack_builds: num_field(line, "redundant_pack_builds"),
                    p50_latency_steps: num_field(line, "p50_latency_steps"),
                    p95_latency_steps: num_field(line, "p95_latency_steps"),
                    p99_latency_steps: num_field(line, "p99_latency_steps"),
                    max_queue_depth: num_field(line, "max_queue_depth"),
                    mean_queue_depth: num_field(line, "mean_queue_depth"),
                    energy_per_image_pj: num_field(line, "energy_per_image_pj"),
                    fifo_energy_per_image_pj: num_field(line, "fifo_energy_per_image_pj"),
                    mean_occupancy: num_field(line, "mean_occupancy"),
                    peak_occupancy: num_field(line, "peak_occupancy"),
                    fifo_p99_latency_steps: num_field(line, "fifo_p99_latency_steps"),
                })
            })
            .collect()
    }

    /// Checks the perf gate over a report: the quantized kernel must not
    /// be slower than dense f32 at [`GATED_SHAPE`], and the delta sweep
    /// must cover every fraction in [`SWEEP_FRACTIONS`]. Returns the list
    /// of violations (empty ⇒ gate passes).
    pub fn violations(report: &str) -> Vec<String> {
        let rows = parse_rows(report);
        let mut errs = Vec::new();
        let gemm_at = |name: &str| {
            rows.iter()
                .find(|r| r.bench == name && r.shape == GATED_SHAPE)
                .and_then(|r| r.ns_per_iter)
        };
        match (gemm_at("qgemm_int8"), gemm_at("dense_gemm_f32")) {
            (Some(int8), Some(f32ns)) => {
                if int8 > f32ns {
                    errs.push(format!(
                        "qgemm_int8 ({int8:.1} ns/iter) is slower than dense_gemm_f32 \
                         ({f32ns:.1} ns/iter) at {GATED_SHAPE}: the quantized path must \
                         beat the dense baseline"
                    ));
                }
            }
            (int8, f32ns) => {
                if int8.is_none() {
                    errs.push(format!("missing qgemm_int8 row at {GATED_SHAPE}"));
                }
                if f32ns.is_none() {
                    errs.push(format!("missing dense_gemm_f32 row at {GATED_SHAPE}"));
                }
            }
        }
        for want in SWEEP_FRACTIONS {
            let present = rows.iter().any(|r| {
                r.bench == "qgemm_delta_int8"
                    && r.shape == GATED_SHAPE
                    && r.unchanged_fraction
                        .is_some_and(|f| (f - want).abs() < 1e-9)
            });
            if !present {
                errs.push(format!(
                    "missing qgemm_delta_int8 sweep row at unchanged_fraction={want} \
                     ({GATED_SHAPE})"
                ));
            }
        }
        // Every serving scenario in the shared catalogue must be in the
        // trajectory (registry, daemon, steady-state, and the full
        // traffic-shape suite), so serving regressions show up in the
        // same NDJSON diff as kernel regressions.
        for name in REQUIRED_SCENARIOS {
            if !rows.iter().any(|r| r.bench == *name) {
                errs.push(format!("missing {name} row (required serving scenario)"));
            }
        }
        // Traffic-scenario rows must carry the SLO percentiles and the
        // queue-depth summary: a row that lost its latency fields is a
        // silently broken trajectory even if its timing still exists.
        for row in rows
            .iter()
            .filter(|r| r.bench.starts_with("serve_scenario_"))
        {
            match (
                row.p50_latency_steps,
                row.p95_latency_steps,
                row.p99_latency_steps,
            ) {
                (Some(p50), Some(p95), Some(p99)) => {
                    if !(p50 <= p95 && p95 <= p99) {
                        errs.push(format!(
                            "{} latency percentiles are not monotone \
                             (p50={p50}, p95={p95}, p99={p99})",
                            row.bench
                        ));
                    }
                }
                _ => errs.push(format!(
                    "{} row lacks p50/p95/p99_latency_steps (SLO percentiles)",
                    row.bench
                )),
            }
            if row.max_queue_depth.is_none() || row.mean_queue_depth.is_none() {
                errs.push(format!(
                    "{} row lacks max/mean_queue_depth (queue-depth timeline)",
                    row.bench
                ));
            }
        }
        // Energy-scenario rows pin the paper's hardware-in-the-loop
        // claim: over the same trace and cost model, energy-capped
        // admission must spend strictly less simulated energy per image
        // than FIFO while inflating p99 latency by at most
        // [`ENERGY_P99_INFLATION_LIMIT`]×. A row that lost its energy or
        // occupancy fields is a broken trajectory even if present.
        for row in rows.iter().filter(|r| r.bench.starts_with("serve_energy_")) {
            match (row.energy_per_image_pj, row.fifo_energy_per_image_pj) {
                (Some(capped), Some(fifo)) => {
                    if capped >= fifo {
                        errs.push(format!(
                            "{} energy-capped admission spends {capped:.1} pJ/image vs \
                             FIFO's {fifo:.1}: the cap must save energy",
                            row.bench
                        ));
                    }
                }
                _ => errs.push(format!(
                    "{} row lacks energy_per_image_pj/fifo_energy_per_image_pj",
                    row.bench
                )),
            }
            match (row.p99_latency_steps, row.fifo_p99_latency_steps) {
                (Some(p99), Some(fifo_p99)) => {
                    if p99 > fifo_p99 * ENERGY_P99_INFLATION_LIMIT {
                        errs.push(format!(
                            "{} energy-capped p99 latency {p99} steps exceeds \
                             {ENERGY_P99_INFLATION_LIMIT}x the FIFO baseline ({fifo_p99})",
                            row.bench
                        ));
                    }
                }
                _ => errs.push(format!(
                    "{} row lacks p99_latency_steps/fifo_p99_latency_steps",
                    row.bench
                )),
            }
            match (row.mean_occupancy, row.peak_occupancy) {
                (Some(mean), Some(peak)) => {
                    if !(mean > 0.0 && mean <= peak && peak <= 1.0) {
                        errs.push(format!(
                            "{} occupancy out of range (mean={mean}, peak={peak}; \
                             need 0 < mean <= peak <= 1)",
                            row.bench
                        ));
                    }
                }
                _ => errs.push(format!("{} row lacks mean/peak_occupancy", row.bench)),
            }
        }
        // Zero-allocation steady state: the row must have been produced
        // by an `alloc-count` build and must stay within the pinned
        // per-round allocation budget with no redundant pack builds
        // (presence is covered by the REQUIRED_SCENARIOS loop above).
        if let Some(row) = rows.iter().find(|r| r.bench == "serve_steady_state") {
            match row.allocs_per_round {
                None => errs.push(
                    "serve_steady_state row lacks allocs_per_round (regenerate the \
                     report with --features alloc-count)"
                        .into(),
                ),
                Some(a) if a > MAX_ALLOCS_PER_ROUND => errs.push(format!(
                    "serve_steady_state allocates {a:.2} times per round; the \
                     steady-state budget is {MAX_ALLOCS_PER_ROUND}"
                )),
                Some(_) => {}
            }
            match row.redundant_pack_builds {
                None => errs.push("serve_steady_state row lacks redundant_pack_builds".into()),
                Some(b) if b != 0.0 => errs.push(format!(
                    "serve_steady_state rebuilt {b} weight packs after warmup; the \
                     registry contract is zero"
                )),
                Some(_) => {}
            }
        }
        errs
    }
}

static PAIRS: OnceLock<Mutex<Vec<(DatasetKind, ExperimentScale, TrainedPair)>>> = OnceLock::new();

/// A trained pair for `kind` at `scale`, cached per process so benches and
/// multi-figure reports never train the same model twice.
///
/// # Panics
///
/// Panics if training fails (configuration errors only).
pub fn cached_pair(kind: DatasetKind, scale: ExperimentScale) -> TrainedPair {
    let cache = PAIRS.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().expect("pair cache poisoned");
    if let Some((_, _, p)) = guard.iter().find(|(k, s, _)| *k == kind && *s == scale) {
        return p.clone();
    }
    eprintln!("[sqdm-bench] training {} pair…", kind.name());
    let pair = sqdm_core::prepare(kind, scale).expect("training must succeed");
    guard.push((kind, scale, pair.clone()));
    pair
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_pair_is_reused() {
        let scale = ExperimentScale::quick();
        let a = cached_pair(DatasetKind::FfhqLike, scale);
        let b = cached_pair(DatasetKind::FfhqLike, scale);
        // Clones of the same trained model: identical parameters.
        assert_eq!(
            format!("{:?}", a.dataset.kind),
            format!("{:?}", b.dataset.kind)
        );
    }

    #[test]
    fn scales_resolve() {
        let _ = bench_scale();
        let s = report_scale();
        assert!(s.train.steps > 0);
    }

    #[test]
    fn delta_sweep_mask_is_deterministic_with_exact_counts() {
        for (k, unchanged) in [
            (256usize, 0.0f64),
            (256, 0.25),
            (256, 0.5),
            (256, 0.9),
            (7, 0.75),
        ] {
            let a = delta_sweep_mask(k, unchanged, 31);
            let b = delta_sweep_mask(k, unchanged, 31);
            assert_eq!(a, b, "mask must be reproducible");
            let want = ((1.0 - unchanged) * k as f64).round() as usize;
            assert_eq!(a.iter().filter(|&&c| c).count(), want, "u={unchanged}");
        }
        // Different seeds scatter differently (whp for these sizes).
        assert_ne!(delta_sweep_mask(256, 0.5, 1), delta_sweep_mask(256, 0.5, 2));
        // The scatter is not a prefix run: at 50% of 256 rows, both
        // halves of the mask must contain changed rows.
        let m = delta_sweep_mask(256, 0.5, 31);
        assert!(m[..128].iter().any(|&c| c) && m[128..].iter().any(|&c| c));
    }

    #[test]
    fn perf_gate_passes_on_a_complete_fast_report() {
        let mut report = String::from(
            "{\"bench\": \"meta\", \"threads\": 4}\n\
             {\"bench\": \"dense_gemm_f32\", \"shape\": \"256x256x256\", \"iters\": 20, \"total_ns\": 40, \"ns_per_iter\": 2.0}\n\
             {\"bench\": \"qgemm_int8\", \"shape\": \"256x256x256\", \"iters\": 20, \"total_ns\": 20, \"ns_per_iter\": 1.0}\n",
        );
        for f in perf_gate::SWEEP_FRACTIONS {
            report.push_str(&format!(
                "{{\"bench\": \"qgemm_delta_int8\", \"shape\": \"256x256x256\", \"iters\": 20, \"total_ns\": 10, \"ns_per_iter\": 0.5, \"unchanged_fraction\": {f}}}\n"
            ));
        }
        report.push_str(
            "{\"bench\": \"serve_multi_tenant\", \"shape\": \"2models\", \"iters\": 3, \"total_ns\": 30, \"ns_per_iter\": 10.0}\n\
             {\"bench\": \"serve_steady_state\", \"shape\": \"2models\", \"iters\": 1, \"total_ns\": 10, \"ns_per_iter\": 10.0, \"allocs_per_round\": 0.45, \"redundant_pack_builds\": 0}\n\
             {\"bench\": \"serve_daemon\", \"shape\": \"6req max_batch=3 http\", \"iters\": 3, \"total_ns\": 30, \"ns_per_iter\": 10.0}\n",
        );
        for name in perf_gate::REQUIRED_SCENARIOS {
            if name.starts_with("serve_scenario_") {
                report.push_str(&format!(
                    "{{\"bench\": \"{name}\", \"shape\": \"12req max_batch=3\", \"iters\": 3, \"total_ns\": 30, \"ns_per_iter\": 10.0, \"p50_latency_steps\": 4, \"p95_latency_steps\": 9, \"p99_latency_steps\": 9, \"max_queue_depth\": 3, \"mean_queue_depth\": 0.8, \"throughput_steps\": 0.4, \"mean_latency_steps\": 4.5}}\n"
                ));
            } else if name.starts_with("serve_energy_") {
                report.push_str(&format!(
                    "{{\"bench\": \"{name}\", \"shape\": \"12req max_batch=3\", \"iters\": 3, \"total_ns\": 30, \"ns_per_iter\": 10.0, \"energy_per_image_pj\": 120.0, \"fifo_energy_per_image_pj\": 180.0, \"mean_occupancy\": 0.4, \"peak_occupancy\": 0.7, \"p50_latency_steps\": 5, \"p95_latency_steps\": 11, \"p99_latency_steps\": 11, \"fifo_p99_latency_steps\": 9}}\n"
                ));
            }
        }
        assert_eq!(perf_gate::violations(&report), Vec::<String>::new());
        // Equality is allowed: the gate is int8 ≤ f32, not strictly less.
        let tied = report.replace("\"ns_per_iter\": 1.0", "\"ns_per_iter\": 2.0");
        assert_eq!(perf_gate::violations(&tied), Vec::<String>::new());
        // The allocation budget is a ceiling, so sitting exactly on it
        // passes too.
        let at_budget = report.replace(
            "\"allocs_per_round\": 0.45",
            &format!("\"allocs_per_round\": {}", perf_gate::MAX_ALLOCS_PER_ROUND),
        );
        assert_eq!(perf_gate::violations(&at_budget), Vec::<String>::new());
    }

    #[test]
    fn perf_gate_flags_allocation_and_scenario_regressions() {
        let mut report = String::from(
            "{\"bench\": \"dense_gemm_f32\", \"shape\": \"256x256x256\", \"ns_per_iter\": 2.0}\n\
             {\"bench\": \"qgemm_int8\", \"shape\": \"256x256x256\", \"ns_per_iter\": 1.0}\n",
        );
        for f in perf_gate::SWEEP_FRACTIONS {
            report.push_str(&format!(
                "{{\"bench\": \"qgemm_delta_int8\", \"shape\": \"256x256x256\", \"ns_per_iter\": 0.5, \"unchanged_fraction\": {f}}}\n"
            ));
        }
        // No serving rows at all: every serving scenario reported
        // missing, including the full traffic-shape suite.
        let errs = perf_gate::violations(&report);
        for name in perf_gate::REQUIRED_SCENARIOS {
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("missing {name} row"))),
                "{name}: {errs:?}"
            );
        }
        assert!(
            errs.iter().any(|e| e.contains("serve_multi_tenant")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("serve_steady_state")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("missing serve_daemon")),
            "{errs:?}"
        );
        // A steady-state row over the allocation budget, with redundant
        // pack builds, from a build without the counter: each violation is
        // its own error.
        report.push_str(
            "{\"bench\": \"serve_multi_tenant\", \"shape\": \"2models\", \"ns_per_iter\": 10.0}\n",
        );
        let over = format!(
            "{report}{{\"bench\": \"serve_steady_state\", \"shape\": \"2models\", \"ns_per_iter\": 10.0, \"allocs_per_round\": 37.5, \"redundant_pack_builds\": 4}}\n"
        );
        let errs = perf_gate::violations(&over);
        assert!(
            errs.iter().any(|e| e.contains("37.50 times per round")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("rebuilt 4 weight packs")),
            "{errs:?}"
        );
        let uncounted = format!(
            "{report}{{\"bench\": \"serve_steady_state\", \"shape\": \"2models\", \"ns_per_iter\": 10.0}}\n"
        );
        let errs = perf_gate::violations(&uncounted);
        assert!(
            errs.iter().any(|e| e.contains("lacks allocs_per_round")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("lacks redundant_pack_builds")),
            "{errs:?}"
        );
    }

    #[test]
    fn perf_gate_flags_degenerate_scenario_rows() {
        // A scenario row without its percentile fields is flagged even
        // though the row itself is present.
        let bare =
            "{\"bench\": \"serve_scenario_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0}\n";
        let errs = perf_gate::violations(bare);
        assert!(
            errs.iter()
                .any(|e| e.contains("serve_scenario_bursty row lacks p50/p95/p99")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("serve_scenario_bursty row lacks max/mean_queue_depth")),
            "{errs:?}"
        );
        // Non-monotone percentiles are impossible under a correct
        // order-statistics implementation, so the gate treats them as a
        // broken report.
        let skewed = "{\"bench\": \"serve_scenario_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0, \"p50_latency_steps\": 9, \"p95_latency_steps\": 4, \"p99_latency_steps\": 4, \"max_queue_depth\": 3, \"mean_queue_depth\": 0.8}\n";
        let errs = perf_gate::violations(skewed);
        assert!(
            errs.iter()
                .any(|e| e.contains("latency percentiles are not monotone")),
            "{errs:?}"
        );
        assert!(
            !errs
                .iter()
                .any(|e| e.contains("serve_scenario_bursty row lacks")),
            "{errs:?}"
        );
    }

    #[test]
    fn perf_gate_flags_energy_regressions() {
        // A bare energy row is flagged for every missing field group.
        let bare =
            "{\"bench\": \"serve_energy_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0}\n";
        let errs = perf_gate::violations(bare);
        assert!(
            errs.iter()
                .any(|e| { e.contains("serve_energy_bursty row lacks energy_per_image_pj") }),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("serve_energy_bursty row lacks p99_latency_steps")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("serve_energy_bursty row lacks mean/peak_occupancy")),
            "{errs:?}"
        );
        // The cap must save energy: equality or a regression is flagged.
        let hot = "{\"bench\": \"serve_energy_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0, \"energy_per_image_pj\": 200.0, \"fifo_energy_per_image_pj\": 180.0, \"mean_occupancy\": 0.4, \"peak_occupancy\": 0.7, \"p99_latency_steps\": 11, \"fifo_p99_latency_steps\": 9}\n";
        let errs = perf_gate::violations(hot);
        assert!(
            errs.iter().any(|e| e.contains("the cap must save energy")),
            "{errs:?}"
        );
        // Unbounded latency inflation is flagged even when energy drops.
        let slow = "{\"bench\": \"serve_energy_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0, \"energy_per_image_pj\": 120.0, \"fifo_energy_per_image_pj\": 180.0, \"mean_occupancy\": 0.4, \"peak_occupancy\": 0.7, \"p99_latency_steps\": 99, \"fifo_p99_latency_steps\": 9}\n";
        let errs = perf_gate::violations(slow);
        assert!(
            errs.iter()
                .any(|e| e.contains("exceeds 4x the FIFO baseline")),
            "{errs:?}"
        );
        // Impossible occupancy (peak above 1, or mean above peak) is a
        // broken accounting pipeline, not a tuning choice.
        let broken = "{\"bench\": \"serve_energy_bursty\", \"shape\": \"12req\", \"ns_per_iter\": 10.0, \"energy_per_image_pj\": 120.0, \"fifo_energy_per_image_pj\": 180.0, \"mean_occupancy\": 0.9, \"peak_occupancy\": 0.7, \"p99_latency_steps\": 11, \"fifo_p99_latency_steps\": 9}\n";
        let errs = perf_gate::violations(broken);
        assert!(
            errs.iter().any(|e| e.contains("occupancy out of range")),
            "{errs:?}"
        );
    }

    #[test]
    fn perf_gate_flags_slow_int8_and_missing_sweep_rows() {
        // int8 slower than f32, and only one sweep fraction present.
        let report = "{\"bench\": \"dense_gemm_f32\", \"shape\": \"256x256x256\", \"ns_per_iter\": 2.0}\n\
                      {\"bench\": \"qgemm_int8\", \"shape\": \"256x256x256\", \"ns_per_iter\": 3.5}\n\
                      {\"bench\": \"qgemm_delta_int8\", \"shape\": \"256x256x256\", \"ns_per_iter\": 0.5, \"unchanged_fraction\": 0.5}\n";
        let errs = perf_gate::violations(report);
        assert!(
            errs.iter()
                .any(|e| e.contains("slower than dense_gemm_f32")),
            "{errs:?}"
        );
        // Every sweep fraction but 0.5 is missing.
        assert_eq!(
            errs.iter().filter(|e| e.contains("sweep row")).count(),
            perf_gate::SWEEP_FRACTIONS.len() - 1,
            "{errs:?}"
        );
        // An empty report reports every requirement as missing.
        let errs = perf_gate::violations("");
        assert!(errs.iter().any(|e| e.contains("missing qgemm_int8")));
        assert!(errs.iter().any(|e| e.contains("missing dense_gemm_f32")));
        assert_eq!(
            errs.iter().filter(|e| e.contains("sweep row")).count(),
            perf_gate::SWEEP_FRACTIONS.len()
        );
    }

    #[test]
    fn perf_gate_parses_repro_bench_lines() {
        let line = "{\"bench\": \"qgemm_delta_int8\", \"shape\": \"256x256x256\", \"iters\": 20, \"total_ns\": 33979976, \"ns_per_iter\": 1698998.8, \"unchanged_fraction\": 0.75, \"speedup_vs_dense\": 1.912}";
        let rows = perf_gate::parse_rows(line);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bench, "qgemm_delta_int8");
        assert_eq!(rows[0].shape, "256x256x256");
        assert_eq!(rows[0].ns_per_iter, Some(1698998.8));
        assert_eq!(rows[0].unchanged_fraction, Some(0.75));
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_monotone() {
        let a = poisson_arrivals(16, 0.7, 42);
        let b = poisson_arrivals(16, 0.7, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted: {a:?}");
        // A higher rate packs the same requests into fewer steps.
        let dense = poisson_arrivals(16, 7.0, 42);
        assert!(dense.last() < a.last(), "{dense:?} vs {a:?}");
    }
}
