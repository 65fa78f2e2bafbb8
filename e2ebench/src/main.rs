//! `e2ebench`: the end-to-end benchmark of the SQ-DM reproduction.
//!
//! ```text
//! e2ebench --workload <offline_batch|daemon_open_loop|delta_trajectory>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints one
//! JSON line `{"correct", "attempted", "failed", "metrics"}` as the last
//! line of stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` for the workloads, metrics
//! and reference figures.

mod delta;
mod offline;
mod open_loop;
mod replay;

use e2ebench::trace::Tracer;
use e2ebench::{median, peak_rss_mb, percentile, result_line, Metric};
use replay::BoxError;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `daemon_open_loop` offered load override, requests/s (rate sweeps).
    pub rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rate = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rate" => rate = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rate,
    })
}

/// What one measured phase of a workload produced.
pub struct Phase {
    /// Failed correctness checks (empty when every output was right).
    pub errors: Vec<String>,
    /// Operations attempted (images requested).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Images completed per second of measured time.
    pub images_per_s: f64,
    /// Per-image latency samples, ms.
    pub latency_ms: Vec<f64>,
    /// Spans of the phase (empty when untraced).
    pub tracer: Tracer,
}

impl Phase {
    /// The end-to-end metrics a phase yields besides set-up and memory.
    /// The tail goes to stderr only: no workload has the 200 samples per
    /// run a p95 needs to have ten samples beyond it.
    pub fn e2e(&self) -> Vec<Metric> {
        let pct = |q: f64| percentile(&self.latency_ms, q).unwrap_or(f64::NAN);
        eprintln!(
            "e2ebench: latency over {} images: p50 {:.1} ms, p95 {:.1} ms, max {:.1} ms",
            self.latency_ms.len(),
            pct(50.0),
            pct(95.0),
            pct(100.0)
        );
        vec![
            metric("images_per_s", self.images_per_s, "images/s"),
            metric("latency_p50_ms", pct(50.0), "ms"),
        ]
    }
}

/// The per-layer metric set. Every traced run reports all of them; a
/// layer the workload does not pass through reads 0 (see README.md for
/// which workload each metric is meant for).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub conv_ms_per_eval: f64,
    pub conv_gmac_per_s: f64,
    pub dense_conv_b1_ms_per_eval: f64,
    pub delta_conv_ms_per_eval: f64,
    pub act_sparsity: f64,
    pub changed_row_fraction: f64,
    pub delta_step_share: f64,
    pub attention_ms_per_eval: f64,
    pub nn_self_ms_per_eval: f64,
    pub eval_ms_b1: f64,
    pub eval_ms_mean_batch: f64,
    pub evals_per_image: f64,
    pub heun_self_ms_per_image: f64,
    pub serve_rounds: f64,
    pub serve_mean_batch: f64,
    pub serve_round_ms_p50: f64,
    pub serve_self_ms: f64,
    pub round_accounting_us: f64,
    pub sim_energy_per_image_pj: f64,
    pub sim_mean_occupancy: f64,
    pub status_ms_p50: f64,
    pub polls_per_request: f64,
    pub compute_share: f64,
    pub status_encode_us: f64,
    pub status_decode_us: f64,
    pub loadgen_max_lag_ms: f64,
    pub coverage: f64,
    pub overhead_pct: f64,
    pub accept_ms_p50: f64,
}

impl Layers {
    /// Fills the replays every workload shares, on its own model, batch
    /// and step budget.
    pub fn common(
        net: &mut sqdm_edm::UNet,
        den: &sqdm_edm::Denoiser,
        asg: &sqdm_quant::PrecisionAssignment,
        mean_batch: usize,
        mean_steps: usize,
        seed: u64,
    ) -> Result<Layers, BoxError> {
        let rec = replay::record(net, den, asg, mean_steps, e2ebench::mix(seed, 0x7EC))?;
        let conv = replay::replay_convs(&rec, asg, mean_batch)?;
        let attention_ms_per_eval = replay::attention_ms(net, asg, mean_batch)?;
        let eval_ms_b1 = replay::eval_ms(net, asg, 1, true, 5)?;
        let eval_ms_mean_batch = replay::eval_ms(net, asg, mean_batch, true, 5)?;
        let heun_self_ms_per_image = replay::heun_self_ms(net, den, asg, mean_steps)?;
        let cfg = *net.config();
        let (status_encode_us, status_decode_us) =
            replay::wire_us([1, cfg.in_channels, cfg.image_size, cfg.image_size])?;
        Ok(Layers {
            conv_ms_per_eval: conv.dense_ms_per_eval,
            conv_gmac_per_s: conv.dense_gmac_per_s,
            dense_conv_b1_ms_per_eval: conv.dense_b1_ms_per_eval,
            delta_conv_ms_per_eval: conv.delta_ms_per_eval,
            act_sparsity: conv.act_sparsity,
            changed_row_fraction: conv.changed_row_fraction,
            delta_step_share: conv.delta_step_share,
            attention_ms_per_eval,
            nn_self_ms_per_eval: eval_ms_mean_batch
                - conv.dense_ms_per_eval
                - attention_ms_per_eval,
            eval_ms_b1,
            eval_ms_mean_batch,
            evals_per_image: (2 * mean_steps - 1) as f64,
            heun_self_ms_per_image,
            status_encode_us,
            status_decode_us,
            ..Layers::default()
        })
    }

    /// Tracing overhead and span count from an untraced and a traced
    /// phase of the same workload.
    pub fn set_overhead(&mut self, untraced: &Phase, traced: &Phase) {
        let p50 = |p: &Phase| median(&p.latency_ms).unwrap_or(f64::NAN);
        self.overhead_pct = (p50(traced) / p50(untraced) - 1.0) * 100.0;
    }

    fn metrics(&self) -> Vec<Metric> {
        let m = metric;
        vec![
            m("ops_int.conv_ms_per_eval", self.conv_ms_per_eval, "ms"),
            m("ops_int.conv_gmac_per_s", self.conv_gmac_per_s, "GMAC/s"),
            m(
                "ops_int.dense_conv_b1_ms_per_eval",
                self.dense_conv_b1_ms_per_eval,
                "ms",
            ),
            m(
                "ops_int.delta_conv_ms_per_eval",
                self.delta_conv_ms_per_eval,
                "ms",
            ),
            m(
                "ops_int.delta_vs_dense",
                self.delta_conv_ms_per_eval / self.dense_conv_b1_ms_per_eval,
                "ratio",
            ),
            m("sparsity.act_sparsity", self.act_sparsity, "fraction"),
            m(
                "sparsity.changed_row_fraction",
                self.changed_row_fraction,
                "fraction",
            ),
            m("delta.delta_step_share", self.delta_step_share, "fraction"),
            m("nn.attention_ms_per_eval", self.attention_ms_per_eval, "ms"),
            m("nn.self_ms_per_eval", self.nn_self_ms_per_eval, "ms"),
            m("model.eval_ms_b1", self.eval_ms_b1, "ms"),
            m("model.eval_ms_mean_batch", self.eval_ms_mean_batch, "ms"),
            m("model.evals_per_image", self.evals_per_image, "count"),
            m(
                "sampler.heun_self_ms_per_image",
                self.heun_self_ms_per_image,
                "ms",
            ),
            m("serve.rounds", self.serve_rounds, "count"),
            m("serve.mean_batch", self.serve_mean_batch, "streams"),
            m("serve.round_ms_p50", self.serve_round_ms_p50, "ms"),
            m("serve.self_ms", self.serve_self_ms, "ms"),
            m("accel.round_accounting_us", self.round_accounting_us, "us"),
            m(
                "accel.sim_energy_per_image_pj",
                self.sim_energy_per_image_pj,
                "pJ",
            ),
            m("accel.mean_occupancy", self.sim_mean_occupancy, "fraction"),
            m("daemon.accept_p50_ms", self.accept_ms_p50, "ms"),
            m("daemon.status_ms_p50", self.status_ms_p50, "ms"),
            m("daemon.polls_per_request", self.polls_per_request, "count"),
            m("daemon.compute_share", self.compute_share, "fraction"),
            m("wire.status_encode_us", self.status_encode_us, "us"),
            m("wire.status_decode_us", self.status_decode_us, "us"),
            m("loadgen.max_lag_ms", self.loadgen_max_lag_ms, "ms"),
            m("trace.coverage", self.coverage, "fraction"),
            m("trace.overhead_pct", self.overhead_pct, "%"),
        ]
    }
}

/// What a workload hands back to `main`.
pub struct Report {
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
    /// Seconds from process start until the workload was ready.
    pub setup_s: f64,
    /// All spans of the run.
    pub tracer: Tracer,
}

/// Builds an end-to-end metric.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "offline_batch" => offline::run,
        "daemon_open_loop" => open_loop::run,
        "delta_trajectory" => delta::run,
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let report = match run(&args, process_start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for e in &report.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    let metrics = match &report.layers {
        Some(layers) => {
            let path = std::path::Path::new("e2ebench/traces")
                .join(format!("{}-seed{}.ndjson", args.workload, args.seed));
            match report.tracer.write_ndjson(&path) {
                Ok(()) => eprintln!(
                    "e2ebench: {} spans written to {}",
                    report.tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
            }
            layers.metrics()
        }
        None => {
            let mut m = report.e2e;
            m.push(metric("setup_s", report.setup_s, "s"));
            m.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
            m
        }
    };
    println!(
        "{}",
        result_line(
            report.errors.is_empty(),
            report.attempted,
            report.failed,
            &metrics
        )
    );
}
