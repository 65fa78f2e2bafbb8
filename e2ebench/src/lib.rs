//! Library half of `e2ebench`: the pieces of the benchmark that are pure
//! functions of their inputs — percentiles, the seeded request
//! generators, the output checks, the span recorder and the result line —
//! kept apart from the workload drivers so the benchmark's own tests can
//! exercise them without running a model.

pub mod trace;

use std::fmt::Write as _;

/// Nearest-rank percentile: the smallest sample such that at least `p` %
/// of the samples are at or below it. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (see [`percentile`]).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Splitmix64 finaliser: derives independent sub-seeds from one run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Open-loop arrival schedule: `n` due times in seconds, a Poisson
/// process conditioned on exactly `n` arrivals in `[0, span_s]` (sorted
/// uniform points, built from `n + 1` exponential gaps scaled to the
/// span). Fixing the count and the span keeps the offered work of every
/// run the same while the arrival pattern varies with the seed.
pub fn poisson_schedule(n: usize, span_s: f64, seed: u64) -> Vec<f64> {
    assert!(span_s > 0.0, "schedule span must be positive");
    let mut rng = sqdm_tensor::Rng::seed_from(mix(seed, 0xA11));
    // uniform() is in [0, 1), so the logarithm's argument stays > 0.
    let gaps: Vec<f64> = (0..=n)
        .map(|_| -(1.0 - f64::from(rng.uniform())).ln())
        .collect();
    let total: f64 = gaps.iter().sum();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g;
            span_s * t / total
        })
        .collect()
}

/// One generated image request: which model, tenant, step budget and
/// noise seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenRequest {
    /// Request id, unique within a run.
    pub id: u64,
    /// Target model (daemon workload only; 0 elsewhere).
    pub model: usize,
    /// Tenant (daemon workload only; 0 elsewhere).
    pub tenant: u32,
    /// Heun step budget.
    pub steps: usize,
    /// Noise seed of the trajectory.
    pub seed: u64,
}

/// Step budgets in stratified order: every consecutive group of
/// `budgets.len()` requests uses each budget once, shuffled by the seed,
/// so the work per run barely moves with the seed while the order does.
pub fn stratified_steps(budgets: &[usize], n: usize, seed: u64) -> Vec<usize> {
    let mut rng = sqdm_tensor::Rng::seed_from(mix(seed, 0x57E));
    let mut out = Vec::with_capacity(n + budgets.len());
    while out.len() < n {
        let mut group = budgets.to_vec();
        rng.shuffle(&mut group);
        out.extend(group);
    }
    out.truncate(n);
    out
}

/// The `offline_batch` closed batch number `round` of a run: `n`
/// requests with stratified step budgets from 12..=24.
pub fn offline_batch(seed: u64, round: u64, n: usize) -> Vec<GenRequest> {
    let sub = mix(seed, 0x0FF ^ (round << 16));
    let budgets: Vec<usize> = (12..=24).collect();
    let mut rng = sqdm_tensor::Rng::seed_from(sub);
    stratified_steps(&budgets, n, sub)
        .into_iter()
        .enumerate()
        .map(|(i, steps)| GenRequest {
            id: round * n as u64 + i as u64,
            model: 0,
            tenant: 0,
            steps,
            seed: rng.next_u64() >> 11,
        })
        .collect()
}

/// The `daemon_open_loop` request mix: two models, three tenants; in
/// every group of ten requests the step budgets are 8..=16 once each plus
/// one request of 40 steps, in seeded order, so the heavy tail is exactly
/// 10 % of every run.
pub fn daemon_requests(n: usize, seed: u64) -> Vec<GenRequest> {
    let budgets: Vec<usize> = (8..=16).chain([40]).collect();
    let mut rng = sqdm_tensor::Rng::seed_from(mix(seed, 0xDAE));
    stratified_steps(&budgets, n, mix(seed, 0xDAF))
        .into_iter()
        .enumerate()
        .map(|(i, steps)| GenRequest {
            id: i as u64,
            model: rng.index(2),
            tenant: rng.index(3) as u32,
            steps,
            seed: rng.next_u64() >> 11,
        })
        .collect()
}

/// `k` distinct indices below `n`, chosen by the seed, ascending.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = sqdm_tensor::Rng::seed_from(mix(seed, 0x5E7));
    rng.shuffle(&mut idx);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// Checks that a served image is bitwise equal to its independently
/// computed reference.
pub fn check_bitwise(what: &str, got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values served, {} expected",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} differs ({:#010x} served, {:#010x} expected)",
            got[i], want[i]
        )),
    }
}

/// Checks that every submitted request id came back exactly once.
pub fn check_all_done(submitted: &[u64], done: &[u64]) -> Result<(), String> {
    let mut s = submitted.to_vec();
    let mut d = done.to_vec();
    s.sort_unstable();
    d.sort_unstable();
    if s == d {
        return Ok(());
    }
    let missing: Vec<u64> = s.iter().filter(|id| !d.contains(id)).copied().collect();
    Err(format!(
        "{} requests submitted, {} returned; missing {:?}",
        s.len(),
        d.len(),
        &missing[..missing.len().min(8)]
    ))
}

/// Checks that two counts that must agree do.
pub fn check_count(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

/// Largest mean squared error, as a share of the reference's signal
/// power, that temporal-delta sampling may add to plain sampling.
pub const DELTA_GAP_BOUND: f64 = 0.05;

/// Checks that a temporal-delta image stays within the bounded
/// quantization gap of the plain image at the same seed; returns the gap
/// (MSE ÷ signal power).
pub fn check_delta_gap(delta: &[f32], plain: &[f32]) -> Result<f64, String> {
    if delta.len() != plain.len() || plain.is_empty() {
        return Err(format!(
            "delta image has {} values, plain image {}",
            delta.len(),
            plain.len()
        ));
    }
    let n = plain.len() as f64;
    let mse = delta
        .iter()
        .zip(plain)
        .map(|(&a, &b)| f64::from(a - b).powi(2))
        .sum::<f64>()
        / n;
    let power = plain.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / n;
    let gap = mse / power;
    if gap.is_finite() && gap < DELTA_GAP_BOUND {
        Ok(gap)
    } else {
        Err(format!(
            "delta image gap {gap:.4} of signal power is not below {DELTA_GAP_BOUND}"
        ))
    }
}

/// One request's bookkeeping as the scheduler reports it, in virtual
/// steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLedger {
    /// Total latency.
    pub latency: usize,
    /// Steps queued before admission.
    pub queue_delay: usize,
    /// Steps spent in the batch.
    pub steps_in_batch: usize,
    /// Steps spent parked.
    pub parked_steps: usize,
}

/// Checks the scheduler's accounting: every request completed and every
/// latency is the sum of its parts; the simulated occupancy satisfies
/// `0 < mean ≤ peak ≤ 1`.
pub fn check_serve_accounting(
    submitted: usize,
    ledgers: &[StepLedger],
    mean_occupancy: f64,
    peak_occupancy: f64,
) -> Result<(), String> {
    check_count("completed requests", ledgers.len(), submitted)?;
    if let Some(l) = ledgers
        .iter()
        .find(|l| l.latency != l.queue_delay + l.steps_in_batch + l.parked_steps)
    {
        return Err(format!("latency does not add up: {l:?}"));
    }
    if !(0.0 < mean_occupancy && mean_occupancy <= peak_occupancy && peak_occupancy <= 1.0) {
        return Err(format!(
            "occupancy out of order: mean {mean_occupancy}, peak {peak_occupancy}"
        ));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Non-finite values print as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), Some(19.0));
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed() {
        let a = poisson_schedule(300, 60.0, 11);
        assert_eq!(a, poisson_schedule(300, 60.0, 11));
        assert_ne!(a, poisson_schedule(300, 60.0, 12));
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times increase");
        assert!(a[0] > 0.0 && a[299] < 60.0, "arrivals stay inside the span");
        // Gaps are exponential: their spread is close to their mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((0.15..0.25).contains(&mean), "mean gap {mean}");
        assert!((0.75..1.25).contains(&(sd / mean)), "gap cv {}", sd / mean);
    }

    #[test]
    fn request_generators_repeat_and_keep_their_mix() {
        assert_eq!(daemon_requests(200, 5), daemon_requests(200, 5));
        assert_eq!(offline_batch(5, 2, 16), offline_batch(5, 2, 16));
        assert_ne!(offline_batch(5, 1, 16), offline_batch(5, 2, 16));
        let d = daemon_requests(200, 5);
        assert_eq!(d.iter().filter(|r| r.steps == 40).count(), 20);
        assert_eq!(d.iter().map(|r| r.steps).sum::<usize>(), 20 * (108 + 40));
        assert_ne!(
            daemon_requests(200, 6)
                .iter()
                .map(|r| r.steps)
                .collect::<Vec<_>>(),
            d.iter().map(|r| r.steps).collect::<Vec<_>>()
        );
        assert!(d
            .iter()
            .all(|r| r.steps == 40 || (8..=16).contains(&r.steps)));
        assert!(d.iter().all(|r| r.model < 2 && r.tenant < 3));
        assert!(offline_batch(9, 0, 16)
            .iter()
            .all(|r| (12..=24).contains(&r.steps)));
    }

    #[test]
    fn bitwise_check_catches_one_flipped_bit() {
        let want: Vec<u32> = (0..64).map(|i| (i as f32 * 0.25).to_bits()).collect();
        assert!(check_bitwise("img", &want, &want).is_ok());
        let mut got = want.clone();
        got[17] ^= 1;
        assert!(check_bitwise("img", &got, &want).is_err());
        assert!(check_bitwise("img", &want[..63], &want).is_err());
    }

    #[test]
    fn completion_check_catches_a_dropped_request() {
        let submitted: Vec<u64> = (0..10).collect();
        assert!(check_all_done(&submitted, &submitted).is_ok());
        let dropped: Vec<u64> = (0..10).filter(|&i| i != 4).collect();
        assert!(check_all_done(&submitted, &dropped).is_err());
        let duplicated: Vec<u64> = (0..9).chain([3]).collect();
        assert!(check_all_done(&submitted, &duplicated).is_err());
        assert!(check_count("completed", 9, 10).is_err());
    }

    #[test]
    fn delta_gap_check_catches_a_gap_above_the_bound() {
        let plain: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.37).sin()).collect();
        let close: Vec<f32> = plain.iter().map(|v| v + 0.01).collect();
        assert!(check_delta_gap(&close, &plain).unwrap() < 0.01);
        // An offset of 0.3 on a unit-amplitude sine is a gap of ~0.18.
        let far: Vec<f32> = plain.iter().map(|v| v + 0.3).collect();
        assert!(check_delta_gap(&far, &plain).is_err());
        let nan = vec![f32::NAN; 100];
        assert!(check_delta_gap(&nan, &plain).is_err());
    }

    #[test]
    fn serve_accounting_check_catches_bad_ledgers() {
        let ok = StepLedger {
            latency: 5,
            queue_delay: 1,
            steps_in_batch: 4,
            parked_steps: 0,
        };
        assert!(check_serve_accounting(2, &[ok, ok], 0.4, 0.5).is_ok());
        assert!(check_serve_accounting(3, &[ok, ok], 0.4, 0.5).is_err());
        let bad = StepLedger { latency: 6, ..ok };
        assert!(check_serve_accounting(2, &[ok, bad], 0.4, 0.5).is_err());
        assert!(check_serve_accounting(2, &[ok, ok], 0.5000001, 0.5).is_err());
        assert!(check_serve_accounting(2, &[ok, ok], 0.0, 0.5).is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "latency_p50_ms".into(),
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
