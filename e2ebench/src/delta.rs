//! `delta_trajectory`: sequential solo `sample_delta` trajectories on the
//! ReLU-finetuned model that `sqdm_core::prepare` trains at quick scale,
//! under the paper's 4/8-bit assignment on the integer engine. The
//! temporal-delta kernel, the sparsity traces and the per-layer carried
//! state do the work; batching and serving are bypassed.

use crate::replay::BoxError;
use crate::{Args, Layers, Phase, Report};
use e2ebench::trace::Tracer;
use e2ebench::{check_bitwise, check_delta_gap, median, mix, stratified_steps};
use sqdm_core::{prepare, ExperimentScale};
use sqdm_edm::{
    block_profiles, sample, sample_delta, DatasetKind, DeltaSession, Denoiser, SamplerConfig, UNet,
};
use sqdm_quant::{ExecMode, PrecisionAssignment};
use sqdm_tensor::{Rng, Tensor};
use std::time::Instant;

struct Ctx {
    net: UNet,
    den: Denoiser,
    asg: PrecisionAssignment,
}

fn setup() -> Result<Ctx, BoxError> {
    let pair = prepare(DatasetKind::CifarLike, ExperimentScale::quick())?;
    let cfg = *pair.relu.config();
    let asg = PrecisionAssignment::paper_mixed(&block_profiles(&cfg), 1, 1, true)
        .with_mode(ExecMode::NativeInt);
    Ok(Ctx {
        net: pair.relu,
        den: pair.denoiser,
        asg,
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Step budgets per stratified group: 24..=40.
const BUDGETS: usize = 17;

/// Step budget and noise seed of trajectory `i` of a run: budgets 24..=40,
/// stratified so every group of [`BUDGETS`] trajectories uses each once.
fn trajectory(seed: u64, i: u64) -> (usize, u64) {
    let budgets: Vec<usize> = (24..24 + BUDGETS).collect();
    let group = i / BUDGETS as u64;
    let steps =
        stratified_steps(&budgets, BUDGETS, mix(seed, group))[(i % BUDGETS as u64) as usize];
    (
        steps,
        Rng::seed_from(mix(seed, 0xDE17 ^ (i << 20))).next_u64() >> 11,
    )
}

struct DeltaPhase {
    phase: Phase,
    steps: Vec<usize>,
    busy_ms: f64,
    delta_steps: usize,
    dense_steps: usize,
}

fn measure(ctx: &mut Ctx, seed: u64, seconds: f64, tracer: Tracer) -> Result<DeltaPhase, BoxError> {
    let mut phase = Phase {
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
        images_per_s: 0.0,
        latency_ms: Vec::new(),
        tracer,
    };
    let (mut delta_steps, mut dense_steps) = (0, 0);
    let mut steps_seen = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    // Each round is one timed delta trajectory plus its untimed check
    // against plain sampling, so every run attempts whole rounds.
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let (steps, img_seed) = trajectory(seed, i);
        let cfg = SamplerConfig { steps };
        let mut session = DeltaSession::default();
        phase.attempted += 1;
        let t0 = Instant::now();
        let img = sample_delta(
            &mut ctx.net,
            &ctx.den,
            1,
            cfg,
            Some(&ctx.asg),
            &mut Rng::seed_from(img_seed),
            &mut session,
        )?;
        let t1 = Instant::now();
        let traj = phase.tracer.record(i, "delta.trajectory", t0, t1, None);
        phase.latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        steps_seen.push(steps);
        delta_steps += session.delta_steps();
        dense_steps += session.dense_steps();
        if session.delta_steps() == 0 {
            phase
                .errors
                .push(format!("trajectory {i}: no conv took the delta path"));
        }
        let t2 = Instant::now();
        let plain = sample(
            &mut ctx.net,
            &ctx.den,
            1,
            cfg,
            Some(&ctx.asg),
            &mut Rng::seed_from(img_seed),
        )?;
        phase
            .tracer
            .record(i, "check.plain_sample", t2, Instant::now(), traj);
        if let Err(e) = check_delta_gap(img.as_slice(), plain.as_slice()) {
            phase.errors.push(format!("trajectory {i}: {e}"));
        }
        i += 1;
    }
    let busy_ms: f64 = phase.latency_ms.iter().sum();
    // Median over whole groups of 17 trajectories (each group runs every
    // step budget once), so one group slowed by the host does not move the
    // run's figure; a run shorter than one group uses all its trajectories.
    let groups: Vec<&[f64]> = match phase.latency_ms.chunks_exact(BUDGETS) {
        g if g.len() > 0 => g.collect(),
        _ => vec![&phase.latency_ms[..]],
    };
    let rates: Vec<f64> = groups
        .iter()
        .map(|g| g.len() as f64 * 1e3 / g.iter().sum::<f64>())
        .collect();
    phase.images_per_s = median(&rates).unwrap_or(f64::NAN);

    // Forced-sparse and forced-dense dispatch agree bit for bit.
    let (steps, img_seed) = trajectory(seed, 0);
    let forced = |ctx: &mut Ctx, threshold: f32| -> Result<Vec<u32>, BoxError> {
        let mut session = DeltaSession::default().with_dense_threshold(threshold);
        let img = sample_delta(
            &mut ctx.net,
            &ctx.den,
            1,
            SamplerConfig { steps },
            Some(&ctx.asg),
            &mut Rng::seed_from(img_seed),
            &mut session,
        )?;
        Ok(bits(&img))
    };
    let sparse = forced(ctx, 2.0)?;
    let dense = forced(ctx, 0.0)?;
    if let Err(e) = check_bitwise("forced-sparse vs forced-dense dispatch", &sparse, &dense) {
        phase.errors.push(e);
    }
    Ok(DeltaPhase {
        phase,
        steps: steps_seen,
        busy_ms,
        delta_steps,
        dense_steps,
    })
}

fn layers(
    ctx: &mut Ctx,
    untraced: &DeltaPhase,
    traced: &DeltaPhase,
    seed: u64,
) -> Result<Layers, BoxError> {
    let phases = [untraced, traced];
    let steps: Vec<usize> = phases
        .iter()
        .flat_map(|p| p.steps.iter().copied())
        .collect();
    let mean_steps = (steps.iter().sum::<usize>() as f64 / steps.len() as f64).round() as usize;
    let mut l = Layers::common(&mut ctx.net, &ctx.den, &ctx.asg, 1, mean_steps, seed)?;
    let (delta, dense) = phases
        .iter()
        .fold((0, 0), |(a, b), p| (a + p.delta_steps, b + p.dense_steps));
    l.delta_step_share = delta as f64 / (delta + dense) as f64;
    let evals: f64 = steps.iter().map(|&s| (2 * s - 1) as f64).sum();
    let busy: f64 = phases.iter().map(|p| p.busy_ms).sum();
    l.coverage = evals * (l.delta_conv_ms_per_eval + l.attention_ms_per_eval) / busy;
    l.set_overhead(&untraced.phase, &traced.phase);
    Ok(l)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, BoxError> {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut ctx = setup()?;
    let setup_s = process_start.elapsed().as_secs_f64();
    if !args.trace {
        let p = measure(&mut ctx, seed, seconds, Tracer::new(false, process_start))?.phase;
        return Ok(Report {
            e2e: p.e2e(),
            errors: p.errors,
            attempted: p.attempted,
            failed: p.failed,
            layers: None,
            setup_s,
            tracer: p.tracer,
        });
    }
    let untraced = measure(
        &mut ctx,
        seed,
        seconds / 2.0,
        Tracer::new(false, process_start),
    )?;
    let traced = measure(
        &mut ctx,
        seed,
        seconds / 2.0,
        Tracer::new(true, process_start),
    )?;
    let l = layers(&mut ctx, &untraced, &traced, seed)?;
    let mut errors = untraced.phase.errors;
    errors.extend(traced.phase.errors);
    Ok(Report {
        errors,
        attempted: untraced.phase.attempted + traced.phase.attempted,
        failed: untraced.phase.failed + traced.phase.failed,
        e2e: Vec::new(),
        layers: Some(l),
        setup_s,
        tracer: traced.phase.tracer,
    })
}
