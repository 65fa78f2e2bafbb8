//! `offline_batch`: closed batches of seeded requests on a ReLU U-Net at
//! 32×32 with the paper's 4/8-bit mixed assignment on the integer engine,
//! drained by `serve::Scheduler::run` (FIFO, `max_batch` 8, accelerator
//! cost model). The integer kernels, activation quantization and
//! attention do the work; no wire, lock or delta path is involved.

use crate::replay::{self, BoxError};
use crate::{open_loop, Args, Layers, Phase, Report};
use e2ebench::trace::Tracer;
use e2ebench::{
    check_bitwise, check_serve_accounting, median, mix, offline_batch, sample_indices, StepLedger,
};
use sqdm_accel::PowerProfile;
use sqdm_edm::serve::{ScheduledRequest, ServeRequest, ServeStats};
use sqdm_edm::{
    block_profiles, sample, AccelCostModel, CostModel, CostModelConfig, Denoiser, EdmSchedule,
    SamplerConfig, Scheduler, UNet, UNetConfig,
};
use sqdm_quant::{ExecMode, PrecisionAssignment};
use sqdm_tensor::ops::Activation;
use sqdm_tensor::Rng;
use std::time::Instant;

/// Requests per closed batch.
const REQUESTS: usize = 16;
/// Scheduler in-flight capacity.
const MAX_BATCH: usize = 8;
/// Served images checked bitwise against solo `sample()` per run.
const CHECKED: usize = 2;
/// Throttle profile of the accelerator cost model.
const PROFILE: PowerProfile = PowerProfile::Efficiency;

/// The 32×32 model: the repo's default U-Net widths at the paper-relevant
/// image size. The weights are fixed; only the requests vary with the seed.
fn model_config() -> UNetConfig {
    UNetConfig {
        image_size: 32,
        ..UNetConfig::default()
    }
}

struct Ctx {
    net: UNet,
    asg: PrecisionAssignment,
    den: Denoiser,
    sched: Scheduler,
}

fn setup() -> Result<Ctx, BoxError> {
    let cfg = model_config();
    let mut net = UNet::new(cfg, &mut Rng::seed_from(17))?;
    net.set_activation(Activation::Relu);
    let asg = PrecisionAssignment::paper_mixed(&block_profiles(&cfg), 1, 1, true)
        .with_mode(ExecMode::NativeInt);
    // One warm-up evaluation: thread pool and arenas up before timing.
    replay::eval_ms(&mut net, &asg, 1, true, 1)?;
    let den = Denoiser::new(EdmSchedule::default());
    let sched = Scheduler::new(den, MAX_BATCH)
        .with_traces(false)
        .with_cost_model(CostModelConfig::Accel { profile: PROFILE });
    Ok(Ctx {
        net,
        asg,
        den,
        sched,
    })
}

/// One closed batch as served.
struct BatchRun {
    wall_ms: f64,
    stats: ServeStats,
}

struct OfflinePhase {
    phase: Phase,
    batches: Vec<BatchRun>,
}

fn measure(
    ctx: &mut Ctx,
    seed: u64,
    seconds: f64,
    tracer: Tracer,
) -> Result<OfflinePhase, BoxError> {
    let mut phase = Phase {
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
        images_per_s: 0.0,
        latency_ms: Vec::new(),
        tracer,
    };
    let mut batches = Vec::new();
    let mut checked = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    // Whole batches only, and none that would overrun the run length at
    // the pace of the previous one.
    let mut last_s = 0.0;
    while round == 0 || start.elapsed().as_secs_f64() + last_s <= seconds {
        let gen = offline_batch(seed, round, REQUESTS);
        let requests: Vec<ScheduledRequest> = gen
            .iter()
            .map(|g| ScheduledRequest::new(ServeRequest::new(g.id, g.steps).seed(g.seed), 0))
            .collect();
        phase.attempted += REQUESTS as u64;
        let t0 = Instant::now();
        let (outputs, stats) = ctx.sched.run(&mut ctx.net, &requests, Some(&ctx.asg))?;
        let t1 = Instant::now();
        phase.tracer.record(round, "serve.run", t0, t1, None);

        let ledgers: Vec<StepLedger> = stats
            .requests
            .iter()
            .map(|r| StepLedger {
                latency: r.latency,
                queue_delay: r.queue_delay,
                steps_in_batch: r.steps_in_batch,
                parked_steps: r.parked_steps,
            })
            .collect();
        if let Err(e) = check_serve_accounting(
            REQUESTS,
            &ledgers,
            stats.mean_occupancy(),
            stats.peak_occupancy(),
        ) {
            phase.errors.push(format!("batch {round}: {e}"));
        }
        phase.failed += (REQUESTS - outputs.len()) as u64;
        // Completion time from batch start: every request arrives at step
        // 0 and the clock advances one step per round, so a request that
        // completed at step k finished after the first k rounds.
        let mut done_ns = vec![0u64; stats.step_latency_ns.len() + 1];
        for (i, ns) in stats.step_latency_ns.iter().enumerate() {
            done_ns[i + 1] = done_ns[i] + ns;
        }
        for r in &stats.requests {
            phase
                .latency_ms
                .push(done_ns[r.completed_step.min(done_ns.len() - 1)] as f64 / 1e6);
        }
        if checked.len() < CHECKED {
            for i in sample_indices(REQUESTS, 1, mix(seed, round)) {
                if let Some(out) = outputs.iter().find(|o| o.id == gen[i].id) {
                    checked.push((
                        gen[i],
                        out.image
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u32>>(),
                    ));
                }
            }
        }
        last_s = (t1 - t0).as_secs_f64();
        batches.push(BatchRun {
            wall_ms: (t1 - t0).as_secs_f64() * 1e3,
            stats,
        });
        round += 1;
    }
    // Median over batches, so one batch slowed by the host does not move
    // the run's figure.
    let rates: Vec<f64> = batches
        .iter()
        .map(|b| b.stats.requests.len() as f64 * 1e3 / b.wall_ms)
        .collect();
    phase.images_per_s = median(&rates).unwrap_or(f64::NAN);

    // Served images must equal solo sampling with the same seed, steps and
    // assignment, bit for bit.
    for (g, bits) in checked {
        let solo = sample(
            &mut ctx.net,
            &ctx.den,
            1,
            SamplerConfig { steps: g.steps },
            Some(&ctx.asg),
            &mut Rng::seed_from(g.seed),
        )?;
        let want: Vec<u32> = solo.as_slice().iter().map(|v| v.to_bits()).collect();
        if let Err(e) = check_bitwise(&format!("request {}", g.id), &bits, &want) {
            phase.errors.push(e);
        }
    }
    Ok(OfflinePhase { phase, batches })
}

fn layers(
    ctx: &mut Ctx,
    untraced: &OfflinePhase,
    traced: &OfflinePhase,
    seed: u64,
) -> Result<Layers, BoxError> {
    let all: Vec<&BatchRun> = untraced.batches.iter().chain(&traced.batches).collect();
    let rounds: usize = all.iter().map(|b| b.stats.rounds).sum();
    let streams: usize = all.iter().flat_map(|b| &b.stats.batch_occupancy).sum();
    let mean_batch_f = streams as f64 / rounds as f64;
    let mean_batch = (mean_batch_f.round() as usize).clamp(1, MAX_BATCH);
    // Nothing is parked, so a request's rounds in the batch are its steps.
    let all_steps: Vec<usize> = all
        .iter()
        .flat_map(|b| b.stats.requests.iter().map(|r| r.steps_in_batch))
        .collect();
    let mean_steps =
        (all_steps.iter().sum::<usize>() as f64 / all_steps.len() as f64).round() as usize;
    let mut l = Layers::common(
        &mut ctx.net,
        &ctx.den,
        &ctx.asg,
        mean_batch,
        mean_steps,
        seed,
    )?;

    // Replayed evaluation time at every batch size a round can use.
    let mut eval_at = vec![0.0; MAX_BATCH + 1];
    let mut layer_at = vec![0.0; MAX_BATCH + 1];
    for b in 1..=MAX_BATCH {
        eval_at[b] = replay::eval_ms(&mut ctx.net, &ctx.asg, b, true, 3)?;
        layer_at[b] = l.conv_ms_per_eval * b as f64 / mean_batch as f64
            + replay::attention_ms(&ctx.net, &ctx.asg, b)?;
    }
    // A Heun round evaluates its whole batch, then again every stream not
    // on its last step (the last step has no correction). Requests all
    // arrive at step 0, so round r retires those completing at step r + 1.
    let replayed = |b: &BatchRun, at: &[f64]| -> f64 {
        let mut finishing = vec![0usize; b.stats.batch_occupancy.len()];
        for r in &b.stats.requests {
            if let Some(f) = finishing.get_mut(r.completed_step.wrapping_sub(1)) {
                *f += 1;
            }
        }
        b.stats
            .batch_occupancy
            .iter()
            .zip(&finishing)
            .map(|(&k, &f)| at[k] + at[k.saturating_sub(f)])
            .sum()
    };
    let self_ms: Vec<f64> = all
        .iter()
        .map(|b| b.wall_ms - replayed(b, &eval_at))
        .collect();
    let wall: f64 = all.iter().map(|b| b.wall_ms).sum();
    let round_ms: Vec<f64> = all
        .iter()
        .flat_map(|b| b.stats.step_latency_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();

    // Host cost of the accelerator accounting, replayed on the recorded
    // batch sequence.
    let mut model = AccelCostModel::new(PROFILE, MAX_BATCH);
    let seq: Vec<usize> = all
        .iter()
        .flat_map(|b| b.stats.batch_occupancy.iter().copied())
        .collect();
    let t = Instant::now();
    for &b in &seq {
        std::hint::black_box(model.round_accounting(b));
    }
    l.round_accounting_us = t.elapsed().as_secs_f64() * 1e6 / seq.len() as f64;

    l.serve_rounds = rounds as f64 / all.len() as f64;
    l.serve_mean_batch = mean_batch_f;
    l.serve_round_ms_p50 = median(&round_ms).unwrap_or(f64::NAN);
    l.serve_self_ms = self_ms.iter().sum::<f64>() / self_ms.len() as f64;
    l.sim_energy_per_image_pj = all
        .iter()
        .map(|b| b.stats.energy_per_image_pj())
        .sum::<f64>()
        / all.len() as f64;
    l.sim_mean_occupancy =
        all.iter().map(|b| b.stats.mean_occupancy()).sum::<f64>() / all.len() as f64;
    l.coverage = all.iter().map(|b| replayed(b, &layer_at)).sum::<f64>() / wall;
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
    let mut l = layers(&mut ctx, &untraced, &traced, seed)?;
    let probe = open_loop::probe(seed, open_loop::PROBE_SECONDS, &mut l)?;
    let mut errors = untraced.phase.errors;
    errors.extend(traced.phase.errors);
    errors.extend(probe.errors);
    Ok(Report {
        errors,
        attempted: untraced.phase.attempted + traced.phase.attempted + probe.attempted,
        failed: untraced.phase.failed + traced.phase.failed + probe.failed,
        e2e: Vec::new(),
        layers: Some(l),
        setup_s,
        tracer: traced.phase.tracer,
    })
}
