//! `daemon_open_loop`: `sqdmd` on loopback with two `default`-preset
//! `int8-native` models and three tenants. Requests arrive open-loop on a
//! seeded Poisson schedule; one thread submits on schedule and one polls
//! `/v1/status`, so the client never holds more than two connections.
//! The HTTP, wire, daemon-lock and admission layers carry real weight
//! here, and submits (writes) race status polls (reads) for the daemon's
//! state mutex.

use crate::replay::{self, BoxError};
use crate::{Args, Layers, Phase, Report};
use e2ebench::trace::Tracer;
use e2ebench::{
    check_all_done, check_bitwise, check_count, daemon_requests, median, mix, poisson_schedule,
    sample_indices, GenRequest,
};
use sqdm_edm::daemon::{self, DaemonConfig, DaemonHandle};
use sqdm_edm::wire::{client, json, DrainReply, RegisterModel, StatsReply, StatusReply, Submit};
use sqdm_edm::{block_ids, sample, Denoiser, EdmSchedule, SamplerConfig, UNet, UNetConfig};
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::Rng;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second. The daemon admits work only while it
/// is idle, so from about a quarter of its capacity on, runs fall into
/// self-feeding bursts at random (see the rate sweep in README.md); the
/// rate stays below that even when the host runs slow.
const RATE_PER_S: f64 = 1.0;
/// Weight seeds of the two resident models.
const MODEL_SEEDS: [u64; 2] = [101, 202];
/// Images per run checked bitwise against in-process `sample()`.
const CHECKED: usize = 3;
/// Client-side deadline of one HTTP call.
const TIMEOUT: Duration = Duration::from_secs(60);

fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<client::Response, BoxError> {
    Ok(client::request(addr, method, path, body, TIMEOUT)?)
}

fn call_ok(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, BoxError> {
    let resp = call(addr, method, path, body)?;
    if !resp.is_success() {
        return Err(format!("{method} {path}: {} {}", resp.status, resp.body).into());
    }
    Ok(resp.body)
}

/// The assignment `int8-native` names on the wire.
fn int8_native() -> PrecisionAssignment {
    PrecisionAssignment::uniform(
        block_ids::COUNT,
        BlockPrecision::uniform(QuantFormat::int8()),
        "INT8",
    )
    .with_mode(ExecMode::NativeInt)
}

struct Ctx {
    handle: Option<DaemonHandle>,
    addr: SocketAddr,
    /// Requests submitted over the daemon's lifetime (warm-up included).
    submitted: usize,
    next_id: u64,
}

fn submit(addr: SocketAddr, g: &GenRequest) -> Result<client::Response, BoxError> {
    let body = json::to_string(&Submit {
        model: g.model,
        id: g.id,
        seed: g.seed,
        steps: g.steps,
        tenant: g.tenant,
        priority: 0,
    })?;
    call(addr, "POST", "/v1/submit", Some(&body))
}

fn wait_done(addr: SocketAddr, id: u64) -> Result<StatusReply, BoxError> {
    loop {
        let status: StatusReply =
            json::from_str(&call_ok(addr, "GET", &format!("/v1/status/{id}"), None)?)?;
        match status.state.as_str() {
            "done" => return Ok(status),
            "failed" => return Err(format!("request {id} failed: {:?}", status.error).into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn setup() -> Result<Ctx, BoxError> {
    let handle = daemon::spawn(DaemonConfig::default())?;
    let addr = handle.addr();
    for (m, seed) in MODEL_SEEDS.iter().enumerate() {
        let body = json::to_string(&RegisterModel {
            name: format!("model-{m}"),
            preset: "default".into(),
            precision: "int8-native".into(),
            seed: *seed,
        })?;
        call_ok(addr, "POST", "/v1/models", Some(&body))?;
    }
    // One short request per model builds its weight packs before timing.
    let mut ctx = Ctx {
        handle: Some(handle),
        addr,
        submitted: 0,
        next_id: 0,
    };
    for m in 0..MODEL_SEEDS.len() {
        let g = GenRequest {
            id: ctx.next_id,
            model: m,
            tenant: 0,
            steps: 2,
            seed: 1,
        };
        let resp = submit(addr, &g)?;
        if !resp.is_success() {
            return Err(format!("warm-up submit: {} {}", resp.status, resp.body).into());
        }
        ctx.next_id += 1;
        ctx.submitted += 1;
        wait_done(addr, g.id)?;
    }
    Ok(ctx)
}

/// What the client saw of one phase.
struct LoopPhase {
    phase: Phase,
    requests: Vec<GenRequest>,
    accept_ms: Vec<f64>,
    status_ms: Vec<f64>,
    polls: usize,
    max_lag_ms: f64,
    rounds: usize,
    mean_batch: f64,
}

/// A client call to record as a span: request index, name, start, end.
type CallSpan = (usize, &'static str, Instant, Instant);

enum Event {
    Submitted(usize),
    Refused,
}

fn measure(
    ctx: &mut Ctx,
    seed: u64,
    seconds: f64,
    rate: f64,
    tracer: Tracer,
) -> Result<LoopPhase, BoxError> {
    let addr = ctx.addr;
    let n = ((rate * seconds).round() as usize).max(1);
    let mut requests = daemon_requests(n, seed);
    for r in &mut requests {
        r.id += ctx.next_id;
    }
    ctx.next_id += n as u64;
    let due = poisson_schedule(n, n as f64 / rate, seed);
    let check_at = sample_indices(n, CHECKED, mix(seed, 0xC4E));
    let stats_before: StatsReply = json::from_str(&call_ok(addr, "GET", "/v1/stats", None)?)?;
    let traced = tracer.enabled();

    let start = Instant::now();
    let due_at = |i: usize| start + Duration::from_secs_f64(due[i]);
    let (tx, rx) = mpsc::channel::<Event>();
    let reqs = &requests;
    let (submitter, poller) = std::thread::scope(|s| {
        let sub = s.spawn(move || {
            let mut spans: Vec<CallSpan> = Vec::new();
            let mut accept_ms = Vec::with_capacity(n);
            let mut max_lag = Duration::ZERO;
            for (i, g) in reqs.iter().enumerate() {
                let at = due_at(i);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                let t0 = Instant::now();
                max_lag = max_lag.max(t0.saturating_duration_since(at));
                let ok = matches!(submit(addr, g), Ok(r) if r.is_success());
                let t1 = Instant::now();
                accept_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if traced {
                    spans.push((i, "daemon.submit", t0, t1));
                }
                let ev = if ok {
                    Event::Submitted(i)
                } else {
                    Event::Refused
                };
                if tx.send(ev).is_err() {
                    break;
                }
            }
            (spans, accept_ms, max_lag)
        });
        let poll = s.spawn(move || {
            let mut spans: Vec<CallSpan> = Vec::new();
            let mut received: Vec<Option<Instant>> = vec![None; n];
            let mut images: Vec<(usize, Vec<u32>)> = Vec::new();
            let mut status_ms = Vec::with_capacity(2 * n);
            let (mut polls, mut failed, mut resolved) = (0usize, 0u64, 0usize);
            let mut outstanding: VecDeque<usize> = VecDeque::new();
            let take = |ev: Event,
                        outstanding: &mut VecDeque<usize>,
                        resolved: &mut usize,
                        failed: &mut u64| match ev {
                Event::Submitted(i) => outstanding.push_back(i),
                Event::Refused => {
                    *resolved += 1;
                    *failed += 1;
                }
            };
            while resolved < n {
                while let Ok(ev) = rx.try_recv() {
                    take(ev, &mut outstanding, &mut resolved, &mut failed);
                }
                let Some(i) = outstanding.pop_front() else {
                    match rx.recv() {
                        Ok(ev) => take(ev, &mut outstanding, &mut resolved, &mut failed),
                        Err(_) => break,
                    }
                    continue;
                };
                let id = reqs[i].id;
                let t0 = Instant::now();
                let reply = call_ok(addr, "GET", &format!("/v1/status/{id}"), None)
                    .and_then(|b| Ok(json::from_str::<StatusReply>(&b)?));
                let t1 = Instant::now();
                polls += 1;
                status_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if traced {
                    spans.push((i, "daemon.status", t0, t1));
                }
                match reply {
                    Ok(st) if st.state == "done" => {
                        received[i] = Some(t1);
                        resolved += 1;
                        if check_at.contains(&i) {
                            if let Some(img) = st.image {
                                images.push((i, img.bits));
                            }
                        }
                    }
                    Ok(st) if st.state == "queued" || st.state == "running" => {
                        outstanding.push_back(i);
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    _ => {
                        resolved += 1;
                        failed += 1;
                    }
                }
            }
            (spans, received, images, status_ms, polls, failed)
        });
        (sub.join(), poll.join())
    });
    let (sub_spans, accept_ms, max_lag) = submitter.map_err(|_| "submit thread panicked")?;
    let (poll_spans, received, images, status_ms, polls, failed) =
        poller.map_err(|_| "poll thread panicked")?;

    let mut tracer = tracer;
    let mut errors = Vec::new();
    let mut latency_ms = Vec::with_capacity(n);
    let mut done_ids = Vec::with_capacity(n);
    let mut last = start;
    let mut request_span = vec![None; n];
    for (i, r) in received.iter().enumerate() {
        if let Some(t) = r {
            latency_ms.push((*t - due_at(i)).as_secs_f64() * 1e3);
            done_ids.push(requests[i].id);
            last = last.max(*t);
            // One span per request from its due time to its image being
            // received: the parent of its submit and status calls.
            request_span[i] = tracer.record(requests[i].id, "daemon.request", due_at(i), *t, None);
        }
    }
    for (i, name, t0, t1) in sub_spans.into_iter().chain(poll_spans) {
        tracer.record(requests[i].id, name, t0, t1, request_span[i]);
    }
    ctx.submitted += n - (failed as usize).min(n);
    let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    if let Err(e) = check_all_done(&ids, &done_ids) {
        errors.push(e);
    }
    let stats: StatsReply = json::from_str(&call_ok(addr, "GET", "/v1/stats", None)?)?;
    let completed = |s: &StatsReply| s.models.iter().map(|m| m.completed).sum::<usize>();
    if let Err(e) = check_count(
        "/v1/stats completed during the run",
        completed(&stats) - completed(&stats_before),
        done_ids.len(),
    ) {
        errors.push(e);
    }
    // Served images equal in-process sampling on a model rebuilt from
    // (preset, seed), bit for bit.
    let den = Denoiser::new(EdmSchedule::default());
    let asg = int8_native();
    for (i, bits) in images {
        let g = requests[i];
        let mut net = UNet::new(
            UNetConfig::default(),
            &mut Rng::seed_from(MODEL_SEEDS[g.model]),
        )?;
        let img = sample(
            &mut net,
            &den,
            1,
            SamplerConfig { steps: g.steps },
            Some(&asg),
            &mut Rng::seed_from(g.seed),
        )?;
        let want: Vec<u32> = img.as_slice().iter().map(|v| v.to_bits()).collect();
        if let Err(e) = check_bitwise(&format!("request {}", g.id), &bits, &want) {
            errors.push(e);
        }
    }
    let rounds: usize = stats.models.iter().map(|m| m.rounds).sum();
    let rounds_before: usize = stats_before.models.iter().map(|m| m.rounds).sum();
    let mean_batch = stats
        .models
        .iter()
        .map(|m| m.mean_batch_occupancy.unwrap_or(0.0) * m.rounds as f64)
        .sum::<f64>()
        / rounds.max(1) as f64;
    Ok(LoopPhase {
        phase: Phase {
            errors,
            attempted: n as u64,
            failed,
            images_per_s: done_ids.len() as f64 / (last - start).as_secs_f64(),
            latency_ms,
            tracer,
        },
        requests,
        accept_ms,
        status_ms,
        polls,
        max_lag_ms: max_lag.as_secs_f64() * 1e3,
        rounds: rounds - rounds_before,
        mean_batch,
    })
}

/// Drains the daemon, checks the drain reply against everything
/// submitted, and stops it.
fn finish(ctx: &mut Ctx) -> Vec<String> {
    let mut errors = Vec::new();
    match call_ok(ctx.addr, "POST", "/v1/drain", None)
        .and_then(|b| Ok(json::from_str::<DrainReply>(&b)?))
    {
        Ok(d) => {
            if let Err(e) = check_count("drain reply completed", d.completed, ctx.submitted) {
                errors.push(e);
            }
        }
        Err(e) => errors.push(format!("drain: {e}")),
    }
    if let Some(h) = ctx.handle.take() {
        h.shutdown();
    }
    errors
}

fn layers(untraced: &LoopPhase, traced: &LoopPhase, seed: u64) -> Result<Layers, BoxError> {
    let phases = [untraced, traced];
    let all_steps: Vec<usize> = phases
        .iter()
        .flat_map(|p| p.requests.iter().map(|r| r.steps))
        .collect();
    let mean_steps =
        (all_steps.iter().sum::<usize>() as f64 / all_steps.len() as f64).round() as usize;
    let rounds: usize = phases.iter().map(|p| p.rounds).sum();
    let mean_batch_f = traced.mean_batch;
    let mean_batch = (mean_batch_f.round() as usize).max(1);
    let den = Denoiser::new(EdmSchedule::default());
    let asg = int8_native();
    let mut net = UNet::new(UNetConfig::default(), &mut Rng::seed_from(MODEL_SEEDS[0]))?;
    let mut l = Layers::common(&mut net, &den, &asg, mean_batch, mean_steps, seed)?;
    let attn_b1 = replay::attention_ms(&net, &asg, 1)?;

    let evals: f64 = all_steps.iter().map(|&s| (2 * s - 1) as f64).sum();
    let latency: f64 = phases.iter().flat_map(|p| &p.phase.latency_ms).sum();
    let polls: usize = phases.iter().map(|p| p.polls).sum();
    let status: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.status_ms.iter().copied())
        .collect();
    l.status_ms_p50 = median(&status).unwrap_or(f64::NAN);
    let accept: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.accept_ms.iter().copied())
        .collect();
    l.accept_ms_p50 = median(&accept).unwrap_or(f64::NAN);
    l.polls_per_request = polls as f64 / all_steps.len() as f64;
    l.compute_share = evals * l.eval_ms_b1 / latency;
    l.serve_rounds = rounds as f64 / phases.len() as f64;
    l.serve_mean_batch = mean_batch_f;
    l.loadgen_max_lag_ms = phases.iter().map(|p| p.max_lag_ms).fold(0.0, f64::max);
    let wire_ms = (l.status_encode_us + l.status_decode_us) / 1e3;
    l.coverage =
        (evals * (l.dense_conv_b1_ms_per_eval + attn_b1) + polls as f64 * wire_ms) / latency;
    l.set_overhead(&untraced.phase, &traced.phase);
    Ok(l)
}

/// Length of the daemon probe that `offline_batch`'s traced run makes.
pub const PROBE_SECONDS: f64 = 16.0;

/// What a daemon probe hands to the traced run that made it.
pub struct Probe {
    /// Failed output checks of the probe.
    pub errors: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
}

/// Runs this workload untraced for `seconds` at its usual rate, with all
/// its output checks, and copies its daemon, wire and load-generator
/// metrics into `l`. `offline_batch`'s traced run uses it, so those
/// layers are measured although `daemon_open_loop` itself is not in
/// `BENCHMARK.json` (README.md, "Spread").
pub fn probe(seed: u64, seconds: f64, l: &mut Layers) -> Result<Probe, BoxError> {
    let mut ctx = setup()?;
    let p = measure(
        &mut ctx,
        mix(seed, 0xD43),
        seconds,
        RATE_PER_S,
        Tracer::new(false, Instant::now()),
    )?;
    let mut errors = finish(&mut ctx);
    let d = layers(&p, &p, seed)?;
    l.accept_ms_p50 = d.accept_ms_p50;
    l.status_ms_p50 = d.status_ms_p50;
    l.polls_per_request = d.polls_per_request;
    l.compute_share = d.compute_share;
    l.status_encode_us = d.status_encode_us;
    l.status_decode_us = d.status_decode_us;
    l.loadgen_max_lag_ms = d.loadgen_max_lag_ms;
    errors.extend(p.phase.errors);
    Ok(Probe {
        errors,
        attempted: p.phase.attempted,
        failed: p.phase.failed,
    })
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, BoxError> {
    let (seed, seconds) = (args.seed, args.seconds);
    let rate = args.rate.unwrap_or(RATE_PER_S);
    let mut ctx = setup()?;
    let setup_s = process_start.elapsed().as_secs_f64();
    if !args.trace {
        let p = measure(
            &mut ctx,
            seed,
            seconds,
            rate,
            Tracer::new(false, process_start),
        )?;
        let e2e = p.phase.e2e();
        let mut errors = p.phase.errors;
        errors.extend(finish(&mut ctx));
        return Ok(Report {
            e2e,
            errors,
            attempted: p.phase.attempted,
            failed: p.phase.failed,
            layers: None,
            setup_s,
            tracer: p.phase.tracer,
        });
    }
    let untraced = measure(
        &mut ctx,
        seed,
        seconds / 2.0,
        rate,
        Tracer::new(false, process_start),
    )?;
    let traced = measure(
        &mut ctx,
        seed,
        seconds / 2.0,
        rate,
        Tracer::new(true, process_start),
    )?;
    let mut errors = finish(&mut ctx);
    let l = layers(&untraced, &traced, seed)?;
    errors.extend(untraced.phase.errors);
    errors.extend(traced.phase.errors.iter().cloned());
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
