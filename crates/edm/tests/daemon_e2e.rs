//! Socket-level end-to-end suite for the `sqdmd` daemon.
//!
//! Boots the daemon on an ephemeral port and drives every endpoint over a
//! real TCP connection: register → submit → status → stats → drain. The
//! load-bearing assertion is the serving contract at the network
//! boundary: every image that crosses the wire is **bitwise identical**
//! to the solo `sample()` run with the same `(seed, steps)` on the same
//! model. The CI matrix runs this under both `SQDM_EXEC` modes and
//! `SQDM_THREADS` 1 and 4; a watchdog aborts fast if a listener wedges.

mod common;

use common::{get, post, submit_ok, wait_done, watchdog};
use sqdm_edm::daemon::{self, DaemonConfig};
use sqdm_edm::wire::{json, DrainReply, ModelRegistered, RegisterModel, StatsReply, Submit};
use sqdm_edm::{sample, Denoiser, EdmSchedule, SamplerConfig, UNet, UNetConfig};
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::Rng;
use std::time::Duration;

fn int8_env_assignment() -> PrecisionAssignment {
    PrecisionAssignment::uniform(
        sqdm_edm::block_ids::COUNT,
        BlockPrecision::uniform(QuantFormat::int8()),
        "INT8",
    )
    .with_mode(ExecMode::from_env())
}

/// Solo-reference bits for `(model_seed, assignment, request)` on a fresh
/// micro U-Net — the ground truth the daemon must reproduce exactly.
fn solo_bits(
    model_seed: u64,
    assignment: Option<&PrecisionAssignment>,
    seed: u64,
    steps: usize,
) -> Vec<u32> {
    let mut rng = Rng::seed_from(model_seed);
    let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
    let den = Denoiser::new(EdmSchedule::default());
    let mut req_rng = Rng::seed_from(seed);
    let img = sample(
        &mut net,
        &den,
        1,
        SamplerConfig { steps },
        assignment,
        &mut req_rng,
    )
    .unwrap();
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn daemon_round_trip_is_bitwise_identical_to_solo_sampling() {
    let _wd = watchdog(600);
    let handle = daemon::spawn(DaemonConfig {
        max_batch: 2,
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // POST /v1/models: one full-precision and one quantized model, the
    // latter resolving its execution mode from the daemon's SQDM_EXEC.
    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "fp32-ref".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 31,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let reg: ModelRegistered = json::from_str(&resp.body).unwrap();
    assert_eq!((reg.model, reg.precision.as_str()), (0, "fp32"));

    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "int8-env".into(),
            preset: "micro".into(),
            precision: "int8".into(),
            seed: 31,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let reg: ModelRegistered = json::from_str(&resp.body).unwrap();
    assert_eq!(reg.model, 1);
    let expected_precision = match ExecMode::from_env() {
        ExecMode::FakeQuant => "int8-fakequant",
        ExecMode::NativeInt => "int8-native",
    };
    assert_eq!(reg.precision, expected_precision);

    // POST /v1/submit: mixed budgets, tenants, and models — more work
    // than max_batch so continuous batching has to queue and re-pack.
    let requests = [
        // (model, id, seed, steps, tenant)
        (0usize, 1u64, 11u64, 3usize, 1u32),
        (0, 2, 12, 5, 2),
        (0, 3, 13, 3, 1),
        (1, 4, 11, 3, 1),
        (1, 5, 14, 4, 3),
    ];
    for &(model, id, seed, steps, tenant) in &requests {
        let accepted = submit_ok(
            addr,
            Submit {
                model,
                id,
                seed,
                steps,
                tenant,
                priority: 0,
            },
        );
        assert_eq!((accepted.id, accepted.model), (id, model));
    }

    // GET /v1/status/{id}: poll to completion and pin the bits.
    let asg = int8_env_assignment();
    for &(model, id, seed, steps, _) in &requests {
        let status = wait_done(addr, id);
        assert_eq!(status.state, "done", "request {id}: {:?}", status.error);
        assert_eq!(status.model, model);
        let image = status.image.expect("done status carries the image");
        assert_eq!(image.dims, vec![1, 1, 8, 8]);
        let reference = solo_bits(31, if model == 1 { Some(&asg) } else { None }, seed, steps);
        assert_eq!(
            image.bits, reference,
            "request {id} bits differ from solo sample()"
        );
    }

    // GET /v1/stats: per-model aggregates with percentiles, tenant
    // rollups ascending, everything over completed requests.
    let resp = get(addr, "/v1/stats");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let stats: StatsReply = json::from_str(&resp.body).unwrap();
    assert!(!stats.draining);
    assert_eq!(stats.active_requests, 0);
    assert_eq!(stats.models.len(), 2);
    assert_eq!(stats.models[0].completed, 3);
    assert_eq!(stats.models[1].completed, 2);
    assert_eq!(stats.models[1].precision, expected_precision);
    for m in &stats.models {
        assert!(m.rounds > 0);
        let (p50, p95, p99) = (
            m.p50_latency.unwrap(),
            m.p95_latency.unwrap(),
            m.p99_latency.unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
        assert!(m.mean_latency.unwrap() > 0.0);
        // No --energy-budget: the no-op cost model accounts nothing, and
        // the energy/occupancy aggregates stay absent on the wire.
        assert!(m.energy_per_image_pj.is_none());
        assert!(m.mean_occupancy.is_none());
        assert!(m.peak_occupancy.is_none());
    }
    assert_eq!(
        stats.tenants.iter().map(|t| t.tenant).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert_eq!(stats.tenants[0].requests, 3);
    assert!(stats.rounds >= 8, "5 requests over max_batch 2 need rounds");

    // POST /v1/drain: idle daemon drains immediately with lifetime stats.
    let resp = post(addr, "/v1/drain", &());
    assert_eq!(resp.status, 200, "{}", resp.body);
    let drain: DrainReply = json::from_str(&resp.body).unwrap();
    assert_eq!(drain.completed, 5);
    assert_eq!(drain.rounds, stats.rounds);

    // Post-drain: submits and registrations get 503; reads still work.
    let resp = post(
        addr,
        "/v1/submit",
        &Submit {
            model: 0,
            id: 99,
            seed: 1,
            steps: 3,
            tenant: 0,
            priority: 0,
        },
    );
    assert_eq!(resp.status, 503, "{}", resp.body);
    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "late".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 1,
        },
    );
    assert_eq!(resp.status, 503, "{}", resp.body);
    let resp = get(addr, "/v1/stats");
    assert_eq!(resp.status, 200);
    let stats: StatsReply = json::from_str(&resp.body).unwrap();
    assert!(stats.draining);

    handle.wait_drained();
    handle.shutdown();
}

#[test]
fn energy_budgeted_daemon_reports_energy_and_occupancy_and_stays_bitwise() {
    let _wd = watchdog(600);
    // A roomy per-window budget: admission behaves like FIFO, but every
    // round is accounted through the accelerator cost model, so the
    // energy/occupancy aggregates appear in /v1/stats.
    let handle = daemon::spawn(DaemonConfig {
        max_batch: 2,
        energy_budget: Some(1 << 40),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "m".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 31,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    let requests = [(1u64, 11u64, 3usize), (2, 12, 4), (3, 13, 3)];
    for &(id, seed, steps) in &requests {
        submit_ok(
            addr,
            Submit {
                model: 0,
                id,
                seed,
                steps,
                tenant: 0,
                priority: 0,
            },
        );
    }
    // The energy-capped policy is pure scheduling: images still cross the
    // wire bitwise identical to solo sampling.
    for &(id, seed, steps) in &requests {
        let status = wait_done(addr, id);
        assert_eq!(status.state, "done", "request {id}: {:?}", status.error);
        let image = status.image.expect("done status carries the image");
        assert_eq!(image.bits, solo_bits(31, None, seed, steps));
    }

    let stats: StatsReply = json::from_str(&get(addr, "/v1/stats").body).unwrap();
    assert_eq!(stats.proto_version, sqdm_edm::wire::PROTO_VERSION);
    let m = &stats.models[0];
    assert_eq!(m.completed, 3);
    let energy = m.energy_per_image_pj.expect("energy aggregate present");
    assert!(energy > 0.0, "energy per image must be positive: {energy}");
    let mean_occ = m.mean_occupancy.expect("mean occupancy present");
    let peak_occ = m.peak_occupancy.expect("peak occupancy present");
    assert!(
        mean_occ > 0.0 && mean_occ <= 1.0,
        "mean occupancy {mean_occ}"
    );
    assert!(peak_occ >= mean_occ && peak_occ <= 1.0, "peak {peak_occ}");

    let resp = post(addr, "/v1/drain", &());
    assert_eq!(resp.status, 200, "{}", resp.body);
    let drain: DrainReply = json::from_str(&resp.body).unwrap();
    assert_eq!(drain.completed, 3);
    handle.wait_drained();
    handle.shutdown();
}

#[test]
fn drain_completes_inflight_rounds_and_rejects_new_submits() {
    let _wd = watchdog(600);
    // The round delay throttles the serve loop (sleeping OUTSIDE the
    // lock), giving the drain window a deterministic width: 40 steps at
    // >= 10ms per round keeps the daemon draining for hundreds of ms.
    let handle = daemon::spawn(DaemonConfig {
        max_batch: 2,
        round_delay: Duration::from_millis(10),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "m".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 7,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    let long = Submit {
        model: 0,
        id: 1,
        seed: 9,
        steps: 40,
        tenant: 0,
        priority: 0,
    };
    submit_ok(addr, long);

    // Fire the drain from a second connection; it blocks until the
    // in-flight request finishes all remaining denoise rounds.
    let drainer = std::thread::spawn(move || post(addr, "/v1/drain", &()));

    // Wait until the daemon reports draining, then a submit must be
    // rejected with 503 while request 1 is still in flight.
    loop {
        let stats: StatsReply = json::from_str(&get(addr, "/v1/stats").body).unwrap();
        if stats.draining {
            assert!(
                stats.active_requests > 0,
                "request 1 should still be in flight while draining"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = post(
        addr,
        "/v1/submit",
        &Submit {
            model: 0,
            id: 2,
            seed: 1,
            steps: 3,
            tenant: 0,
            priority: 0,
        },
    );
    assert_eq!(resp.status, 503, "{}", resp.body);

    // The drain reply arrives only after request 1 completed, and its
    // final stats count it.
    let resp = drainer.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let drain: DrainReply = json::from_str(&resp.body).unwrap();
    assert_eq!(drain.completed, 1);
    assert!(drain.rounds >= 40, "all 40 rounds must have executed");

    // The in-flight request finished with the exact solo bits — drain
    // never cuts a denoise short.
    let status = wait_done(addr, 1);
    assert_eq!(status.state, "done");
    let image = status.image.unwrap();
    assert_eq!(image.bits, solo_bits(7, None, long.seed, long.steps));

    handle.wait_drained();
    handle.shutdown();
}

#[test]
fn bounded_queue_overflow_returns_429_and_daemon_drains_cleanly() {
    let _wd = watchdog(600);
    // One in-flight slot, one pending slot: the third concurrent request
    // must be refused with 429. The round delay keeps the long request in
    // flight for hundreds of ms so the overflow window is deterministic.
    let handle = daemon::spawn(DaemonConfig {
        max_batch: 1,
        max_pending: Some(1),
        round_delay: Duration::from_millis(10),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "m".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 7,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    let submit = |id: u64, steps: usize| Submit {
        model: 0,
        id,
        seed: id,
        steps,
        tenant: 0,
        priority: 0,
    };

    // Occupy the single batch slot...
    submit_ok(addr, submit(1, 40));
    loop {
        let status: sqdm_edm::wire::StatusReply =
            json::from_str(&get(addr, "/v1/status/1").body).unwrap();
        if status.state == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...fill the single pending slot...
    submit_ok(addr, submit(2, 3));
    // ...and the queue is now full: the next submission bounces with 429
    // without entering the request table.
    let resp = post(addr, "/v1/submit", &submit(3, 3));
    assert_eq!(resp.status, 429, "{}", resp.body);
    let err: sqdm_edm::wire::ErrorReply = json::from_str(&resp.body).unwrap();
    assert!(err.error.contains("overloaded"), "{}", err.error);
    assert_eq!(get(addr, "/v1/status/3").status, 404);

    let stats: StatsReply = json::from_str(&get(addr, "/v1/stats").body).unwrap();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.proto_version, sqdm_edm::wire::PROTO_VERSION);
    assert!(!stats.draining, "a 429 must not poison the daemon");

    // A rejected id stays reusable: once the long request finishes and
    // admission drains the queue, the same id is accepted.
    wait_done(addr, 1);
    loop {
        let resp = post(addr, "/v1/submit", &submit(3, 3));
        match resp.status {
            200 => break,
            429 => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }

    assert_eq!(wait_done(addr, 2).state, "done");
    assert_eq!(wait_done(addr, 3).state, "done");

    // The daemon drains cleanly after the overload episode, and the drain
    // stats count exactly the three completed requests.
    let resp = post(addr, "/v1/drain", &());
    assert_eq!(resp.status, 200, "{}", resp.body);
    let drain: DrainReply = json::from_str(&resp.body).unwrap();
    assert_eq!(drain.completed, 3);

    handle.wait_drained();
    handle.shutdown();
}
