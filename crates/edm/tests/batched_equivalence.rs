//! Batched serving vs. one-at-a-time sampling: the bitwise contract.
//!
//! `sqdm_edm::serve` promises that packing N concurrent requests into
//! batched forwards changes *nothing* about any request's result: the
//! image equals the one `sample` produces for the same `(seed, steps)`,
//! bit for bit, for any batch composition (mixed step budgets included),
//! in both execution modes, at any `SQDM_THREADS`. These property tests
//! pin that contract over random request mixes and thread counts
//! `{1, 2, 7}`, plus `forward_batch` directly against per-sample
//! `forward` calls.

use proptest::prelude::*;
use sqdm_accel::PowerProfile;
use sqdm_edm::serve::{
    AdmissionPolicy, BackpressurePolicy, BatchSampler, QueueBound, ScheduledRequest, Scheduler,
    ServeRequest,
};
use sqdm_edm::{
    block_ids, sample, AccelCostModel, CostModel, CostModelConfig, Denoiser, EdmSchedule,
    ModelRegistry, RegistryRequest, RegistryScheduler, RunConfig, SamplerConfig, UNet, UNetConfig,
};
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::parallel::with_threads;
use sqdm_tensor::{Rng, Tensor};

/// Serial reference plus even and lopsided pool partitions.
const THREADS: [usize; 3] = [1, 2, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn int8_assignment(mode: ExecMode) -> PrecisionAssignment {
    PrecisionAssignment::uniform(
        block_ids::COUNT,
        BlockPrecision::uniform(QuantFormat::int8()),
        "INT8",
    )
    .with_mode(mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// A batched `forward_batch` over N packed samples equals N
    /// single-sample `forward` calls, bitwise, in both execution modes
    /// and at every thread count.
    #[test]
    fn forward_batch_is_bitwise_equal_to_single_sample_forwards(
        (n, seed) in (2usize..5, 0u64..1 << 32)
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let x = Tensor::randn([n, 1, 8, 8], &mut rng);
        let c_noise: Vec<f32> = (0..n).map(|i| -0.7 + 0.45 * i as f32).collect();
        let stride = 8 * 8;
        for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
            let asg = int8_assignment(mode);
            for t in THREADS {
                let batched = with_threads(t, || {
                    let mut rc = RunConfig {
                        train: false,
                        assignment: Some(&asg),
                        observer: None,
                        batched: false,
                        packs: None,
                        delta: None,
                    };
                    net.forward_batch(&x, &c_noise, &mut rc).unwrap()
                });
                for nn in 0..n {
                    let sample = Tensor::from_vec(
                        x.as_slice()[nn * stride..(nn + 1) * stride].to_vec(),
                        [1, 1, 8, 8],
                    )
                    .unwrap();
                    let single = with_threads(t, || {
                        let mut rc = RunConfig {
                            train: false,
                            assignment: Some(&asg),
                            observer: None,
                            batched: false,
                            packs: None,
                            delta: None,
                        };
                        net.forward(&sample, &c_noise[nn..nn + 1], &mut rc).unwrap()
                    });
                    let bv = &batched.as_slice()[nn * stride..(nn + 1) * stride];
                    let sv = single.as_slice();
                    for (j, (a, b)) in bv.iter().zip(sv.iter()).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{:?} sample {} elem {} at {} threads",
                            mode, nn, j, t
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Serving a random mix of requests (distinct seeds, mixed step
    /// budgets) equals one-at-a-time sampling, bitwise, in both execution
    /// modes and at every thread count.
    #[test]
    fn batched_serving_equals_individual_sampling(
        (net_seed, s0, s1, s2, extra) in
            (0u64..1 << 16, 2usize..4, 2usize..6, 2usize..4, 0u64..1 << 16)
    ) {
        let mut rng = Rng::seed_from(net_seed);
        let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let den = Denoiser::new(EdmSchedule::default());
        let requests = [
            ServeRequest::new(0, s0).seed(extra.wrapping_add(1)),
            ServeRequest::new(1, s1).seed(extra.wrapping_add(2)),
            ServeRequest::new(2, s2).seed(extra.wrapping_add(3)),
        ];
        for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
            let asg = int8_assignment(mode);
            for t in THREADS {
                let served = with_threads(t, || {
                    BatchSampler::new(den).run(&mut net, &requests, Some(&asg)).unwrap()
                });
                for (req, out) in requests.iter().zip(&served) {
                    let single = with_threads(t, || {
                        let mut r = Rng::seed_from(req.seed);
                        sample(
                            &mut net,
                            &den,
                            1,
                            SamplerConfig { steps: req.steps },
                            Some(&asg),
                            &mut r,
                        )
                        .unwrap()
                    });
                    prop_assert_eq!(
                        bits(&out.image),
                        bits(&single),
                        "{:?} request {} at {} threads",
                        mode, req.id, t
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Continuous batching holds the same contract under *random
    /// scheduling*: random arrival steps, step budgets, and `max_batch`
    /// (1 degenerates to sequential serving), in both execution modes and
    /// at every thread count, every request's output is bitwise the solo
    /// `sample()` image — admission timing and batch neighbors never leak
    /// into a stream's arithmetic.
    #[test]
    fn continuous_batching_equals_individual_sampling(
        (net_seed, max_batch, arrivals, budgets, extra) in (
            0u64..1 << 16,
            1usize..4,
            (0usize..6, 0usize..6, 0usize..6),
            (2usize..5, 2usize..5, 2usize..5),
            0u64..1 << 16,
        )
    ) {
        let mut rng = Rng::seed_from(net_seed);
        let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let den = Denoiser::new(EdmSchedule::default());
        let arrivals = [arrivals.0, arrivals.1, arrivals.2];
        let budgets = [budgets.0, budgets.1, budgets.2];
        let requests: Vec<ScheduledRequest> = (0..3)
            .map(|i| ScheduledRequest::new(
                ServeRequest::new(i as u64, budgets[i]).seed(extra.wrapping_add(i as u64 + 1)),
                arrivals[i],
            ))
            .collect();
        for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
            let asg = int8_assignment(mode);
            for t in THREADS {
                let sched = Scheduler::new(den, max_batch);
                let (served, stats) = with_threads(t, || {
                    sched.run(&mut net, &requests, Some(&asg)).unwrap()
                });
                for (req, out) in requests.iter().zip(&served) {
                    prop_assert_eq!(req.request.id, out.id);
                    let single = with_threads(t, || {
                        let mut r = Rng::seed_from(req.request.seed);
                        sample(
                            &mut net,
                            &den,
                            1,
                            SamplerConfig { steps: req.request.steps },
                            Some(&asg),
                            &mut r,
                        )
                        .unwrap()
                    });
                    prop_assert_eq!(
                        bits(&out.image),
                        bits(&single),
                        "{:?} request {} at {} threads (max_batch {})",
                        mode, req.request.id, t, max_batch
                    );
                    // Scheduling bookkeeping is consistent regardless of
                    // the random mix.
                    let rs = stats.request(req.request.id).unwrap();
                    prop_assert_eq!(
                        rs.latency,
                        rs.queue_delay + rs.steps_in_batch + rs.parked_steps
                    );
                    prop_assert_eq!(rs.steps_in_batch, req.request.steps);
                    prop_assert!(rs.admitted_step >= req.arrival_step);
                }
                prop_assert!(stats.batch_occupancy.iter().all(|&o| o <= max_batch));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Multi-tenant registry serving holds the contract too: random
    /// tenants, target models, arrival steps, and step budgets, two
    /// resident models, in both execution modes and at every thread
    /// count, every request's output is bitwise the solo `sample()` image
    /// on its model — co-residency, tenancy, fair-share admission, and
    /// pack-cache reuse never leak into a stream's arithmetic. The
    /// fair-share admission order itself is deterministic: a re-run
    /// reproduces every virtual-clock stat exactly.
    #[test]
    fn registry_multi_tenant_serving_equals_solo_sampling(
        (net_seed, max_batch, spec, extra) in (
            0u64..1 << 16,
            1usize..3,
            proptest::collection::vec(
                (0usize..2, 0u32..3, 0usize..6, 2usize..5),
                4,
            ),
            0u64..1 << 16,
        )
    ) {
        let den = Denoiser::new(EdmSchedule::default());
        let requests: Vec<RegistryRequest> = spec
            .iter()
            .enumerate()
            .map(|(i, &(model, tenant, arrival, steps))| {
                RegistryRequest::new(
                    model,
                    ScheduledRequest::new(
                        ServeRequest::new(i as u64, steps)
                            .seed(extra.wrapping_add(i as u64 + 1))
                            .tenant(tenant),
                        arrival,
                    ),
                )
            })
            .collect();
        for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
            let asg = int8_assignment(mode);
            // One registry per mode: its pack caches stay warm across the
            // thread sweep, so this also pins that cached packs are
            // thread-count-transparent.
            let mut rng = Rng::seed_from(net_seed);
            let net_a = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
            let net_b = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
            let mut registry = ModelRegistry::new();
            registry.register("a", net_a, Some(asg.clone()), den);
            registry.register("b", net_b, None, den);
            let sched = RegistryScheduler::new(max_batch);
            // Solo references on fresh, identically seeded models.
            let mut rng = Rng::seed_from(net_seed);
            let mut solo_a = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
            let mut solo_b = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
            let mut reference_stats: Option<Vec<_>> = None;
            for t in THREADS {
                let (served, stats) = with_threads(t, || {
                    sched.run(&mut registry, &requests).unwrap()
                });
                for (req, out) in requests.iter().zip(&served) {
                    prop_assert_eq!(req.scheduled.request.id, out.id);
                    let single = with_threads(t, || {
                        let mut r = Rng::seed_from(req.scheduled.request.seed);
                        let (net, asg) = if req.model == 0 {
                            (&mut solo_a, Some(&asg))
                        } else {
                            (&mut solo_b, None)
                        };
                        sample(
                            net,
                            &den,
                            1,
                            SamplerConfig { steps: req.scheduled.request.steps },
                            asg,
                            &mut r,
                        )
                        .unwrap()
                    });
                    prop_assert_eq!(
                        bits(&out.image),
                        bits(&single),
                        "{:?} request {} (model {}, tenant {}) at {} threads",
                        mode,
                        req.scheduled.request.id,
                        req.model,
                        req.scheduled.request.tenant,
                        t
                    );
                }
                // Admission is a pure function of the request set: the
                // virtual-clock stats are identical at every thread count
                // and across runs.
                let clocked: Vec<_> = stats
                    .per_model
                    .iter()
                    .flat_map(|s| s.requests.iter().cloned())
                    .collect();
                match &reference_stats {
                    None => reference_stats = Some(clocked),
                    Some(reference) => prop_assert_eq!(reference, &clocked),
                }
            }
        }
    }
}

/// One scheduling outcome, compared across thread counts and exec modes:
/// (rejected ids, shed ids, preemption count, completed ids in order).
type Decisions = (Vec<u64>, Vec<u64>, usize, Vec<u64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    /// Priority and Preempt admission — including the preempt-park-resume
    /// path — and every backpressure policy (Reject, ShedOldest,
    /// ShedLargestBudget) keep the bitwise contract: each completed
    /// request equals the solo `sample()` image bit for bit at threads
    /// 1/2/7 in both execution modes, and the scheduling decisions
    /// themselves (who was shed or rejected, how often streams were
    /// preempted, who completed) are identical across every thread count
    /// and execution mode.
    #[test]
    fn admission_and_backpressure_policies_are_bitwise_deterministic(
        ((net_seed, extra), (p0, p1, p2, p3), (a1, a2, a3)) in (
            (0u64..1 << 16, 0u64..1 << 16),
            (0u32..3, 0u32..3, 0u32..3, 0u32..3),
            (1usize..3, 1usize..3, 1usize..3),
        )
    ) {
        let mut rng = Rng::seed_from(net_seed);
        let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let den = Denoiser::new(EdmSchedule::default());
        let req = |id: u64, steps: usize, prio: u32, arrival: usize| {
            ScheduledRequest::new(
                ServeRequest::new(id, steps)
                    .seed(extra.wrapping_add(id + 1))
                    .tenant((id % 2) as u32)
                    .priority(prio),
                arrival,
            )
        };
        // One long-budget request arriving alone, then three short ones:
        // under Preempt with max_batch 1 the elephant is guaranteed to be
        // parked for a shorter newcomer and resumed later.
        let spread = vec![
            req(0, 6, p0, 0), req(1, 2, p1, a1), req(2, 3, p2, a2), req(3, 2, p3, a3),
        ];
        // A near-coordinated arrival burst that must overflow a bound of 1.
        let burst = vec![
            req(0, 6, p0, 0), req(1, 2, p1, 1), req(2, 3, p2, 1), req(3, 2, p3, 2),
        ];
        let bound = |policy| QueueBound { capacity: 1, policy };
        let configs: Vec<(&str, Scheduler, Vec<ScheduledRequest>, bool)> = vec![
            (
                "priority",
                Scheduler::new(den, 2).with_policy(AdmissionPolicy::Priority),
                spread.clone(),
                false,
            ),
            (
                "preempt",
                Scheduler::new(den, 1).with_policy(AdmissionPolicy::Preempt),
                spread.clone(),
                true,
            ),
            (
                "reject",
                Scheduler::new(den, 1)
                    .with_queue_bound(bound(BackpressurePolicy::Reject)),
                burst.clone(),
                false,
            ),
            (
                "shed-oldest",
                Scheduler::new(den, 1)
                    .with_queue_bound(bound(BackpressurePolicy::ShedOldest)),
                burst.clone(),
                false,
            ),
            (
                "shed-largest",
                Scheduler::new(den, 1)
                    .with_queue_bound(bound(BackpressurePolicy::ShedLargestBudget)),
                burst.clone(),
                false,
            ),
        ];
        for (label, sched, requests, must_preempt) in &configs {
            // Decisions must not depend on threads *or* execution mode.
            let mut decisions: Option<Decisions> = None;
            for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
                let asg = int8_assignment(mode);
                // Solo references, fixed per mode: matching them at every
                // thread count pins both solo equivalence and cross-thread
                // bitwise identity.
                let solo: Vec<(u64, Vec<u32>)> = requests.iter().map(|r| {
                    let mut rr = Rng::seed_from(r.request.seed);
                    let img = with_threads(1, || sample(
                        &mut net,
                        &den,
                        1,
                        SamplerConfig { steps: r.request.steps },
                        Some(&asg),
                        &mut rr,
                    ).unwrap());
                    (r.request.id, bits(&img))
                }).collect();
                for t in THREADS {
                    let (served, stats) = with_threads(t, || {
                        sched.run(&mut net, requests, Some(&asg)).unwrap()
                    });
                    for out in &served {
                        let reference = solo
                            .iter()
                            .find(|(id, _)| *id == out.id)
                            .map(|(_, b)| b)
                            .unwrap();
                        prop_assert_eq!(
                            &bits(&out.image),
                            reference,
                            "{} {:?} request {} at {} threads",
                            label, mode, out.id, t
                        );
                    }
                    let run_decisions = (
                        stats.rejected_ids.clone(),
                        stats.shed_ids.clone(),
                        stats.preemptions,
                        served.iter().map(|o| o.id).collect::<Vec<u64>>(),
                    );
                    // Every submission is accounted for exactly once.
                    prop_assert_eq!(
                        run_decisions.0.len() + run_decisions.1.len()
                            + run_decisions.3.len(),
                        requests.len(),
                        "{} {:?} at {} threads", label, mode, t
                    );
                    if *must_preempt {
                        prop_assert!(
                            stats.preemptions >= 1,
                            "{} must exercise park-resume", label
                        );
                    }
                    match &decisions {
                        None => decisions = Some(run_decisions),
                        Some(reference) => prop_assert_eq!(
                            reference,
                            &run_decisions,
                            "{} {:?} at {} threads",
                            label, mode, t
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    /// The cost-model layer is decision- and bit-transparent under the
    /// no-op model: with `CostModelConfig::Noop` installed explicitly,
    /// every admission policy — the six pre-existing ones and the two
    /// cost-aware ones — completes every request with the bitwise solo
    /// image at threads 1/2/7 in both execution modes, its decisions are
    /// identical across every thread count and mode, and the cost-aware
    /// policies collapse exactly onto FIFO's admission schedule (zero
    /// estimates can never exhaust a budget or leave an occupancy band).
    #[test]
    fn noop_cost_model_is_decision_and_bit_transparent(
        ((net_seed, extra), (p0, p1, p2), (a1, a2), (s0, s1, s2)) in (
            (0u64..1 << 16, 0u64..1 << 16),
            (0u32..3, 0u32..3, 0u32..3),
            (0usize..4, 0usize..4),
            (2usize..5, 2usize..5, 2usize..5),
        )
    ) {
        let mut rng = Rng::seed_from(net_seed);
        let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let den = Denoiser::new(EdmSchedule::default());
        let req = |id: u64, steps: usize, prio: u32, arrival: usize| {
            ScheduledRequest::new(
                ServeRequest::new(id, steps)
                    .seed(extra.wrapping_add(id + 1))
                    .tenant((id % 2) as u32)
                    .priority(prio),
                arrival,
            )
        };
        let requests = vec![req(0, s0, p0, 0), req(1, s1, p1, a1), req(2, s2, p2, a2)];
        let policies = [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::ShortestBudgetFirst,
            AdmissionPolicy::Gang,
            AdmissionPolicy::FairShare,
            AdmissionPolicy::Priority,
            AdmissionPolicy::Preempt,
            AdmissionPolicy::EnergyCapped { budget_pj: 1, window: 1 },
            AdmissionPolicy::OccupancyTarget { lo_pct: 20, hi_pct: 60 },
        ];
        for policy in policies {
            let sched = Scheduler::new(den, 2)
                .with_policy(policy)
                .with_cost_model(CostModelConfig::Noop);
            // Per-request virtual-clock records must not depend on threads
            // or execution mode.
            let mut reference: Option<Vec<sqdm_edm::RequestStats>> = None;
            for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
                let asg = int8_assignment(mode);
                let solo: Vec<(u64, Vec<u32>)> = requests.iter().map(|r| {
                    let mut rr = Rng::seed_from(r.request.seed);
                    let img = with_threads(1, || sample(
                        &mut net,
                        &den,
                        1,
                        SamplerConfig { steps: r.request.steps },
                        Some(&asg),
                        &mut rr,
                    ).unwrap());
                    (r.request.id, bits(&img))
                }).collect();
                for t in THREADS {
                    let (served, stats) = with_threads(t, || {
                        sched.run(&mut net, &requests, Some(&asg)).unwrap()
                    });
                    prop_assert_eq!(served.len(), requests.len());
                    for out in &served {
                        let single = solo
                            .iter()
                            .find(|(id, _)| *id == out.id)
                            .map(|(_, b)| b)
                            .unwrap();
                        prop_assert_eq!(
                            &bits(&out.image),
                            single,
                            "{:?} {:?} request {} at {} threads",
                            policy, mode, out.id, t
                        );
                    }
                    // No-op model: the accounting is identically zero.
                    prop_assert_eq!(stats.total_energy_pj(), 0.0);
                    prop_assert_eq!(stats.peak_occupancy(), 0.0);
                    match &reference {
                        None => reference = Some(stats.requests.clone()),
                        Some(r) => prop_assert_eq!(
                            r,
                            &stats.requests,
                            "{:?} {:?} at {} threads",
                            policy, mode, t
                        ),
                    }
                }
            }
            // The cost-aware policies degrade to FIFO's exact schedule.
            if matches!(
                policy,
                AdmissionPolicy::EnergyCapped { .. } | AdmissionPolicy::OccupancyTarget { .. }
            ) {
                let asg = int8_assignment(ExecMode::NativeInt);
                let (_, fifo_stats) = with_threads(1, || {
                    Scheduler::new(den, 2)
                        .run(&mut net, &requests, Some(&asg))
                        .unwrap()
                });
                prop_assert_eq!(
                    &fifo_stats.requests,
                    reference.as_ref().unwrap(),
                    "{:?} must match FIFO under zero costs",
                    policy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    /// `Scheduler` and a one-model `RegistryScheduler` drive the same
    /// serving core: under every admission policy, with the accelerator
    /// cost model, over the same seeded arrivals they serve bitwise-equal
    /// images and record equal `ServeStats`, wall-clock round times aside.
    #[test]
    fn scheduler_and_one_model_registry_agree(
        (net_seed, max_batch, spec, extra) in (
            0u64..1 << 16,
            1usize..4,
            proptest::collection::vec((0u32..3, 0u32..3, 0usize..6, 2usize..6), 5),
            0u64..1 << 16,
        )
    ) {
        let den = Denoiser::new(EdmSchedule::default());
        let requests: Vec<ScheduledRequest> = spec
            .iter()
            .enumerate()
            .map(|(i, &(tenant, priority, arrival, steps))| {
                ScheduledRequest::new(
                    ServeRequest::new(i as u64, steps)
                        .seed(extra.wrapping_add(i as u64 + 1))
                        .tenant(tenant)
                        .priority(priority),
                    arrival,
                )
            })
            .collect();
        let addressed: Vec<RegistryRequest> =
            requests.iter().map(|&r| RegistryRequest::new(0, r)).collect();
        let profile = PowerProfile::Balanced;
        let cost = CostModelConfig::Accel { profile };
        let unit = AccelCostModel::new(profile, max_batch).stream_cost(1);
        let asg = int8_assignment(ExecMode::NativeInt);
        let band = (unit.occupancy_share * 150.0).round().min(100.0) as u8;
        for policy in [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::ShortestBudgetFirst,
            AdmissionPolicy::Gang,
            AdmissionPolicy::FairShare,
            AdmissionPolicy::Priority,
            AdmissionPolicy::Preempt,
            AdmissionPolicy::EnergyCapped {
                budget_pj: (unit.round_energy_pj * 6.0) as u64,
                window: 3,
            },
            AdmissionPolicy::OccupancyTarget { lo_pct: band, hi_pct: band },
        ] {
            let net = || UNet::new(UNetConfig::micro(), &mut Rng::seed_from(net_seed)).unwrap();
            let (sched_out, sched_stats) = Scheduler::new(den, max_batch)
                .with_policy(policy)
                .with_cost_model(cost)
                .with_traces(false)
                .run(&mut net(), &requests, Some(&asg))
                .unwrap();
            let mut registry = ModelRegistry::new();
            registry.register("only", net(), Some(asg.clone()), den);
            let (reg_out, reg_stats) = RegistryScheduler::new(max_batch)
                .with_policy(policy)
                .with_cost_model(cost)
                .run(&mut registry, &addressed)
                .unwrap();
            prop_assert_eq!(sched_out.len(), requests.len());
            prop_assert_eq!(reg_out.len(), requests.len());
            for (a, b) in sched_out.iter().zip(&reg_out) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(bits(&a.image), bits(&b.image), "{:?} request {}", policy, a.id);
            }
            let mut reg = reg_stats.per_model[0].clone();
            prop_assert_eq!(reg.step_latency_ns.len(), sched_stats.step_latency_ns.len());
            reg.step_latency_ns.clone_from(&sched_stats.step_latency_ns);
            prop_assert_eq!(&reg, &sched_stats, "{:?}", policy);
            prop_assert_eq!(reg_stats.rounds, sched_stats.rounds);
            prop_assert_eq!(reg_stats.final_step, sched_stats.final_step);
        }
    }
}

/// The full-precision (no assignment) path holds the same contract — and
/// the batched flag is a no-op there, so this also pins that plain f32
/// packing is per-sample transparent.
#[test]
fn full_precision_serving_is_bitwise_transparent_across_threads() {
    let mut rng = Rng::seed_from(77);
    let mut net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
    let den = Denoiser::new(EdmSchedule::default());
    let requests = [
        ServeRequest::new(0, 2).seed(5),
        ServeRequest::new(1, 4).seed(6),
    ];
    let reference = with_threads(1, || {
        requests
            .iter()
            .map(|r| {
                let mut rr = Rng::seed_from(r.seed);
                sample(
                    &mut net,
                    &den,
                    1,
                    SamplerConfig { steps: r.steps },
                    None,
                    &mut rr,
                )
                .unwrap()
            })
            .collect::<Vec<_>>()
    });
    for t in THREADS {
        let served = with_threads(t, || {
            BatchSampler::new(den)
                .run(&mut net, &requests, None)
                .unwrap()
        });
        for (single, out) in reference.iter().zip(&served) {
            assert_eq!(bits(single), bits(&out.image), "{t} threads");
        }
    }
}
