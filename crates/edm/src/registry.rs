//! Multi-tenant, multi-model serving: a registry of resident models.
//!
//! A deployment rarely serves one diffusion model. The [`ModelRegistry`]
//! keeps several U-Nets **resident** — each with its own precision
//! assignment, [`Denoiser`] schedule, and a private [`PackCache`] — so the
//! quantization artifacts of every resident model are built exactly once
//! per `(weight, precision)` pair and reused across every request, batch,
//! and serve call for the model's whole lifetime.
//!
//! The [`RegistryScheduler`] multiplexes a continuous-batching loop over
//! the registry: requests are tagged with a [`ModelId`] and a
//! [`TenantId`], and each model gets its own serving core — the same one
//! behind the single-model [`crate::serve::Scheduler`] — with its own
//! in-flight batch (capped at [`RegistryScheduler::max_batch`]) and its
//! own instance of the admission [`crate::serve::Policy`] selected by
//! [`RegistryScheduler::policy`] (deterministic round-robin tenant fair
//! share by default, with a per-model resume cursor). Each tick of the
//! shared virtual clock steps every model once: admission at the
//! boundary, then one batched Heun round per non-idle model.
//!
//! # Determinism contract
//!
//! The registry inherits the serving contract unchanged: every request's
//! image is bitwise identical to the solo [`crate::sample`] run with the
//! same `(seed, steps)` on its model, in either execution mode, at any
//! `SQDM_THREADS`. Model co-residency, tenancy, admission timing, and
//! pack-cache reuse are all invisible to a stream's arithmetic. Admission
//! order itself is deterministic (a pure function of the request set), so
//! [`RegistryStats`] are reproducible run to run.
//!
//! # Allocation discipline
//!
//! The serve loop runs inside an [`sqdm_tensor::arena::scope`]: after the
//! first round of each batch shape, every transient buffer — packed
//! states, im2col scratch, coefficient vectors, activation tensors — is a
//! pool hit, and the steady state performs (approximately) zero heap
//! allocations. The `serve_steady_state` scenario in `sqdm-bench` pins
//! this with a counting allocator.

use crate::cost::CostModelConfig;
use crate::denoiser::Denoiser;
use crate::error::{EdmError, Result};
use crate::model::{UNet, UNetConfig};
use crate::serve::{
    serve_offline, AdmissionPolicy, BatchSampler, ModelParts, RequestStats, ScheduledRequest,
    ServeCore, ServeStats, ServedOutput, TenantId, TenantRollup,
};
use sqdm_nn::PackCache;
use sqdm_quant::PrecisionAssignment;

/// Index of a resident model inside its [`ModelRegistry`].
pub type ModelId = usize;

/// One model held resident for serving: the network, its precision
/// assignment, its denoiser schedule, and the pack cache that amortizes
/// weight packing across the model's lifetime.
#[derive(Debug)]
pub struct ResidentModel {
    name: String,
    net: UNet,
    assignment: Option<PrecisionAssignment>,
    den: Denoiser,
    packs: PackCache,
}

impl ResidentModel {
    /// The human-readable name the model was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's precision assignment (`None` = full precision).
    pub fn assignment(&self) -> Option<&PrecisionAssignment> {
        self.assignment.as_ref()
    }

    /// The model's U-Net configuration.
    pub fn config(&self) -> &UNetConfig {
        self.net.config()
    }

    /// How many weight packs this model's cache has built so far. Flat
    /// after warmup: serving never rebuilds a pack.
    pub fn pack_builds(&self) -> usize {
        self.packs.builds()
    }

    /// The model's denoiser schedule.
    pub fn denoiser(&self) -> Denoiser {
        self.den
    }

    /// Split borrow for a serve round: the mutable network alongside the
    /// precision assignment and pack cache it serves with. Needed because
    /// a round mutates the net while reading the other two fields.
    pub(crate) fn serve_parts(&mut self) -> ModelParts<'_> {
        (&mut self.net, self.assignment.as_ref(), &self.packs)
    }
}

/// Several resident models, each owning its pack cache.
///
/// Registration order assigns dense [`ModelId`]s starting at 0.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Vec<ResidentModel>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Makes a model resident and returns its id. The model's pack cache
    /// starts cold; the first batch it serves warms it and every later
    /// batch reuses the packs.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        net: UNet,
        assignment: Option<PrecisionAssignment>,
        den: Denoiser,
    ) -> ModelId {
        self.models.push(ResidentModel {
            name: name.into(),
            net,
            assignment,
            den,
            packs: PackCache::new(),
        });
        self.models.len() - 1
    }

    /// The resident model with this id.
    pub fn model(&self, id: ModelId) -> Option<&ResidentModel> {
        self.models.get(id)
    }

    /// Mutable access to a resident model, for driving serve rounds.
    pub(crate) fn model_mut(&mut self, id: ModelId) -> Option<&mut ResidentModel> {
        self.models.get_mut(id)
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry has no resident models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Total weight packs built across all resident models. Measured
    /// before/after a serve call this exposes redundant pack builds; the
    /// registry contract is that the delta is zero once every model has
    /// served one batch per precision assignment.
    pub fn pack_builds(&self) -> usize {
        self.models.iter().map(|m| m.packs.builds()).sum()
    }
}

/// A scheduled request addressed to one resident model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryRequest {
    /// The target model.
    pub model: ModelId,
    /// The request and its arrival step.
    pub scheduled: ScheduledRequest,
}

impl RegistryRequest {
    /// Addresses a scheduled request to a model.
    pub fn new(model: ModelId, scheduled: ScheduledRequest) -> Self {
        RegistryRequest { model, scheduled }
    }
}

/// Aggregate statistics of one registry serve: per-model [`ServeStats`]
/// plus the shared virtual clock.
#[derive(Debug, Clone, Default)]
pub struct RegistryStats {
    /// Total batched rounds executed, summed over models.
    pub rounds: usize,
    /// Value of the shared virtual clock when the last stream retired.
    pub final_step: usize,
    /// Per-model serving statistics, indexed by [`ModelId`]. Request
    /// entries appear under the model they were addressed to.
    pub per_model: Vec<ServeStats>,
}

impl RegistryStats {
    /// Statistics of one request, searched across all models.
    pub fn request(&self, id: u64) -> Option<&RequestStats> {
        self.per_model.iter().find_map(|s| s.request(id))
    }

    /// Per-tenant rollups aggregated across every model, ascending by
    /// tenant id.
    pub fn tenant_rollups(&self) -> Vec<TenantRollup> {
        let all = ServeStats {
            requests: self
                .per_model
                .iter()
                .flat_map(|s| s.requests.iter().cloned())
                .collect(),
            ..ServeStats::default()
        };
        all.tenant_rollups()
    }

    /// The rollup of one tenant, if it submitted any requests.
    pub fn tenant(&self, tenant: TenantId) -> Option<TenantRollup> {
        self.tenant_rollups()
            .into_iter()
            .find(|r| r.tenant == tenant)
    }
}

/// Continuous-batching scheduler over a [`ModelRegistry`].
///
/// Tenancy-aware admission through a per-model
/// [`crate::serve::Policy`] engine (fair share by default); one batched
/// Heun round per non-idle model per tick of the shared virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct RegistryScheduler {
    /// Per-model in-flight batch capacity.
    pub max_batch: usize,
    /// Record per-stream temporal traces (off by default: resident
    /// serving favors the zero-allocation steady state).
    pub record_traces: bool,
    /// Admission policy, instantiated once per model (each model keeps
    /// its own policy state, e.g. the fair-share resume cursor).
    pub policy: AdmissionPolicy,
    /// Cost model powering per-candidate estimates and per-round
    /// energy/occupancy accounting, instantiated once per model.
    pub cost: CostModelConfig,
}

impl RegistryScheduler {
    /// A fair-share scheduler with the given per-model batch capacity and
    /// trace recording disabled.
    pub fn new(max_batch: usize) -> Self {
        RegistryScheduler {
            max_batch,
            record_traces: false,
            policy: AdmissionPolicy::FairShare,
            cost: CostModelConfig::Noop,
        }
    }

    /// This scheduler with trace recording switched on or off.
    #[must_use]
    pub fn with_traces(mut self, record: bool) -> Self {
        self.record_traces = record;
        self
    }

    /// This scheduler with a different admission policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// This scheduler with a different cost model.
    #[must_use]
    pub fn with_cost_model(mut self, cost: CostModelConfig) -> Self {
        self.cost = cost;
        self
    }

    /// Serves every request to completion and returns the outputs in
    /// submission order plus the aggregate statistics.
    ///
    /// # Errors
    ///
    /// Returns [`EdmError::Config`] for `max_batch == 0`, an unknown
    /// [`ModelId`], duplicate request ids (globally, across models), or a
    /// step budget below 2; propagates model errors.
    pub fn run(
        &self,
        registry: &mut ModelRegistry,
        requests: &[RegistryRequest],
    ) -> Result<(Vec<ServedOutput>, RegistryStats)> {
        if self.max_batch == 0 {
            return Err(EdmError::Config {
                reason: "registry scheduler max_batch must be at least 1".into(),
            });
        }
        let nm = registry.models.len();
        if let Some(r) = requests.iter().find(|r| r.model >= nm) {
            return Err(EdmError::Config {
                reason: format!(
                    "request {} targets model {} but the registry holds {}",
                    r.scheduled.request.id, r.model, nm
                ),
            });
        }
        // One core per model, each running the policy with private state
        // over an unbounded queue, all on the shared clock.
        let mut cores: Vec<ServeCore> = registry
            .models
            .iter()
            .map(|m| {
                ServeCore::new(
                    BatchSampler::new(m.den).with_traces(self.record_traces),
                    self.policy,
                    None,
                    self.cost,
                    self.max_batch,
                )
            })
            .collect();
        let mut models: Vec<_> = registry
            .models
            .iter_mut()
            .map(ResidentModel::serve_parts)
            .collect();
        let addressed: Vec<_> = requests.iter().map(|r| (r.model, r.scheduled)).collect();
        let (retired, clock) = serve_offline(&mut cores, &mut models, &addressed)?;

        let mut per_model: Vec<ServeStats> = cores
            .into_iter()
            .map(|core| ServeStats {
                final_step: clock,
                requests: Vec::new(),
                ..core.into_stats()
            })
            .collect();
        // Outputs in global submission order; each model's records in its
        // own submission order. Unbounded queues never shed or reject.
        let mut outputs = Vec::with_capacity(requests.len());
        for (r, done) in requests.iter().zip(retired) {
            if let Some(done) = done {
                per_model[r.model].requests.push(done.record);
                outputs.push(done.output);
            }
        }
        let stats = RegistryStats {
            rounds: per_model.iter().map(|s| s.rounds).sum(),
            final_step: clock,
            per_model,
        };
        Ok((outputs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{sample, SamplerConfig};
    use crate::schedule::EdmSchedule;
    use crate::serve::ServeRequest;
    use sqdm_quant::{BlockPrecision, ExecMode, QuantFormat};
    use sqdm_tensor::{Rng, Tensor};

    fn int8_native() -> PrecisionAssignment {
        PrecisionAssignment::uniform(
            crate::model::block_ids::COUNT,
            BlockPrecision::uniform(QuantFormat::int8()),
            "INT8",
        )
        .with_mode(ExecMode::NativeInt)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn two_model_registry() -> ModelRegistry {
        let den = Denoiser::new(EdmSchedule::default());
        let mut registry = ModelRegistry::new();
        let mut rng = Rng::seed_from(31);
        let net_a = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let net_b = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        registry.register("quantized", net_a, Some(int8_native()), den);
        registry.register("full-precision", net_b, None, den);
        registry
    }

    fn req(
        model: ModelId,
        id: u64,
        tenant: TenantId,
        steps: usize,
        arrival: usize,
    ) -> RegistryRequest {
        RegistryRequest::new(
            model,
            ScheduledRequest::new(ServeRequest::new(id, steps).tenant(tenant), arrival),
        )
    }

    #[test]
    fn registry_serving_is_bitwise_identical_to_solo_sampling_per_model() {
        let mut registry = two_model_registry();
        let requests = [
            req(0, 10, 1, 3, 0),
            req(1, 11, 2, 2, 0),
            req(0, 12, 2, 2, 1),
            req(1, 13, 1, 4, 3),
        ];
        let sched = RegistryScheduler::new(2);
        let (outputs, stats) = sched.run(&mut registry, &requests).unwrap();
        assert_eq!(outputs.len(), 4);
        // Solo references on fresh, identically seeded models.
        let den = Denoiser::new(EdmSchedule::default());
        let mut rng = Rng::seed_from(31);
        let mut net_a = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let mut net_b = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        let asg = int8_native();
        for (r, out) in requests.iter().zip(&outputs) {
            assert_eq!(r.scheduled.request.id, out.id);
            let (net, asg): (&mut UNet, Option<&PrecisionAssignment>) = if r.model == 0 {
                (&mut net_a, Some(&asg))
            } else {
                (&mut net_b, None)
            };
            let mut rr = Rng::seed_from(r.scheduled.request.seed);
            let solo = sample(
                net,
                &den,
                1,
                SamplerConfig {
                    steps: r.scheduled.request.steps,
                },
                asg,
                &mut rr,
            )
            .unwrap();
            assert_eq!(bits(&out.image), bits(&solo), "request {}", out.id);
        }
        // Both models served; the shared clock covers the longest stream.
        assert_eq!(stats.per_model.len(), 2);
        assert!(stats.rounds >= 4);
        assert!(stats.final_step >= 5);
    }

    #[test]
    fn registry_builds_packs_once_across_serves() {
        let mut registry = two_model_registry();
        let requests = [req(0, 0, 1, 2, 0), req(0, 1, 2, 3, 0), req(1, 2, 1, 2, 0)];
        let sched = RegistryScheduler::new(2);
        let (out1, _) = sched.run(&mut registry, &requests).unwrap();
        let builds = registry.pack_builds();
        assert!(builds > 0, "the quantized model must have packed weights");
        // Even the full-precision reference path caches its FP16 weight
        // casts; what matters is that NO model rebuilds anything later.
        assert!(registry.model(1).unwrap().pack_builds() > 0);
        // Second serve of the same registry: zero new packs, same bits.
        let (out2, _) = sched.run(&mut registry, &requests).unwrap();
        assert_eq!(registry.pack_builds(), builds, "packs were rebuilt");
        for (a, b) in out1.iter().zip(&out2) {
            assert_eq!(bits(&a.image), bits(&b.image));
        }
    }

    #[test]
    fn fair_share_cycles_tenants_per_model_and_stats_roll_up() {
        let mut registry = two_model_registry();
        // Model 0: tenant 5 floods, tenant 3 submits one late-indexed
        // request; fair share admits tenant 3 in the first wave.
        let requests = [
            req(0, 0, 5, 2, 0),
            req(0, 1, 5, 2, 0),
            req(0, 2, 5, 2, 0),
            req(0, 3, 3, 2, 0),
            req(1, 4, 5, 2, 0),
        ];
        let sched = RegistryScheduler::new(2);
        let (_, stats) = sched.run(&mut registry, &requests).unwrap();
        assert_eq!(stats.request(3).unwrap().admitted_step, 0);
        assert_eq!(stats.request(0).unwrap().admitted_step, 0);
        assert_eq!(stats.request(1).unwrap().admitted_step, 2);
        assert_eq!(stats.request(2).unwrap().admitted_step, 2);
        // Model 1 runs independently at full capacity.
        assert_eq!(stats.request(4).unwrap().admitted_step, 0);
        // Rollups aggregate across models: tenant 5 appears in both.
        let r5 = stats.tenant(5).unwrap();
        assert_eq!(r5.requests, 4);
        assert_eq!(r5.total_steps, 8);
        let r3 = stats.tenant(3).unwrap();
        assert_eq!(r3.requests, 1);
        assert!(stats.tenant(9).is_none());
        let rollups = stats.tenant_rollups();
        assert_eq!(
            rollups.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            vec![3, 5]
        );
    }

    #[test]
    fn registry_rejects_bad_requests() {
        let mut registry = two_model_registry();
        let sched = RegistryScheduler::new(2);
        // Unknown model.
        let bad_model = [req(7, 0, 0, 2, 0)];
        assert!(sched.run(&mut registry, &bad_model).is_err());
        // Duplicate ids across different models.
        let dup = [req(0, 1, 0, 2, 0), req(1, 1, 0, 2, 0)];
        assert!(sched.run(&mut registry, &dup).is_err());
        // Step budget below the Karras minimum.
        let short = [req(0, 2, 0, 1, 0)];
        assert!(sched.run(&mut registry, &short).is_err());
        // Zero batch capacity.
        assert!(RegistryScheduler::new(0)
            .run(&mut registry, &[req(0, 3, 0, 2, 0)])
            .is_err());
    }
}
