//! The shared cost-model layer between the accelerator simulator and the
//! serving stack.
//!
//! ROADMAP item 5 asks for hardware-in-the-loop serving: the paper's
//! accelerator model (`sqdm_accel`) and the continuous-batching admission
//! path (`crate::serve`) joined so admission policies can reason about
//! simulated energy and PE occupancy. This module owns that boundary:
//!
//! * [`CostEstimate`] — what one stream costs per executed denoise round,
//!   as a policy sees it inside `AdmitCtx`.
//! * [`CostModel`] — the trait supplying estimates at step boundaries and
//!   accounting actual rounds as they execute.
//! * [`NoopCostModel`] — the default: every estimate is zero, so every
//!   pre-existing policy's decisions are preserved **bitwise** (they never
//!   read costs, and zero-cost estimates steer the new policies into
//!   admit-everything behavior).
//! * [`AccelCostModel`] — drives [`sqdm_accel::Accelerator::step_round`]
//!   one denoise round at a time under a DVFS throttle curve, accumulating
//!   a [`RunLedger`].
//! * [`CostModelConfig`] — the `Copy` selector that schedulers and the
//!   daemon carry (they are `Copy` themselves, so they cannot own a boxed
//!   model); the admission engine expands it into a boxed model per run.
//!
//! Costs are *simulated*: they never touch the denoise arithmetic, so the
//! bitwise determinism contract (every served image equals the solo
//! `sample()` bits) is structurally unaffected by any cost model choice.

use serde::{Deserialize, Serialize};
use sqdm_accel::{
    Accelerator, AcceleratorConfig, ConvWorkload, LayerQuant, PowerProfile, RoundStats, RunLedger,
    ThrottleCurve,
};

/// Estimated per-round cost of one stream, as presented to admission
/// policies through `AdmitCtx::costs` / `AdmitCtx::inflight_costs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Simulated energy one denoise round of this stream costs, in pJ
    /// (nominal frequency; policies budget against the un-throttled
    /// estimate so their decisions do not feed back through the governor).
    pub round_energy_pj: f64,
    /// Fraction of the provisioned PE array one round of this stream
    /// occupies, in `0.0..=1.0`.
    pub occupancy_share: f64,
}

impl CostEstimate {
    /// The free estimate: what [`NoopCostModel`] returns for everything.
    pub const ZERO: CostEstimate = CostEstimate {
        round_energy_pj: 0.0,
        occupancy_share: 0.0,
    };
}

/// A model of what serving work costs on the simulated accelerator.
///
/// Two call sites drive it, both on the scheduler's virtual clock:
/// [`CostModel::stream_cost`] at step boundaries (estimates for admission
/// decisions) and [`CostModel::round_accounting`] once per executed
/// batched round (actuals for stats and ledgers). Implementations must be
/// deterministic — estimates are part of admission decisions, which feed
/// the bitwise reproducibility contract.
pub trait CostModel: std::fmt::Debug + Send {
    /// Estimated per-round cost of a stream with `remaining` denoise
    /// steps still owed.
    fn stream_cost(&self, remaining: usize) -> CostEstimate;

    /// Accounts one executed round over `batch` streams; returns the
    /// round's `(energy_pj, occupancy)` after any DVFS throttling.
    fn round_accounting(&mut self, batch: usize) -> (f64, f64);
}

/// The zero cost model: estimates and accounting are all zero.
///
/// With this model installed, every pre-existing policy produces exactly
/// the decisions it produced before costs existed, and the cost-aware
/// policies degrade to admit-everything — the compatibility anchor the
/// no-op proptest pins.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCostModel;

impl CostModel for NoopCostModel {
    fn stream_cost(&self, _remaining: usize) -> CostEstimate {
        CostEstimate::ZERO
    }

    fn round_accounting(&mut self, _batch: usize) -> (f64, f64) {
        (0.0, 0.0)
    }
}

/// The representative per-round workload the accelerator-backed cost
/// model prices: a small U-Net-shaped stack (encoder / bottleneck /
/// decoder convolutions) at INT8, the serving precision the daemon
/// defaults to. One evaluation of this stack ≈ one stream's share of one
/// batched denoise round.
fn serving_layers() -> Vec<(ConvWorkload, LayerQuant)> {
    vec![
        (
            ConvWorkload::uniform(16, 16, 3, 3, 16, 16, 0.6),
            LayerQuant::int8(),
        ),
        (
            ConvWorkload::uniform(32, 16, 3, 3, 8, 8, 0.55),
            LayerQuant::int8(),
        ),
        (
            ConvWorkload::uniform(16, 32, 3, 3, 16, 16, 0.5),
            LayerQuant::int8(),
        ),
    ]
}

/// Cost model backed by the paper's accelerator configuration, driven one
/// denoise round at a time through [`Accelerator::step_round`] under a
/// [`PowerProfile`] throttle curve.
///
/// Estimates ([`CostModel::stream_cost`]) are nominal-frequency costs so
/// admission budgeting stays a pure function of the request set; actuals
/// ([`CostModel::round_accounting`]) apply the DVFS curve to the round's
/// occupancy and accumulate in the [`RunLedger`].
#[derive(Debug)]
pub struct AccelCostModel {
    acc: Accelerator,
    layers: Vec<(ConvWorkload, LayerQuant)>,
    /// Batch slots the deployment is provisioned for (the occupancy
    /// denominator).
    provisioned: usize,
    curve: ThrottleCurve,
    /// Nominal (un-throttled) energy of one stream's round, pJ.
    unit_energy_pj: f64,
    /// Occupancy of a single-stream round (`intensity / provisioned`).
    unit_occupancy: f64,
    /// Per-batch-size round costs, computed once and reused (`[0]` unused).
    round_cache: Vec<Option<RoundStats>>,
    /// Every accounted round, in execution order.
    ledger: RunLedger,
}

impl AccelCostModel {
    /// Builds the model for a deployment with `provisioned` batch slots
    /// under `profile`'s throttle curve.
    pub fn new(profile: PowerProfile, provisioned: usize) -> Self {
        let provisioned = provisioned.max(1);
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let layers = serving_layers();
        let curve = profile.curve();
        let base = acc.run_model(&layers, None);
        let unit = acc.step_round(&layers, None, 1, provisioned, &curve);
        AccelCostModel {
            acc,
            layers,
            provisioned,
            curve,
            unit_energy_pj: base.energy.total_pj(),
            unit_occupancy: unit.occupancy,
            round_cache: vec![None; provisioned + 1],
            ledger: RunLedger::default(),
        }
    }

    /// The accumulated occupancy/energy ledger.
    pub fn ledger(&self) -> &RunLedger {
        &self.ledger
    }

    fn round(&mut self, batch: usize) -> RoundStats {
        let idx = batch.min(self.provisioned);
        if let Some(cached) = self.round_cache.get(idx).and_then(|c| *c) {
            if cached.batch == batch {
                return cached;
            }
        }
        let stats = self
            .acc
            .step_round(&self.layers, None, batch, self.provisioned, &self.curve);
        if idx == batch {
            self.round_cache[idx] = Some(stats);
        }
        stats
    }
}

impl CostModel for AccelCostModel {
    fn stream_cost(&self, _remaining: usize) -> CostEstimate {
        CostEstimate {
            round_energy_pj: self.unit_energy_pj,
            occupancy_share: self.unit_occupancy,
        }
    }

    fn round_accounting(&mut self, batch: usize) -> (f64, f64) {
        if batch == 0 {
            return (0.0, 0.0);
        }
        let stats = self.round(batch);
        self.ledger.record(stats);
        (stats.energy_pj, stats.occupancy)
    }
}

/// The `Copy` cost-model selector carried by `Scheduler`,
/// `RegistryScheduler`, and the daemon config (all `Copy`/cloneable
/// surfaces that cannot own a boxed trait object). The admission engine
/// expands it into the boxed [`CostModel`] that lives for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostModelConfig {
    /// No cost model: zero estimates, zero accounting. The default;
    /// preserves every pre-existing policy decision bitwise.
    #[default]
    Noop,
    /// The accelerator-backed model under a DVFS throttle profile.
    Accel {
        /// Which built-in throttle curve governs the simulated DVFS.
        profile: PowerProfile,
    },
}

impl CostModelConfig {
    /// Builds the boxed model for a deployment provisioned with
    /// `provisioned` batch slots.
    pub fn into_cost_model(self, provisioned: usize) -> Box<dyn CostModel> {
        match self {
            CostModelConfig::Noop => Box::new(NoopCostModel),
            CostModelConfig::Accel { profile } => {
                Box::new(AccelCostModel::new(profile, provisioned))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_model_is_free() {
        let mut m = NoopCostModel;
        let c = m.stream_cost(7);
        assert_eq!(c.round_energy_pj, 0.0);
        assert_eq!(c.occupancy_share, 0.0);
        assert_eq!(m.round_accounting(3), (0.0, 0.0));
    }

    #[test]
    fn accel_model_estimates_are_positive_and_stable() {
        let m = AccelCostModel::new(PowerProfile::Efficiency, 4);
        let a = m.stream_cost(5);
        let b = m.stream_cost(2);
        // Estimates are per-round and independent of the remaining budget.
        assert_eq!(a.round_energy_pj, b.round_energy_pj);
        assert!(a.round_energy_pj > 0.0);
        assert!(a.occupancy_share > 0.0 && a.occupancy_share <= 1.0);
    }

    #[test]
    fn accel_accounting_fills_the_ledger_and_caches_rounds() {
        let mut m = AccelCostModel::new(PowerProfile::Efficiency, 4);
        let (e1, o1) = m.round_accounting(1);
        let (e2, o2) = m.round_accounting(4);
        let (e1b, o1b) = m.round_accounting(1);
        assert!(e1 > 0.0 && e2 > e1);
        assert!(o2 > o1, "fuller batches occupy more of the array");
        assert_eq!((e1, o1), (e1b, o1b), "cached rounds are identical");
        assert_eq!(m.ledger().rounds.len(), 3);
        assert!(m.ledger().total_energy_pj() > 0.0);
        assert_eq!(m.round_accounting(0), (0.0, 0.0));
        assert_eq!(m.ledger().rounds.len(), 3, "idle rounds are not recorded");
    }

    #[test]
    fn throttled_profile_spends_less_per_round_at_low_occupancy() {
        let mut eff = AccelCostModel::new(PowerProfile::Efficiency, 8);
        let mut perf = AccelCostModel::new(PowerProfile::Performance, 8);
        let (e_eff, _) = eff.round_accounting(1);
        let (e_perf, _) = perf.round_accounting(1);
        assert!(
            e_eff < e_perf,
            "efficiency profile at low occupancy must save energy: {e_eff} vs {e_perf}"
        );
    }

    #[test]
    fn config_expands_to_the_right_model() {
        let noop = CostModelConfig::Noop.into_cost_model(4);
        assert_eq!(noop.stream_cost(3).round_energy_pj, 0.0);
        let accel = CostModelConfig::Accel {
            profile: PowerProfile::Balanced,
        }
        .into_cost_model(4);
        assert!(accel.stream_cost(3).round_energy_pj > 0.0);
        assert_eq!(CostModelConfig::default(), CostModelConfig::Noop);
    }
}
