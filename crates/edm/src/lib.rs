//! # sqdm-edm
//!
//! A complete, trainable Elucidated Diffusion Model (EDM, Karras et al.) in
//! Rust: the preconditioned denoiser, Karras sigma schedule, deterministic
//! Heun sampler, a U-Net with the paper's four block types (Conv+Act, Skip,
//! Embedding, Attention), EDM training, the SiLU→ReLU finetuning procedure,
//! four synthetic stand-in datasets, and the sFID quality metric.
//!
//! This crate is the substrate on which all of SQ-DM's model-side
//! experiments (Tables I/II, Figures 3–7) run.
//!
//! # Examples
//!
//! Train a tiny model and draw a sample:
//!
//! ```
//! use sqdm_edm::{
//!     Dataset, DatasetKind, Denoiser, EdmSchedule, SamplerConfig, TrainConfig, UNet,
//!     UNetConfig,
//! };
//! use sqdm_tensor::Rng;
//! # fn main() -> Result<(), sqdm_edm::EdmError> {
//! let mut rng = Rng::seed_from(0);
//! let mut net = UNet::new(UNetConfig::micro(), &mut rng)?;
//! let den = Denoiser::new(EdmSchedule::default());
//! let ds = Dataset::new(DatasetKind::CifarLike, 1, 8);
//! sqdm_edm::train(&mut net, &den, &ds, TrainConfig { steps: 3, batch: 2, lr: 1e-3 }, &mut rng)?;
//! let imgs = sqdm_edm::sample(&mut net, &den, 1, SamplerConfig { steps: 3 }, None, &mut rng)?;
//! assert_eq!(imgs.dims(), &[1, 1, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod daemon;
mod dataset;
pub mod delta;
mod denoiser;
mod error;
mod fid;
pub mod model;
mod model_stats;
pub mod registry;
mod sampler;
mod schedule;
pub mod serve;
pub mod traffic;
mod train;
pub mod wire;

pub use cost::{AccelCostModel, CostEstimate, CostModel, CostModelConfig, NoopCostModel};
pub use daemon::{DaemonConfig, DaemonHandle, ENERGY_WINDOW_STEPS};
pub use dataset::{Dataset, DatasetKind};
pub use delta::{DeltaSession, DEFAULT_TRACE_TOL};
pub use denoiser::Denoiser;
pub use error::{EdmError, Result};
pub use fid::{frechet_distance, sfid, FeatureExtractor};
pub use model::{block_ids, ActEvent, ActObserver, RunConfig, UNet, UNetConfig};
pub use model_stats::{block_profiles, breakdown_by_kind, KindShare};
pub use registry::{
    ModelId, ModelRegistry, RegistryRequest, RegistryScheduler, RegistryStats, ResidentModel,
};
pub use sampler::{
    sample, sample_delta, sample_stochastic, sample_with_observer, ChurnConfig, SamplerConfig,
    StepObserver,
};
pub use schedule::EdmSchedule;
// Re-exported so `RunConfig::packs` and the registry types are usable
// without naming `sqdm_nn` directly.
pub use serve::{
    delta_row_masks, AdmissionPolicy, AdmitCtx, AdmitDecision, BackpressurePolicy, BatchSampler,
    Candidate, EnergyCappedPolicy, FairSharePolicy, FifoPolicy, GangPolicy, InflightInfo,
    OccupancyTargetPolicy, Policy, PreemptPolicy, PriorityPolicy, QueueBound, RequestStats,
    ScheduledRequest, Scheduler, ServeRequest, ServeStats, ServedOutput, ShortestBudgetFirstPolicy,
    TenantId, TenantRollup, PRIORITY_AGE_STEPS,
};
pub use sqdm_nn::PackCache;
pub use train::{finetune_relu, train, train_step, TrainConfig, TrainReport};
