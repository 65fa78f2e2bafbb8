//! # sqdm-accel
//!
//! A from-scratch cycle-level simulator of the SQ-DM heterogeneous
//! dense/sparse diffusion-model accelerator (paper §IV), standing in for
//! the Stonne framework the authors used:
//!
//! * [`DensePe`] — MAERI-like dense vector MAC datapath,
//! * [`SparsePe`] — SIGMA-like sparse datapath with bitmap operands,
//! * [`ActAddressMap`]/[`WeightAddressMap`] — the channel-last memory
//!   mapping of Figure 10,
//! * [`SparseChannel`] — bitmap-compressed sparse channel storage,
//! * [`SparsityDetector`] — the PPU's temporal sparsity detector,
//! * [`Noc`] — the router chain between the global buffer and the PEs,
//! * [`Accelerator`] — the composed system with per-layer and per-model
//!   cycle/energy estimates, plus the 2-DPE dense baseline configuration.
//!
//! # Examples
//!
//! ```
//! use sqdm_accel::{Accelerator, AcceleratorConfig, ConvWorkload, LayerQuant};
//! use sqdm_sparsity::{ChannelPartition, PAPER_THRESHOLD};
//!
//! let layer = ConvWorkload::uniform(16, 16, 3, 3, 16, 16, 0.7);
//! let partition = ChannelPartition::classify(&layer.act_sparsity, PAPER_THRESHOLD);
//! let ours = Accelerator::new(AcceleratorConfig::paper());
//! let baseline = Accelerator::new(AcceleratorConfig::dense_baseline());
//! let s_ours = ours.run_layer(&layer, Some(&partition), LayerQuant::int4());
//! let s_base = baseline.run_layer(&layer, None, LayerQuant::int4());
//! assert!(s_ours.cycles < s_base.cycles);
//! ```

#![warn(missing_docs)]

mod controller;
mod detector;
mod energy;
mod mapping;
mod noc;
mod pe;
mod power;
mod sparse_format;
mod system;
mod workload;

pub use controller::{Controller, TrajectoryStats};
pub use detector::SparsityDetector;
pub use energy::{EnergyModel, MacPrecision};
pub use mapping::{ActAddressMap, ActLayout, FetchPlan, WeightAddressMap};
pub use noc::Noc;
pub use pe::{DensePe, SparsePe};
pub use power::{PowerProfile, ThrottleCurve, ThrottlePoint};
pub use sparse_format::SparseChannel;
pub use system::{
    Accelerator, AcceleratorConfig, EnergyBreakdown, LayerQuant, LayerStats, RoundStats, RunLedger,
    RunStats,
};
pub use workload::ConvWorkload;
