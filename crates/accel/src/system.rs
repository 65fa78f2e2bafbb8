//! The full accelerator system model (paper Figure 9): controller,
//! heterogeneous D/S PE array, global buffer, NoC, and the PPU's sparsity
//! detector, composed into per-layer and per-model cycle/energy estimates.

use crate::detector::SparsityDetector;
use crate::energy::{EnergyModel, MacPrecision};
use crate::noc::Noc;
use crate::pe::{DensePe, SparsePe};
use crate::power::ThrottleCurve;
use crate::workload::ConvWorkload;
use serde::{Deserialize, Serialize};
use sqdm_sparsity::ChannelPartition;

/// Numeric configuration of one layer's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerQuant {
    /// MAC datapath precision (set by the wider operand).
    pub mac: MacPrecision,
    /// Weight storage bits.
    pub weight_bits: u32,
    /// Activation storage bits.
    pub act_bits: u32,
}

impl LayerQuant {
    /// FP16 weights and activations.
    pub fn fp16() -> Self {
        LayerQuant {
            mac: MacPrecision::Fp16,
            weight_bits: 16,
            act_bits: 16,
        }
    }

    /// 8-bit weights and activations (MXINT8-class).
    pub fn int8() -> Self {
        LayerQuant {
            mac: MacPrecision::Int8,
            weight_bits: 8,
            act_bits: 8,
        }
    }

    /// 4-bit weights and activations (the paper's format).
    pub fn int4() -> Self {
        LayerQuant {
            mac: MacPrecision::Int4,
            weight_bits: 4,
            act_bits: 4,
        }
    }

    /// Derives the datapath precision from mixed weight/activation widths.
    pub fn from_bits(weight_bits: u32, act_bits: u32) -> Self {
        let mac = match weight_bits.max(act_bits) {
            0..=4 => MacPrecision::Int4,
            5..=8 => MacPrecision::Int8,
            _ => MacPrecision::Fp16,
        };
        LayerQuant {
            mac,
            weight_bits,
            act_bits,
        }
    }
}

/// System configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Number of dense PEs.
    pub dpes: usize,
    /// Number of sparse PEs.
    pub spes: usize,
    /// Multipliers per PE (128 in the paper).
    pub pe_multipliers: usize,
    /// Global-buffer bandwidth in bits per cycle.
    pub buffer_bw_bits: u64,
    /// NoC link width in bits.
    pub noc_link_bits: u64,
    /// Sparsity detector in the PPU.
    pub detector: SparsityDetector,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Charge DRAM energy for weights and activations each layer. The
    /// default (false) models the paper's setting where the model is
    /// resident in the global buffer across time steps.
    pub include_dram: bool,
}

impl AcceleratorConfig {
    /// The paper's configuration: one DPE + one SPE, 128 multipliers each.
    pub fn paper() -> Self {
        AcceleratorConfig {
            dpes: 1,
            spes: 1,
            pe_multipliers: 128,
            buffer_bw_bits: 2048,
            noc_link_bits: 512,
            detector: SparsityDetector::paper(),
            energy: EnergyModel::default(),
            include_dram: false,
        }
    }

    /// The comparison baseline: a purely dense architecture with two DPEs
    /// (iso-multiplier with [`paper`](Self::paper)).
    pub fn dense_baseline() -> Self {
        AcceleratorConfig {
            spes: 0,
            dpes: 2,
            ..Self::paper()
        }
    }

    /// A scaled-up instance with `pairs` D/S PE pairs and proportional
    /// buffer bandwidth — the paper's "architecture is scalable to meet
    /// specific latency and power requirements" (§IV-D).
    pub fn scaled(pairs: usize) -> Self {
        let pairs = pairs.max(1);
        AcceleratorConfig {
            dpes: pairs,
            spes: pairs,
            buffer_bw_bits: 2048 * pairs as u64,
            ..Self::paper()
        }
    }

    /// Total PE count.
    pub fn total_pes(&self) -> usize {
        self.dpes + self.spes
    }
}

/// Energy breakdown of a run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// MAC datapath energy.
    pub compute_pj: f64,
    /// Global-buffer access energy.
    pub sram_pj: f64,
    /// DRAM energy (zero unless `include_dram`).
    pub dram_pj: f64,
    /// NoC transfer energy.
    pub noc_pj: f64,
    /// Leakage over the run's cycles.
    pub leakage_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.sram_pj + self.dram_pj + self.noc_pj + self.leakage_pj
    }

    fn add(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.sram_pj += other.sram_pj;
        self.dram_pj += other.dram_pj;
        self.noc_pj += other.noc_pj;
        self.leakage_pj += other.leakage_pj;
    }
}

/// Cycle and energy statistics of one layer execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// End-to-end cycles (compute/fetch overlapped, detector hidden).
    pub cycles: u64,
    /// Dense-engine compute cycles.
    pub dense_cycles: u64,
    /// Sparse-engine compute cycles.
    pub sparse_cycles: u64,
    /// Buffer fetch/drain cycles.
    pub fetch_cycles: u64,
    /// Detector counting cycles (overlapped with the output drain).
    pub detector_cycles: u64,
    /// MACs actually executed (zeros skipped on the SPE).
    pub macs_executed: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

/// Aggregate statistics over layers and time steps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Total MACs executed.
    pub macs_executed: u64,
    /// Aggregate energy.
    pub energy: EnergyBreakdown,
    /// Number of layer executions accumulated.
    pub layers: usize,
}

impl RunStats {
    /// Accumulates one layer.
    pub fn push(&mut self, s: &LayerStats) {
        self.cycles += s.cycles;
        self.macs_executed += s.macs_executed;
        self.energy.add(&s.energy);
        self.layers += 1;
    }

    /// Speed-up of this run relative to a baseline (`baseline / self`).
    ///
    /// Returns [`f64::NAN`] when either run is empty (zero cycles): an
    /// empty run has no speed to compare, and clamping only one side — as
    /// an earlier version did — silently reported `0×` for an empty
    /// baseline while inventing a huge finite ratio for an empty `self`.
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        if self.cycles == 0 || baseline.cycles == 0 {
            return f64::NAN;
        }
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Fractional energy saving relative to a baseline.
    ///
    /// Returns [`f64::NAN`] when either run carries no energy: clamping
    /// only the baseline — as an earlier version did — reported a perfect
    /// `100%` saving for any empty run.
    pub fn energy_saving_vs(&self, baseline: &RunStats) -> f64 {
        let (own, base) = (self.energy.total_pj(), baseline.energy.total_pj());
        if own <= 0.0 || base <= 0.0 {
            return f64::NAN;
        }
        1.0 - own / base
    }
}

/// Cost of one incrementally-executed denoise round on the accelerator,
/// as produced by [`Accelerator::step_round`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Streams batched into the round.
    pub batch: usize,
    /// Cycles for the round after DVFS stretching (`nominal / freq_scale`).
    pub cycles: u64,
    /// Total round energy in pJ after DVFS scaling (dynamic ×`f²`,
    /// leakage ×`1/f`).
    pub energy_pj: f64,
    /// PE-array occupancy the round presented to the throttle curve:
    /// compute intensity × batch-slot fill, clamped to `0.0..=1.0`.
    pub occupancy: f64,
    /// Frequency scale the throttle curve chose for this round.
    pub freq_scale: f64,
}

/// Occupancy/energy ledger accumulated over a sequence of incremental
/// rounds — the accelerator-side counterpart of a serving run's stats.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunLedger {
    /// Every recorded round, in execution order.
    pub rounds: Vec<RoundStats>,
}

impl RunLedger {
    /// Appends one round.
    pub fn record(&mut self, round: RoundStats) {
        self.rounds.push(round);
    }

    /// Total energy across recorded rounds, pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.rounds.iter().map(|r| r.energy_pj).sum()
    }

    /// Total cycles across recorded rounds.
    pub fn total_cycles(&self) -> u64 {
        self.rounds.iter().map(|r| r.cycles).sum()
    }

    /// Mean occupancy over recorded rounds; [`f64::NAN`] when empty.
    /// Never below the smallest round's occupancy nor above
    /// [`RunLedger::peak_occupancy`]: the quotient is clamped to the
    /// rounds' range, since the f64 sum of repeated fractional values can
    /// round one ulp past it.
    pub fn mean_occupancy(&self) -> f64 {
        let (mut sum, mut lo, mut hi) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
        for r in &self.rounds {
            sum += r.occupancy;
            lo = lo.min(r.occupancy);
            hi = hi.max(r.occupancy);
        }
        if lo > hi {
            // Empty, or every occupancy NaN (min/max skip NaN): `clamp`
            // would panic.
            return f64::NAN;
        }
        (sum / self.rounds.len() as f64).clamp(lo, hi)
    }

    /// Peak occupancy over recorded rounds; `0.0` when empty.
    pub fn peak_occupancy(&self) -> f64 {
        self.rounds.iter().map(|r| r.occupancy).fold(0.0, f64::max)
    }
}

/// The accelerator system simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accelerator {
    /// System configuration.
    pub config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates a simulator from a configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Accelerator { config }
    }

    /// Executes one convolution layer.
    ///
    /// With SPEs present and a `partition` supplied, dense channels run on
    /// the DPEs and sparse channels on the SPEs in parallel (Figure 8);
    /// otherwise every channel runs dense. Fetch and compute overlap
    /// (double-buffered tiles), so layer latency is their maximum. The
    /// detector scans outputs during the drain and only surfaces cycles if
    /// it is slower than the drain itself.
    pub fn run_layer(
        &self,
        w: &ConvWorkload,
        partition: Option<&ChannelPartition>,
        q: LayerQuant,
    ) -> LayerStats {
        let cfg = &self.config;
        let dpe = DensePe::new(cfg.pe_multipliers);
        let spe = SparsePe::new(cfg.pe_multipliers);
        let all: Vec<usize> = (0..w.c).collect();

        let (dense_ch, sparse_ch): (Vec<usize>, Vec<usize>) = match partition {
            Some(p) if cfg.spes > 0 => {
                debug_assert_eq!(p.channels(), w.c, "partition/channel mismatch");
                (p.dense_indices(), p.sparse_indices())
            }
            _ => (all.clone(), Vec::new()),
        };

        // Compute: work split evenly across engines of each kind.
        let dense_macs = w.macs_for(&dense_ch);
        let sparse_nnz = w.nnz_macs_for(&sparse_ch);
        let dense_cycles = if cfg.dpes > 0 {
            dpe.compute_cycles(dense_macs.div_ceil(cfg.dpes.max(1) as u64), q.mac)
        } else {
            0
        };
        let sparse_cycles = if cfg.spes > 0 && !sparse_ch.is_empty() {
            let per_spe_nnz = sparse_nnz.div_ceil(cfg.spes as u64);
            let per_spe_ch = sparse_ch.len().div_ceil(cfg.spes);
            spe.compute_cycles(per_spe_nnz, per_spe_ch, q.mac)
        } else {
            0
        };
        let compute_cycles = dense_cycles.max(sparse_cycles);

        // Buffer traffic. Weights: all channels' weights at weight_bits.
        // Dense activations raw; sparse activations bitmap-compressed.
        let weight_bits = w.weight_elems() * q.weight_bits as u64;
        let dense_act_bits = w.input_elems_for(&dense_ch) * q.act_bits as u64;
        let sparse_act_bits = w.input_elems_for(&sparse_ch) // bitmap: 1 bit/elem
            + w.nnz_input_elems_for(&sparse_ch) * q.act_bits as u64;
        let output_bits = w.output_elems() * q.act_bits as u64;
        let traffic_bits = weight_bits + dense_act_bits + sparse_act_bits + output_bits;
        let fetch_cycles = traffic_bits.div_ceil(cfg.buffer_bw_bits.max(1));

        // The detector counts zeros as outputs stream out of the
        // accumulation buffers, so its work overlaps the whole layer; it
        // only surfaces cycles if slower than compute and fetch combined.
        let detector_cycles = cfg.detector.count_cycles(w.output_elems());
        let overlapped = compute_cycles.max(fetch_cycles);
        let detector_exposed = detector_cycles.saturating_sub(overlapped);

        let cycles = overlapped + detector_exposed;

        // Energy.
        let macs_executed = dense_macs + sparse_nnz;
        let noc = Noc::new(cfg.total_pes().max(1), cfg.noc_link_bits);
        let em = &cfg.energy;
        let energy = EnergyBreakdown {
            compute_pj: macs_executed as f64 * em.mac_pj(q.mac),
            sram_pj: em.sram_pj(traffic_bits),
            dram_pj: if cfg.include_dram {
                em.dram_pj(weight_bits + dense_act_bits + sparse_act_bits + output_bits)
            } else {
                0.0
            },
            noc_pj: em.noc_pj(
                weight_bits + dense_act_bits + sparse_act_bits,
                noc.mean_hops().round() as u32,
            ),
            leakage_pj: em.leakage_pj(cfg.total_pes(), cycles),
        };

        LayerStats {
            cycles,
            dense_cycles,
            sparse_cycles,
            fetch_cycles,
            detector_cycles,
            macs_executed,
            energy,
        }
    }

    /// Executes a sequence of layers (one model evaluation).
    ///
    /// `partitions`, if given, must supply one channel partition per layer.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is present with the wrong length.
    pub fn run_model(
        &self,
        layers: &[(ConvWorkload, LayerQuant)],
        partitions: Option<&[ChannelPartition]>,
    ) -> RunStats {
        if let Some(ps) = partitions {
            assert_eq!(ps.len(), layers.len(), "one partition per layer");
        }
        let mut stats = RunStats::default();
        for (i, (w, q)) in layers.iter().enumerate() {
            let p = partitions.map(|ps| &ps[i]);
            stats.push(&self.run_layer(w, p, *q));
        }
        stats
    }

    /// Peak MAC throughput of the configured array at `mac` precision, in
    /// MACs per cycle — the denominator of the occupancy estimate in
    /// [`Accelerator::step_round`].
    pub fn peak_macs_per_cycle(&self, mac: MacPrecision) -> f64 {
        (self.config.total_pes() * self.config.pe_multipliers) as f64
            * f64::from(mac.lanes_per_fp16_mult())
    }

    /// Executes **one** incremental denoise round: the model evaluated
    /// once per stream in a batch of `batch` streams, under a DVFS
    /// throttle `curve`, on a serving deployment provisioned for
    /// `provisioned` batch slots.
    ///
    /// This is the incremental counterpart of [`Accelerator::run_model`]
    /// for hardware-in-the-loop serving: instead of costing a whole
    /// trajectory up front, a scheduler calls this once per executed
    /// round and accumulates the [`RoundStats`] in a [`RunLedger`].
    ///
    /// The round's occupancy is the model's compute intensity (executed
    /// MACs over the array's peak across the round's nominal cycles)
    /// scaled by the batch-slot fill `batch / provisioned`, clamped to
    /// `0.0..=1.0`. The curve maps that occupancy to a frequency scale
    /// `f`; dynamic energy (compute, SRAM, DRAM, NoC) scales by `f²`,
    /// leakage by `1/f`, and cycles stretch by `1/f`.
    ///
    /// A `batch` of zero is an idle round: zero cycles and energy.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is present with the wrong length (as
    /// [`Accelerator::run_model`]) or if `provisioned` is zero with a
    /// non-zero `batch`.
    pub fn step_round(
        &self,
        layers: &[(ConvWorkload, LayerQuant)],
        partitions: Option<&[ChannelPartition]>,
        batch: usize,
        provisioned: usize,
        curve: &ThrottleCurve,
    ) -> RoundStats {
        if batch == 0 {
            return RoundStats {
                batch: 0,
                cycles: 0,
                energy_pj: 0.0,
                occupancy: 0.0,
                freq_scale: curve.freq_scale_at(0.0),
            };
        }
        assert!(provisioned > 0, "provisioned batch slots must be positive");
        // One stream's model evaluation; streams in a batch run the same
        // layers, so the batched round is `batch` sequential evaluations
        // on this array (weights stay resident; the fetch/compute overlap
        // is already inside `run_layer`).
        let base = self.run_model(layers, partitions);
        let nominal_cycles = base.cycles.saturating_mul(batch as u64);
        let macs = base.macs_executed.saturating_mul(batch as u64);

        // Compute intensity: fraction of the array's peak MAC throughput
        // the round actually uses. The model mixes precisions per layer,
        // so rate the peak at the widest (fp16) datapath for a
        // conservative intensity.
        let peak = self.peak_macs_per_cycle(MacPrecision::Fp16);
        let intensity = if nominal_cycles == 0 || peak <= 0.0 {
            0.0
        } else {
            (macs as f64 / (peak * nominal_cycles as f64)).min(1.0)
        };
        let fill = (batch as f64 / provisioned as f64).min(1.0);
        let occupancy = (intensity * fill).clamp(0.0, 1.0);

        let f = curve.freq_scale_at(occupancy);
        let cycles = ((nominal_cycles as f64) / f).ceil() as u64;
        let dynamic_pj = (base.energy.compute_pj
            + base.energy.sram_pj
            + base.energy.dram_pj
            + base.energy.noc_pj)
            * batch as f64;
        let leakage_pj = base.energy.leakage_pj * batch as f64;
        let energy_pj = dynamic_pj * f * f + leakage_pj / f;

        RoundStats {
            batch,
            cycles,
            energy_pj,
            occupancy,
            freq_scale: f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_layer(sparsity: f64) -> ConvWorkload {
        ConvWorkload::uniform(24, 24, 3, 3, 16, 16, sparsity)
    }

    /// A ReLU-like layer (mean sparsity ≈ 0.63, as §III-C reports): most
    /// channels well above the 30% threshold, a few dense ones below it.
    fn bimodal_layer() -> ConvWorkload {
        let mut sp = vec![0.78; 18];
        sp.extend(vec![0.10; 6]);
        ConvWorkload::with_sparsity(24, 24, 3, 3, 16, 16, sp)
    }

    #[test]
    fn dense_run_executes_all_macs() {
        let acc = Accelerator::new(AcceleratorConfig::dense_baseline());
        let w = demo_layer(0.65);
        let s = acc.run_layer(&w, None, LayerQuant::int4());
        assert_eq!(s.macs_executed, w.total_macs());
        assert_eq!(s.sparse_cycles, 0);
        assert!(s.cycles > 0);
    }

    #[test]
    fn quantization_speedup_near_4x() {
        // Figure 12 (bottom): 4-bit quantization alone gives ~3.8× over
        // FP16 on the same dense hardware.
        let acc = Accelerator::new(AcceleratorConfig::dense_baseline());
        let w = demo_layer(0.0);
        let fp16 = acc.run_layer(&w, None, LayerQuant::fp16());
        let int4 = acc.run_layer(&w, None, LayerQuant::int4());
        let speedup = fp16.cycles as f64 / int4.cycles as f64;
        assert!(speedup > 3.3 && speedup <= 4.05, "speedup {speedup}");
    }

    #[test]
    fn heterogeneous_beats_dense_baseline_on_sparse_data() {
        // Figure 12 (top): ~1.8× from temporal sparsity at equal precision.
        let w = bimodal_layer();
        let partition = ChannelPartition::classify(&w.act_sparsity, sqdm_sparsity::PAPER_THRESHOLD);
        let base = Accelerator::new(AcceleratorConfig::dense_baseline());
        let het = Accelerator::new(AcceleratorConfig::paper());
        let sb = base.run_layer(&w, None, LayerQuant::int4());
        let sh = het.run_layer(&w, Some(&partition), LayerQuant::int4());
        let speedup = sb.cycles as f64 / sh.cycles as f64;
        assert!(speedup > 1.3 && speedup < 2.2, "speedup {speedup}");
    }

    #[test]
    fn sparse_energy_saving_is_substantial() {
        let w = bimodal_layer();
        let partition = ChannelPartition::classify(&w.act_sparsity, sqdm_sparsity::PAPER_THRESHOLD);
        let base = Accelerator::new(AcceleratorConfig::dense_baseline());
        let het = Accelerator::new(AcceleratorConfig::paper());
        let mut b = RunStats::default();
        b.push(&base.run_layer(&w, None, LayerQuant::int4()));
        let mut h = RunStats::default();
        h.push(&het.run_layer(&w, Some(&partition), LayerQuant::int4()));
        let saving = h.energy_saving_vs(&b);
        assert!(saving > 0.25 && saving < 0.7, "saving {saving}");
    }

    #[test]
    fn heterogeneous_no_partition_degrades_gracefully() {
        // Without a partition the paper config runs everything on its one
        // DPE: correct, just slower than the 2-DPE baseline.
        let w = demo_layer(0.0);
        let het = Accelerator::new(AcceleratorConfig::paper());
        let base = Accelerator::new(AcceleratorConfig::dense_baseline());
        let sh = het.run_layer(&w, None, LayerQuant::int4());
        let sb = base.run_layer(&w, None, LayerQuant::int4());
        assert_eq!(sh.macs_executed, w.total_macs());
        assert!(sh.cycles >= sb.cycles);
    }

    #[test]
    fn detector_is_hidden_behind_drain() {
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let w = demo_layer(0.5);
        let s = acc.run_layer(&w, None, LayerQuant::int4());
        // Detector cycles are reported but do not extend the layer:
        // compute dominates and the counting overlaps it entirely.
        assert!(s.detector_cycles > 0);
        assert_eq!(s.cycles, s.dense_cycles.max(s.fetch_cycles));
        assert!(s.detector_cycles < s.cycles);
    }

    #[test]
    fn fetch_bound_when_bandwidth_starved() {
        let mut cfg = AcceleratorConfig::dense_baseline();
        cfg.buffer_bw_bits = 8;
        let acc = Accelerator::new(cfg);
        let w = demo_layer(0.0);
        let s = acc.run_layer(&w, None, LayerQuant::int4());
        assert_eq!(s.cycles, s.fetch_cycles);
        assert!(s.fetch_cycles > s.dense_cycles);
    }

    #[test]
    fn run_model_accumulates() {
        let acc = Accelerator::new(AcceleratorConfig::dense_baseline());
        let layers = vec![
            (demo_layer(0.0), LayerQuant::int4()),
            (demo_layer(0.0), LayerQuant::int8()),
        ];
        let stats = acc.run_model(&layers, None);
        assert_eq!(stats.layers, 2);
        let l0 = acc.run_layer(&layers[0].0, None, layers[0].1);
        let l1 = acc.run_layer(&layers[1].0, None, layers[1].1);
        assert_eq!(stats.cycles, l0.cycles + l1.cycles);
        assert!(
            (stats.energy.total_pj() - l0.energy.total_pj() - l1.energy.total_pj()).abs() < 1e-6
        );
    }

    #[test]
    fn compressed_sparse_fetch_reduces_traffic() {
        let w = bimodal_layer();
        let partition = ChannelPartition::classify(&w.act_sparsity, sqdm_sparsity::PAPER_THRESHOLD);
        let het = Accelerator::new(AcceleratorConfig::paper());
        let with = het.run_layer(&w, Some(&partition), LayerQuant::int4());
        let without = het.run_layer(&w, None, LayerQuant::int4());
        assert!(with.energy.sram_pj < without.energy.sram_pj);
    }

    #[test]
    fn scaling_the_array_scales_throughput() {
        // §IV-D: the architecture is scalable. Two D/S pairs finish a big
        // layer in roughly half the cycles of one pair.
        let w = ConvWorkload::uniform(96, 96, 3, 3, 32, 32, 0.65);
        let partition = ChannelPartition::classify(&w.act_sparsity, sqdm_sparsity::PAPER_THRESHOLD);
        let one = Accelerator::new(AcceleratorConfig::scaled(1));
        let two = Accelerator::new(AcceleratorConfig::scaled(2));
        let s1 = one.run_layer(&w, Some(&partition), LayerQuant::int4());
        let s2 = two.run_layer(&w, Some(&partition), LayerQuant::int4());
        let ratio = s1.cycles as f64 / s2.cycles as f64;
        assert!(ratio > 1.6 && ratio < 2.1, "scaling ratio {ratio}");
        assert_eq!(s1.macs_executed, s2.macs_executed);
    }

    #[test]
    fn weight_sparsity_composes_with_activation_sparsity() {
        // §II-B: 2:4 weight sparsity halves MACs on top of activation
        // skipping.
        let w = bimodal_layer();
        let pruned = w.clone().with_weight_density(0.5);
        let p = ChannelPartition::balanced(&w.act_sparsity, 0.9);
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let full = acc.run_layer(&w, Some(&p), LayerQuant::int4());
        let half = acc.run_layer(&pruned, Some(&p), LayerQuant::int4());
        // Per-channel rounding of nnz counts leaves ±1 MAC per channel.
        let diff = (half.macs_executed * 2).abs_diff(full.macs_executed);
        assert!(
            diff <= w.c as u64,
            "2x{} vs {}",
            half.macs_executed,
            full.macs_executed
        );
        assert!(half.cycles < full.cycles);
        assert!(half.energy.total_pj() < full.energy.total_pj());
    }

    #[test]
    fn empty_run_ratios_are_nan_in_both_directions() {
        // Regression: `speedup_vs` used to clamp only `self.cycles` and
        // `energy_saving_vs` only the baseline, so an empty run reported
        // 0× speedup or a perfect 100% saving depending on which side it
        // sat. Both ratios are now symmetric: any empty side means the
        // comparison is undefined.
        let empty = RunStats::default();
        let mut real = RunStats::default();
        let acc = Accelerator::new(AcceleratorConfig::dense_baseline());
        real.push(&acc.run_layer(&demo_layer(0.3), None, LayerQuant::int4()));

        assert!(empty.speedup_vs(&real).is_nan());
        assert!(real.speedup_vs(&empty).is_nan());
        assert!(empty.speedup_vs(&empty).is_nan());
        assert!(empty.energy_saving_vs(&real).is_nan());
        assert!(real.energy_saving_vs(&empty).is_nan());
        assert!(empty.energy_saving_vs(&empty).is_nan());

        // Non-empty comparisons are unchanged by the guard.
        assert_eq!(real.speedup_vs(&real), 1.0);
        assert!(real.energy_saving_vs(&real).abs() < 1e-12);
    }

    #[test]
    fn mixed_precision_runs_at_wider_operand_rate() {
        let q = LayerQuant::from_bits(4, 8);
        assert_eq!(q.mac, MacPrecision::Int8);
        let q2 = LayerQuant::from_bits(4, 4);
        assert_eq!(q2.mac, MacPrecision::Int4);
        let q3 = LayerQuant::from_bits(16, 4);
        assert_eq!(q3.mac, MacPrecision::Fp16);
    }

    fn round_layers() -> Vec<(ConvWorkload, LayerQuant)> {
        vec![
            (demo_layer(0.5), LayerQuant::int8()),
            (demo_layer(0.6), LayerQuant::int8()),
        ]
    }

    #[test]
    fn step_round_matches_run_model_at_nominal_frequency() {
        // At a flat f = 1.0 curve, one single-stream round is exactly one
        // run_model evaluation: same cycles, same total energy.
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let layers = round_layers();
        let base = acc.run_model(&layers, None);
        let curve = crate::power::PowerProfile::Performance.curve();
        let round = acc.step_round(&layers, None, 1, 4, &curve);
        assert_eq!(round.batch, 1);
        assert_eq!(round.cycles, base.cycles);
        assert!((round.energy_pj - base.energy.total_pj()).abs() < 1e-6);
        assert_eq!(round.freq_scale, 1.0);
        // A batch of b costs b single-stream evaluations.
        let round3 = acc.step_round(&layers, None, 3, 4, &curve);
        assert_eq!(round3.cycles, base.cycles * 3);
        assert!((round3.energy_pj - base.energy.total_pj() * 3.0).abs() < 1e-6);
    }

    #[test]
    fn step_round_throttling_saves_energy_and_stretches_cycles() {
        // A small batch on a big provisioned array sits low on the
        // efficiency curve: it must spend measurably less energy per
        // stream than the same work at nominal frequency, and take
        // correspondingly more cycles.
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let layers = round_layers();
        let nominal = acc.step_round(
            &layers,
            None,
            1,
            8,
            &crate::power::PowerProfile::Performance.curve(),
        );
        let throttled = acc.step_round(
            &layers,
            None,
            1,
            8,
            &crate::power::PowerProfile::Efficiency.curve(),
        );
        assert!(throttled.freq_scale < 1.0);
        assert!(
            throttled.energy_pj < nominal.energy_pj,
            "throttled {} vs nominal {}",
            throttled.energy_pj,
            nominal.energy_pj
        );
        assert!(throttled.cycles > nominal.cycles);
        assert_eq!(throttled.occupancy, nominal.occupancy);
    }

    #[test]
    fn step_round_idle_batch_is_free() {
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let curve = crate::power::PowerProfile::Efficiency.curve();
        let idle = acc.step_round(&round_layers(), None, 0, 4, &curve);
        assert_eq!(idle.cycles, 0);
        assert_eq!(idle.energy_pj, 0.0);
        assert_eq!(idle.occupancy, 0.0);
    }

    #[test]
    fn run_ledger_aggregates_rounds() {
        let acc = Accelerator::new(AcceleratorConfig::paper());
        let layers = round_layers();
        let curve = crate::power::PowerProfile::Balanced.curve();
        let mut ledger = RunLedger::default();
        assert!(ledger.mean_occupancy().is_nan());
        assert_eq!(ledger.peak_occupancy(), 0.0);
        for batch in [1usize, 3, 2] {
            ledger.record(acc.step_round(&layers, None, batch, 4, &curve));
        }
        assert_eq!(ledger.rounds.len(), 3);
        assert!(ledger.total_energy_pj() > 0.0);
        assert!(ledger.total_cycles() > 0);
        assert!(ledger.mean_occupancy() > 0.0);
        assert!(ledger.peak_occupancy() >= ledger.mean_occupancy());
        assert_eq!(
            ledger.peak_occupancy(),
            ledger
                .rounds
                .iter()
                .map(|r| r.occupancy)
                .fold(0.0, f64::max)
        );
    }

    #[test]
    fn run_ledger_mean_occupancy_never_exceeds_peak() {
        // From 7 copies on, the f64 running sum of this occupancy rounds up
        // and a plain `sum / len` lands one ulp above it.
        let round = RoundStats {
            batch: 1,
            cycles: 100,
            energy_pj: 1.0,
            occupancy: 0.4987012987012987,
            freq_scale: 1.0,
        };
        for n in [7usize, 16] {
            let ledger = RunLedger {
                rounds: vec![round; n],
            };
            assert_eq!(ledger.mean_occupancy(), ledger.peak_occupancy(), "n = {n}");
            assert_eq!(ledger.mean_occupancy(), round.occupancy, "n = {n}");
        }
    }
}
