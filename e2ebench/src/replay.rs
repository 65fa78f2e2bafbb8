//! Per-layer replays for the traced mode.
//!
//! Each replay times calls into one layer's public functions, from this
//! file, on the workload's own shapes and batch sizes: the integer conv
//! kernels over `sqdm_core::conv_sites` with activation codes and change
//! masks recorded from one real trajectory of the workload's model, the
//! quantized attention block, whole U-Net evaluations, the Heun sampler
//! and the wire codec.

use sqdm_core::{conv_sites, ConvSite};
use sqdm_edm::wire::{json, ImagePayload, StatusReply, PROTO_VERSION};
use sqdm_edm::{
    block_ids, sample, ActEvent, Denoiser, PackCache, RunConfig, SamplerConfig, UNet,
    DEFAULT_TRACE_TOL,
};
use sqdm_nn::layers::SelfAttention2d;
use sqdm_nn::QuantExecutor;
use sqdm_quant::{ChannelLayout, Granularity, PrecisionAssignment, QuantFormat, QuantizedTensor};
use sqdm_sparsity::{channel_sparsity, TemporalTrace};
use sqdm_tensor::ops::int::{
    conv2d_i8_packed_delta_multi, conv2d_i8_packed_multi, im2col_i8_multi, ConvDeltaState,
    PackedQuantizedMatrix, QuantizedMatrix, XQuant, DELTA_DENSE_THRESHOLD,
};
use sqdm_tensor::ops::Conv2dGeometry;
use sqdm_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Boxed error of the benchmark's drivers.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time in ms of `reps` calls of `f`, after one warm-up call;
/// the first error ends the timing.
pub fn time_median_ms<T, E: Into<BoxError>>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<f64, BoxError> {
    black_box(f().map_err(Into::into)?);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        black_box(f().map_err(Into::into)?);
        samples.push(ms(t.elapsed()));
    }
    Ok(e2ebench::median(&samples).unwrap_or(f64::NAN))
}

/// Conv-site input activations of every denoiser evaluation of one solo
/// trajectory: `evals[e][s]` feeds site `sites[s]` at evaluation `e`.
pub struct Recording {
    sites: Vec<ConvSite>,
    evals: Vec<Vec<Tensor>>,
}

/// Runs one solo Heun trajectory of `steps` steps on `net` (the same
/// arithmetic as `sqdm_edm::sample`) and records the input of every conv
/// site at both evaluations of each step.
///
/// # Errors
///
/// Propagates model errors, and fails if a site is never observed.
pub fn record(
    net: &mut UNet,
    den: &Denoiser,
    asg: &PrecisionAssignment,
    steps: usize,
    seed: u64,
) -> Result<Recording, BoxError> {
    let cfg = *net.config();
    let sites = conv_sites(&cfg);
    let grid = den.schedule.sigma_steps(steps);
    let mut rng = Rng::seed_from(seed);
    let s = cfg.image_size;
    let mut x = Tensor::randn([1, cfg.in_channels, s, s], &mut rng).scale(grid[0]);
    let packs = PackCache::new();
    let mut evals = Vec::new();
    let mut eval = |net: &mut UNet, x: &Tensor, sigma: f32| -> Result<Tensor, BoxError> {
        let mut seen: Vec<Option<Tensor>> = vec![None; sites.len()];
        let d = {
            let mut obs = |ev: ActEvent<'_>| {
                if let Some(k) = sites
                    .iter()
                    .position(|st| st.block == ev.block_index && st.stage == ev.stage)
                {
                    seen[k] = Some(ev.tensor.clone());
                }
            };
            let mut rc = RunConfig {
                train: false,
                assignment: Some(asg),
                observer: Some(&mut obs),
                batched: false,
                packs: Some(&packs),
                delta: None,
            };
            den.denoise(net, x, &[sigma], &mut rc)?
        };
        let seen: Option<Vec<Tensor>> = seen.into_iter().collect();
        evals.push(seen.ok_or("a conv site was not observed")?);
        Ok(d)
    };
    for i in 0..steps {
        let (sig, sig_next) = (grid[i], grid[i + 1]);
        let d0 = eval(net, &x, sig)?;
        let slope = x.sub(&d0)?.scale(1.0 / sig);
        let mut x_next = x.clone();
        x_next.add_scaled(&slope, sig_next - sig)?;
        if sig_next > 0.0 {
            let d1 = eval(net, &x_next, sig_next)?;
            let slope2 = x_next.sub(&d1)?.scale(1.0 / sig_next);
            let mut avg = slope.clone();
            avg.add_scaled(&slope2, 1.0)?;
            x_next = x.clone();
            x_next.add_scaled(&avg, 0.5 * (sig_next - sig))?;
        }
        x = x_next;
    }
    Ok(Recording { sites, evals })
}

/// One conv site ready for the kernels: packed weight in the block's
/// weight format, activation format, and whether the model routes it
/// through the temporal-delta path (the Conv+Act blocks' two convs).
struct SiteKernel {
    site: ConvSite,
    pw: PackedQuantizedMatrix,
    bias: Vec<f32>,
    afmt: QuantFormat,
    delta: bool,
}

/// Quantizes a weight the way the integer engine does: codes with the
/// format's scale blocks tiling the reduction axis.
fn quantize_weight(w: &Tensor, fmt: QuantFormat) -> Result<QuantizedMatrix, BoxError> {
    let q = QuantizedTensor::quantize(w, fmt, ChannelLayout::WEIGHT)?;
    let rows = w.dims()[0];
    let cols = w.len() / rows;
    let codes: Vec<i8> = q.codes().iter().map(|&c| c as i8).collect();
    Ok(match fmt.granularity {
        Granularity::PerTensor => {
            QuantizedMatrix::per_channel(codes, rows, cols, vec![q.scales()[0]; rows])?
        }
        Granularity::PerChannel | Granularity::PerBlock(_) => {
            QuantizedMatrix::new(codes, rows, cols, q.scales().to_vec(), q.block_len())?
        }
    })
}

fn site_kernels(
    sites: &[ConvSite],
    asg: &PrecisionAssignment,
) -> Result<Vec<SiteKernel>, BoxError> {
    let mut rng = Rng::seed_from(0x5173);
    sites
        .iter()
        .map(|&site| {
            let p = asg.block(site.block);
            let wfmt = p.weights.ok_or("conv site without a weight format")?;
            let afmt = p
                .activations
                .ok_or("conv site without an activation format")?;
            let w = Tensor::randn([site.k, site.c, site.kernel, site.kernel], &mut rng).scale(0.1);
            Ok(SiteKernel {
                site,
                pw: PackedQuantizedMatrix::pack(quantize_weight(&w, wfmt)?),
                bias: vec![0.0; site.k],
                afmt,
                delta: site.block != block_ids::OUT_CONV,
            })
        })
        .collect()
}

/// Activation codes on the delta path's sticky grid: keep the previous
/// scale while the range stays within `[scale/2, scale]`, otherwise
/// calibrate afresh (mirrors the integer engine's delta convolution).
fn quantize_sticky(x: &Tensor, fmt: QuantFormat, prev: Option<XQuant>) -> (Vec<i8>, XQuant) {
    let raw = x.abs_max() / fmt.grid.qmax() as f32;
    let xq = match prev {
        Some(p) if p.zero_point == 0 && raw <= p.scale && p.scale <= 2.0 * raw => p,
        _ => XQuant::symmetric(fmt.scale_encoding.encode(raw)),
    };
    let codes = x
        .as_slice()
        .iter()
        .map(|&v| fmt.grid.encode(v, xq.scale) as i8)
        .collect();
    (codes, xq)
}

/// Kernel-level replay results.
#[derive(Debug, Clone, Copy)]
pub struct ConvReplay {
    /// Dense packed convs over all sites at the replay batch, ms per eval.
    pub dense_ms_per_eval: f64,
    /// MACs of those convs per ms → GMAC/s.
    pub dense_gmac_per_s: f64,
    /// Dense packed convs at batch 1, ms per eval (the delta ratio's base).
    pub dense_b1_ms_per_eval: f64,
    /// Delta convs at batch 1 over the recorded trajectory, ms per eval.
    pub delta_ms_per_eval: f64,
    /// Mean zero fraction of the conv-site inputs.
    pub act_sparsity: f64,
    /// Reduction rows the delta path recomputed ÷ all rows.
    pub changed_row_fraction: f64,
    /// Kernel calls that took the delta path ÷ all delta-site calls.
    pub delta_step_share: f64,
}

/// Replays the recorded trajectory through the integer conv kernels:
/// dense at `batch` (every fourth evaluation, codes replicated per
/// stream), dense and delta at batch 1 over every evaluation in order.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn replay_convs(
    rec: &Recording,
    asg: &PrecisionAssignment,
    batch: usize,
) -> Result<ConvReplay, BoxError> {
    let kernels = site_kernels(&rec.sites, asg)?;
    let geom = Conv2dGeometry::same(3);
    // Codes of every (eval, site) on the sticky grid.
    let mut prev: Vec<Option<XQuant>> = vec![None; kernels.len()];
    let codes: Vec<Vec<(Vec<i8>, XQuant)>> = rec
        .evals
        .iter()
        .map(|ev| {
            ev.iter()
                .zip(&kernels)
                .enumerate()
                .map(|(s, (x, sk))| {
                    let (c, xq) = quantize_sticky(x, sk.afmt, prev[s]);
                    prev[s] = Some(xq);
                    (c, xq)
                })
                .collect()
        })
        .collect();
    let dims = |x: &Tensor| {
        let d = x.dims();
        (d[1], d[2], d[3])
    };

    let dense = |b: usize, stride: usize| -> Result<(f64, f64), BoxError> {
        let mut busy = Duration::ZERO;
        let mut macs = 0.0;
        let mut evals = 0usize;
        for (e, ev) in codes.iter().enumerate().step_by(stride) {
            for (s, (c, xq)) in ev.iter().enumerate() {
                let (ch, h, w) = dims(&rec.evals[e][s]);
                let sk = &kernels[s];
                let xb: Vec<i8> = c.iter().copied().cycle().take(c.len() * b).collect();
                let xqs = vec![*xq; b];
                let t = Instant::now();
                let y = conv2d_i8_packed_multi(
                    &sk.pw,
                    &xb,
                    b,
                    ch,
                    h,
                    w,
                    3,
                    3,
                    Some(&sk.bias),
                    geom,
                    &xqs,
                )?;
                busy += t.elapsed();
                black_box(y);
                let st = sk.site;
                macs += (b * st.k * st.c * st.kernel * st.kernel * st.spatial * st.spatial) as f64;
            }
            evals += 1;
        }
        Ok((ms(busy) / evals as f64, macs / (ms(busy) * 1e6)))
    };
    let (dense_ms_per_eval, dense_gmac_per_s) = dense(batch, 4)?;
    let (dense_b1_ms_per_eval, _) = dense(1, 1)?;

    // Delta at batch 1, every evaluation in order, one carried state and
    // one sparsity trace per site (what `DeltaSession` keeps).
    let mut states: Vec<ConvDeltaState> = kernels.iter().map(|_| ConvDeltaState::new()).collect();
    let mut traces: Vec<TemporalTrace> = kernels
        .iter()
        .map(|k| TemporalTrace::new(k.site.c))
        .collect();
    let mut busy = Duration::ZERO;
    let (mut zeros, mut elems) = (0usize, 0usize);
    let (mut rows_done, mut rows_all) = (0usize, 0usize);
    let (mut delta_calls, mut delta_site_calls) = (0usize, 0usize);
    for (e, ev) in codes.iter().enumerate() {
        for (s, (c, xq)) in ev.iter().enumerate() {
            let x = &rec.evals[e][s];
            let (ch, h, w) = dims(x);
            let sk = &kernels[s];
            zeros += x.as_slice().iter().filter(|&&v| v == 0.0).count();
            elems += x.len();
            if !sk.delta {
                let t = Instant::now();
                let y = conv2d_i8_packed_multi(
                    &sk.pw,
                    c,
                    1,
                    ch,
                    h,
                    w,
                    3,
                    3,
                    Some(&sk.bias),
                    geom,
                    &[*xq],
                )?;
                busy += t.elapsed();
                black_box(y);
                continue;
            }
            traces[s].push_step(channel_sparsity(x));
            let mask = traces[s].change_mask(traces[s].steps() - 1, DEFAULT_TRACE_TOL);
            // Rows the kernel will recompute if it takes the delta path:
            // trace-flagged channels' rows, unioned with rows whose
            // lowered codes differ from the previous evaluation.
            let rows = ch * 9;
            let changed = if e > 0 {
                let (pc, pxq) = &codes[e - 1][s];
                if pxq == xq {
                    let spatial = h * w;
                    let now = im2col_i8_multi(c, 1, ch, h, w, 3, 3, geom, &[0])?;
                    let before = im2col_i8_multi(pc, 1, ch, h, w, 3, 3, geom, &[0])?;
                    (0..rows)
                        .filter(|&r| {
                            mask.as_slice()[r / 9]
                                || now[r * spatial..(r + 1) * spatial]
                                    != before[r * spatial..(r + 1) * spatial]
                        })
                        .count()
                } else {
                    rows
                }
            } else {
                rows
            };
            let before = states[s].delta_steps;
            let t = Instant::now();
            let y = conv2d_i8_packed_delta_multi(
                &sk.pw,
                c,
                1,
                ch,
                h,
                w,
                3,
                3,
                Some(&sk.bias),
                geom,
                &[*xq],
                mask.as_slice(),
                &mut states[s],
                DELTA_DENSE_THRESHOLD,
            )?;
            busy += t.elapsed();
            black_box(y);
            let took_delta = states[s].delta_steps > before;
            delta_calls += usize::from(took_delta);
            delta_site_calls += 1;
            rows_done += if took_delta { changed } else { rows };
            rows_all += rows;
        }
    }
    Ok(ConvReplay {
        dense_ms_per_eval,
        dense_gmac_per_s,
        dense_b1_ms_per_eval,
        delta_ms_per_eval: ms(busy) / codes.len() as f64,
        act_sparsity: zeros as f64 / elems as f64,
        changed_row_fraction: rows_done as f64 / rows_all as f64,
        delta_step_share: delta_calls as f64 / delta_site_calls as f64,
    })
}

/// ms per evaluation of the bottleneck attention block at `batch`, with
/// the block's precision on the assignment's execution mode.
///
/// # Errors
///
/// Propagates layer errors.
pub fn attention_ms(net: &UNet, asg: &PrecisionAssignment, batch: usize) -> Result<f64, BoxError> {
    let cfg = net.config();
    let c2 = 2 * cfg.base_channels;
    let s2 = cfg.image_size / 2;
    let mut rng = Rng::seed_from(0xA77);
    let attn = SelfAttention2d::new(c2, &mut rng);
    let exec = QuantExecutor::new(asg.block(block_ids::MID_ATTN))
        .with_mode(asg.mode())
        .signed_activations();
    let x = Tensor::randn([batch, c2, s2, s2], &mut rng);
    let packs = PackCache::new();
    time_median_ms(5, || exec.attention_forward_cached(&attn, &x, Some(&packs)))
}

/// ms of one U-Net evaluation at `batch` under `asg`, with warm weight
/// packs: `UNet::forward_batch` (per-request quantization, the serving
/// path) when `batched`, plain `UNet::forward` (the solo sampler's path)
/// otherwise.
///
/// # Errors
///
/// Propagates model errors.
pub fn eval_ms(
    net: &mut UNet,
    asg: &PrecisionAssignment,
    batch: usize,
    batched: bool,
    reps: usize,
) -> Result<f64, BoxError> {
    let cfg = *net.config();
    let mut rng = Rng::seed_from(0xE7A1 + batch as u64);
    let x = Tensor::randn(
        [batch, cfg.in_channels, cfg.image_size, cfg.image_size],
        &mut rng,
    );
    let c_noise: Vec<f32> = (0..batch).map(|i| 0.1 * i as f32 - 0.3).collect();
    let packs = PackCache::new();
    time_median_ms(reps, || {
        let mut rc = RunConfig {
            train: false,
            assignment: Some(asg),
            observer: None,
            batched,
            packs: Some(&packs),
            delta: None,
        };
        if batched {
            net.forward_batch(&x, &c_noise, &mut rc)
        } else {
            net.forward(&x, &c_noise, &mut rc)
        }
    })
}

/// Heun self time of one solo `sample()` image of `steps` steps: its wall
/// time minus `2·steps − 1` solo evaluations (`UNet::forward` at batch 1,
/// the path `sample()` takes).
///
/// # Errors
///
/// Propagates sampling errors.
pub fn heun_self_ms(
    net: &mut UNet,
    den: &Denoiser,
    asg: &PrecisionAssignment,
    steps: usize,
) -> Result<f64, BoxError> {
    let eval_ms = eval_ms(net, asg, 1, false, 5)?;
    let t = time_median_ms(3, || {
        sample(
            net,
            den,
            1,
            SamplerConfig { steps },
            Some(asg),
            &mut Rng::seed_from(0x4E0),
        )
    })?;
    Ok(t - (2 * steps - 1) as f64 * eval_ms)
}

/// µs to encode and to decode a finished `StatusReply` carrying one image
/// of `dims`, as the daemon and its clients do.
///
/// # Errors
///
/// Propagates codec errors.
pub fn wire_us(dims: [usize; 4]) -> Result<(f64, f64), BoxError> {
    let mut rng = Rng::seed_from(0x3E1);
    let len: usize = dims.iter().product();
    let reply = StatusReply {
        id: 7,
        state: "done".into(),
        model: 0,
        image: Some(ImagePayload {
            dims: dims.to_vec(),
            bits: (0..len).map(|_| rng.normal().to_bits()).collect(),
        }),
        error: None,
        proto_version: PROTO_VERSION,
    };
    let body = json::to_string(&reply)?;
    const REPS: usize = 200;
    let enc = time_median_ms(REPS, || json::to_string(black_box(&reply)))?;
    let dec = time_median_ms(REPS, || json::from_str::<StatusReply>(black_box(&body)))?;
    let back: StatusReply = json::from_str(&body)?;
    if back != reply {
        return Err("wire round trip changed the status reply".into());
    }
    Ok((enc * 1e3, dec * 1e3))
}
