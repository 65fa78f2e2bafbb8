//! Packed-kernel bitwise equivalence against the pre-overhaul reference.
//!
//! The register-tiled integer microkernel (`PackedQuantizedMatrix` + a
//! pair-interleaved activation panel) promises results bitwise identical to
//! the straight-line kernels they replaced. These property tests keep the
//! pre-overhaul semantics alive as in-file oracles — a per-element
//! ascending-`k`, ascending-block fold that mirrors the old loop nest
//! exactly — and pin `qgemm`/`qgemm_multi`, the packed entry points, the
//! delta kernels under both density-threshold branches, and `conv2d_i8`
//! against them over random shapes, zero points (including the ±32640
//! packing boundary), sparsity masks, thread counts `{1, 2, 7}`, and both
//! ISA bodies (dispatched and forced-generic). A fixed sweep pins the
//! tile edges the random shapes only hit by chance.

use proptest::prelude::*;
use sqdm_tensor::ops::int::{
    conv2d_i8, force_generic_kernels, im2col_i8, qgemm_delta_multi,
    qgemm_delta_multi_with_threshold, qgemm_delta_packed_multi, qgemm_multi, qgemm_packed,
    qgemm_packed_multi, PackedQuantizedMatrix, QuantizedMatrix, XQuant, MAX_ZERO_POINT,
};
use sqdm_tensor::ops::Conv2dGeometry;
use sqdm_tensor::parallel::with_threads;
use sqdm_tensor::Rng;

const THREADS: [usize; 3] = [1, 2, 7];

/// Deterministic pseudo-random i8 codes.
fn codes(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = Rng::seed_from(seed);
    (0..len)
        .map(|_| (rng.uniform() * 254.0 - 127.0) as i8)
        .collect()
}

fn weight(m: usize, k: usize, block_len: usize, seed: u64) -> QuantizedMatrix {
    let mut rng = Rng::seed_from(seed);
    let nb = if k == 0 { 0 } else { k.div_ceil(block_len) };
    let scales: Vec<f32> = (0..m * nb).map(|_| 0.001 + rng.uniform() * 0.02).collect();
    QuantizedMatrix::new(codes(m * k, seed ^ 0x9e37), m, k, scales, block_len).unwrap()
}

/// Pre-overhaul dense reference: per output element, blocks fold in
/// ascending order from 0.0; each block's exact i32 accumulator sweeps
/// `k` ascending over `code · (x − zero_point)` products.
fn reference_qgemm_multi(w: &QuantizedMatrix, x: &[i8], stripe: usize, xqs: &[XQuant]) -> Vec<f32> {
    let (m, k, nb) = (w.rows(), w.cols(), w.n_blocks());
    let n = stripe * xqs.len();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let xq = xqs[j / stripe.max(1)];
            let mut y = 0.0f32;
            for b in 0..nb {
                let k0 = b * w.block_len();
                let k1 = (k0 + w.block_len()).min(k);
                let mut acc = 0i32;
                for kk in k0..k1 {
                    acc += w.codes()[i * k + kk] as i32 * (x[kk * n + j] as i32 - xq.zero_point);
                }
                y += acc as f32 * (w.scales()[i * nb + b] * xq.scale);
            }
            out[i * n + j] = y;
        }
    }
    out
}

/// Pre-overhaul delta reference: starts from `prev_out`; a scale block
/// contributes (even a `+0.0` epilogue add) iff the stream's mask marks
/// any row inside it, and its accumulator sums `code · (curr − prev)`
/// over the masked rows only.
#[allow(clippy::too_many_arguments)]
fn reference_qgemm_delta_multi(
    w: &QuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
) -> Vec<f32> {
    let (m, k, nb) = (w.rows(), w.cols(), w.n_blocks());
    let n = stripe * xqs.len();
    let mut out = prev_out.to_vec();
    for i in 0..m {
        for j in 0..n {
            let s = j / stripe.max(1);
            let mask = &changed[s * k..(s + 1) * k];
            let mut y = prev_out[i * n + j];
            for b in 0..nb {
                let k0 = b * w.block_len();
                let k1 = (k0 + w.block_len()).min(k);
                if !mask[k0..k1].iter().any(|&c| c) {
                    continue;
                }
                let mut acc = 0i32;
                for kk in k0..k1 {
                    if mask[kk] {
                        acc += w.codes()[i * k + kk] as i32
                            * (x_curr[kk * n + j] as i32 - x_prev[kk * n + j] as i32);
                    }
                }
                y += acc as f32 * (w.scales()[i * nb + b] * xqs[s].scale);
            }
            out[i * n + j] = y;
        }
    }
    out
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} at {idx}: {g} vs {w}");
    }
}

/// Draws a zero point, mixing interior values with the ±`MAX_ZERO_POINT`
/// packing boundary.
fn draw_zero_point(rng: &mut Rng) -> i32 {
    match (rng.uniform() * 5.0) as u32 {
        0 => MAX_ZERO_POINT,
        1 => -MAX_ZERO_POINT,
        2 => (rng.uniform() * 200.0 - 100.0) as i32,
        _ => (rng.uniform() * 10.0 - 5.0) as i32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn packed_qgemm_matches_pre_overhaul_reference(
        (m, k, stripe, reqs, block_len, seed) in
            (1usize..12, 1usize..24, 1usize..6, 1usize..4, 1usize..9, 0u64..1 << 32)
    ) {
        let w = weight(m, k, block_len, seed);
        let pw = PackedQuantizedMatrix::pack(w.clone());
        let mut rng = Rng::seed_from(seed ^ 0xabcd);
        let xqs: Vec<XQuant> = (0..reqs)
            .map(|_| XQuant {
                scale: 0.005 + rng.uniform() * 0.1,
                zero_point: draw_zero_point(&mut rng),
            })
            .collect();
        let n = stripe * reqs;
        let x = codes(k * n, seed ^ 0x51ca);
        let want = reference_qgemm_multi(&w, &x, stripe, &xqs);
        for t in THREADS {
            with_threads(t, || {
                for generic in [false, true] {
                    force_generic_kernels(generic);
                    let mut got = vec![0.0f32; m * n];
                    qgemm_multi(&w, &x, stripe, &xqs, &mut got).unwrap();
                    assert_bits_eq(&got, &want, "qgemm_multi");
                    let mut packed = vec![0.0f32; m * n];
                    qgemm_packed_multi(&pw, &x, stripe, &xqs, &mut packed).unwrap();
                    assert_bits_eq(&packed, &want, "qgemm_packed_multi");
                }
                force_generic_kernels(false);
                if reqs == 1 {
                    let mut single = vec![0.0f32; m * n];
                    qgemm_packed(&pw, &x, stripe, xqs[0], &mut single).unwrap();
                    assert_bits_eq(&single, &want, "qgemm_packed");
                }
            });
        }
    }

    #[test]
    fn packed_delta_matches_reference_on_both_threshold_branches(
        ((m, k, stripe, reqs, block_len), (density, seed)) in
            ((1usize..12, 1usize..24, 1usize..6, 1usize..4, 1usize..9),
             (0.0f64..1.0, 0u64..1 << 32))
    ) {
        let w = weight(m, k, block_len, seed);
        let pw = PackedQuantizedMatrix::pack(w.clone());
        let mut rng = Rng::seed_from(seed ^ 0x7f3a);
        let xqs: Vec<XQuant> = (0..reqs)
            .map(|_| XQuant {
                scale: 0.005 + rng.uniform() * 0.1,
                zero_point: draw_zero_point(&mut rng),
            })
            .collect();
        let n = stripe * reqs;
        let prev = codes(k * n, seed ^ 0x2222);
        let changed: Vec<bool> = (0..reqs * k)
            .map(|_| (rng.uniform() as f64) < density)
            .collect();
        let mut curr = prev.clone();
        for (s, mask) in changed.chunks(k).enumerate() {
            for (row, &ch) in mask.iter().enumerate() {
                if ch {
                    for v in &mut curr[row * n + s * stripe..row * n + (s + 1) * stripe] {
                        *v = v.wrapping_add(1 + (row % 5) as i8);
                    }
                }
            }
        }
        let mut prev_out = vec![0.0f32; m * n];
        qgemm_multi(&w, &prev, stripe, &xqs, &mut prev_out).unwrap();
        let want =
            reference_qgemm_delta_multi(&w, &curr, &prev, &changed, stripe, &xqs, &prev_out);
        for t in THREADS {
            with_threads(t, || {
                for generic in [false, true] {
                    force_generic_kernels(generic);
                    // Forced-dense, forced-sparse, and the default
                    // threshold must all reproduce the reference bits.
                    for threshold in [0.0f32, 2.0] {
                        let mut got = vec![0.0f32; m * n];
                        qgemm_delta_multi_with_threshold(
                            &w, &curr, &prev, &changed, stripe, &xqs, &prev_out, &mut got,
                            threshold,
                        )
                        .unwrap();
                        assert_bits_eq(&got, &want, "qgemm_delta_multi_with_threshold");
                    }
                    let mut dflt = vec![0.0f32; m * n];
                    qgemm_delta_multi(
                        &w, &curr, &prev, &changed, stripe, &xqs, &prev_out, &mut dflt,
                    )
                    .unwrap();
                    assert_bits_eq(&dflt, &want, "qgemm_delta_multi");
                    let mut packed = vec![0.0f32; m * n];
                    qgemm_delta_packed_multi(
                        &pw, &curr, &prev, &changed, stripe, &xqs, &prev_out, &mut packed,
                    )
                    .unwrap();
                    assert_bits_eq(&packed, &want, "qgemm_delta_packed_multi");
                }
                force_generic_kernels(false);
            });
        }
    }

    #[test]
    fn conv2d_i8_matches_pre_overhaul_reference(
        ((c, h, w_ext, co), (kh, kw, seed)) in
            ((1usize..4, 1usize..7, 1usize..7, 1usize..4),
             (1usize..4, 1usize..4, 0u64..1 << 32))
    ) {
        let kh = kh.min(h);
        let kw = kw.min(w_ext);
        let geom = Conv2dGeometry::new(1, 1);
        let kdim = c * kh * kw;
        let wq = weight(co, kdim, kdim.min(4), seed ^ 0x1357);
        let mut rng = Rng::seed_from(seed ^ 0x8642);
        let xq = XQuant {
            scale: 0.005 + rng.uniform() * 0.1,
            zero_point: draw_zero_point(&mut rng),
        };
        let bias: Vec<f32> = (0..co).map(|_| rng.uniform() * 2.0 - 1.0).collect();
        let x = codes(c * h * w_ext, seed ^ 0x4444);
        let got = conv2d_i8(&x, 1, c, h, w_ext, &wq, kh, kw, Some(&bias), geom, xq).unwrap();
        // Pre-overhaul conv: im2col with the clamped zero-point pad code,
        // the reference GEMM, then the bias added per output channel.
        let pad = xq.zero_point.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
        let ic = im2col_i8(&x, 1, c, h, w_ext, kh, kw, geom, pad).unwrap();
        let oh = geom.out_extent(h, kh).unwrap();
        let ow = geom.out_extent(w_ext, kw).unwrap();
        let gemm = reference_qgemm_multi(&wq, &ic, oh * ow, &[xq]);
        let want: Vec<f32> = gemm
            .iter()
            .enumerate()
            .map(|(idx, &v)| v + bias[idx / (oh * ow)])
            .collect();
        assert_bits_eq(got.as_slice(), &want, "conv2d_i8");
    }
}

/// Tile edges of the register-tiled kernel, pinned explicitly: row
/// counts that leave a short last row panel, stripes that end inside a
/// 16-column tile (so dense tiles straddle stream boundaries), delta
/// streams with different active scale blocks, and `-0.0` previous
/// outputs that must survive every skipped block — on both ISA bodies at
/// threads `{1, 2, 7}`.
#[test]
fn tile_edges_match_reference_on_both_bodies() {
    let (k, block_len) = (29usize, 8usize); // blocks 8, 8, 8, 5
    let shapes = [1usize, 3, 5, 13]
        .into_iter()
        .flat_map(|m| [5usize, 9, 17].map(|stripe| (m, stripe)))
        // Past the pool's grain (2–9 M work units per region), so at
        // threads 2 and 7 the row chunks of a ragged `m` — and the sparse
        // branch's rows — are really split across workers.
        .chain([(13, 1501)]);
    for (m, stripe) in shapes {
        for reqs in [2usize, 3] {
            let seed = (m * 1000 + stripe * 10 + reqs) as u64;
            let w = weight(m, k, block_len, seed);
            let pw = PackedQuantizedMatrix::pack(w.clone());
            let xqs: Vec<XQuant> = (0..reqs)
                .map(|s| XQuant {
                    scale: 0.01 + 0.02 * s as f32,
                    zero_point: [3, -MAX_ZERO_POINT, 0][s],
                })
                .collect();
            let n = stripe * reqs;
            let x = codes(k * n, seed ^ 0x77);
            let want = reference_qgemm_multi(&w, &x, stripe, &xqs);

            // Stream 0 changes rows in block 0 only, stream 1 in the
            // short tail block only, stream 2 nowhere.
            let changed: Vec<bool> = (0..reqs * k)
                .map(|idx| match idx / k {
                    0 => idx % k < block_len && idx % 3 == 0,
                    1 => idx % k >= 3 * block_len,
                    _ => false,
                })
                .collect();
            let mut curr = x.clone();
            for (s, mask) in changed.chunks(k).enumerate() {
                for (row, &ch) in mask.iter().enumerate() {
                    if ch {
                        for v in &mut curr[row * n + s * stripe..row * n + (s + 1) * stripe] {
                            *v = v.wrapping_sub(2 + (row % 3) as i8);
                        }
                    }
                }
            }
            // Every other previous output is -0.0; in stream 2 (no
            // active block) and in stream 0's rows of skipped blocks
            // it must come back bit for bit.
            let prev_out: Vec<f32> = want
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 2 == 0 { -0.0 } else { v })
                .collect();
            let want_delta =
                reference_qgemm_delta_multi(&w, &curr, &x, &changed, stripe, &xqs, &prev_out);
            if reqs == 3 {
                for i in 0..m {
                    for j in 2 * stripe..n {
                        if (i * n + j) % 2 == 0 {
                            assert_eq!(want_delta[i * n + j].to_bits(), (-0.0f32).to_bits());
                        }
                    }
                }
            }

            for t in THREADS {
                with_threads(t, || {
                    for generic in [false, true] {
                        force_generic_kernels(generic);
                        let what =
                            format!("m={m} stripe={stripe} reqs={reqs} t={t} generic={generic}");
                        let mut got = vec![0.0f32; m * n];
                        qgemm_packed_multi(&pw, &x, stripe, &xqs, &mut got).unwrap();
                        assert_bits_eq(&got, &want, &format!("dense {what}"));
                        for threshold in [0.0f32, 2.0] {
                            let mut got = vec![0.0f32; m * n];
                            qgemm_delta_multi_with_threshold(
                                &w, &curr, &x, &changed, stripe, &xqs, &prev_out, &mut got,
                                threshold,
                            )
                            .unwrap();
                            assert_bits_eq(&got, &want_delta, &format!("delta@{threshold} {what}"));
                        }
                        let mut got = vec![0.0f32; m * n];
                        qgemm_delta_packed_multi(
                            &pw, &curr, &x, &changed, stripe, &xqs, &prev_out, &mut got,
                        )
                        .unwrap();
                        assert_bits_eq(&got, &want_delta, &format!("packed delta {what}"));
                    }
                    force_generic_kernels(false);
                });
            }
        }
    }
}
