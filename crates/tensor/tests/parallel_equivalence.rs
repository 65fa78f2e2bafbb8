//! Serial-vs-parallel bitwise equivalence for the whole kernel layer.
//!
//! The `sqdm_tensor::parallel` pool partitions work so that every output
//! element is produced by exactly one task running the exact serial inner
//! loop, in the exact serial order. The contract is therefore *bitwise*
//! equality — not approximate agreement — between `SQDM_THREADS=1` and any
//! other thread count. These tests pin that contract for the matmul
//! family, im2col/conv2d (forward and backward), softmax and the
//! elementwise activations over random shapes (including the degenerate
//! `m = 0`, `n = 0`, `k = 0` and single-row cases) and thread counts
//! `{1, 2, 7}`, and for the packed integer kernels on shapes the pool
//! splits. The random proptest shapes stay below the pool's grain, so
//! they check the serial fallback at every thread count; the split path
//! itself is covered by the pinned large-shape test.

use proptest::prelude::*;
use sqdm_tensor::ops::int::{
    conv2d_i8_packed_delta_multi, conv2d_i8_packed_multi, im2col_i8_multi, qgemm_packed_multi,
    ConvDeltaState, PackedQuantizedMatrix, QuantizedMatrix, XQuant,
};
use sqdm_tensor::ops::{
    conv2d, conv2d_backward, im2col, matmul, matmul_a_bt, matmul_at_b, softmax_rows,
    softmax_rows_backward, Activation, Conv2dGeometry,
};
use sqdm_tensor::parallel::with_threads;
use sqdm_tensor::{Rng, Tensor};

/// Thread counts the determinism contract is checked against; 1 is the
/// serial reference, 2 and 7 exercise even and lopsided partitions.
const THREADS: [usize; 2] = [2, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise_eq(reference: &Tensor, candidate: &Tensor, what: &str) {
    assert_eq!(reference.dims(), candidate.dims(), "{what}: shape changed");
    assert_eq!(
        bits(reference),
        bits(candidate),
        "{what}: parallel result is not bitwise equal to serial"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn matmul_family_is_bitwise_deterministic(
        (m, k, n, seed) in (0usize..20, 0usize..20, 0usize..20, 0u64..1 << 32)
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let a_t = Tensor::randn([k, m], &mut rng);
        let b_t = Tensor::randn([n, k], &mut rng);
        let serial = with_threads(1, || {
            (
                matmul(&a, &b).unwrap(),
                matmul_at_b(&a_t, &b).unwrap(),
                matmul_a_bt(&a, &b_t).unwrap(),
            )
        });
        for t in THREADS {
            let par = with_threads(t, || {
                (
                    matmul(&a, &b).unwrap(),
                    matmul_at_b(&a_t, &b).unwrap(),
                    matmul_a_bt(&a, &b_t).unwrap(),
                )
            });
            assert_bitwise_eq(&serial.0, &par.0, "matmul");
            assert_bitwise_eq(&serial.1, &par.1, "matmul_at_b");
            assert_bitwise_eq(&serial.2, &par.2, "matmul_a_bt");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn conv_kernels_are_bitwise_deterministic(
        (n, c, kout, hw, stride, seed) in
            (1usize..3, 1usize..4, 1usize..4, 4usize..9, 1usize..3, 0u64..1 << 32)
    ) {
        let geom = Conv2dGeometry::new(stride, 1);
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn([n, c, hw, hw], &mut rng);
        let w = Tensor::randn([kout, c, 3, 3], &mut rng);
        let bias = Tensor::randn([kout], &mut rng);

        let (s_cols, s_y, s_grads) = with_threads(1, || {
            let cols = im2col(&x, 3, 3, geom).unwrap();
            let y = conv2d(&x, &w, Some(&bias), geom).unwrap();
            let gout = Tensor::ones(y.dims());
            let g = conv2d_backward(&x, &w, &gout, geom).unwrap();
            (cols, y, g)
        });
        for t in THREADS {
            let (p_cols, p_y, p_grads) = with_threads(t, || {
                let cols = im2col(&x, 3, 3, geom).unwrap();
                let y = conv2d(&x, &w, Some(&bias), geom).unwrap();
                let gout = Tensor::ones(y.dims());
                let g = conv2d_backward(&x, &w, &gout, geom).unwrap();
                (cols, y, g)
            });
            assert_bitwise_eq(&s_cols, &p_cols, "im2col");
            assert_bitwise_eq(&s_y, &p_y, "conv2d");
            assert_bitwise_eq(&s_grads.grad_input, &p_grads.grad_input, "conv2d grad_input");
            assert_bitwise_eq(&s_grads.grad_weight, &p_grads.grad_weight, "conv2d grad_weight");
            assert_bitwise_eq(&s_grads.grad_bias, &p_grads.grad_bias, "conv2d grad_bias");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn softmax_and_activations_are_bitwise_deterministic(
        (m, n, seed) in (1usize..40, 1usize..40, 0u64..1 << 32)
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn([m, n], &mut rng).scale(3.0);
        let gout = Tensor::randn([m, n], &mut rng);
        let serial = with_threads(1, || {
            let y = softmax_rows(&x).unwrap();
            let g = softmax_rows_backward(&y, &gout).unwrap();
            let silu = Activation::Silu.forward(&x);
            let silu_g = Activation::Silu.backward(&x, &gout).unwrap();
            (y, g, silu, silu_g)
        });
        for t in THREADS {
            let par = with_threads(t, || {
                let y = softmax_rows(&x).unwrap();
                let g = softmax_rows_backward(&y, &gout).unwrap();
                let silu = Activation::Silu.forward(&x);
                let silu_g = Activation::Silu.backward(&x, &gout).unwrap();
                (y, g, silu, silu_g)
            });
            assert_bitwise_eq(&serial.0, &par.0, "softmax_rows");
            assert_bitwise_eq(&serial.1, &par.1, "softmax_rows_backward");
            assert_bitwise_eq(&serial.2, &par.2, "silu forward");
            assert_bitwise_eq(&serial.3, &par.3, "silu backward");
        }
    }
}

/// Shapes big enough that the pool actually splits every region of every
/// kernel here (the grain heuristic keeps tiny proptest shapes serial),
/// pinned explicitly so the parallel code path itself is exercised. The
/// smallest regions — the transposes inside `matmul_at_b`/`matmul_a_bt`
/// (1024 rows of `2 · 1024` units) and the f32 and integer conv output
/// relayouts (256 planes of `2 · 4096` units) — carry `2 · 2^20` work
/// units each; `parallel::tests::pooled_equivalence_regions_still_split`
/// pins that they stay above the pool's grain.
#[test]
fn large_kernels_engage_the_pool_and_stay_bitwise_equal() {
    let mut rng = Rng::seed_from(0xD15C0);
    let a = Tensor::randn([48, 1024], &mut rng);
    let b = Tensor::randn([1024, 48], &mut rng);
    let a_t = Tensor::randn([1024, 1024], &mut rng);
    let b_t = Tensor::randn([1024, 1024], &mut rng);
    // One conv geometry for the f32 and the integer convs: four 64×64
    // streams, 8 input channels (scale blocks 32, 32, 8), 64 outputs.
    let (batch, c, hw, kout) = (4usize, 8usize, 64usize, 64usize);
    let x = Tensor::randn([batch, c, hw, hw], &mut rng);
    let w = Tensor::randn([kout, c, 3, 3], &mut rng);
    let sm = Tensor::randn([384, 1024], &mut rng);

    // Integer kernels on the same geometry, with a second step that
    // changes half of stream 0's channels.
    let kdim = c * 9;
    let mut codes = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| (rng.uniform() * 254.0 - 127.0) as i8)
            .collect()
    };
    let scales: Vec<f32> = (0..kout * kdim.div_ceil(32))
        .map(|i| 0.002 + 1e-4 * (i % 17) as f32)
        .collect();
    let pw = PackedQuantizedMatrix::pack(
        QuantizedMatrix::new(codes(kout * kdim), kout, kdim, scales, 32).unwrap(),
    );
    let xc = codes(batch * c * hw * hw);
    let mut xc_next = xc.clone();
    for v in &mut xc_next[..c / 2 * hw * hw] {
        *v = v.wrapping_add(1);
    }
    let changed: Vec<bool> = (0..batch * c).map(|ch| ch < c / 2).collect();
    let xqs: Vec<XQuant> = (0..batch)
        .map(|s| XQuant::symmetric(0.02 + 0.01 * s as f32))
        .collect();
    let geom = Conv2dGeometry::same(3);
    let lowered = im2col_i8_multi(&xc, batch, c, hw, hw, 3, 3, geom, &[0; 4]).unwrap();

    let run = || {
        let mut gemm = vec![0.0f32; kout * batch * hw * hw];
        qgemm_packed_multi(&pw, &lowered, hw * hw, &xqs, &mut gemm).unwrap();
        let mut int = vec![
            Tensor::from_vec(gemm, [kout, batch * hw * hw]).unwrap(),
            conv2d_i8_packed_multi(&pw, &xc, batch, c, hw, hw, 3, 3, None, geom, &xqs).unwrap(),
        ];
        // Both delta branches: the tiled dense fallback and the sparse core.
        for threshold in [0.0f32, 2.0] {
            let mut state = ConvDeltaState::new();
            // The first step has no carry and runs dense.
            for codes in [&xc, &xc_next] {
                int.push(
                    conv2d_i8_packed_delta_multi(
                        &pw, codes, batch, c, hw, hw, 3, 3, None, geom, &xqs, &changed, &mut state,
                        threshold,
                    )
                    .unwrap(),
                );
            }
        }
        (
            matmul(&a, &b).unwrap(),
            matmul_at_b(&a_t, &b).unwrap(),
            matmul_a_bt(&a, &b_t).unwrap(),
            conv2d(&x, &w, None, geom).unwrap(),
            softmax_rows(&sm).unwrap(),
            Activation::Silu.forward(&sm),
            int,
        )
    };
    let serial = with_threads(1, run);
    for t in [2usize, 3, 7] {
        let par = with_threads(t, run);
        assert_bitwise_eq(&serial.0, &par.0, "large matmul");
        assert_bitwise_eq(&serial.1, &par.1, "large matmul_at_b");
        assert_bitwise_eq(&serial.2, &par.2, "large matmul_a_bt");
        assert_bitwise_eq(&serial.3, &par.3, "large conv2d");
        assert_bitwise_eq(&serial.4, &par.4, "large softmax");
        assert_bitwise_eq(&serial.5, &par.5, "large silu");
        let names = [
            "qgemm_packed_multi",
            "conv2d_i8_packed_multi",
            "conv2d_i8_packed_delta_multi dense step",
            "conv2d_i8_packed_delta_multi tiled delta step",
            "conv2d_i8_packed_delta_multi dense step (sparse branch)",
            "conv2d_i8_packed_delta_multi sparse delta step",
        ];
        for ((s, p), name) in serial.6.iter().zip(&par.6).zip(names) {
            assert_bitwise_eq(s, p, name);
        }
    }
}

/// The degenerate shapes called out in the issue, pinned explicitly (the
/// proptest ranges cover them too, but only probabilistically).
#[test]
fn degenerate_shapes_are_handled_at_every_thread_count() {
    for t in [1usize, 2, 7] {
        with_threads(t, || {
            // m = 0, n = 0, k = 0, and the single-row case.
            let empty_m = matmul(&Tensor::zeros([0, 4]), &Tensor::zeros([4, 3])).unwrap();
            assert_eq!(empty_m.dims(), &[0, 3]);
            let empty_n = matmul(&Tensor::zeros([2, 4]), &Tensor::zeros([4, 0])).unwrap();
            assert_eq!(empty_n.dims(), &[2, 0]);
            let empty_k = matmul(&Tensor::zeros([2, 0]), &Tensor::zeros([0, 3])).unwrap();
            assert!(empty_k.as_slice().iter().all(|&v| v == 0.0));
            let single_row = matmul(&Tensor::ones([1, 5]), &Tensor::ones([5, 4])).unwrap();
            assert!(single_row.as_slice().iter().all(|&v| v == 5.0));
        });
    }
}
