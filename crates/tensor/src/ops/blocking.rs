//! Per-shape blocking heuristic shared by the GEMM cores.
//!
//! Both matrix-multiply families in this crate — the dense f32 core in
//! [`super::matmul`] and the packed integer kernel in [`super::int`] —
//! size their work units here, so the cache model lives in one place:
//!
//! * **Task work estimate.** [`gemm_task_work`] is the flop estimate the
//!   worker pool uses to decide how many tasks a GEMM is worth; both cores
//!   feed it to [`crate::parallel::par_chunks_mut`].
//! * **Register tile.** The integer kernel computes [`PANEL_ROWS`] output
//!   rows × [`TILE_COLS`] output columns per tile, holding the tile's
//!   exact i32 accumulators in eight 8-lane vector registers while it
//!   sweeps one scale block (Goto & van de Geijn's outer-product
//!   microkernel). A tile's activation strip — `packed_k · TILE_COLS` i16
//!   — stays in L1 while the weight rows of a worker's chunk stream past
//!   it.
//!
//! The f32 core *consults* this module but deliberately keeps its
//! broadcast-form i-k-j loop untiled: it streams full `n`-wide rows of the
//! right operand, and measurements at the bench shape (256³) show
//! panel×tile restructuring slows that kernel down (the wide contiguous
//! inner loop is already bandwidth-optimal for f32, and tiling shortens
//! it).

/// i16 lanes in one 256-bit vector — the pad quantum of the packed
/// integer layouts. Scale blocks are padded to multiples of this, so every
/// block spans whole lane pairs and no block straddles a pair.
pub const LANE: usize = 16;

/// Output rows per register tile of the packed integer kernel: each row
/// owns two i32 accumulator vectors, and one broadcast weight pair per
/// row feeds both.
pub const PANEL_ROWS: usize = 4;

/// Output columns per register tile of the packed integer kernel: two
/// 8-lane i32 vectors, i.e. 32 pair-interleaved i16 panel lanes per
/// reduction pair.
pub const TILE_COLS: usize = 16;

/// Approximate work units (fused multiply-adds) one `[k] × [k, n]` output
/// row costs — the per-chunk work estimate both GEMM cores hand to the
/// worker pool.
pub fn gemm_task_work(k: usize, n: usize) -> usize {
    2 * k.max(1) * n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_work_scales_with_shape_and_never_vanishes() {
        assert_eq!(gemm_task_work(256, 256), 2 * 256 * 256);
        assert!(gemm_task_work(0, 0) > 0);
    }
}
