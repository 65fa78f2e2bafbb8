//! Native integer execution kernels: packed i8×i8 GEMM microkernels with
//! scale/zero-point requantization, integer im2col/conv2d, and a temporal
//! sparse-delta GEMM with a density-threshold dense fallback.
//!
//! The dense f32 kernels in this crate *simulate* quantization
//! (quantize→dequantize, then float math). The kernels here execute the
//! compute model the paper actually accelerates: operands stay in low-bit
//! integer codes, multiply-accumulate runs in exact i32 arithmetic, and a
//! single requantization step maps each block's accumulator back to real
//! values.
//!
//! # Packed microkernel layout
//!
//! The hot kernels run one register-tiled microkernel (the outer-product
//! form of Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication", TOMS 2008) on packed operands instead of the raw i8
//! codes. The dense GEMM and the dense fallback of the delta GEMM share
//! it.
//!
//! * **Weights** are packed once into a [`PackedQuantizedMatrix`]: each
//!   row's scale blocks are widened to i16 and padded to
//!   [`blocking::LANE`]-lane quanta (pads are zero codes), so every block
//!   spans whole lane pairs. Adjacent lanes `(w[2q], w[2q + 1])` form one
//!   little-endian i32 — the broadcast operand of `vpmaddwd` — so the
//!   kernel reads the pack as it is stored.
//! * **Activations** are packed per call into a pair-interleaved panel
//!   `[packed_k / 2][n][2]` i16 with the per-stream zero point folded in
//!   (dense path) or the masked code delta (delta path). The packer reads
//!   each im2col row contiguously and writes both lanes of a pair in one
//!   pass.
//! * **Tile body.** A [`blocking::PANEL_ROWS`]-row ×
//!   [`blocking::TILE_COLS`]-column tile keeps eight i32 vector
//!   accumulators per scale block: each lane pair broadcasts one weight
//!   pair per row and multiplies it into two 8-column panel vectors with
//!   i16×i16→i32 **pair accumulation**. Pair products are bounded by
//!   `128 · 32 768 < 2²³`, so the pair sums are exact — the instruction's
//!   lone saturating case (`−32768 · −32768` in both lanes) cannot occur.
//!   The epilogue then folds `y += acc as f32 · (w_scale · x_scale[j])`
//!   per element, a separate multiply and add (no FMA). Ragged edges run
//!   the same body: a short last row panel repeats its final weight row,
//!   a short last tile reads zero pad columns, and only in-range results
//!   are stored.
//! * **Parallelism.** Output rows split into one contiguous chunk per
//!   worker; inside a chunk the column tile is the outer loop, so a
//!   tile's panel strip stays in L1 while the chunk's weight rows stream
//!   past it.
//! * **ISA dispatch.** At runtime the kernels pick the AVX2 tile body
//!   (`std::arch` intrinsics behind std's `is_x86_feature_detected!`; no
//!   new dependencies) when the CPU has AVX2 and the portable body with
//!   the same semantics otherwise. Both bodies produce bit-identical
//!   results (see below); [`force_generic_kernels`] pins the portable body
//!   for testing.
//!
//! # Determinism contract
//!
//! Layout and determinism follow the f32 kernel layer: the left operand
//! is a [`QuantizedMatrix`] whose per-row scale blocks tile the reduction
//! dimension, the right operand is a row-major code matrix with one
//! per-tensor scale/zero-point ([`XQuant`]), and chunks of output rows are
//! fanned out over the [`crate::parallel`] worker pool in contiguous
//! blocks.
//! Every output element is `Σ_b asc (acc_b as f32 · (w_scale[i, b] ·
//! x_scale))` where each block accumulator `acc_b` is **exact** i32 —
//! integer addition is associative, so the kernels are free to reorder
//! the reduction (pair accumulation, padded lanes, register tiles,
//! ISA-specific bodies) without changing a single bit. The f32
//! requantization epilogue always folds blocks in ascending order per
//! element, so results are bitwise
//! identical at any `SQDM_THREADS`, on either ISA body, and to the
//! pre-overhaul broadcast kernels.
//!
//! **Accumulator range.** Block accumulators are i32, matching the
//! accumulator width of real INT8 datapaths. One product is bounded by
//! `128 · 255 = 32 640` for in-range zero points, so a scale block may
//! span up to ~65 000 reduction elements before overflow becomes possible
//! — far beyond any layer in this workspace (the largest reduction is
//! `C·kh·kw` of a convolution). The packed i16 activation layout bounds
//! zero points to [`MAX_ZERO_POINT`]; out-of-range zero points (which the
//! workspace's symmetric formats never produce) are rejected.
//!
//! # Temporal sparsity crossover
//!
//! [`qgemm_delta_multi`] consumes a temporal change mask
//! (`sqdm-sparsity`'s per-channel change masks, expanded to reduction
//! rows) and only accumulates contributions from rows that changed since
//! the previous denoising step. Row-skipping only wins while the mask is
//! sparse: from a changed-row fraction of [`DELTA_DENSE_THRESHOLD`] up
//! the kernel falls back to the packed dense
//! microkernel over the masked deltas, which is bitwise identical (masked
//! rows contribute exact i32 zeros and inactive blocks skip the f32
//! epilogue either way) but much faster at high change density.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::arena;
use crate::error::{Result, TensorError};
use crate::ops::blocking::{self, PANEL_ROWS, TILE_COLS};
use crate::ops::Conv2dGeometry;
use crate::parallel;
use crate::tensor::Tensor;

/// Per-tensor quantization parameters of the right-hand (activation)
/// operand: `real = scale · (code − zero_point)`.
///
/// The workspace's symmetric formats always use `zero_point = 0`; the
/// kernels still honor a nonzero zero point so asymmetric activation
/// grids can be executed (and tested) without a separate code path. The
/// packed i16 layout bounds the magnitude to [`MAX_ZERO_POINT`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XQuant {
    /// Real value of one code step.
    pub scale: f32,
    /// Code representing real zero.
    pub zero_point: i32,
}

impl XQuant {
    /// Symmetric per-tensor quantization (zero point 0).
    pub fn symmetric(scale: f32) -> Self {
        XQuant {
            scale,
            zero_point: 0,
        }
    }
}

/// Largest zero-point magnitude the packed kernels accept: any i8 code
/// minus the zero point must fit the packed i16 activation lanes, so
/// `|zero_point| ≤ i16::MAX − i8::MAX = 32 640`.
pub const MAX_ZERO_POINT: i32 = i16::MAX as i32 - i8::MAX as i32;

/// An integer-code matrix with per-row scale blocks along its columns —
/// the weight operand of the integer GEMM family.
///
/// `codes` is row-major `[rows, cols]`. Row `i` is requantized in blocks
/// of `block_len` consecutive columns; `scales[i · n_blocks + b]` is the
/// real value of one code step in block `b` of row `i`. Per-channel
/// quantization is the single-block case (`block_len == cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    codes: Vec<i8>,
    rows: usize,
    cols: usize,
    scales: Vec<f32>,
    block_len: usize,
}

impl QuantizedMatrix {
    /// Builds a matrix from codes and per-row blocked scales.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the code or scale
    /// buffer length is inconsistent with `rows × cols` and the block
    /// structure, or if `block_len` is zero while `cols` is not.
    pub fn new(
        codes: Vec<i8>,
        rows: usize,
        cols: usize,
        scales: Vec<f32>,
        block_len: usize,
    ) -> Result<Self> {
        if codes.len() != rows * cols {
            return Err(TensorError::InvalidArgument {
                op: "QuantizedMatrix::new",
                reason: format!("{} codes for a {rows}x{cols} matrix", codes.len()),
            });
        }
        if cols > 0 && block_len == 0 {
            return Err(TensorError::InvalidArgument {
                op: "QuantizedMatrix::new",
                reason: "block_len must be nonzero for a nonempty matrix".into(),
            });
        }
        let n_blocks = if cols == 0 {
            0
        } else {
            cols.div_ceil(block_len)
        };
        if scales.len() != rows * n_blocks {
            return Err(TensorError::InvalidArgument {
                op: "QuantizedMatrix::new",
                reason: format!(
                    "{} scales for {rows} rows x {n_blocks} blocks",
                    scales.len()
                ),
            });
        }
        Ok(QuantizedMatrix {
            codes,
            rows,
            cols,
            scales,
            block_len,
        })
    }

    /// Builds a per-channel matrix: one scale per row, a single block
    /// spanning all columns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantizedMatrix::new`].
    pub fn per_channel(codes: Vec<i8>, rows: usize, cols: usize, scales: Vec<f32>) -> Result<Self> {
        Self::new(codes, rows, cols, scales, cols.max(1))
    }

    /// Number of rows (output channels of the GEMM).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the reduction length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Scale-block length along the columns.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Number of scale blocks per row.
    pub fn n_blocks(&self) -> usize {
        if self.cols == 0 {
            0
        } else {
            self.cols.div_ceil(self.block_len)
        }
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The per-row blocked scales, `[rows, n_blocks]` row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// A [`QuantizedMatrix`] pre-packed into the microkernel weight layout:
/// row-major i16 codes, each scale block padded to [`blocking::LANE`]-lane
/// quanta so every adjacent lane pair is one broadcastable i32.
///
/// Packing costs one sweep over the codes; callers that apply the same
/// weight to many activations (the `nn` executor's prepared projections,
/// batched serving) pack once and call the `*_packed` kernel entry
/// points. The unpacked entry points ([`qgemm_multi`] etc.) pack
/// internally per call — correct, just repaying the pack each time.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedQuantizedMatrix {
    w: QuantizedMatrix,
    packed: Vec<i16>,
    /// Packed offset of each scale block within a row, plus the final
    /// packed row length: `starts[b]` is block `b`'s first lane,
    /// `starts[n_blocks]` is `packed_cols()`.
    starts: Vec<usize>,
}

impl PackedQuantizedMatrix {
    /// Packs a weight matrix into the microkernel layout.
    pub fn pack(w: QuantizedMatrix) -> Self {
        let (starts, pk) = block_spans(w.cols, w.block_len);
        let packed = pack_weight_codes(&w, &starts, pk);
        PackedQuantizedMatrix { w, packed, starts }
    }

    /// The underlying unpacked matrix.
    pub fn matrix(&self) -> &QuantizedMatrix {
        &self.w
    }

    /// Recovers the unpacked matrix.
    pub fn into_matrix(self) -> QuantizedMatrix {
        self.w
    }

    /// Packed row length in i16 lanes: the sum of every scale block's
    /// length rounded up to a [`blocking::LANE`] multiple.
    pub fn packed_cols(&self) -> usize {
        *self.starts.last().unwrap_or(&0)
    }

    /// The packed i16 codes, `[rows, packed_cols]` row-major; pad lanes
    /// hold zero codes.
    pub fn packed_codes(&self) -> &[i16] {
        &self.packed
    }

    /// Packed block offsets: `n_blocks() + 1` entries, the last being
    /// [`Self::packed_cols`].
    pub fn block_starts(&self) -> &[usize] {
        &self.starts
    }
}

/// Pins the portable (non-AVX2) kernel body, for testing the dispatching
/// kernels' bitwise-identity claim on machines where AVX2 would otherwise
/// be selected. Affects all subsequent kernel calls in the process until
/// re-enabled; both bodies produce identical bits, so flipping this
/// mid-run never changes results.
pub fn force_generic_kernels(enabled: bool) {
    FORCE_GENERIC.store(enabled, Ordering::SeqCst);
}

static FORCE_GENERIC: AtomicBool = AtomicBool::new(false);

/// Whether the AVX2-compiled kernel body should be used. Decided on the
/// calling thread before entering the parallel region and passed down as
/// a plain bool, so every worker runs the same body.
#[cfg(target_arch = "x86_64")]
fn kernel_uses_avx2() -> bool {
    !FORCE_GENERIC.load(Ordering::SeqCst) && std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn kernel_uses_avx2() -> bool {
    false
}

/// Packed block offsets for a `[*, k]` matrix with `block_len`-column
/// scale blocks: returns (`starts`, `packed_k`) where `starts` has
/// `n_blocks + 1` entries, each block padded to a [`blocking::LANE`]
/// multiple.
fn block_spans(k: usize, block_len: usize) -> (Vec<usize>, usize) {
    let nb = if k == 0 {
        0
    } else {
        k.div_ceil(block_len.max(1))
    };
    let mut starts = arena::take::<usize>(nb + 1);
    starts.push(0usize);
    let mut off = 0usize;
    for b in 0..nb {
        let len = (k - b * block_len).min(block_len);
        off += len.div_ceil(blocking::LANE) * blocking::LANE;
        starts.push(off);
    }
    (starts, off)
}

/// Widens weight codes into the padded i16 layout; pad lanes stay zero,
/// which keeps every padded dot product exact (`0 · x = 0` in i32).
fn pack_weight_codes(w: &QuantizedMatrix, starts: &[usize], pk: usize) -> Vec<i16> {
    let mut packed = arena::take_zeroed::<i16>(w.rows * pk);
    if packed.is_empty() {
        return packed;
    }
    let k = w.cols;
    parallel::par_chunks_mut(&mut packed, pk, blocking::gemm_task_work(k, 1), |i, row| {
        let src = &w.codes[i * k..(i + 1) * k];
        for (b, win) in starts.windows(2).enumerate() {
            let k0 = b * w.block_len;
            let k1 = (k0 + w.block_len).min(k);
            for (slot, &c) in row[win[0]..win[0] + (k1 - k0)].iter_mut().zip(&src[k0..k1]) {
                *slot = c as i16;
            }
        }
    });
    packed
}

/// Column stride of an activation panel with `n` columns cut into
/// `seg`-column segments (the whole output in dense mode, one stream's
/// stripe in delta mode): every [`TILE_COLS`]-wide register tile a
/// segment starts must find readable columns, so the panel is padded
/// past the last segment's final tile. Pad columns hold zeros and their
/// results are never stored.
fn panel_stride(n: usize, seg: usize) -> usize {
    n - seg + seg.next_multiple_of(TILE_COLS)
}

/// Packs activation rows into the pair-interleaved panel `[pk / 2][np][2]`
/// i16: packed lane `p` of column `j` lands at `(p / 2 · np + j) · 2 +
/// p % 2`, so one tile's lane pair is 32 contiguous i16 — two vectors for
/// `vpmaddwd` against a broadcast weight pair. `fill(lo, hi, pair_row)`
/// writes reduction rows `lo` and `hi` (the pair's second lane, `None`
/// when it is block padding) into the two halves of `pair_row[..2 · n]`
/// with [`interleave`], reading each row contiguously; pad lanes and pad
/// columns stay zero.
fn pack_panel(
    k: usize,
    block_len: usize,
    starts: &[usize],
    n: usize,
    np: usize,
    fill: impl Fn(usize, Option<usize>, &mut [i16]) + Sync,
) -> Vec<i16> {
    let pk = *starts.last().unwrap_or(&0);
    let mut panel = arena::take_zeroed::<i16>(pk * np);
    if panel.is_empty() {
        return panel;
    }
    parallel::par_chunks_mut(&mut panel, 2 * np, 4 * n, |q, pair_row| {
        // Blocks start on even lanes, so both lanes of a pair share one.
        let p = 2 * q;
        let b = starts.partition_point(|&s| s <= p) - 1;
        let lo = b * block_len + (p - starts[b]);
        let end = ((b + 1) * block_len).min(k);
        if lo < end {
            fill(lo, (lo + 1 < end).then_some(lo + 1), &mut pair_row[..2 * n]);
        }
    });
    panel
}

/// Writes `lo` into the first and `hi` into the second lane of each
/// column pair of `dst`; a `None` side is left untouched. Writing both
/// lanes in one pass keeps the stores contiguous.
#[inline(always)]
fn interleave(
    dst: &mut [i16],
    lo: Option<impl Iterator<Item = i16>>,
    hi: Option<impl Iterator<Item = i16>>,
) {
    match (lo, hi) {
        (Some(lo), Some(hi)) => {
            for ((d, a), b) in dst.chunks_exact_mut(2).zip(lo).zip(hi) {
                d[0] = a;
                d[1] = b;
            }
        }
        (Some(lo), None) => dst.chunks_exact_mut(2).zip(lo).for_each(|(d, a)| d[0] = a),
        (None, Some(hi)) => dst.chunks_exact_mut(2).zip(hi).for_each(|(d, b)| d[1] = b),
        (None, None) => {}
    }
}

/// Per-column activation scales, `xqs[j / stripe].scale` replicated and
/// zero-padded to the panel stride, so the epilogue loads them as vectors
/// with no division in its hot path.
fn column_scales(stripe: usize, xqs: &[XQuant], np: usize) -> Vec<f32> {
    let mut scales = arena::take::<f32>(np);
    scales.extend(
        xqs.iter()
            .flat_map(|q| std::iter::repeat_n(q.scale, stripe)),
    );
    scales.resize(np, 0.0);
    scales
}

/// Borrowed view of everything the tile bodies need; one instance is
/// shared (immutably) by every worker of a parallel region.
struct TileCtx<'a> {
    /// Packed weight codes, `[m, pk]`.
    codes: &'a [i16],
    /// Weight scales, `[m, nb]`.
    scales: &'a [f32],
    /// Packed block offsets, `nb + 1` entries.
    starts: &'a [usize],
    /// Packed row length.
    pk: usize,
    /// Scale blocks per row.
    nb: usize,
    /// Activation panel (codes or masked deltas), `[pk / 2][np][2]`.
    panel: &'a [i16],
    /// Panel column stride.
    np: usize,
    /// Per-column activation scale, `[np]`.
    xscale: &'a [f32],
}

/// One register tile's f32 outputs: [`PANEL_ROWS`] rows × [`TILE_COLS`]
/// columns.
type Tile = [[f32; TILE_COLS]; PANEL_ROWS];

/// Portable tile body: weight rows `rows` against panel columns `[j0, j0 +
/// TILE_COLS)`. Per scale block the exact i32 accumulators sweep the
/// block's lane pairs, then the epilogue folds `y += acc as f32 · (ws ·
/// xscale[j])`; blocks run in ascending order and, in delta mode
/// (`active` given), inactive blocks are skipped outright — no `+ 0.0`,
/// which could flip a `-0.0`.
fn tile_generic(
    ctx: &TileCtx<'_>,
    rows: &[usize; PANEL_ROWS],
    j0: usize,
    active: Option<&[bool]>,
    y: &mut Tile,
) {
    let w: [&[i16]; PANEL_ROWS] =
        std::array::from_fn(|r| &ctx.codes[rows[r] * ctx.pk..(rows[r] + 1) * ctx.pk]);
    let xs = &ctx.xscale[j0..j0 + TILE_COLS];
    for (b, win) in ctx.starts.windows(2).enumerate() {
        if active.is_some_and(|a| !a[b]) {
            continue;
        }
        let mut acc = [[0i32; TILE_COLS]; PANEL_ROWS];
        for q in win[0] / 2..win[1] / 2 {
            let x = &ctx.panel[(q * ctx.np + j0) * 2..][..2 * TILE_COLS];
            for (a, wr) in acc.iter_mut().zip(&w) {
                let (w0, w1) = (wr[2 * q] as i32, wr[2 * q + 1] as i32);
                for (av, xp) in a.iter_mut().zip(x.chunks_exact(2)) {
                    *av += w0 * xp[0] as i32 + w1 * xp[1] as i32;
                }
            }
        }
        for ((yr, a), &i) in y.iter_mut().zip(&acc).zip(rows) {
            let ws = ctx.scales[i * ctx.nb + b];
            for ((yv, &av), &xsc) in yr.iter_mut().zip(a).zip(xs) {
                *yv += av as f32 * (ws * xsc);
            }
        }
    }
}

/// AVX2 tile body: [`tile_generic`]'s semantics with the 4×16 tile held
/// in eight i32 vector accumulators. Each lane pair broadcasts one weight
/// pair `(w[2q], w[2q + 1])` — adjacent i16s, i.e. one little-endian i32
/// — and `vpmaddwd`s it against two 8-column panel vectors. The epilogue
/// converts, multiplies and adds as separate instructions (no FMA), so
/// every element rounds exactly as the portable body does.
///
/// # Safety
///
/// The CPU must support AVX2, and the caller must uphold the panel
/// bounds [`gemm_tiles`] asserts: `rows[r] < m`, `j0 + TILE_COLS <= np`,
/// `panel.len() >= pk · np`, `xscale.len() >= np`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    ctx: &TileCtx<'_>,
    rows: &[usize; PANEL_ROWS],
    j0: usize,
    active: Option<&[bool]>,
    y: &mut Tile,
) {
    use std::arch::x86_64::*;
    let w: [*const i16; PANEL_ROWS] =
        std::array::from_fn(|r| ctx.codes[rows[r] * ctx.pk..].as_ptr());
    let xs = ctx.xscale[j0..j0 + TILE_COLS].as_ptr();
    let (xs0, xs1) = (_mm256_loadu_ps(xs), _mm256_loadu_ps(xs.add(8)));
    for (b, win) in ctx.starts.windows(2).enumerate() {
        if active.is_some_and(|a| !a[b]) {
            continue;
        }
        let mut acc = [_mm256_setzero_si256(); 2 * PANEL_ROWS];
        for q in win[0] / 2..win[1] / 2 {
            let xp = ctx.panel.as_ptr().add((q * ctx.np + j0) * 2);
            let x0 = _mm256_loadu_si256(xp.cast());
            let x1 = _mm256_loadu_si256(xp.add(16).cast());
            for (r, wr) in w.iter().enumerate() {
                let pair = _mm256_set1_epi32(wr.add(2 * q).cast::<i32>().read_unaligned());
                acc[2 * r] = _mm256_add_epi32(acc[2 * r], _mm256_madd_epi16(pair, x0));
                acc[2 * r + 1] = _mm256_add_epi32(acc[2 * r + 1], _mm256_madd_epi16(pair, x1));
            }
        }
        for (r, yr) in y.iter_mut().enumerate() {
            let ws = _mm256_set1_ps(ctx.scales[rows[r] * ctx.nb + b]);
            let yp = yr.as_mut_ptr();
            for (half, xsh) in [xs0, xs1].into_iter().enumerate() {
                let term = _mm256_mul_ps(
                    _mm256_cvtepi32_ps(acc[2 * r + half]),
                    _mm256_mul_ps(ws, xsh),
                );
                let yv = _mm256_add_ps(_mm256_loadu_ps(yp.add(8 * half)), term);
                _mm256_storeu_ps(yp.add(8 * half), yv);
            }
        }
    }
}

/// Runs one tile on the ISA-selected body.
fn run_tile(
    use_avx2: bool,
    ctx: &TileCtx<'_>,
    rows: &[usize; PANEL_ROWS],
    j0: usize,
    active: Option<&[bool]>,
    y: &mut Tile,
) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // SAFETY: `use_avx2` is only true when `kernel_uses_avx2`
        // observed AVX2 on this machine, and `gemm_tiles` asserted the
        // panel bounds for every tile it issues.
        unsafe { tile_avx2(ctx, rows, j0, active, y) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    tile_generic(ctx, rows, j0, active, y);
}

/// Delta-mode inputs of [`gemm_tiles`].
struct DeltaTiles<'a> {
    /// The previous step's output every element starts from, `[m, n]`.
    prev_out: &'a [f32],
    /// Per-(stream, block) activity, `[streams, nb]`.
    active: &'a [bool],
    /// Columns per stream.
    stripe: usize,
}

/// The register-tiled GEMM shared by the dense and delta paths: fills
/// `out` (`[m, n]`) tile by tile. Rows are split into one contiguous
/// chunk per worker; inside a chunk the column tile is the outer loop,
/// so a tile's panel strip stays in L1 while the chunk's weight rows
/// stream past it. Ragged edges run the full tile body — a short last
/// panel repeats its final weight row, a short last tile reads zero pad
/// columns — and store only the in-range results. In delta mode tiles
/// never straddle a stream: each stream's stripe is tiled separately so
/// one activity row governs the whole tile.
fn gemm_tiles(ctx: &TileCtx<'_>, n: usize, delta: Option<&DeltaTiles<'_>>, out: &mut [f32]) {
    let seg = delta.map_or(n, |d| d.stripe);
    let m = out.len() / n;
    assert!(
        ctx.np >= panel_stride(n, seg)
            && ctx.panel.len() >= ctx.pk * ctx.np
            && ctx.xscale.len() >= ctx.np
            && ctx.codes.len() == m * ctx.pk
            && ctx.scales.len() == m * ctx.nb
            && ctx.pk.is_multiple_of(2),
        "packed kernel operands disagree with the panel layout"
    );
    let use_avx2 = kernel_uses_avx2();
    let chunk_rows = m
        .div_ceil(parallel::current_threads())
        .next_multiple_of(PANEL_ROWS);
    let chunk_work = chunk_rows * blocking::gemm_task_work(ctx.pk, n);
    parallel::par_chunks_mut(out, chunk_rows * n, chunk_work, |c, chunk| {
        let i0 = c * chunk_rows;
        let rows = chunk.len() / n;
        for s in 0..n / seg {
            let active = delta.map(|d| &d.active[s * ctx.nb..(s + 1) * ctx.nb]);
            for j0 in (s * seg..(s + 1) * seg).step_by(TILE_COLS) {
                let cols = ((s + 1) * seg - j0).min(TILE_COLS);
                for p0 in (0..rows).step_by(PANEL_ROWS) {
                    let pr = (rows - p0).min(PANEL_ROWS);
                    let idx = std::array::from_fn(|r| i0 + p0 + r.min(pr - 1));
                    let mut y = [[0.0f32; TILE_COLS]; PANEL_ROWS];
                    if let Some(d) = delta {
                        for (r, yr) in y.iter_mut().take(pr).enumerate() {
                            yr[..cols]
                                .copy_from_slice(&d.prev_out[(i0 + p0 + r) * n + j0..][..cols]);
                        }
                    }
                    run_tile(use_avx2, ctx, &idx, j0, active, &mut y);
                    for (r, yr) in y.iter().take(pr).enumerate() {
                        chunk[(p0 + r) * n + j0..][..cols].copy_from_slice(&yr[..cols]);
                    }
                }
            }
        }
    });
}

fn check_qgemm(op: &'static str, w: &QuantizedMatrix, x_len: usize, n: usize) -> Result<()> {
    if x_len != w.cols * n {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![w.rows, w.cols],
            rhs: vec![x_len / n.max(1), n],
        });
    }
    Ok(())
}

/// Rejects zero points the packed i16 activation layout cannot represent.
fn check_zero_points(xqs: &[XQuant]) -> Result<()> {
    for q in xqs {
        if q.zero_point > MAX_ZERO_POINT || q.zero_point < -MAX_ZERO_POINT {
            return Err(TensorError::InvalidArgument {
                op: "qgemm(zero_point)",
                reason: format!(
                    "zero point {} exceeds the packed-kernel bound ±{MAX_ZERO_POINT}",
                    q.zero_point
                ),
            });
        }
    }
    Ok(())
}

/// Shared argument validation of the dense GEMM entry points.
fn check_dense_call(
    w: &QuantizedMatrix,
    x_len: usize,
    stripe: usize,
    xqs: &[XQuant],
    out_len: usize,
) -> Result<()> {
    let n = stripe * xqs.len();
    check_qgemm("qgemm", w, x_len, n)?;
    if out_len != w.rows * n {
        return Err(TensorError::ShapeMismatch {
            op: "qgemm(out)",
            lhs: vec![out_len],
            rhs: vec![w.rows, n],
        });
    }
    check_zero_points(xqs)
}

/// Shared argument validation of the delta GEMM entry points.
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
fn check_delta_call(
    w: &QuantizedMatrix,
    x_curr_len: usize,
    x_prev_len: usize,
    changed_len: usize,
    stripe: usize,
    xqs: &[XQuant],
    prev_out_len: usize,
    out_len: usize,
) -> Result<()> {
    let n = stripe * xqs.len();
    check_qgemm("qgemm_delta", w, x_curr_len, n)?;
    if x_prev_len != x_curr_len {
        return Err(TensorError::ShapeMismatch {
            op: "qgemm_delta(prev)",
            lhs: vec![x_prev_len],
            rhs: vec![x_curr_len],
        });
    }
    if changed_len != w.cols * xqs.len() {
        return Err(TensorError::ShapeMismatch {
            op: "qgemm_delta(mask)",
            lhs: vec![changed_len],
            rhs: vec![xqs.len(), w.cols],
        });
    }
    if out_len != w.rows * n || prev_out_len != out_len {
        return Err(TensorError::ShapeMismatch {
            op: "qgemm_delta(out)",
            lhs: vec![prev_out_len, out_len],
            rhs: vec![w.rows, n],
        });
    }
    Ok(())
}

/// Integer GEMM with requantization: `out[i, j] = x.scale · Σ_b w.scale[i, b]
/// · Σ_{k ∈ block b} w[i, k] · (x[k, j] − x.zero_point)`.
///
/// `w` is `[m, k]`, `x_codes` is row-major `[k, n]`, `out` is `[m, n]` and
/// is fully overwritten. The per-block i32 accumulation is exact; the only
/// roundings are the two f32 scale multiplies per block, so for
/// power-of-two scales the result is bitwise identical to the fake-quant
/// f32 reference (which accumulates the same products in the same
/// ascending-`k` order).
///
/// Runs on the packed microkernels (the weight is packed internally per
/// call; see [`PackedQuantizedMatrix`] and [`qgemm_packed`] to amortize
/// the pack across calls).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if buffer lengths disagree with
/// the shapes, and [`TensorError::InvalidArgument`] for zero points
/// beyond [`MAX_ZERO_POINT`].
pub fn qgemm(
    w: &QuantizedMatrix,
    x_codes: &[i8],
    n: usize,
    xq: XQuant,
    out: &mut [f32],
) -> Result<()> {
    qgemm_multi(w, x_codes, n, &[xq], out)
}

/// Batched integer GEMM: one weight pack applied to a batch of
/// independently quantized activation matrices, in a single kernel call.
///
/// The activation operand packs `xqs.len()` request stripes side by side:
/// columns `[s · stripe, (s + 1) · stripe)` of the `[k, stripe ·
/// xqs.len()]` code matrix belong to request `s` and are requantized with
/// `xqs[s]`. This is the batched-serving entry point — the weight codes,
/// scales and the per-channel requant parameters are shared by every
/// request, so the (re)quantization cost of `w` is paid once per batch
/// instead of once per request.
///
/// Every output element is produced by the exact per-request [`qgemm`]
/// operation sequence (exact i32 block accumulation, then one f32
/// requantization per scale block in ascending block order), so the
/// result is **bitwise identical** to `xqs.len()` independent
/// single-request calls — at any `SQDM_THREADS` and on either ISA body.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if buffer lengths disagree with
/// the shapes, and [`TensorError::InvalidArgument`] for zero points
/// beyond [`MAX_ZERO_POINT`].
pub fn qgemm_multi(
    w: &QuantizedMatrix,
    x_codes: &[i8],
    stripe: usize,
    xqs: &[XQuant],
    out: &mut [f32],
) -> Result<()> {
    check_dense_call(w, x_codes.len(), stripe, xqs, out.len())?;
    if w.rows == 0 || stripe * xqs.len() == 0 {
        return Ok(());
    }
    let (starts, pk) = block_spans(w.cols, w.block_len);
    let packed = pack_weight_codes(w, &starts, pk);
    qgemm_packed_run(w, &packed, &starts, x_codes, stripe, xqs, out);
    arena::recycle(packed);
    arena::recycle(starts);
    Ok(())
}

/// [`qgemm`] on a pre-packed weight: identical results, the pack cost
/// paid once at [`PackedQuantizedMatrix::pack`] time.
///
/// # Errors
///
/// Same conditions as [`qgemm`].
pub fn qgemm_packed(
    pw: &PackedQuantizedMatrix,
    x_codes: &[i8],
    n: usize,
    xq: XQuant,
    out: &mut [f32],
) -> Result<()> {
    qgemm_packed_multi(pw, x_codes, n, &[xq], out)
}

/// [`qgemm_multi`] on a pre-packed weight: identical results, the pack
/// cost paid once at [`PackedQuantizedMatrix::pack`] time.
///
/// # Errors
///
/// Same conditions as [`qgemm_multi`].
pub fn qgemm_packed_multi(
    pw: &PackedQuantizedMatrix,
    x_codes: &[i8],
    stripe: usize,
    xqs: &[XQuant],
    out: &mut [f32],
) -> Result<()> {
    check_dense_call(&pw.w, x_codes.len(), stripe, xqs, out.len())?;
    if pw.w.rows == 0 || stripe * xqs.len() == 0 {
        return Ok(());
    }
    qgemm_packed_run(&pw.w, &pw.packed, &pw.starts, x_codes, stripe, xqs, out);
    Ok(())
}

/// The packed dense core: packs the activations (zero points folded in)
/// into the pair panel, then runs the register-tiled kernel with every
/// element starting from `0.0`. Arguments are pre-validated and
/// non-degenerate (`rows > 0`, `n > 0`).
fn qgemm_packed_run(
    w: &QuantizedMatrix,
    packed: &[i16],
    starts: &[usize],
    x_codes: &[i8],
    stripe: usize,
    xqs: &[XQuant],
    out: &mut [f32],
) {
    let n = stripe * xqs.len();
    let np = panel_stride(n, n);
    let panel = pack_panel(w.cols, w.block_len, starts, n, np, |lo, hi, pair_row| {
        for (s, xq) in xqs.iter().enumerate() {
            let (zp, cols) = (xq.zero_point as i16, s * stripe..(s + 1) * stripe);
            let row = |kk: usize| {
                x_codes[kk * n..(kk + 1) * n][cols.clone()]
                    .iter()
                    .map(move |&c| c as i16 - zp)
            };
            interleave(
                &mut pair_row[2 * cols.start..2 * cols.end],
                Some(row(lo)),
                hi.map(row),
            );
        }
    });
    let xscale = column_scales(stripe, xqs, np);
    let ctx = TileCtx {
        codes: packed,
        scales: &w.scales,
        starts,
        pk: *starts.last().unwrap_or(&0),
        nb: w.n_blocks(),
        panel: &panel,
        np,
        xscale: &xscale,
    };
    gemm_tiles(&ctx, n, None, out);
    arena::recycle(panel);
    arena::recycle(xscale);
}

/// Changed fraction the delta dispatch compares against the density
/// threshold (`0.0` for an empty mask).
fn changed_fraction(changed: &[bool]) -> f32 {
    if changed.is_empty() {
        return 0.0;
    }
    changed.iter().filter(|&&c| c).count() as f32 / changed.len() as f32
}

/// Changed-row fraction at or above which [`qgemm_delta_multi`] abandons
/// row-skipping and recomputes the correction with the packed dense
/// microkernel over the masked deltas.
///
/// On the 256³ shape of `BENCH_ci.json`'s `qgemm_delta_int8` sweep the
/// register-tiled dense path is flat at ≈0.33–0.38 ms while the sparse
/// path grows with the changed fraction (≈0.22–0.25 ms at 3 %,
/// ≈0.27–0.33 ms at 5 %, ≈0.38 ms at 10 %), so the curves now cross at
/// 6–10 % changed rows, not at the 25–30 % this value was first
/// measured at. It stays at 0.25
/// because a lower threshold has not paid end to end: on the quick
/// model's temporal-delta sampling only about 0.2 % of delta GEMMs fall
/// between 6.25 % and 25 % changed rows (most sit above 50 %), and an
/// A/B with only this constant at 0.0625 did not run faster. Both paths
/// are bitwise identical, so the threshold is purely a performance
/// decision; [`qgemm_delta_multi_with_threshold`] overrides it for
/// testing.
pub const DELTA_DENSE_THRESHOLD: f32 = 0.25;

/// Temporal sparse-delta GEMM: recomputes only the contributions of
/// reduction rows whose activation changed since the previous step.
///
/// Given the previous step's output `prev_out = qgemm(w, x_prev)` and a
/// change mask over the `k` reduction rows, computes
///
/// ```text
/// out[i, j] = prev_out[i, j]
///           + x.scale · Σ_b w.scale[i, b] · Σ_{k ∈ b, changed[k]}
///                 w[i, k] · (x_curr[k, j] − x_prev[k, j])
/// ```
///
/// which equals the dense `qgemm(w, x_curr)` whenever the mask covers
/// every row that actually differs (zero points cancel in the code
/// delta). Rows marked unchanged are not read at all, so the arithmetic
/// cost scales with the changed fraction — the paper's temporal-sparsity
/// win. Both steps must share one activation scale (static calibration),
/// otherwise the code-space delta is meaningless.
///
/// Above [`DELTA_DENSE_THRESHOLD`] the kernel switches to the packed
/// dense microkernel over the masked deltas — bitwise identical, faster
/// once the mask is dense enough that row-skipping stops paying.
///
/// The mask typically comes from
/// `sqdm_sparsity::TemporalTrace::change_mask`, expanded to reduction
/// rows for convolutions (each channel owns `kh·kw` consecutive rows).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on any buffer-length
/// disagreement (codes, mask, previous output, output).
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
pub fn qgemm_delta(
    w: &QuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    n: usize,
    xq: XQuant,
    prev_out: &[f32],
    out: &mut [f32],
) -> Result<()> {
    qgemm_delta_multi(w, x_curr, x_prev, changed, n, &[xq], prev_out, out)
}

/// Batched temporal sparse-delta GEMM: [`qgemm_delta`] over a batch of
/// independent request streams, each with its **own** change mask.
///
/// Columns are striped per request exactly as in [`qgemm_multi`]; the
/// mask is the per-stream concatenation `changed[s · k + r]` = "reduction
/// row `r` of stream `s` changed since that stream's previous denoising
/// step" (`k = w.cols()`). Streams are fully independent: one stream at a
/// fully-dense step (mask all true) recomputes everything while a
/// converged neighbor stream skips nearly all of its rows — the
/// sparse-delta win applies per stream, not per batch.
///
/// Bitwise identical to `xqs.len()` independent [`qgemm_delta`] calls at
/// any thread count, by the same argument as [`qgemm_multi`] (exact i32
/// accumulation; per-element f32 requantization in identical order). The
/// dense-fallback dispatch (see [`DELTA_DENSE_THRESHOLD`]) looks at the
/// overall changed fraction of the batch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on any buffer-length
/// disagreement (codes, mask, previous output, output).
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
pub fn qgemm_delta_multi(
    w: &QuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
) -> Result<()> {
    qgemm_delta_multi_with_threshold(
        w,
        x_curr,
        x_prev,
        changed,
        stripe,
        xqs,
        prev_out,
        out,
        DELTA_DENSE_THRESHOLD,
    )
}

/// [`qgemm_delta_multi`] with an explicit density threshold, for tests
/// and calibration sweeps: `dense_threshold <= 0.0` forces the packed
/// dense fallback, `dense_threshold > 1.0` forces the row-skipping sparse
/// path. Both paths are bitwise identical; the threshold only moves the
/// crossover.
///
/// # Errors
///
/// Same conditions as [`qgemm_delta_multi`].
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
pub fn qgemm_delta_multi_with_threshold(
    w: &QuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
    dense_threshold: f32,
) -> Result<()> {
    check_delta_call(
        w,
        x_curr.len(),
        x_prev.len(),
        changed.len(),
        stripe,
        xqs,
        prev_out.len(),
        out.len(),
    )?;
    if w.rows == 0 || stripe * xqs.len() == 0 {
        return Ok(());
    }
    if changed_fraction(changed) >= dense_threshold {
        let (starts, pk) = block_spans(w.cols, w.block_len);
        let packed = pack_weight_codes(w, &starts, pk);
        qgemm_delta_packed_run(
            w, &packed, &starts, x_curr, x_prev, changed, stripe, xqs, prev_out, out,
        );
        arena::recycle(packed);
        arena::recycle(starts);
    } else {
        qgemm_delta_sparse_run(w, x_curr, x_prev, changed, stripe, xqs, prev_out, out);
    }
    Ok(())
}

/// [`qgemm_delta_multi`] on a pre-packed weight: the dense-fallback
/// branch reuses the pack instead of repacking per call; the sparse
/// branch reads the unpacked codes held by the pack. Identical results.
///
/// # Errors
///
/// Same conditions as [`qgemm_delta_multi`].
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
pub fn qgemm_delta_packed_multi(
    pw: &PackedQuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
) -> Result<()> {
    qgemm_delta_packed_multi_with_threshold(
        pw,
        x_curr,
        x_prev,
        changed,
        stripe,
        xqs,
        prev_out,
        out,
        DELTA_DENSE_THRESHOLD,
    )
}

/// [`qgemm_delta_packed_multi`] with an explicit density threshold, for
/// tests and calibration sweeps: `dense_threshold <= 0.0` forces the
/// packed dense fallback, `dense_threshold > 1.0` forces the
/// row-skipping sparse path. Both paths are bitwise identical; the
/// threshold only moves the crossover.
///
/// # Errors
///
/// Same conditions as [`qgemm_delta_multi`].
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
pub fn qgemm_delta_packed_multi_with_threshold(
    pw: &PackedQuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
    dense_threshold: f32,
) -> Result<()> {
    check_delta_call(
        &pw.w,
        x_curr.len(),
        x_prev.len(),
        changed.len(),
        stripe,
        xqs,
        prev_out.len(),
        out.len(),
    )?;
    if pw.w.rows == 0 || stripe * xqs.len() == 0 {
        return Ok(());
    }
    if changed_fraction(changed) >= dense_threshold {
        qgemm_delta_packed_run(
            &pw.w, &pw.packed, &pw.starts, x_curr, x_prev, changed, stripe, xqs, prev_out, out,
        );
    } else {
        qgemm_delta_sparse_run(&pw.w, x_curr, x_prev, changed, stripe, xqs, prev_out, out);
    }
    Ok(())
}

/// Dense-fallback delta core: packs the masked deltas into the pair panel
/// and runs the register-tiled kernel from `prev_out`, skipping (stream,
/// block) slots with no changed rows so the f32 epilogue touches exactly
/// the elements the sparse path touches.
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
fn qgemm_delta_packed_run(
    w: &QuantizedMatrix,
    packed: &[i16],
    starts: &[usize],
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
) {
    let n = stripe * xqs.len();
    let k = w.cols;
    let nb = w.n_blocks();
    let np = panel_stride(n, stripe);
    let panel = pack_panel(k, w.block_len, starts, n, np, |lo, hi, pair_row| {
        for s in 0..xqs.len() {
            let cols = s * stripe..(s + 1) * stripe;
            // Masked code deltas of one reduction row (zero points cancel).
            let row = |kk: usize| {
                changed[s * k + kk].then(|| {
                    let (cur, prv) = (&x_curr[kk * n..(kk + 1) * n], &x_prev[kk * n..(kk + 1) * n]);
                    cur[cols.clone()]
                        .iter()
                        .zip(&prv[cols.clone()])
                        .map(|(&c, &p)| c as i16 - p as i16)
                })
            };
            interleave(
                &mut pair_row[2 * cols.start..2 * cols.end],
                row(lo),
                hi.and_then(row),
            );
        }
    });
    let xscale = column_scales(stripe, xqs, np);
    let mut active = arena::take_zeroed::<bool>(xqs.len() * nb);
    for (s, row) in active.chunks_mut(nb.max(1)).enumerate() {
        let mask = &changed[s * k..(s + 1) * k];
        for (b, slot) in row.iter_mut().enumerate() {
            let k0 = b * w.block_len;
            let k1 = (k0 + w.block_len).min(k);
            *slot = mask[k0..k1].iter().any(|&c| c);
        }
    }
    let ctx = TileCtx {
        codes: packed,
        scales: &w.scales,
        starts,
        pk: *starts.last().unwrap_or(&0),
        nb,
        panel: &panel,
        np,
        xscale: &xscale,
    };
    let delta = DeltaTiles {
        prev_out,
        active: &active,
        stripe,
    };
    gemm_tiles(&ctx, n, Some(&delta), out);
    arena::recycle(panel);
    arena::recycle(xscale);
    arena::recycle(active);
}

/// Row-skipping sparse delta core (the pre-overhaul kernel): widens the
/// changed rows' code deltas once, then runs the broadcast
/// multiply-accumulate over only the changed rows of each stream.
#[allow(clippy::too_many_arguments)] // GEMM geometry + two steps of state
fn qgemm_delta_sparse_run(
    w: &QuantizedMatrix,
    x_curr: &[i8],
    x_prev: &[i8],
    changed: &[bool],
    stripe: usize,
    xqs: &[XQuant],
    prev_out: &[f32],
    out: &mut [f32],
) {
    let n = stripe * xqs.len();
    let k = w.cols;
    let nb = w.n_blocks();
    // Widen the code deltas of the *changed* rows once (zero points
    // cancel); unchanged rows stay zero and are never read. Each stream
    // widens only its own changed rows.
    let mut di = arena::take_zeroed::<i32>(x_curr.len());
    parallel::par_chunks_mut(&mut di, n, 2 * n, |row, block| {
        for s in 0..xqs.len() {
            if !changed[s * k + row] {
                continue;
            }
            let cols = row * n + s * stripe;
            let cur = &x_curr[cols..cols + stripe];
            let prv = &x_prev[cols..cols + stripe];
            let dst = &mut block[s * stripe..(s + 1) * stripe];
            for ((o, &c), &p) in dst.iter_mut().zip(cur.iter()).zip(prv.iter()) {
                *o = c as i32 - p as i32;
            }
        }
    });
    parallel::par_chunks_mut(out, n, blocking::gemm_task_work(k, n), |i, o_row| {
        o_row.copy_from_slice(&prev_out[i * n..(i + 1) * n]);
        let mut acc = arena::take_zeroed::<i32>(stripe);
        let w_row = &w.codes[i * k..(i + 1) * k];
        for (s, xq) in xqs.iter().enumerate() {
            let mask = &changed[s * k..(s + 1) * k];
            let o_stripe = &mut o_row[s * stripe..(s + 1) * stripe];
            for b in 0..nb {
                let k0 = b * w.block_len;
                let k1 = (k0 + w.block_len).min(k);
                if !mask[k0..k1].iter().any(|&c| c) {
                    continue;
                }
                acc.fill(0);
                for (kk, &w_ik) in w_row[k0..k1].iter().enumerate() {
                    if w_ik == 0 || !mask[k0 + kk] {
                        continue;
                    }
                    let w_ik = w_ik as i32;
                    let d_row = &di[(k0 + kk) * n + s * stripe..][..stripe];
                    for (a, &d_kj) in acc.iter_mut().zip(d_row.iter()) {
                        *a += w_ik * d_kj;
                    }
                }
                let sc = w.scales[i * nb + b] * xq.scale;
                for (o, &a) in o_stripe.iter_mut().zip(acc.iter()) {
                    *o += a as f32 * sc;
                }
            }
        }
        arena::recycle(acc);
    });
    arena::recycle(di);
}

/// Packs the transpose of a row-major `[rows, cols]` code matrix into a
/// new row-major `[cols, rows]` buffer (the integer analogue of the f32
/// `pack_transpose`, used to feed `[batch, features]` activations to
/// [`qgemm`]).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `src.len() != rows · cols`.
pub fn transpose_i8(src: &[i8], rows: usize, cols: usize) -> Result<Vec<i8>> {
    if src.len() != rows * cols {
        return Err(TensorError::InvalidArgument {
            op: "transpose_i8",
            reason: format!("{} codes for a {rows}x{cols} matrix", src.len()),
        });
    }
    let mut out = arena::take_zeroed::<i8>(src.len());
    if rows == 0 || cols == 0 {
        return Ok(out);
    }
    parallel::par_chunks_mut(&mut out, rows, 2 * rows, |j, o_row| {
        for (i, o) in o_row.iter_mut().enumerate() {
            *o = src[i * cols + j];
        }
    });
    Ok(out)
}

/// Integer im2col: lowers an `[N, C, H, W]` code map into the
/// `[C·kh·kw, N·oh·ow]` GEMM operand, exactly mirroring the f32
/// [`crate::ops::im2col`] layout.
///
/// Padding positions are filled with `pad_code` — the code representing
/// real zero, i.e. the activation zero point (0 for the workspace's
/// symmetric formats).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the code buffer does not
/// match the dimensions, or geometry errors from
/// [`Conv2dGeometry::out_extent`].
#[allow(clippy::too_many_arguments)] // mirrors the f32 im2col geometry tuple
pub fn im2col_i8(
    codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    geom: Conv2dGeometry,
    pad_code: i8,
) -> Result<Vec<i8>> {
    im2col_i8_multi(codes, n, c, h, w, kh, kw, geom, &vec![pad_code; n])
}

/// [`im2col_i8`] with a per-request padding code: sample `nn` of the
/// `[N, C, H, W]` code map pads with `pad_codes[nn]` — its own activation
/// zero point. The batched-serving lowering, where each batch element was
/// quantized independently.
///
/// # Errors
///
/// Same conditions as [`im2col_i8`], plus
/// [`TensorError::InvalidArgument`] if `pad_codes.len() != n`.
#[allow(clippy::too_many_arguments)] // mirrors the f32 im2col geometry tuple
pub fn im2col_i8_multi(
    codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    geom: Conv2dGeometry,
    pad_codes: &[i8],
) -> Result<Vec<i8>> {
    if codes.len() != n * c * h * w {
        return Err(TensorError::InvalidArgument {
            op: "im2col_i8",
            reason: format!("{} codes for [{n}, {c}, {h}, {w}]", codes.len()),
        });
    }
    if pad_codes.len() != n {
        return Err(TensorError::InvalidArgument {
            op: "im2col_i8",
            reason: format!("{} pad codes for batch {n}", pad_codes.len()),
        });
    }
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let rows = c * kh * kw;
    let cols = n * oh * ow;
    let mut out = arena::take_zeroed::<i8>(rows * cols);
    if rows > 0 && cols > 0 {
        let (stride, pad) = (geom.stride, geom.padding);
        parallel::par_chunks_mut(&mut out, cols, 2 * cols, |row, o_row| {
            let cc = row / (kh * kw);
            let ky = (row / kw) % kh;
            let kx = row % kw;
            // Output rows/columns whose input coordinate `o · stride +
            // k − pad` lies inside the input: the in-bounds window.
            let window = |k: usize, extent: usize, out: usize| {
                let lo = pad.saturating_sub(k).div_ceil(stride).min(out);
                let hi = (extent + pad).saturating_sub(k).div_ceil(stride);
                (lo, hi.clamp(lo, out))
            };
            let (oy_lo, oy_hi) = window(ky, h, oh);
            let (ox_lo, ox_hi) = window(kx, w, ow);
            for nn in 0..n {
                let pad_code = pad_codes[nn];
                let plane = &mut o_row[nn * oh * ow..(nn + 1) * oh * ow];
                plane.fill(pad_code);
                if oy_lo == oy_hi || ox_lo == ox_hi {
                    continue;
                }
                let src = &codes[(nn * c + cc) * h * w..][..h * w];
                let ix_lo = ox_lo * stride + kx - pad;
                if stride == 1 && ow == w {
                    // Output index `o` reads input index `o + (ky − pad) ·
                    // w + kx − pad`, so one copy covers every in-bounds
                    // row; the columns it wraps into are reset to padding.
                    let (o0, o1) = (oy_lo * ow + ox_lo, (oy_hi - 1) * ow + ox_hi);
                    let i0 = (oy_lo + ky - pad) * w + ix_lo;
                    plane[o0..o1].copy_from_slice(&src[i0..i0 + (o1 - o0)]);
                    // Column by column (strided stores, not one tiny
                    // fill per row).
                    for ox in (0..ox_lo).chain(ox_hi..ow) {
                        let column = plane[oy_lo * ow + ox..oy_hi * ow].iter_mut();
                        column.step_by(ow).for_each(|v| *v = pad_code);
                    }
                } else {
                    for oy in oy_lo..oy_hi {
                        let in_row = &src[(oy * stride + ky - pad) * w..][..w];
                        let dst = &mut plane[oy * ow..][ox_lo..ox_hi];
                        let taps = in_row[ix_lo..].iter().step_by(stride);
                        for (d, &v) in dst.iter_mut().zip(taps) {
                            *d = v;
                        }
                    }
                }
            }
        });
    }
    Ok(out)
}

/// Native integer 2-D convolution: integer im2col, [`qgemm`], then the
/// same `[K, N·oh·ow] → [N, K, oh, ow]` epilogue (with bias) as the f32
/// [`crate::ops::conv2d`].
///
/// * `x_codes`: activation codes, `[N, C, H, W]` row-major
/// * `wq`: weight codes `[K, C·kh·kw]` with per-row scale blocks
/// * `bias`: optional `[K]` real-valued bias
///
/// # Errors
///
/// Returns shape/geometry errors from the lowering or the GEMM, and
/// [`TensorError::ShapeMismatch`] if `wq` or `bias` disagree with the
/// activation geometry.
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
pub fn conv2d_i8(
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wq: &QuantizedMatrix,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xq: XQuant,
) -> Result<Tensor> {
    conv2d_i8_multi(x_codes, n, c, h, w, wq, kh, kw, bias, geom, &vec![xq; n])
}

/// Batched native integer convolution: one weight pack, `n` independently
/// quantized batch elements.
///
/// Sample `nn` of the `[N, C, H, W]` code map carries its own activation
/// quantization `xqs[nn]` (scale, zero point, and therefore padding
/// code). The weight matrix — codes, scale blocks, and the per-channel
/// requantization parameters — is shared across the whole batch, so
/// batched serving pays the weight quantization once per step instead of
/// once per request. The GEMM stage runs on the packed microkernels via
/// [`qgemm_multi`]. Bitwise identical to `n` single-sample [`conv2d_i8`]
/// calls at any thread count.
///
/// # Errors
///
/// Returns shape/geometry errors from the lowering or the GEMM, and
/// [`TensorError::ShapeMismatch`] if `wq`, `bias` or `xqs` disagree with
/// the activation geometry.
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
pub fn conv2d_i8_multi(
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wq: &QuantizedMatrix,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xqs: &[XQuant],
) -> Result<Tensor> {
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let mut out = arena::take_zeroed::<f32>(n * wq.rows() * oh * ow);
    conv2d_i8_core(
        x_codes,
        n,
        c,
        h,
        w,
        wq,
        kh,
        kw,
        bias,
        geom,
        xqs,
        &mut |cols, spatial, prod| qgemm_multi(wq, cols, spatial, xqs, prod),
        &mut out,
    )?;
    Tensor::from_vec(out, [n, wq.rows(), oh, ow])
}

/// [`conv2d_i8_multi`] on a pre-packed weight: identical results, the
/// pack cost paid once at [`PackedQuantizedMatrix::pack`] time instead of
/// per forward. The cached-pack convolution entry the serving registry's
/// steady state runs on.
///
/// # Errors
///
/// Same conditions as [`conv2d_i8_multi`].
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
pub fn conv2d_i8_packed_multi(
    pw: &PackedQuantizedMatrix,
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xqs: &[XQuant],
) -> Result<Tensor> {
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let mut out = arena::take_zeroed::<f32>(n * pw.matrix().rows() * oh * ow);
    conv2d_i8_packed_into(pw, x_codes, n, c, h, w, kh, kw, bias, geom, xqs, &mut out)?;
    Tensor::from_vec(out, [n, pw.matrix().rows(), oh, ow])
}

/// [`conv2d_i8_packed_multi`] writing into caller-owned storage: `out`
/// must hold exactly `n · k · oh · ow` elements and is fully overwritten.
/// The zero-allocation serving path's convolution entry — no output
/// tensor is allocated, and all internal scratch is drawn from the
/// [`crate::arena`] when one is active.
///
/// # Errors
///
/// Same conditions as [`conv2d_i8_multi`], plus
/// [`TensorError::ShapeMismatch`] if `out` has the wrong length.
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
pub fn conv2d_i8_packed_into(
    pw: &PackedQuantizedMatrix,
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xqs: &[XQuant],
    out: &mut [f32],
) -> Result<()> {
    conv2d_i8_core(
        x_codes,
        n,
        c,
        h,
        w,
        pw.matrix(),
        kh,
        kw,
        bias,
        geom,
        xqs,
        &mut |cols, spatial, prod| qgemm_packed_multi(pw, cols, spatial, xqs, prod),
        out,
    )
}

/// Per-layer carry state for [`conv2d_i8_packed_delta_multi`]: the
/// previous step's lowered activation codes, quantization parameters and
/// pre-epilogue GEMM product.
///
/// The buffers are reused across steps (cleared and refilled, never
/// shrunk), so steady-state delta execution does not allocate. One state
/// belongs to exactly one convolution layer of one sampling trajectory;
/// mixing layers or trajectories through a single state falls back to a
/// dense step on every shape or scale mismatch rather than producing
/// wrong results.
#[derive(Debug, Default)]
pub struct ConvDeltaState {
    prev_cols: Vec<i8>,
    prev_xqs: Vec<XQuant>,
    prev_prod: Vec<f32>,
    /// Steps executed through the delta kernel.
    pub delta_steps: usize,
    /// Steps executed as a full dense GEMM (first step, shape change, or
    /// activation-scale change).
    pub dense_steps: usize,
}

impl ConvDeltaState {
    /// An empty state: the first step through it is always dense.
    pub fn new() -> Self {
        ConvDeltaState::default()
    }

    /// Drops the carried step so the next call runs dense (e.g. when a
    /// sampling trajectory restarts).
    pub fn reset(&mut self) {
        self.prev_cols.clear();
        self.prev_xqs.clear();
        self.prev_prod.clear();
    }

    /// The activation quantization carried from the previous step, if any
    /// (the first stream's — callers replicate one grid across streams).
    /// Lets the caller re-quantize the next step on the *same* grid
    /// (static-calibration style) so the code-space delta is meaningful
    /// and the carry can engage.
    pub fn carried_xq(&self) -> Option<XQuant> {
        self.prev_xqs.first().copied()
    }
}

/// Temporal-delta convolution on a pre-packed weight: recomputes only the
/// contribution of reduction rows whose input codes changed since the
/// previous call, per the paper's inter-step activation similarity.
///
/// `changed_channels` holds one flag per `(stream, input-channel)`
/// (`n · c` entries, stream-major) — typically a
/// `TemporalTrace::change_mask` row. Each flagged channel expands to its
/// `kh·kw` im2col reduction rows, and the mask is then **unioned with the
/// exact per-row code difference** against the previous step, so the
/// kernel's correctness contract (mask covers every row that differs)
/// holds even when the trace under-reports. Density-based dispatch between
/// the sparse row-skipping path and the packed dense fallback follows
/// `dense_threshold` exactly as in
/// [`qgemm_delta_packed_multi_with_threshold`]; both paths agree bitwise.
///
/// The delta step only engages when the carried state matches the current
/// call (same lowered geometry and identical per-stream activation
/// quantization — the delta epilogue requires both steps to share one
/// activation scale). Otherwise the call silently runs the dense packed
/// GEMM and refreshes the state.
///
/// # Errors
///
/// Same conditions as [`conv2d_i8_packed_multi`], plus
/// [`TensorError::ShapeMismatch`] if `changed_channels` is not `n · c`
/// long.
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
pub fn conv2d_i8_packed_delta_multi(
    pw: &PackedQuantizedMatrix,
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xqs: &[XQuant],
    changed_channels: &[bool],
    state: &mut ConvDeltaState,
    dense_threshold: f32,
) -> Result<Tensor> {
    if changed_channels.len() != n * c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_i8_delta(changed_channels)",
            lhs: vec![changed_channels.len()],
            rhs: vec![n, c],
        });
    }
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let k_out = pw.matrix().rows();
    let mut out = arena::take_zeroed::<f32>(n * k_out * oh * ow);
    conv2d_i8_core(
        x_codes,
        n,
        c,
        h,
        w,
        pw.matrix(),
        kh,
        kw,
        bias,
        geom,
        xqs,
        &mut |cols, spatial, prod| {
            let carry_ok = state.prev_cols.len() == cols.len()
                && state.prev_prod.len() == prod.len()
                && state.prev_xqs == xqs;
            if carry_ok {
                let k_red = c * kh * kw;
                let rpc = kh * kw; // reduction rows per input channel
                let mut mask = arena::take_zeroed::<bool>(n * k_red);
                for s in 0..n {
                    for (ch, &chg) in changed_channels[s * c..(s + 1) * c].iter().enumerate() {
                        if chg {
                            mask[s * k_red + ch * rpc..s * k_red + (ch + 1) * rpc].fill(true);
                        }
                    }
                }
                // Union with the exact code difference so the mask is a
                // superset of the rows that actually changed — the delta
                // kernel's equality contract.
                let row_len = n * spatial;
                for s in 0..n {
                    for r in 0..k_red {
                        if mask[s * k_red + r] {
                            continue;
                        }
                        let seg = r * row_len + s * spatial..r * row_len + (s + 1) * spatial;
                        if cols[seg.clone()] != state.prev_cols[seg] {
                            mask[s * k_red + r] = true;
                        }
                    }
                }
                qgemm_delta_packed_multi_with_threshold(
                    pw,
                    cols,
                    &state.prev_cols,
                    &mask,
                    spatial,
                    xqs,
                    &state.prev_prod,
                    prod,
                    dense_threshold,
                )?;
                arena::recycle(mask);
                state.delta_steps += 1;
            } else {
                qgemm_packed_multi(pw, cols, spatial, xqs, prod)?;
                state.dense_steps += 1;
            }
            state.prev_cols.clear();
            state.prev_cols.extend_from_slice(cols);
            state.prev_xqs.clear();
            state.prev_xqs.extend_from_slice(xqs);
            state.prev_prod.clear();
            state.prev_prod.extend_from_slice(prod);
            Ok(())
        },
        &mut out,
    )?;
    Tensor::from_vec(out, [n, k_out, oh, ow])
}

/// GEMM stage of [`conv2d_i8_core`]: `(lowered operand, gemm columns,
/// product buffer)`.
type ConvGemmStage<'a> = dyn FnMut(&[i8], usize, &mut [f32]) -> Result<()> + 'a;

/// Shared body of the `conv2d_i8*` family: checks, integer im2col,
/// the caller-supplied GEMM stage, and the `[K, N·oh·ow] → [N, K, oh,
/// ow]` bias epilogue into `out`. All scratch (padding codes, lowered
/// operand, GEMM product) is drawn from and returned to the thread's
/// [`crate::arena`].
#[allow(clippy::too_many_arguments)] // conv geometry + quantization params
fn conv2d_i8_core(
    x_codes: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wq: &QuantizedMatrix,
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    geom: Conv2dGeometry,
    xqs: &[XQuant],
    gemm: &mut ConvGemmStage<'_>,
    out: &mut [f32],
) -> Result<()> {
    if xqs.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_i8(xqs)",
            lhs: vec![xqs.len()],
            rhs: vec![n],
        });
    }
    if wq.cols() != c * kh * kw {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_i8",
            lhs: vec![wq.rows(), wq.cols()],
            rhs: vec![c * kh * kw],
        });
    }
    let k = wq.rows();
    if let Some(b) = bias {
        if b.len() != k {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_i8(bias)",
                lhs: vec![b.len()],
                rhs: vec![k],
            });
        }
    }
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let spatial = oh * ow;
    if out.len() != n * k * spatial {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_i8(out)",
            lhs: vec![out.len()],
            rhs: vec![n, k, spatial],
        });
    }
    let mut pad_codes = arena::take::<i8>(n);
    pad_codes.extend(
        xqs.iter()
            .map(|q| q.zero_point.clamp(i8::MIN as i32, i8::MAX as i32) as i8),
    );
    let cols = im2col_i8_multi(x_codes, n, c, h, w, kh, kw, geom, &pad_codes)?;
    arena::recycle(pad_codes);
    let mut prod = arena::take_zeroed::<f32>(k * n * spatial);
    gemm(&cols, spatial, &mut prod)?;
    arena::recycle(cols);

    if n * k > 0 && spatial > 0 {
        parallel::par_chunks_mut(out, spatial, 2 * spatial, |plane, dst| {
            let nn = plane / k;
            let kk = plane % k;
            let b = bias.map(|b| b[kk]).unwrap_or(0.0);
            let src = &prod[kk * n * spatial + nn * spatial..kk * n * spatial + (nn + 1) * spatial];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s + b;
            }
        });
    }
    arena::recycle(prod);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    /// Reference f64 requantized GEMM, straight from the definition.
    fn naive(w: &QuantizedMatrix, x: &[i8], n: usize, xq: XQuant) -> Vec<f32> {
        let (m, k, nb) = (w.rows(), w.cols(), w.n_blocks());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut y = 0.0f32;
                for b in 0..nb {
                    let k0 = b * w.block_len();
                    let k1 = (k0 + w.block_len()).min(k);
                    let mut acc = 0i32;
                    for kk in k0..k1 {
                        acc +=
                            w.codes()[i * k + kk] as i32 * (x[kk * n + j] as i32 - xq.zero_point);
                    }
                    y += acc as f32 * (w.scales()[i * nb + b] * xq.scale);
                }
                out[i * n + j] = y;
            }
        }
        out
    }

    #[test]
    fn qgemm_matches_naive_reference() {
        // 3x4 weights (two scale blocks of 2) times 4x5 activations.
        let codes: Vec<i8> = (0..12).map(|v| (v as i8) - 6).collect();
        let scales = vec![0.5, 0.25, 1.0, 0.125, 2.0, 0.5];
        let w = QuantizedMatrix::new(codes, 3, 4, scales, 2).unwrap();
        let x: Vec<i8> = (0..20).map(|v| ((v * 7) % 23) as i8 - 11).collect();
        let xq = XQuant {
            scale: 0.0625,
            zero_point: 3,
        };
        let mut out = vec![0.0f32; 15];
        qgemm(&w, &x, 5, xq, &mut out).unwrap();
        assert_eq!(out, naive(&w, &x, 5, xq));
    }

    #[test]
    fn qgemm_is_bitwise_deterministic_across_threads() {
        let codes: Vec<i8> = (0..64 * 48).map(|v| ((v * 31) % 251) as i8).collect();
        let scales: Vec<f32> = (0..64 * 3).map(|v| 0.01 + v as f32 * 1e-4).collect();
        let w = QuantizedMatrix::new(codes, 64, 48, scales, 16).unwrap();
        let x: Vec<i8> = (0..48 * 33).map(|v| ((v * 17) % 199) as i8).collect();
        let xq = XQuant::symmetric(0.03);
        let mut serial = vec![0.0f32; 64 * 33];
        with_threads(1, || qgemm(&w, &x, 33, xq, &mut serial).unwrap());
        for t in [2usize, 7] {
            let mut par = vec![0.0f32; 64 * 33];
            with_threads(t, || qgemm(&w, &x, 33, xq, &mut par).unwrap());
            let sb: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, pb, "qgemm differs at {t} threads");
        }
    }

    #[test]
    fn packed_entry_points_match_unpacked_bitwise() {
        let codes: Vec<i8> = (0..9 * 21).map(|v| ((v * 31) % 251) as i8).collect();
        let scales: Vec<f32> = (0..9 * 3).map(|v| 0.01 + v as f32 * 1e-4).collect();
        let w = QuantizedMatrix::new(codes, 9, 21, scales, 8).unwrap();
        let pw = PackedQuantizedMatrix::pack(w.clone());
        assert_eq!(pw.matrix(), &w);
        let x: Vec<i8> = (0..21 * 7).map(|v| ((v * 17) % 199) as i8).collect();
        let xq = XQuant {
            scale: 0.03,
            zero_point: -4,
        };
        let mut plain = vec![0.0f32; 9 * 7];
        qgemm(&w, &x, 7, xq, &mut plain).unwrap();
        let mut packed = vec![0.0f32; 9 * 7];
        qgemm_packed(&pw, &x, 7, xq, &mut packed).unwrap();
        for (a, b) in plain.iter().zip(&packed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(pw.clone().into_matrix(), w);
    }

    #[test]
    fn generic_and_dispatched_bodies_agree_bitwise() {
        let codes: Vec<i8> = (0..10 * 37).map(|v| ((v * 29) % 253) as i8).collect();
        let scales: Vec<f32> = (0..10 * 5).map(|v| 0.002 + v as f32 * 2e-4).collect();
        let w = QuantizedMatrix::new(codes, 10, 37, scales, 8).unwrap();
        let x: Vec<i8> = (0..37 * 11).map(|v| ((v * 13) % 241) as i8).collect();
        let xq = XQuant {
            scale: 0.05,
            zero_point: 2,
        };
        let mut dispatched = vec![0.0f32; 10 * 11];
        qgemm(&w, &x, 11, xq, &mut dispatched).unwrap();
        force_generic_kernels(true);
        let mut generic = vec![0.0f32; 10 * 11];
        let r = qgemm(&w, &x, 11, xq, &mut generic);
        force_generic_kernels(false);
        r.unwrap();
        for (a, b) in dispatched.iter().zip(&generic) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn out_of_range_zero_points_are_rejected() {
        let w = QuantizedMatrix::per_channel(vec![1, 2, 3, 4], 2, 2, vec![1.0, 1.0]).unwrap();
        let mut out = vec![0.0f32; 4];
        for zp in [MAX_ZERO_POINT, -MAX_ZERO_POINT] {
            let xq = XQuant {
                scale: 1.0,
                zero_point: zp,
            };
            qgemm(&w, &[1i8; 4], 2, xq, &mut out).unwrap();
            assert_eq!(out, naive(&w, &[1i8; 4], 2, xq));
        }
        for zp in [MAX_ZERO_POINT + 1, -MAX_ZERO_POINT - 1, i32::MIN, i32::MAX] {
            let xq = XQuant {
                scale: 1.0,
                zero_point: zp,
            };
            assert!(qgemm(&w, &[1i8; 4], 2, xq, &mut out).is_err(), "zp {zp}");
        }
    }

    #[test]
    fn delta_threshold_zero_and_above_one_agree_bitwise() {
        let w = multi_test_weight();
        let k = w.cols();
        let stripe = 5;
        let xqs = [XQuant::symmetric(0.02), XQuant::symmetric(0.07)];
        let n = stripe * xqs.len();
        let prev: Vec<i8> = (0..k * n).map(|v| ((v * 11) % 201) as i8).collect();
        let mut curr = prev.clone();
        let mask: Vec<bool> = (0..k * xqs.len()).map(|r| r % 3 == 1).collect();
        for (s, chunk) in mask.chunks(k).enumerate() {
            for (row, &ch) in chunk.iter().enumerate() {
                if ch {
                    for v in &mut curr[row * n + s * stripe..row * n + (s + 1) * stripe] {
                        *v = v.wrapping_add(6);
                    }
                }
            }
        }
        let mut prev_out = vec![0.0f32; w.rows() * n];
        qgemm_multi(&w, &prev, stripe, &xqs, &mut prev_out).unwrap();
        let mut dense = vec![0.0f32; w.rows() * n];
        qgemm_delta_multi_with_threshold(
            &w, &curr, &prev, &mask, stripe, &xqs, &prev_out, &mut dense, 0.0,
        )
        .unwrap();
        let mut sparse = vec![0.0f32; w.rows() * n];
        qgemm_delta_multi_with_threshold(
            &w,
            &curr,
            &prev,
            &mask,
            stripe,
            &xqs,
            &prev_out,
            &mut sparse,
            1.5,
        )
        .unwrap();
        let mut dflt = vec![0.0f32; w.rows() * n];
        qgemm_delta_multi(&w, &curr, &prev, &mask, stripe, &xqs, &prev_out, &mut dflt).unwrap();
        for ((a, b), c) in dense.iter().zip(&sparse).zip(&dflt) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn qgemm_delta_with_full_mask_matches_dense() {
        let codes: Vec<i8> = (0..6 * 8).map(|v| ((v * 13) % 127) as i8 - 60).collect();
        let scales: Vec<f32> = (0i32..12).map(|b| 0.5f32.powi(b % 5 + 1)).collect();
        let w = QuantizedMatrix::new(codes, 6, 8, scales, 4).unwrap();
        let prev: Vec<i8> = (0..8 * 5).map(|v| ((v * 11) % 200) as i8).collect();
        let curr: Vec<i8> = prev.iter().map(|&v| v.wrapping_add(3)).collect();
        let xq = XQuant {
            scale: 0.25,
            zero_point: -2,
        };
        let mut prev_out = vec![0.0f32; 30];
        qgemm(&w, &prev, 5, xq, &mut prev_out).unwrap();
        let mut dense = vec![0.0f32; 30];
        qgemm(&w, &curr, 5, xq, &mut dense).unwrap();
        let mut delta = vec![0.0f32; 30];
        qgemm_delta(&w, &curr, &prev, &[true; 8], 5, xq, &prev_out, &mut delta).unwrap();
        // Power-of-two scales keep every intermediate exact: bitwise match.
        for (d, e) in delta.iter().zip(dense.iter()) {
            assert_eq!(d.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn qgemm_delta_skips_unchanged_rows_exactly() {
        // Only rows 1 and 3 change; the mask marks exactly those, and the
        // delta result must equal the dense recomputation.
        let w =
            QuantizedMatrix::per_channel(vec![1, -2, 3, -4, 5, -6, 7, -8], 2, 4, vec![0.5, 0.25])
                .unwrap();
        let prev: Vec<i8> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120];
        let mut curr = prev.clone();
        for j in 0..3 {
            curr[3 + j] = curr[3 + j].wrapping_add(5); // row 1
            curr[9 + j] = curr[9 + j].wrapping_sub(7); // row 3
        }
        let xq = XQuant::symmetric(0.125);
        let mut prev_out = vec![0.0f32; 6];
        qgemm(&w, &prev, 3, xq, &mut prev_out).unwrap();
        let mut dense = vec![0.0f32; 6];
        qgemm(&w, &curr, 3, xq, &mut dense).unwrap();
        let mut delta = vec![0.0f32; 6];
        qgemm_delta(
            &w,
            &curr,
            &prev,
            &[false, true, false, true],
            3,
            xq,
            &prev_out,
            &mut delta,
        )
        .unwrap();
        assert_eq!(delta, dense);
    }

    /// Pow2-scale packed conv weight: every f32 intermediate is exact, so
    /// delta and dense conv results can be compared bitwise.
    fn pow2_conv_weight(kout: usize, c: usize, kh: usize, kw: usize) -> PackedQuantizedMatrix {
        let cols = c * kh * kw;
        let codes: Vec<i8> = (0..kout * cols)
            .map(|v| ((v * 13) % 127) as i8 - 60)
            .collect();
        let scales: Vec<f32> = (0i32..kout as i32)
            .map(|i| 0.5f32.powi(i % 4 + 1))
            .collect();
        PackedQuantizedMatrix::pack(
            QuantizedMatrix::per_channel(codes, kout, cols, scales).unwrap(),
        )
    }

    #[test]
    fn conv_delta_matches_dense_conv_bitwise_with_pow2_scales() {
        let (n, c, h, w, kh, kw) = (2usize, 3usize, 5usize, 5usize, 3usize, 3usize);
        let pw = pow2_conv_weight(4, c, kh, kw);
        let geom = Conv2dGeometry::same(3);
        let bias: Vec<f32> = (0..4).map(|i| 0.25 * i as f32).collect();
        let xqs = vec![XQuant::symmetric(0.25); n];
        let mut codes: Vec<i8> = (0..n * c * h * w)
            .map(|v| ((v * 7) % 120) as i8 - 60)
            .collect();
        let mut state = ConvDeltaState::new();
        // Step 0 is dense (empty carry); later steps change two channels of
        // stream 0 only, with the trace mask flagging just one of them —
        // the exact code-diff union must catch the other.
        for step in 0..4 {
            if step > 0 {
                for v in &mut codes[0..h * w] {
                    *v = v.wrapping_add(3); // stream 0, channel 0
                }
                for v in &mut codes[2 * h * w..3 * h * w] {
                    *v = v.wrapping_sub(2); // stream 0, channel 2: unreported
                }
            }
            let mut changed = vec![false; n * c];
            changed[0] = step > 0; // only channel 0 reported by the "trace"
            let delta = conv2d_i8_packed_delta_multi(
                &pw,
                &codes,
                n,
                c,
                h,
                w,
                kh,
                kw,
                Some(&bias),
                geom,
                &xqs,
                &changed,
                &mut state,
                DELTA_DENSE_THRESHOLD,
            )
            .unwrap();
            let dense =
                conv2d_i8_packed_multi(&pw, &codes, n, c, h, w, kh, kw, Some(&bias), geom, &xqs)
                    .unwrap();
            assert_eq!(delta.dims(), dense.dims());
            for (a, b) in delta.as_slice().iter().zip(dense.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}");
            }
        }
        assert_eq!(state.dense_steps, 1);
        assert_eq!(state.delta_steps, 3);
    }

    #[test]
    fn conv_delta_scale_change_falls_back_dense() {
        let (n, c, h, w, kh, kw) = (1usize, 2usize, 4usize, 4usize, 3usize, 3usize);
        let pw = pow2_conv_weight(3, c, kh, kw);
        let geom = Conv2dGeometry::same(3);
        let codes: Vec<i8> = (0..n * c * h * w)
            .map(|v| ((v * 5) % 100) as i8 - 48)
            .collect();
        let mut state = ConvDeltaState::new();
        let changed = vec![false; n * c];
        for &scale in &[0.5f32, 0.5, 0.25] {
            let xqs = vec![XQuant::symmetric(scale); n];
            let delta = conv2d_i8_packed_delta_multi(
                &pw,
                &codes,
                n,
                c,
                h,
                w,
                kh,
                kw,
                None,
                geom,
                &xqs,
                &changed,
                &mut state,
                DELTA_DENSE_THRESHOLD,
            )
            .unwrap();
            let dense =
                conv2d_i8_packed_multi(&pw, &codes, n, c, h, w, kh, kw, None, geom, &xqs).unwrap();
            for (a, b) in delta.as_slice().iter().zip(dense.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // First call and the scale change run dense; the identical middle
        // step is a (trivially empty) delta step.
        assert_eq!(state.dense_steps, 2);
        assert_eq!(state.delta_steps, 1);
        // reset() drops the carry: next call is dense again.
        state.reset();
        let xqs = vec![XQuant::symmetric(0.25); n];
        conv2d_i8_packed_delta_multi(
            &pw,
            &codes,
            n,
            c,
            h,
            w,
            kh,
            kw,
            None,
            geom,
            &xqs,
            &changed,
            &mut state,
            DELTA_DENSE_THRESHOLD,
        )
        .unwrap();
        assert_eq!(state.dense_steps, 3);
    }

    #[test]
    fn conv_delta_sparse_and_dense_dispatch_agree_bitwise() {
        // Arbitrary (non-pow2) scales: the two dispatch paths of the delta
        // kernel itself must still agree bitwise.
        let (n, c, h, w, kh, kw) = (2usize, 2usize, 4usize, 4usize, 3usize, 3usize);
        let cols = c * kh * kw;
        let codes_w: Vec<i8> = (0..3 * cols).map(|v| ((v * 19) % 127) as i8 - 63).collect();
        let scales: Vec<f32> = vec![0.013, 0.21, 0.0077];
        let pw = PackedQuantizedMatrix::pack(
            QuantizedMatrix::per_channel(codes_w, 3, cols, scales).unwrap(),
        );
        let geom = Conv2dGeometry::same(3);
        let xqs = vec![XQuant::symmetric(0.031); n];
        let mut codes: Vec<i8> = (0..n * c * h * w)
            .map(|v| ((v * 3) % 90) as i8 - 40)
            .collect();
        let mut s_sparse = ConvDeltaState::new();
        let mut s_dense = ConvDeltaState::new();
        for step in 0..3 {
            if step > 0 {
                for v in &mut codes[h * w..2 * h * w] {
                    *v = v.wrapping_add(1);
                }
            }
            let changed = vec![false; n * c]; // exact diff supplies the mask
            let a = conv2d_i8_packed_delta_multi(
                &pw,
                &codes,
                n,
                c,
                h,
                w,
                kh,
                kw,
                None,
                geom,
                &xqs,
                &changed,
                &mut s_sparse,
                1.5,
            )
            .unwrap();
            let b = conv2d_i8_packed_delta_multi(
                &pw,
                &codes,
                n,
                c,
                h,
                w,
                kh,
                kw,
                None,
                geom,
                &xqs,
                &changed,
                &mut s_dense,
                0.0,
            )
            .unwrap();
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}");
            }
        }
        assert_eq!(s_sparse.delta_steps, 2);
        assert_eq!(s_dense.delta_steps, 2);
    }

    #[test]
    fn transpose_i8_round_trips() {
        let src: Vec<i8> = (0..15).map(|v| v as i8 - 7).collect();
        let t = transpose_i8(&src, 3, 5).unwrap();
        assert_eq!(t[0], src[0]);
        assert_eq!(t[1], src[5]);
        assert_eq!(transpose_i8(&t, 5, 3).unwrap(), src);
        assert!(transpose_i8(&src, 4, 5).is_err());
    }

    #[test]
    fn im2col_i8_matches_f32_im2col_layout() {
        let codes: Vec<i8> = (0..2 * 2 * 4 * 4).map(|v| (v % 17) as i8 - 8).collect();
        let geom = Conv2dGeometry::new(2, 1);
        let ic = im2col_i8(&codes, 2, 2, 4, 4, 3, 3, geom, 0).unwrap();
        let xf = Tensor::from_vec(codes.iter().map(|&v| v as f32).collect(), [2, 2, 4, 4]).unwrap();
        let fc = crate::ops::im2col(&xf, 3, 3, geom).unwrap();
        assert_eq!(ic.len(), fc.len());
        for (a, b) in ic.iter().zip(fc.as_slice()) {
            assert_eq!(*a as f32, *b);
        }
    }

    #[test]
    fn im2col_i8_pads_with_zero_point_code() {
        // 1x1x2x2 input, 3x3 kernel, padding 1: corners of the matrix are
        // entirely padding and must carry the zero-point code.
        let codes: Vec<i8> = vec![1, 2, 3, 4];
        let ic = im2col_i8(&codes, 1, 1, 2, 2, 3, 3, Conv2dGeometry::same(3), 5).unwrap();
        // Row 0 (ky=0, kx=0) column 0 (oy=0, ox=0) reads input (-1, -1): pad.
        assert_eq!(ic[0], 5);
        // Center row (ky=1, kx=1) is the identity gather: no padding.
        let center = 4; // (ky * kw + kx) with ky = kx = 1
        assert_eq!(&ic[center * 4..center * 4 + 4], &[1, 2, 3, 4]);
    }

    #[test]
    fn conv2d_i8_matches_f32_conv_on_pow2_scales() {
        // Codes and power-of-two scales: the f32 conv over dequantized
        // operands is exact, so the integer path must match bitwise.
        let xc: Vec<i8> = (0..50).map(|v| ((v * 29) % 255) as i8).collect(); // [1, 2, 5, 5]
        let wc: Vec<i8> = (0..54).map(|v| ((v * 37) % 251) as i8).collect(); // [3, 2, 3, 3]
        let w_scales = vec![0.5f32, 0.25, 0.125];
        let xq = XQuant::symmetric(0.0625);
        let bias = vec![0.75f32, -1.5, 3.0];
        let geom = Conv2dGeometry::same(3);

        let wq = QuantizedMatrix::per_channel(wc.clone(), 3, 18, w_scales.clone()).unwrap();
        let yi = conv2d_i8(&xc, 1, 2, 5, 5, &wq, 3, 3, Some(&bias), geom, xq).unwrap();

        let xf = Tensor::from_vec(
            xc.iter().map(|&v| v as f32 * xq.scale).collect(),
            [1, 2, 5, 5],
        )
        .unwrap();
        let wf = Tensor::from_vec(
            wc.iter()
                .enumerate()
                .map(|(i, &v)| v as f32 * w_scales[i / 18])
                .collect(),
            [3, 2, 3, 3],
        )
        .unwrap();
        let bf = Tensor::from_vec(bias.clone(), [3]).unwrap();
        let yf = crate::ops::conv2d(&xf, &wf, Some(&bf), geom).unwrap();
        assert_eq!(yi.dims(), yf.dims());
        for (a, b) in yi.as_slice().iter().zip(yf.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let w = QuantizedMatrix::per_channel(vec![1, 2, 3, 4], 2, 2, vec![1.0, 1.0]).unwrap();
        let xq = XQuant::symmetric(1.0);
        let mut out = vec![0.0f32; 4];
        assert!(qgemm(&w, &[1i8; 5], 2, xq, &mut out).is_err());
        assert!(qgemm(&w, &[1i8; 4], 2, xq, &mut [0.0f32; 3]).is_err());
        assert!(qgemm_delta(&w, &[1; 4], &[1; 3], &[true; 2], 2, xq, &[0.0; 4], &mut out).is_err());
        assert!(qgemm_delta(&w, &[1; 4], &[1; 4], &[true; 3], 2, xq, &[0.0; 4], &mut out).is_err());
        assert!(QuantizedMatrix::new(vec![1], 1, 2, vec![1.0], 2).is_err());
        assert!(QuantizedMatrix::new(vec![1, 2], 1, 2, vec![1.0, 1.0], 1).is_ok());
        assert!(QuantizedMatrix::new(vec![1, 2], 1, 2, vec![1.0], 0).is_err());
        assert!(im2col_i8(&[1i8; 3], 1, 1, 2, 2, 3, 3, Conv2dGeometry::same(3), 0).is_err());
    }

    /// Builds an arbitrary blocked 6x8 weight matrix shared by the multi
    /// tests.
    fn multi_test_weight() -> QuantizedMatrix {
        let codes: Vec<i8> = (0..6 * 8).map(|v| ((v * 23) % 251) as i8).collect();
        let scales: Vec<f32> = (0..12).map(|v| 0.002 + v as f32 * 3e-4).collect();
        QuantizedMatrix::new(codes, 6, 8, scales, 4).unwrap()
    }

    #[test]
    fn qgemm_multi_is_bitwise_identical_to_per_request_calls() {
        let w = multi_test_weight();
        let k = w.cols();
        let stripe = 5;
        // Three requests with distinct scales *and* zero points.
        let xqs = [
            XQuant {
                scale: 0.03,
                zero_point: 2,
            },
            XQuant::symmetric(0.011),
            XQuant {
                scale: 0.25,
                zero_point: -7,
            },
        ];
        // Per-request code matrices [k, stripe], then packed side by side.
        let per: Vec<Vec<i8>> = (0..3)
            .map(|r| {
                (0..k * stripe)
                    .map(|v| ((v * 7 + r * 31) % 229) as i8)
                    .collect()
            })
            .collect();
        let n = stripe * xqs.len();
        let mut packed = vec![0i8; k * n];
        for row in 0..k {
            for (r, p) in per.iter().enumerate() {
                packed[row * n + r * stripe..row * n + (r + 1) * stripe]
                    .copy_from_slice(&p[row * stripe..(row + 1) * stripe]);
            }
        }
        for threads in [1usize, 2, 7] {
            with_threads(threads, || {
                let mut batched = vec![0.0f32; w.rows() * n];
                qgemm_multi(&w, &packed, stripe, &xqs, &mut batched).unwrap();
                for (r, p) in per.iter().enumerate() {
                    let mut single = vec![0.0f32; w.rows() * stripe];
                    qgemm(&w, p, stripe, xqs[r], &mut single).unwrap();
                    for i in 0..w.rows() {
                        for j in 0..stripe {
                            let b = batched[i * n + r * stripe + j];
                            let s = single[i * stripe + j];
                            assert_eq!(
                                b.to_bits(),
                                s.to_bits(),
                                "request {r} ({i},{j}) at {threads} threads: {b} vs {s}"
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn qgemm_delta_multi_applies_each_streams_own_mask() {
        let w = multi_test_weight();
        let k = w.cols();
        let stripe = 4;
        let xqs = [XQuant::symmetric(0.02), XQuant::symmetric(0.05)];
        // Stream 0 changes rows {1, 6}; stream 1 changes rows {0, 3, 7}.
        let masks = [
            [false, true, false, false, false, false, true, false],
            [true, false, false, true, false, false, false, true],
        ];
        let prev: Vec<Vec<i8>> = (0..2)
            .map(|r| {
                (0..k * stripe)
                    .map(|v| ((v * 13 + r * 17) % 211) as i8)
                    .collect()
            })
            .collect();
        let curr: Vec<Vec<i8>> = prev
            .iter()
            .zip(masks.iter())
            .map(|(p, m)| {
                let mut c = p.clone();
                for (row, &ch) in m.iter().enumerate() {
                    if ch {
                        for v in &mut c[row * stripe..(row + 1) * stripe] {
                            *v = v.wrapping_add(4);
                        }
                    }
                }
                c
            })
            .collect();
        let pack = |srcs: &[Vec<i8>]| {
            let n = stripe * srcs.len();
            let mut out = vec![0i8; k * n];
            for row in 0..k {
                for (r, p) in srcs.iter().enumerate() {
                    out[row * n + r * stripe..row * n + (r + 1) * stripe]
                        .copy_from_slice(&p[row * stripe..(row + 1) * stripe]);
                }
            }
            out
        };
        let n = stripe * 2;
        let packed_prev = pack(&prev);
        let packed_curr = pack(&curr);
        let flat_mask: Vec<bool> = masks.iter().flatten().copied().collect();
        let mut prev_out = vec![0.0f32; w.rows() * n];
        qgemm_multi(&w, &packed_prev, stripe, &xqs, &mut prev_out).unwrap();
        for threads in [1usize, 2, 7] {
            with_threads(threads, || {
                let mut batched = vec![0.0f32; w.rows() * n];
                qgemm_delta_multi(
                    &w,
                    &packed_curr,
                    &packed_prev,
                    &flat_mask,
                    stripe,
                    &xqs,
                    &prev_out,
                    &mut batched,
                )
                .unwrap();
                for r in 0..2 {
                    let mut sprev = vec![0.0f32; w.rows() * stripe];
                    qgemm(&w, &prev[r], stripe, xqs[r], &mut sprev).unwrap();
                    let mut single = vec![0.0f32; w.rows() * stripe];
                    qgemm_delta(
                        &w,
                        &curr[r],
                        &prev[r],
                        &masks[r],
                        stripe,
                        xqs[r],
                        &sprev,
                        &mut single,
                    )
                    .unwrap();
                    for i in 0..w.rows() {
                        for j in 0..stripe {
                            let b = batched[i * n + r * stripe + j];
                            let s = single[i * stripe + j];
                            assert_eq!(
                                b.to_bits(),
                                s.to_bits(),
                                "stream {r} ({i},{j}) at {threads} threads"
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn conv2d_i8_multi_matches_per_sample_convs_bitwise() {
        let (n, c, h, w_ext) = (3usize, 2usize, 5usize, 4usize);
        let geom = Conv2dGeometry::same(3);
        let wq = QuantizedMatrix::per_channel(
            (0..2 * 18).map(|v| ((v * 41) % 253) as i8).collect(),
            2,
            18,
            vec![0.004, 0.009],
        )
        .unwrap();
        let bias = [0.5f32, -0.25];
        let xqs = [
            XQuant::symmetric(0.02),
            XQuant {
                scale: 0.05,
                zero_point: 3,
            },
            XQuant::symmetric(0.013),
        ];
        let stride = c * h * w_ext;
        let codes: Vec<i8> = (0..n * stride).map(|v| ((v * 29) % 241) as i8).collect();
        let batched =
            conv2d_i8_multi(&codes, n, c, h, w_ext, &wq, 3, 3, Some(&bias), geom, &xqs).unwrap();
        for nn in 0..n {
            let single = conv2d_i8(
                &codes[nn * stride..(nn + 1) * stride],
                1,
                c,
                h,
                w_ext,
                &wq,
                3,
                3,
                Some(&bias),
                geom,
                xqs[nn],
            )
            .unwrap();
            let per = single.len();
            for (j, (&b, &s)) in batched.as_slice()[nn * per..(nn + 1) * per]
                .iter()
                .zip(single.as_slice())
                .enumerate()
            {
                assert_eq!(b.to_bits(), s.to_bits(), "sample {nn} element {j}");
            }
        }
    }

    #[test]
    fn multi_kernels_report_shape_errors() {
        let w = QuantizedMatrix::per_channel(vec![1, 2, 3, 4], 2, 2, vec![1.0, 1.0]).unwrap();
        let xqs = [XQuant::symmetric(1.0), XQuant::symmetric(0.5)];
        let mut out = vec![0.0f32; 2 * 2 * 2];
        // Wrong code length for 2 stripes of width 2.
        assert!(qgemm_multi(&w, &[1i8; 7], 2, &xqs, &mut out).is_err());
        // Mask length must be streams x k.
        assert!(qgemm_delta_multi(
            &w, &[1i8; 8], &[1i8; 8], &[true; 3], 2, &xqs, &[0.0; 8], &mut out,
        )
        .is_err());
        // Per-request quantization list must match the batch size.
        assert!(conv2d_i8_multi(
            &[1i8; 8],
            2,
            1,
            2,
            2,
            &QuantizedMatrix::per_channel(vec![1; 4], 1, 4, vec![1.0]).unwrap(),
            2,
            2,
            None,
            Conv2dGeometry::new(1, 0),
            &xqs[..1],
        )
        .is_err());
        assert!(im2col_i8_multi(
            &[1i8; 8],
            2,
            1,
            2,
            2,
            2,
            2,
            Conv2dGeometry::new(1, 0),
            &[0, 0, 0],
        )
        .is_err());
    }

    #[test]
    fn empty_operands_yield_empty_or_zero() {
        let w = QuantizedMatrix::per_channel(Vec::new(), 0, 3, Vec::new()).unwrap();
        let mut out = Vec::new();
        qgemm(&w, &[1i8; 6], 2, XQuant::symmetric(1.0), &mut out).unwrap();
        // Zero-length reduction: no scale blocks exist, output is zeroed.
        let wk0 = QuantizedMatrix::per_channel(Vec::new(), 2, 0, Vec::new()).unwrap();
        let mut out2 = vec![9.0f32; 4];
        qgemm(&wk0, &[], 2, XQuant::symmetric(1.0), &mut out2).unwrap();
        assert_eq!(out2, vec![0.0; 4]);
    }
}
