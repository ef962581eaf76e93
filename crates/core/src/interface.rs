//! The functional persistent-threads interpreter — the Fig 7
//! programming interface.
//!
//! Each thread block walks its `[Tile[b], Tile[b+1])` range, parses the
//! GEMM and tile information from the auxiliary arrays, and executes the
//! Fig 2 main loop for that tile: accumulate over K in `BK` chunks, then
//! write back `alpha * acc + beta * C`. Blocks run in parallel on the
//! persistent pool of the rayon shim, whose helpers claim work from one
//! atomic cursor the way persistent blocks loop over their tiles — they
//! own disjoint C tiles by construction (validated by
//! [`ctb_batching::BatchPlan::validate`]), mirroring the CUDA execution
//! model where each tile is produced by exactly one block.
//!
//! Two executors are provided:
//!
//! * [`execute_plan`] — the packed micro-kernel engine. Tiles are
//!   bucketed per (GEMM, tile-row) and each output matrix is split into
//!   disjoint row bands, so every band is computed and written by
//!   exactly one worker with no intermediate tile buffers. The inner
//!   loop is a 4×NR register-tile kernel over hoisted A-row slices with
//!   a scalar fallback for boundary fringes, dispatched once per process
//!   to an AVX2 entry (`NR = 16`) or the portable body (`NR = 8`); the
//!   alpha/beta epilogue is folded into the single per-worker
//!   accumulator pass. Batches below `INLINE_FLOPS` run inline on the
//!   caller instead of waking the pool.
//! * [`execute_plan_unpacked`] — the original collect-then-scatter
//!   interpreter, kept as the A/B baseline for the perf harness.
//!
//! Both paths, and every tile-kernel entry, apply every floating-point
//! operation to each C element in the same order (ascending k with a
//! separately rounded multiply and add — never a fused multiply-add —
//! then `alpha * acc + beta * c`), so their results are bitwise
//! identical to each other and to `GemmBatch::reference_result_exact`.

use std::cell::RefCell;
use std::sync::OnceLock;

use ctb_batching::BatchPlan;
use ctb_matrix::{GemmBatch, MatF32};
use ctb_tiling::TilingStrategy;
use rayon::prelude::*;

// ---------------------------------------------------------------------------
// Packed engine
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-worker accumulator scratch, reused across every tile a worker
    /// executes. Grows to the largest `by * bx` seen and is never freed
    /// until the thread exits, so the steady-state hot loop performs no
    /// heap allocation.
    static TILE_ACC: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// One row band of one output matrix together with the tiles that land
/// in it. Bands of the same matrix are produced by `chunks_mut`, so
/// ownership is disjoint by construction and the scatter needs no
/// synchronisation.
struct BandJob<'a> {
    gemm: usize,
    strategy: TilingStrategy,
    /// First matrix row covered by this band.
    y0: usize,
    /// `rows_in_band * n` slice of the output matrix.
    band: &'a mut [f32],
    /// Tile indices (into the plan's flat tile arrays) in this band.
    tiles: Vec<usize>,
}

/// A tile-kernel entry: accumulate one `rows × cols` C tile whose
/// top-left corner is `(y0, x0)` into `acc` (row-major, zeroed), for an
/// `m × kdim` A and a `kdim × n` B.
type TileKernel = fn(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
);

/// Rows of the register tile: four A scalars are broadcast per K step.
const MR: usize = 4;

/// The widest tile kernel the host supports, chosen once per process:
/// the AVX2 entry when the CPU has it, the portable body otherwise.
fn tile_kernel() -> TileKernel {
    static KERNEL: OnceLock<TileKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| avx2_tile_kernel().unwrap_or(tile_kernel_portable))
}

/// The portable entry: `NR = 8` columns per register tile, which
/// compiles to two 128-bit vectors per accumulator row on baseline
/// x86-64.
#[allow(clippy::too_many_arguments)]
fn tile_kernel_portable(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
) {
    tile_kernel_body::<8>(a, b, kdim, n, y0, x0, rows, cols, acc);
}

/// The AVX2 entry if the host supports AVX2, else `None`.
fn avx2_tile_kernel() -> Option<TileKernel> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[allow(clippy::too_many_arguments)]
        fn entry(
            a: &[f32],
            b: &[f32],
            kdim: usize,
            n: usize,
            y0: usize,
            x0: usize,
            rows: usize,
            cols: usize,
            acc: &mut [f32],
        ) {
            // SAFETY: `entry` is only handed out after the runtime check
            // above found AVX2.
            unsafe { tile_kernel_avx2(a, b, kdim, n, y0, x0, rows, cols, acc) }
        }
        return Some(entry);
    }
    None
}

/// `NR = 16` columns per register tile: two 256-bit vectors per
/// accumulator row, eight YMM registers for the 4×16 tile. FMA is
/// deliberately *not* enabled: a fused multiply-add rounds once where
/// the exact oracle rounds twice, and every element must replay the
/// oracle's `acc += a * b` sequence bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tile_kernel_avx2(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
) {
    tile_kernel_body::<16>(a, b, kdim, n, y0, x0, rows, cols, acc);
}

/// The tile kernel body, reading A rows as hoisted slices. The interior
/// runs an `MR × NR` register-packed kernel: each K step broadcasts four
/// A scalars against one contiguous B row segment, updating four
/// accumulator rows at once (B is read once per four C rows instead of
/// once per row). When `NR > 8` an 8-wide pass takes the next eight
/// columns before the scalar column fringe; leftover rows fall back to
/// a scalar single-row loop. Every element accumulates in ascending-k
/// order with a separately rounded multiply and add, so results are
/// bitwise identical to the naive per-element loop for any `NR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_kernel_body<const NR: usize>(
    a: &[f32],
    b: &[f32],
    kdim: usize,
    n: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    acc: &mut [f32],
) {
    debug_assert_eq!(acc.len(), rows * cols);
    let mut i = 0;
    while i + MR <= rows {
        let ra = [
            &a[(y0 + i) * kdim..(y0 + i) * kdim + kdim],
            &a[(y0 + i + 1) * kdim..(y0 + i + 1) * kdim + kdim],
            &a[(y0 + i + 2) * kdim..(y0 + i + 2) * kdim + kdim],
            &a[(y0 + i + 3) * kdim..(y0 + i + 3) * kdim + kdim],
        ];
        let mut j = 0;
        while j + NR <= cols {
            register_tile::<NR>(&ra, b, n, x0 + j, &mut acc[i * cols + j..], cols);
            j += NR;
        }
        if NR > 8 && j + 8 <= cols {
            register_tile::<8>(&ra, b, n, x0 + j, &mut acc[i * cols + j..], cols);
            j += 8;
        }
        // Column fringe of the 4-row band: one accumulator row segment
        // at a time, still ascending-k per element.
        if j < cols {
            for (r, ri) in ra.iter().enumerate() {
                let arow = &mut acc[(i + r) * cols + j..(i + r) * cols + cols];
                for (p, &av) in ri.iter().enumerate() {
                    let brow = &b[p * n + x0 + j..p * n + x0 + cols];
                    for (dst, &bv) in arow.iter_mut().zip(brow) {
                        *dst += av * bv;
                    }
                }
            }
        }
        i += MR;
    }
    // Row fringe (boundary tiles): one accumulator row at a time.
    while i < rows {
        let ri = &a[(y0 + i) * kdim..(y0 + i) * kdim + kdim];
        let arow = &mut acc[i * cols..(i + 1) * cols];
        for (p, &av) in ri.iter().enumerate() {
            let brow = &b[p * n + x0..p * n + x0 + cols];
            for (dst, &bv) in arow.iter_mut().zip(brow) {
                *dst += av * bv;
            }
        }
        i += 1;
    }
}

/// One `MR × W` register tile starting at B column `bx`: A scalars
/// broadcast against one contiguous B panel per K step; `regs` and
/// `brow` stay in registers (the loops over rows and lanes fully
/// unroll). Row `r` of the result lands at `out[r * cols..][..W]`.
#[inline(always)]
fn register_tile<const W: usize>(
    ra: &[&[f32]; MR],
    b: &[f32],
    n: usize,
    bx: usize,
    out: &mut [f32],
    cols: usize,
) {
    let mut regs = [[0.0f32; W]; MR];
    for p in 0..ra[0].len() {
        let off = p * n + bx;
        let brow: &[f32; W] = b[off..off + W].try_into().expect("a W-element slice");
        for (regs_r, ar) in regs.iter_mut().zip(ra) {
            let av = ar[p];
            for (reg, &bv) in regs_r.iter_mut().zip(brow) {
                *reg += av * bv;
            }
        }
    }
    for (r, regs_r) in regs.iter().enumerate() {
        out[r * cols..r * cols + W].copy_from_slice(regs_r);
    }
}

/// Batches below this many FLOPs run every band job inline on the
/// calling thread instead of fanning out to the pool: handing work to a
/// sleeping helper costs a futex wake-up and a cold start on another
/// core, tens of microseconds, against about 40 µs per MFLOP for one
/// thread of the AVX2 kernel. Measured on a 2-vCPU x86-64 host (AVX2),
/// median of 300 runs of one GEMM: 16×784×192 (4.8 MFLOP) took 136 µs
/// inline and 160 µs fanned out, 32×196×528 (6.6 MFLOP) 240 µs inline
/// and 190 µs fanned out. Under concurrent serving the other workers
/// keep the remaining cores busy anyway.
const INLINE_FLOPS: u64 = 4_000_000;

/// Execute a batch plan with the packed micro-kernel engine.
///
/// The output matrices start as clones of C and are split into disjoint
/// tile-row bands (`chunks_mut` of `by * n` elements). All bands across
/// all GEMMs form one flat job list executed in a single parallel pass
/// (inline on the caller below `INLINE_FLOPS`); each job accumulates
/// its tiles in per-worker thread-local scratch and writes
/// `alpha * acc + beta * C` straight into its band — no intermediate
/// tile buffers and no serial scatter.
///
/// If a GEMM's tiles carry heterogeneous tiling ids (which
/// [`ctb_tiling::select_tiling`] never produces, but a hand-built plan
/// could), the banded partition is ill-defined and execution falls back
/// to [`execute_plan_unpacked`].
pub fn execute_plan(batch: &GemmBatch, plan: &BatchPlan) -> Vec<MatF32> {
    execute_plan_with(batch, plan, tile_kernel())
}

/// [`execute_plan`] with an explicit tile-kernel entry.
fn execute_plan_with(batch: &GemmBatch, plan: &BatchPlan, kernel: TileKernel) -> Vec<MatF32> {
    let ngemms = batch.shapes.len();

    // Per-GEMM strategy id; every tile of a GEMM must agree for the
    // band partition to be well defined.
    let mut sid: Vec<Option<u8>> = vec![None; ngemms];
    for t in 0..plan.num_tiles() {
        let g = plan.gemm[t];
        match sid[g] {
            None => sid[g] = Some(plan.tiling[t]),
            Some(s) if s != plan.tiling[t] => return execute_plan_unpacked(batch, plan),
            _ => {}
        }
    }

    // Bucket tiles per (GEMM, tile-row).
    let mut buckets: Vec<Vec<Vec<usize>>> = (0..ngemms)
        .map(|g| match sid[g] {
            Some(id) => {
                let by = TilingStrategy::from_id(id).by;
                vec![Vec::new(); batch.shapes[g].m.div_ceil(by)]
            }
            None => Vec::new(),
        })
        .collect();
    for t in 0..plan.num_tiles() {
        buckets[plan.gemm[t]][plan.y_coord[t]].push(t);
    }

    let mut out: Vec<MatF32> = batch.c.clone();

    // Flatten every (GEMM, band) pair into one job list.
    let mut jobs: Vec<BandJob<'_>> = Vec::new();
    for (g, mat) in out.iter_mut().enumerate() {
        let Some(id) = sid[g] else { continue };
        let strategy = TilingStrategy::from_id(id);
        let n = batch.shapes[g].n;
        for (ty, band) in mat.as_mut_slice().chunks_mut(strategy.by * n).enumerate() {
            let tiles = std::mem::take(&mut buckets[g][ty]);
            if tiles.is_empty() {
                continue;
            }
            jobs.push(BandJob { gemm: g, strategy, y0: ty * strategy.by, band, tiles });
        }
    }

    let run = |job: BandJob<'_>| {
        let shape = batch.shapes[job.gemm];
        let a = batch.a[job.gemm].as_slice();
        let b = batch.b[job.gemm].as_slice();
        let (alpha, beta) = (batch.alpha, batch.beta);
        let st = job.strategy;
        TILE_ACC.with(|cell| {
            let mut acc = cell.borrow_mut();
            for &t in &job.tiles {
                let x0 = plan.x_coord[t] * st.bx;
                let y0 = job.y0;
                let rows = (shape.m - y0).min(st.by);
                let cols = (shape.n - x0).min(st.bx);
                acc.clear();
                acc.resize(rows * cols, 0.0);
                kernel(a, b, shape.k, shape.n, y0, x0, rows, cols, &mut acc);
                // Epilogue folded into the accumulator pass: read the
                // original C from the band, write the result back in
                // place. Each element belongs to exactly one tile, so
                // nothing is read after it is written.
                for i in 0..rows {
                    let base = i * shape.n + x0;
                    let dst = &mut job.band[base..base + cols];
                    let src = &acc[i * cols..(i + 1) * cols];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = alpha * s + beta * *d;
                    }
                }
            }
        });
    };
    if batch.total_flops() < INLINE_FLOPS {
        jobs.into_iter().for_each(run);
    } else {
        jobs.into_par_iter().for_each(run);
    }

    out
}

// ---------------------------------------------------------------------------
// Unpacked baseline (the original interpreter)
// ---------------------------------------------------------------------------

/// One computed C tile, ready to scatter.
struct TileResult {
    gemm: usize,
    y0: usize,
    x0: usize,
    rows: usize,
    cols: usize,
    /// Row-major `rows × cols` values.
    data: Vec<f32>,
}

/// Execute the Fig 2 main loop for one tile, returning its C values.
fn run_tile(
    batch: &GemmBatch,
    gemm: usize,
    strategy: &TilingStrategy,
    ty: usize,
    tx: usize,
) -> TileResult {
    let shape = batch.shapes[gemm];
    let (a, b, c) = (&batch.a[gemm], &batch.b[gemm], &batch.c[gemm]);
    let y0 = ty * strategy.by;
    let x0 = tx * strategy.bx;
    let rows = (shape.m - y0).min(strategy.by);
    let cols = (shape.n - x0).min(strategy.bx);

    // reg_C accumulators for the whole tile (each simulated thread owns
    // a sub_y x sub_x sub-tile of this buffer).
    let mut acc = vec![0.0f32; rows * cols];
    let bk = strategy.bk;
    // Main loop along the K dimension, one BK chunk per iteration.
    let mut k0 = 0;
    while k0 < shape.k {
        let k1 = (k0 + bk).min(shape.k);
        for i in 0..rows {
            for p in k0..k1 {
                let av = a.get(y0 + i, p);
                let brow = &b.as_slice()[p * shape.n + x0..p * shape.n + x0 + cols];
                let arow = &mut acc[i * cols..(i + 1) * cols];
                for (dst, &bv) in arow.iter_mut().zip(brow) {
                    *dst += av * bv;
                }
            }
        }
        k0 = k1;
    }

    // Epilogue: C = alpha * acc + beta * C.
    let mut data = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            data[i * cols + j] = batch.alpha * acc[i * cols + j] + batch.beta * c.get(y0 + i, x0 + j);
        }
    }
    TileResult { gemm, y0, x0, rows, cols, data }
}

/// Execute a batch plan with the original collect-then-scatter
/// interpreter: every block computes its tiles into freshly allocated
/// buffers, then a serial pass scatters them into clones of C. Kept as
/// the A/B baseline for `reproduce perf` and the criterion benches.
pub fn execute_plan_unpacked(batch: &GemmBatch, plan: &BatchPlan) -> Vec<MatF32> {
    // The Fig 7 outer structure: parallel over thread blocks, serial
    // over the tiles of a block.
    let results: Vec<TileResult> = (0..plan.num_blocks())
        .into_par_iter()
        .flat_map_iter(|blk| {
            let begin = plan.tile[blk];
            let end = plan.tile[blk + 1];
            (begin..end).map(|t| {
                let gemm = plan.gemm[t];
                let strategy = TilingStrategy::from_id(plan.tiling[t]);
                run_tile(batch, gemm, &strategy, plan.y_coord[t], plan.x_coord[t])
            })
        })
        .collect();

    let mut out: Vec<MatF32> = batch.c.clone();
    for r in results {
        let n = out[r.gemm].cols();
        let buf = out[r.gemm].as_mut_slice();
        for i in 0..r.rows {
            let dst = &mut buf[(r.y0 + i) * n + r.x0..(r.y0 + i) * n + r.x0 + r.cols];
            dst.copy_from_slice(&r.data[i * r.cols..(i + 1) * r.cols]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_batching::{assign_blocks, tiles_for, BatchingHeuristic};
    use ctb_gpu_specs::Thresholds;
    use ctb_matrix::{assert_all_close, assert_bitwise_eq, GemmShape};
    use ctb_tiling::select_tiling;

    fn run_case(shapes: &[GemmShape], heuristic: BatchingHeuristic, alpha: f32, beta: f32) {
        let th = Thresholds::paper_v100();
        let batch = GemmBatch::random(shapes, alpha, beta, 42);
        let sol = select_tiling(shapes, &th);
        let tiles = tiles_for(shapes, &sol);
        let blocks = assign_blocks(&tiles, heuristic, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        plan.validate(shapes, &sol).expect("valid plan");
        let got = execute_plan(&batch, &plan);
        let expect = batch.reference_result();
        assert_all_close(&expect, &got, 2e-4);
        // The packed engine must agree with the original interpreter
        // bitwise: both accumulate each element in ascending-k order and
        // apply the identical epilogue expression.
        let unpacked = execute_plan_unpacked(&batch, &plan);
        for (g, (p, u)) in got.iter().zip(&unpacked).enumerate() {
            assert_eq!(
                p.as_slice(),
                u.as_slice(),
                "packed and unpacked diverge on gemm {g}"
            );
        }
    }

    #[test]
    fn worked_example_computes_correct_results() {
        let shapes = [
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ];
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            run_case(&shapes, h, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_are_honoured() {
        run_case(&[GemmShape::new(48, 80, 96)], BatchingHeuristic::Threshold, 0.75, -1.5);
    }

    #[test]
    fn non_divisible_sizes_compute_boundary_tiles() {
        run_case(
            &[GemmShape::new(17, 33, 41), GemmShape::new(100, 50, 23)],
            BatchingHeuristic::Binary,
            1.0,
            1.0,
        );
    }

    #[test]
    fn random_variable_batches_match_reference() {
        use ctb_matrix::gen::random_case;
        // Keep it small: correctness, not throughput.
        let shapes: Vec<GemmShape> = random_case(3)
            .into_iter()
            .take(6)
            .map(|s| GemmShape::new(s.m.min(128), s.n.min(128), s.k.min(128)))
            .collect();
        run_case(&shapes, BatchingHeuristic::Threshold, 1.0, 0.5);
        run_case(&shapes, BatchingHeuristic::Binary, 1.0, 0.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Every tile-kernel entry the host can run replays the exact
        /// oracle bit for bit: ragged column edges (`n % 8 != 0`, so
        /// tiles end in the 8-wide pass and the scalar fringe), `K = 0`,
        /// and NaN / ±Inf operands anywhere in A, B or C.
        #[test]
        fn isa_kernels_match_reference_exact_bitwise(
            dims in proptest::collection::vec((1usize..70, 1usize..150, 1usize..80, 0usize..5), 1..=4),
            poison in proptest::collection::vec((0usize..4, 0usize..3, 0usize..1_000_000, 0usize..3), 0..=4),
            scalars in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let shapes: Vec<GemmShape> = dims
                .iter()
                .map(|&(m, n, k, zero_k)| {
                    let n = if n % 8 == 0 { n + 1 + n % 7 } else { n };
                    GemmShape::new(m, n, if zero_k == 0 { 0 } else { k })
                })
                .collect();
            let (alpha, beta) = [(1.0f32, 0.0f32), (1.0, 1.0), (0.5, -1.25), (0.0, 0.5)][scalars];
            let mut batch = GemmBatch::random(&shapes, alpha, beta, seed);
            for &(g, operand, pos, kind) in &poison {
                let g = g % shapes.len();
                let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
                let mat = match operand {
                    0 => &mut batch.a[g],
                    1 => &mut batch.b[g],
                    _ => &mut batch.c[g],
                };
                let (rows, cols) = (mat.rows(), mat.cols());
                if rows * cols > 0 {
                    let at = pos % (rows * cols);
                    mat.set(at / cols, at % cols, value);
                }
            }

            let th = Thresholds::paper_v100();
            let sol = select_tiling(&shapes, &th);
            let tiles = tiles_for(&shapes, &sol);
            let blocks =
                assign_blocks(&tiles, BatchingHeuristic::Threshold, &th, sol.thread_count.threads());
            let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
            let expected = batch.reference_result_exact();
            let entries = [("portable", Some(tile_kernel_portable as TileKernel)), ("avx2", avx2_tile_kernel())];
            for (name, kernel) in entries {
                let Some(kernel) = kernel else { continue };
                let got = execute_plan_with(&batch, &plan, kernel);
                assert_bitwise_eq(&expected, &got, &format!("{name} on {shapes:?}"));
            }
        }
    }
}
