//! 2-D convolution kernels: a fused im2col-into-packing forward and a
//! backward that never materializes the column matrix. The plain
//! [`im2col`] / [`col2im`] pair stays as the test oracle.
//!
//! ## Fused column packing
//!
//! [`im2col_packed`] writes receptive-field patches **directly** into
//! the blocked GEMM's `pack_b` panel layout (a [`PackedPanels`] value
//! holding the *transposed* column matrix `colsᵀ`, logical shape
//! `patch × rows`) — no intermediate column tensor, no second copy
//! inside the GEMM. It walks that layout in storage order, one
//! `kc × NR` panel at a time: the conv geometry is decoded once per
//! patch element (a per-call tap table) and once per panel lane, so the
//! inner loop locates each source pixel with adds and bounds compares
//! instead of a division chain per element. The forward product is then
//! `prodᵀ = W · colsᵀ` via [`gemm_prepacked`](super::gemm::gemm_prepacked).
//!
//! ## Backward
//!
//! The graph layer keeps the forward's panels on the tape node, and
//! [`conv2d_backward_packed`] uses them for both gradients:
//!
//! * **`dW`.** `dWᵀ = colsᵀ · g` via
//!   [`gemm_panels_a`](super::gemm::gemm_panels_a), with the panels as
//!   the GEMM's `A` operand. The `A` packer copies them one `MR × NR`
//!   block at a time instead of decoding every element's position.
//! * **`dx`.** The product `dcols = g · Wmat` (`rows × patch`) is never
//!   stored whole. One sample is the parallel unit, since a pixel only
//!   receives contributions from its own sample's rows. For each
//!   `MC`-row block of that sample's output positions, the blocked
//!   kernel's chunk routine forms the block of `dcols` in a small
//!   scratch buffer, with `Wmat` packed once per call. The block's rows
//!   are then folded, ascending, into the sample's input gradient
//!   through the same tap table the unfold uses.
//!
//! ### Why none of this can change rounding
//!
//! Relative to the unfused reference (`cols · Wᵀ` and `gᵀ · cols`),
//! the transposed products swap the two factors of each scalar
//! multiply while keeping the identical ascending-`k` reduction order
//! with one accumulator per output element. `f32` multiplication is
//! commutative at the bit level for finite values and infinities, so
//! the fused path is bitwise-identical to the reference everywhere a
//! finite (or ±∞) product is formed. The only representable
//! divergence is NaN *payload* propagation when an operand is NaN
//! (the IEEE rule picks a payload from one operand, and which operand
//! is implementation-defined) — the same caveat the
//! [`matmul`](super::matmul) module documents for `0 · ∞`-style
//! non-finite inputs, and equally out of scope for the determinism
//! contract, which covers finite data.
//!
//! The `dx` fold equals `matmul(g, Wmat)` followed by [`col2im`] bit
//! for bit. Each patch value is the GEMM's own ascending-`c_out`
//! single-accumulator chain, whichever row block computes it. Each
//! input pixel starts at `+0.0` and receives its contributions in
//! ascending output-position order: blocks and their rows are folded
//! ascending, and one output position reaches a pixel through at most
//! one tap. That is exactly the `(oy, ox)` order in which `col2im` adds
//! them.
//!
//! Every loop here parallelizes over disjoint output regions on the
//! `sdc-runtime` pool: whole `NR`-column panels within one `KC` slab for
//! [`im2col_packed`], groups of whole channel maps or samples for the
//! layout copies, one sample for the `dx` fold, patch rows for
//! [`im2col`], channel images for [`col2im`]. The chunks are fixed by
//! the shape, every element is produced by exactly one chunk with the
//! serial accumulation order, and so outputs are bit-identical at any
//! thread count.

use crate::error::{Result, TensorError};
use crate::ops::gemm::{self, PackedPanels, Trans, KC, MC, NR};
use crate::par;
use crate::Tensor;

/// Whole `NR`-column panels per parallel chunk of [`im2col_packed`].
/// Fixed (never derived from the thread count) like every other chunk
/// size; any value gives the same bits, since each element is a copy.
const PANELS_PER_CHUNK: usize = 8;

/// Floats per parallel chunk of a layout copy (the forward's output
/// rearrange, the backward's gradient rearrange), rounded down to whole
/// units. One chunk per channel map cut the trainer's 6×6 convs into
/// hundreds of 36-float pieces, whose per-chunk dispatch cost made them
/// slower at 2 threads than at 1.
const COPY_CHUNK: usize = 8 * 1024;

/// Whole units per parallel chunk of a layout copy over `units` units of
/// `unit_len` floats each. A copy smaller than four chunks stays one
/// chunk, so it never pays a pool wake-up it cannot repay. It depends on
/// the shape only, never on the thread count.
fn copy_units_per_chunk(units: usize, unit_len: usize) -> usize {
    if units * unit_len < 4 * COPY_CHUNK {
        units.max(1)
    } else {
        (COPY_CHUNK / unit_len).max(1)
    }
}

/// Output spatial size for a convolution along one axis.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding - kernel) / stride + 1
}

/// Unfolds `x: (n, c, h, w)` into a matrix of shape
/// `(n * oh * ow, c * kh * kw)` whose rows are receptive-field patches.
///
/// Out-of-bounds (padding) positions contribute zeros.
pub fn im2col(x: &Tensor, kernel: usize, stride: usize, padding: usize) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "im2col",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let oh = conv_out_dim(h, kernel, stride, padding);
    let ow = conv_out_dim(w, kernel, stride, padding);
    let patch = c * kernel * kernel;
    let rows = n * oh * ow;
    let mut cols = Tensor::zeros([rows, patch]);
    let xd = x.data();
    let fill = |first_row: usize, piece: &mut [f32]| {
        for (r, prow) in piece.chunks_mut(patch).enumerate() {
            let row = first_row + r;
            let ni = row / (oh * ow);
            let rem = row % (oh * ow);
            let (oy, ox) = (rem / ow, rem % ow);
            for ci in 0..c {
                for ky in 0..kernel {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kernel {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let src = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                        prow[(ci * kernel + ky) * kernel + kx] = xd[src];
                    }
                }
            }
        }
    };
    par::dispatch_chunks(cols.data_mut(), par::ROW_CHUNK * patch, rows * patch, |ci, piece| {
        fill(ci * par::ROW_CHUNK, piece);
    });
    Ok(cols)
}

/// The geometry table shared by the unfold ([`im2col_packed`]) and the
/// backward fold ([`conv2d_backward_packed`]): for each patch element
/// `p = (ci, ky, kx)` in patch order, `(offset of the source pixel
/// relative to the output position's top-left pixel, ky − pad,
/// kx − pad)`. An output position whose top-left pixel is at
/// `(y0, x0) = (oy·stride, ox·stride)` reads patch element `p` from
/// `(y0 + ky − pad, x0 + kx − pad)` when that lies inside the image.
fn conv_taps(
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    padding: usize,
) -> Vec<(isize, isize, isize)> {
    let (wi, pad) = (w as isize, padding as isize);
    (0..c * kernel * kernel)
        .map(|p| {
            let (ci, ky, kx) = (p / (kernel * kernel), (p / kernel) % kernel, p % kernel);
            let (dy, dx) = (ky as isize - pad, kx as isize - pad);
            ((ci * h * w) as isize + dy * wi + dx, dy, dx)
        })
        .collect()
}

/// Unfolds `x: (n, c, h, w)` directly into the blocked GEMM's packed
/// `B` panel layout, fusing [`im2col`] with `pack_b`.
///
/// The result holds the **transposed** column matrix `colsᵀ` of
/// logical shape `(c * kh * kw, n * oh * ow)` — i.e. logical element
/// `(p, j)` is patch element `p` of output position `j` — ready to be
/// the `B` operand of `prodᵀ = W · colsᵀ` (forward) or the `A` operand
/// of `dWᵀ = colsᵀ · g` (backward) without any further packing pass.
///
/// The writer is panel-major: it walks the layout in storage order
/// (`KC` slab, then `NR`-column panel, then patch element, then lane)
/// and finds each source pixel by adding precomputed offsets, never by
/// dividing. Per call it tabulates every patch element's
/// `(source offset, ky − pad, kx − pad)`; per panel it decodes the
/// `NR` lanes' output positions once. Tail lanes past the last output
/// position get a sentinel row that fails every bounds test, so they
/// and padded input positions keep the buffer's zero initialization,
/// matching `pack_b`'s zero-padding discipline bit for bit.
///
/// Each slab is dispatched on its own (the final slab may be shorter
/// than `KC`) in fixed chunks of whole panels; every element is written
/// by exactly one chunk.
pub fn im2col_packed(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<PackedPanels> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "im2col_packed",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let oh = conv_out_dim(h, kernel, stride, padding);
    let ow = conv_out_dim(w, kernel, stride, padding);
    let patch = c * kernel * kernel;
    let rows = n * oh * ow;
    let jpanels = gemm::col_panels(rows);
    let mut buf = vec![0.0f32; patch * jpanels * NR];
    let xd = x.data();
    let (hi, wi) = (h as isize, w as isize);
    let taps = conv_taps(c, h, w, kernel, padding);
    let mut p0 = 0;
    while p0 < patch {
        let kc = KC.min(patch - p0);
        let slab_taps = &taps[p0..p0 + kc];
        let fill = |first_panel: usize, piece: &mut [f32]| {
            for (r, block) in piece.chunks_mut(kc * NR).enumerate() {
                let jp = first_panel + r;
                // Per lane: (source index of the top-left pixel,
                // oy·stride, ox·stride); the sentinel row is negative
                // enough that `iy` never passes the bounds test.
                let mut lanes = [(0isize, isize::MIN / 2, 0isize); NR];
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    let col = jp * NR + lane;
                    if col >= rows {
                        break;
                    }
                    let (ni, rem) = (col / (oh * ow), col % (oh * ow));
                    let (y0, x0) = ((rem / ow * stride) as isize, (rem % ow * stride) as isize);
                    *slot = ((ni * c * h * w) as isize + y0 * wi + x0, y0, x0);
                }
                for (row, &(off, dy, dx)) in block.chunks_exact_mut(NR).zip(slab_taps) {
                    for (out, &(base, y0, x0)) in row.iter_mut().zip(&lanes) {
                        let (iy, ix) = (y0 + dy, x0 + dx);
                        if iy >= 0 && iy < hi && ix >= 0 && ix < wi {
                            *out = xd[(base + off) as usize];
                        }
                    }
                }
            }
        };
        let slab = &mut buf[p0 * jpanels * NR..(p0 + kc) * jpanels * NR];
        par::dispatch_chunks(slab, PANELS_PER_CHUNK * kc * NR, rows * kc, |ci, piece| {
            fill(ci * PANELS_PER_CHUNK, piece);
        });
        p0 += kc;
    }
    Ok(PackedPanels::from_parts(buf, patch, rows))
}

/// Folds a column matrix produced by [`im2col`] back into an image batch,
/// accumulating overlapping contributions. This is the adjoint of
/// `im2col`: the reference the backward's `dx` fold is tested against
/// bit for bit (the fold itself never forms the column matrix).
#[allow(clippy::too_many_arguments)] // full conv geometry is inherent to the adjoint
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let oh = conv_out_dim(h, kernel, stride, padding);
    let ow = conv_out_dim(w, kernel, stride, padding);
    let patch = c * kernel * kernel;
    let expected = [n * oh * ow, patch];
    if cols.shape().dims() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().clone(),
            rhs: expected.into(),
        });
    }
    let mut x = Tensor::zeros([n, c, h, w]);
    let cd = cols.data();
    // Overlapping patches collide on input pixels, so the parallel unit
    // is one (sample, channel) image: all contributions to a pixel come
    // from its own chunk, accumulated in the serial (oy, ox, ky, kx)
    // order.
    let fill = |first_image: usize, piece: &mut [f32]| {
        for (r, img) in piece.chunks_mut(h * w).enumerate() {
            let idx = first_image + r;
            let (ni, ci) = (idx / c, idx % c);
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * patch;
                    for ky in 0..kernel {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img[iy as usize * w + ix as usize] +=
                                cd[row + (ci * kernel + ky) * kernel + kx];
                        }
                    }
                }
            }
        }
    };
    par::dispatch_chunks(x.data_mut(), h * w, n * oh * ow * patch, fill);
    Ok(x)
}

/// Forward 2-D convolution.
///
/// * `x`: `(n, c_in, h, w)`
/// * `weight`: `(c_out, c_in, k, k)`
/// * `bias`: optional `(c_out)`
///
/// Returns `(n, c_out, oh, ow)`.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    conv2d_forward_packed(x, weight, bias, stride, padding).map(|(y, _)| y)
}

/// Forward 2-D convolution that also returns the fused column panels.
///
/// Identical to [`conv2d_forward`] (same validation, same bits) but
/// additionally hands back the [`PackedPanels`] holding `colsᵀ` so the
/// caller — the autodiff graph — can retain them and pass them to
/// [`conv2d_backward_packed`], skipping the unfold entirely on the
/// backward sweep.
pub fn conv2d_forward_packed(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<(Tensor, PackedPanels)> {
    let (n, c_in, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "conv2d",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let (c_out, wc_in, k, k2) = weight.shape().as_nchw().ok_or_else(|| {
        TensorError::RankMismatch { op: "conv2d", expected: 4, actual: weight.shape().clone() }
    })?;
    if wc_in != c_in || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    if stride == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            message: "stride must be nonzero".into(),
        });
    }
    let oh = conv_out_dim(h, k, stride, padding);
    let ow = conv_out_dim(w, k, stride, padding);
    let patch = c_in * k * k;
    let rows = n * oh * ow;

    // prodᵀ: (c_out, patch) x (patch, n*oh*ow) -> (c_out, n*oh*ow),
    // with colsᵀ written directly in packed-panel layout.
    let colst = im2col_packed(x, k, stride, padding)?;
    let wmat = weight.reshape([c_out, patch])?;
    let prodt = gemm::gemm_prepacked("conv2d", &wmat, Trans::N, &colst)?;

    // Rearrange (c_out, n*oh*ow) into (n, c_out, oh, ow), adding bias;
    // the parallel unit is a fixed group of whole output channel maps,
    // each contiguous in prodᵀ (see COPY_CHUNK).
    let mut out = Tensor::zeros([n, c_out, oh, ow]);
    let pd = prodt.data();
    let bd = bias.map(Tensor::data);
    let fill = |first_map: usize, piece: &mut [f32]| {
        for (r, omap) in piece.chunks_mut(oh * ow).enumerate() {
            let idx = first_map + r;
            let (ni, co) = (idx / c_out, idx % c_out);
            let b = bd.map_or(0.0, |b| b[co]);
            let src = co * rows + ni * oh * ow;
            for (o, slot) in omap.iter_mut().enumerate() {
                *slot = pd[src + o] + b;
            }
        }
    };
    let maps = copy_units_per_chunk(n * c_out, oh * ow);
    par::dispatch_chunks(out.data_mut(), maps * oh * ow, n * c_out * oh * ow, |ci, piece| {
        fill(ci * maps, piece);
    });
    Ok((out, colst))
}

/// Backward 2-D convolution. Given the output gradient `gy` of shape
/// `(n, c_out, oh, ow)`, returns `(dx, dw, db)`.
///
/// `colst` must be the panels produced by [`im2col_packed`] (or
/// returned by [`conv2d_forward_packed`]) for this exact `x`/geometry;
/// the autodiff graph retains the forward pass's panels on the tape
/// node, so backward never unfolds again. A mismatch between `gy`, the
/// panels and the geometry is rejected. The weight gradient is
/// `dWᵀ = colsᵀ · g` with the panels as the pre-packed `A` operand; the
/// input gradient is folded block by block without forming the column
/// matrix. See the module docs for why both are bitwise-identical to
/// the unfused reference.
pub fn conv2d_backward_packed(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    stride: usize,
    padding: usize,
    want_bias: bool,
    colst: &PackedPanels,
) -> Result<(Tensor, Tensor, Option<Tensor>)> {
    let (n, c_in, h, w) = x.shape().as_nchw().expect("conv2d_backward: x validated in forward");
    let (c_out, _, k, _) =
        weight.shape().as_nchw().expect("conv2d_backward: w validated in forward");
    let (gn, gc, oh, ow) = gy.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "conv2d_backward",
        expected: 4,
        actual: gy.shape().clone(),
    })?;
    if stride == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_backward",
            message: "stride must be nonzero".into(),
        });
    }
    let (eh, ew) = (conv_out_dim(h, k, stride, padding), conv_out_dim(w, k, stride, padding));
    if (gn, gc, oh, ow) != (n, c_out, eh, ew) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: gy.shape().clone(),
            rhs: [n, c_out, eh, ew].into(),
        });
    }
    let patch = c_in * k * k;
    let ohw = oh * ow;
    if colst.k() != patch || colst.m() != n * ohw {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: [colst.k(), colst.m()].into(),
            rhs: [patch, n * ohw].into(),
        });
    }

    // Rearrange gy (n, c_out, oh, ow) -> (n*oh*ow, c_out); the parallel
    // unit is a group of whole samples' contiguous (oh*ow, c_out) blocks.
    let mut gmat = Tensor::zeros([n * ohw, c_out]);
    {
        let gd = gy.data();
        let block = ohw * c_out;
        let fill = |first_sample: usize, piece: &mut [f32]| {
            for (r, sample) in piece.chunks_mut(block).enumerate() {
                let ni = first_sample + r;
                for co in 0..c_out {
                    for o in 0..ohw {
                        sample[o * c_out + co] = gd[(ni * c_out + co) * ohw + o];
                    }
                }
            }
        };
        let samples = copy_units_per_chunk(n, block);
        par::dispatch_chunks(gmat.data_mut(), samples * block, n * block, |ci, piece| {
            fill(ci * samples, piece);
        });
    }

    // dWᵀ: (patch, c_out) = colsᵀ · gmat, straight off the retained
    // panels; the transpose back to (c_out, patch) is a bit-copy.
    let dwt = gemm::gemm_panels_a("conv2d_backward", colst, &gmat, Trans::N)?;
    let dw = super::matmul::transpose(&dwt)?.reshape([c_out, c_in, k, k])?;

    // dx: each MC-row block of dcols = gmat · Wmat is formed in a
    // scratch buffer and folded straight into its sample's input
    // gradient, rows ascending. The parallel unit is one sample: a
    // pixel only receives contributions from its own sample's rows.
    let wmat = weight.reshape([c_out, patch])?;
    let packed_w = PackedPanels::pack("conv2d_backward", &wmat, Trans::N)?;
    let taps = conv_taps(c_in, h, w, k, padding);
    let (hi, wi, image) = (h as isize, w as isize, c_in * h * w);
    let mut dx = Tensor::zeros([n, c_in, h, w]);
    let fold = |first_sample: usize, piece: &mut [f32]| {
        let mut scratch = vec![0.0f32; MC.min(ohw) * patch];
        for (r, dxs) in piece.chunks_mut(image).enumerate() {
            let row0 = (first_sample + r) * ohw;
            for o0 in (0..ohw).step_by(MC) {
                let block = &mut scratch[..MC.min(ohw - o0) * patch];
                gemm::gemm_rows(&gmat, row0 + o0, &packed_w, block);
                for (o, drow) in (o0..).zip(block.chunks_exact(patch)) {
                    let (y0, x0) = ((o / ow * stride) as isize, (o % ow * stride) as isize);
                    let base = y0 * wi + x0;
                    for (&v, &(off, ry, rx)) in drow.iter().zip(&taps) {
                        let (iy, ix) = (y0 + ry, x0 + rx);
                        if iy >= 0 && iy < hi && ix >= 0 && ix < wi {
                            dxs[(base + off) as usize] += v;
                        }
                    }
                }
            }
        }
    };
    if patch > 0 {
        par::dispatch_chunks(dx.data_mut(), image, n * ohw * c_out * patch, fold);
    }

    let db = if want_bias {
        let mut db = Tensor::zeros([c_out]);
        let gd = gy.data();
        let dbd = db.data_mut();
        for ni in 0..n {
            for (co, acc) in dbd.iter_mut().enumerate() {
                let base = (ni * c_out + co) * ohw;
                *acc += gd[base..base + ohw].iter().sum::<f32>();
            }
        }
        Some(db)
    } else {
        None
    };
    Ok((dx, dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 acts as identity.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]).unwrap();
        let y = conv2d_forward(&x, &w, None, 1, 0).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over a 3x3 image of ones with padding 1:
        // centre sees 9 ones, edges 6, corners 4.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d_forward(&x, &w, None, 1, 1).unwrap();
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let b = Tensor::from_vec([2], vec![0.5, -1.5]).unwrap();
        let y = conv2d_forward(&x, &w, Some(&b), 1, 0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(y.data()[..4], [0.5; 4]);
        assert_eq!(y.data()[4..], [-1.5; 4]);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d_forward(&x, &w, None, 2, 0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining
        // property of an adjoint pair, which backward relies on.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let cols = im2col(&x, 3, 2, 1).unwrap();
        let c = Tensor::randn(cols.shape().clone(), 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(c.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&c, 2, 3, 5, 5, 3, 2, 1).unwrap();
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_shapes_match_operands() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, None, 2, 1).unwrap();
        let gy = Tensor::ones(y.shape().clone());
        let colst = im2col_packed(&x, 3, 2, 1).unwrap();
        let (dx, dw, db) = conv2d_backward_packed(&x, &w, &gy, 2, 1, true, &colst).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        assert_eq!(db.unwrap().shape().dims(), &[4]);
    }

    #[test]
    fn zero_stride_is_rejected() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([1, 1, 1, 1]);
        assert!(conv2d_forward(&x, &w, None, 0, 0).is_err());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fused_forward_matches_unfused_reference_bitwise() {
        // patch = 29·3·3 = 261 straddles KC = 256; rows = 2·3·3 = 18 is
        // not an NR multiple; padding exercises the zero lanes.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn([2, 29, 3, 3], 1.0, &mut rng);
        let w = Tensor::randn([5, 29, 3, 3], 0.1, &mut rng);
        let b = Tensor::randn([5], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, Some(&b), 1, 1).unwrap();
        let cols = im2col(&x, 3, 1, 1).unwrap();
        let wmat = w.reshape([5, 261]).unwrap();
        let prod = super::super::matmul::matmul_nt(&cols, &wmat).unwrap();
        let (oh, ow) = (3, 3);
        for ni in 0..2 {
            for co in 0..5 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let got = y.data()[((ni * 5 + co) * oh + oy) * ow + ox];
                        let want = prod.data()[((ni * oh + oy) * ow + ox) * 5 + co] + b.data()[co];
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn retained_panels_match_fresh_unfold_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn([1, 3, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn([2, 3, 3, 3], 0.1, &mut rng);
        let (y, colst) = conv2d_forward_packed(&x, &w, None, 1, 1).unwrap();
        assert_bits_eq(&y, &conv2d_forward(&x, &w, None, 1, 1).unwrap());
        let gy = Tensor::randn(y.shape().clone(), 1.0, &mut rng);
        let fresh = im2col_packed(&x, 3, 1, 1).unwrap();
        let (dx_a, dw_a, db_a) = conv2d_backward_packed(&x, &w, &gy, 1, 1, true, &fresh).unwrap();
        let (dx_b, dw_b, db_b) = conv2d_backward_packed(&x, &w, &gy, 1, 1, true, &colst).unwrap();
        assert_bits_eq(&dx_a, &dx_b);
        assert_bits_eq(&dw_a, &dw_b);
        assert_bits_eq(&db_a.unwrap(), &db_b.unwrap());
    }

    /// Asserts the fused unfold equals the unfused oracle — `im2col`
    /// then `pack_b` of the transpose — element by element, as bits.
    fn assert_unfold_matches_oracle(x: &Tensor, kernel: usize, stride: usize, padding: usize) {
        let got = im2col_packed(x, kernel, stride, padding).unwrap();
        let cols = im2col(x, kernel, stride, padding).unwrap();
        let want = PackedPanels::pack("oracle", &cols, Trans::T).unwrap();
        assert_eq!((got.k(), got.m()), (want.k(), want.m()));
        assert_eq!(got.as_slice().len(), want.as_slice().len());
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{:?} k={kernel} s={stride} p={padding}: element {i}: {a} vs {b}",
                x.shape()
            );
        }
    }

    #[test]
    fn fused_unfold_matches_oracle_on_edge_geometries() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        // (n, c, h, w, kernel, stride, padding)
        let cases = [
            (2, 29, 3, 3, 3, 1, 1),    // patch 261 straddles KC; 18 columns
            (16, 32, 6, 6, 3, 1, 1),   // the trainer's 32·3·3 = 288
            (16, 16, 12, 12, 3, 1, 1), // the trainer's first block
            (16, 16, 12, 12, 3, 2, 1), // the trainer's downsampling conv
            (3, 5, 7, 5, 3, 1, 1),     // 105 columns, not an NR multiple
            (2, 29, 6, 7, 3, 2, 1),    // stride 2 across a slab boundary
            (2, 3, 7, 7, 3, 2, 0),     // stride 2, no padding
            (1, 4, 5, 5, 3, 1, 0),     // n = 1, no padding
            (2, 7, 5, 3, 1, 1, 0),     // 1×1 kernel
            (1, 3, 6, 6, 1, 2, 0),     // strided 1×1 kernel
            (1, 1, 1, 1, 3, 1, 1),     // a single pixel under a 3×3 kernel
            (1, 2, 4, 4, 2, 2, 1),     // even kernel
        ];
        for (n, c, h, w, kernel, stride, padding) in cases {
            let x = Tensor::randn([n, c, h, w], 1.0, &mut rng);
            assert_unfold_matches_oracle(&x, kernel, stride, padding);
        }
    }

    #[test]
    fn fused_unfold_copies_non_finite_values_verbatim() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_1234), // signalling NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        let (n, c, h, w) = (2, 29, 4, 3);
        let data: Vec<f32> = (0..n * c * h * w).map(|i| specials[i % specials.len()]).collect();
        let x = Tensor::from_vec([n, c, h, w], data).unwrap();
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 0), (1, 1, 0)] {
            assert_unfold_matches_oracle(&x, kernel, stride, padding);
        }
    }

    mod unfold_props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use sdc_runtime::Runtime;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Shapes reach past one KC slab and, often, past the
            // parallel dispatch threshold with many panel chunks.
            #[test]
            fn fused_unfold_matches_oracle_at_any_thread_count(
                dims in (1usize..6, 1usize..34, 1usize..14, 1usize..14),
                geometry in (1usize..4, 1usize..4, 0usize..3),
                seed in 0u64..1000,
            ) {
                let (n, c, h, w) = dims;
                let (kernel, stride, padding) = geometry;
                prop_assume!(kernel <= h + 2 * padding && kernel <= w + 2 * padding);
                // Arbitrary bit patterns: NaNs, infinities and
                // subnormals must all survive the copy.
                let mut rng = StdRng::seed_from_u64(seed);
                let data: Vec<f32> =
                    (0..n * c * h * w).map(|_| f32::from_bits(rng.random::<u32>())).collect();
                let x = Tensor::from_vec([n, c, h, w], data).unwrap();
                for threads in [1, 2, 7] {
                    Runtime::new(threads)
                        .install(|| assert_unfold_matches_oracle(&x, kernel, stride, padding));
                }
            }
        }
    }

    /// The unfused backward reference: `gmat` is `gy` as
    /// `(n·oh·ow, c_out)`, `dW = gmatᵀ · im2col(x)` and
    /// `dx = col2im(gmat · Wmat)`.
    fn backward_oracle(
        x: &Tensor,
        w: &Tensor,
        gy: &Tensor,
        stride: usize,
        padding: usize,
    ) -> (Tensor, Tensor) {
        use super::super::matmul::{matmul, matmul_tn};
        let (n, c_in, h, wd) = x.shape().as_nchw().unwrap();
        let (c_out, _, k, _) = w.shape().as_nchw().unwrap();
        let (_, _, oh, ow) = gy.shape().as_nchw().unwrap();
        let ohw = oh * ow;
        let mut gmat = Tensor::zeros([n * ohw, c_out]);
        for ni in 0..n {
            for co in 0..c_out {
                for o in 0..ohw {
                    gmat.data_mut()[(ni * ohw + o) * c_out + co] =
                        gy.data()[(ni * c_out + co) * ohw + o];
                }
            }
        }
        let cols = im2col(x, k, stride, padding).unwrap();
        let dw = matmul_tn(&gmat, &cols).unwrap().reshape(w.shape().clone()).unwrap();
        let wmat = w.reshape([c_out, c_in * k * k]).unwrap();
        let dcols = matmul(&gmat, &wmat).unwrap();
        let dx = col2im(&dcols, n, c_in, h, wd, k, stride, padding).unwrap();
        (dx, dw)
    }

    /// Bit equality, except that a NaN only has to meet a NaN: which
    /// payload a NaN operand propagates is out of scope (module docs).
    fn assert_same_class_and_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            let same = if b.is_nan() { a.is_nan() } else { a.to_bits() == b.to_bits() };
            assert!(
                same,
                "{what}: element {i}: {a} ({:#x}) vs {b} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    /// Runs the production backward (off freshly unfolded panels) and
    /// compares `dx` and `dW` with the unfused oracle.
    fn assert_backward_matches_oracle(
        x: &Tensor,
        w: &Tensor,
        gy: &Tensor,
        stride: usize,
        padding: usize,
    ) {
        let k = w.shape().dims()[2];
        let colst = im2col_packed(x, k, stride, padding).unwrap();
        let (dx, dw, _) = conv2d_backward_packed(x, w, gy, stride, padding, false, &colst).unwrap();
        let (dx_ref, dw_ref) = backward_oracle(x, w, gy, stride, padding);
        let what = format!("{:?} w={:?} s={stride} p={padding}", x.shape(), w.shape());
        assert_same_class_and_bits(&dx, &dx_ref, &format!("dx {what}"));
        assert_same_class_and_bits(&dw, &dw_ref, &format!("dW {what}"));
    }

    /// `(n, c_in, h, w, c_out, kernel, stride, padding)`.
    type BackwardCase = (usize, usize, usize, usize, usize, usize, usize, usize);

    /// The unfold edge geometries plus every conv of the trainer's small
    /// encoder (batch 16, 12×12 inputs).
    const BACKWARD_CASES: [BackwardCase; 16] = [
        (2, 29, 3, 3, 5, 3, 1, 1),     // patch 261 straddles KC; 18 rows
        (16, 32, 6, 6, 32, 3, 1, 1),   // the trainer's 288 (stage1 conv2)
        (3, 5, 7, 5, 4, 3, 1, 1),      // 105 rows: not an MC or NR multiple
        (2, 29, 6, 7, 3, 3, 2, 1),     // stride 2 across a slab boundary
        (2, 3, 7, 7, 6, 3, 2, 0),      // stride 2, no padding
        (1, 4, 5, 5, 2, 3, 1, 0),      // n = 1, no padding
        (2, 7, 5, 3, 3, 1, 1, 0),      // 1×1 kernel
        (1, 3, 6, 6, 5, 1, 2, 0),      // strided 1×1 kernel
        (1, 1, 1, 1, 2, 3, 1, 1),      // a single pixel under a 3×3 kernel
        (1, 2, 4, 4, 3, 2, 2, 1),      // even kernel
        (2, 3, 9, 9, 40, 3, 1, 1),     // 81 rows per sample, c_out past NR
        (16, 3, 12, 12, 16, 3, 1, 1),  // trainer stem
        (16, 16, 12, 12, 16, 3, 1, 1), // trainer stage0 conv1 and conv2
        (16, 16, 12, 12, 32, 3, 2, 1), // trainer stage1 conv1 (downsampling)
        (16, 16, 12, 12, 32, 1, 2, 0), // trainer stage1 shortcut
        (16, 32, 6, 6, 32, 3, 1, 1),   // trainer stage1 conv2
    ];

    fn backward_operands(
        case: BackwardCase,
        rng: &mut rand::rngs::StdRng,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c_in, h, w, c_out, k, stride, padding) = case;
        let x = Tensor::randn([n, c_in, h, w], 1.0, rng);
        let wt = Tensor::randn([c_out, c_in, k, k], 0.3, rng);
        let (oh, ow) = (conv_out_dim(h, k, stride, padding), conv_out_dim(w, k, stride, padding));
        let gy = Tensor::randn([n, c_out, oh, ow], 1.0, rng);
        (x, wt, gy)
    }

    #[test]
    fn backward_matches_unfused_oracle_on_edge_geometries() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for case in BACKWARD_CASES {
            let (x, w, gy) = backward_operands(case, &mut rng);
            assert_backward_matches_oracle(&x, &w, &gy, case.6, case.7);
        }
    }

    #[test]
    fn backward_matches_oracle_on_non_finite_operands() {
        // NaN, ±∞ and −0.0 sprinkled into x, W and gy at co-prime
        // strides, so the output mixes finite, infinite and NaN values.
        use rand::SeedableRng;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let sprinkle = |t: &mut Tensor, every: usize| {
            for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % every == 0) {
                *v = specials[i / every % specials.len()];
            }
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for case in [BACKWARD_CASES[0], BACKWARD_CASES[3], BACKWARD_CASES[6], BACKWARD_CASES[9]] {
            let (mut x, mut w, mut gy) = backward_operands(case, &mut rng);
            sprinkle(&mut x, 37);
            sprinkle(&mut w, 41);
            sprinkle(&mut gy, 43);
            assert_backward_matches_oracle(&x, &w, &gy, case.6, case.7);
        }
    }

    mod backward_props {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;
        use sdc_runtime::Runtime;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn backward_matches_oracle_at_any_thread_count(
                dims in (1usize..5, 1usize..34, 1usize..12, 1usize..12),
                c_out in 1usize..20,
                geometry in (1usize..4, 1usize..3, 0usize..2),
                seed in 0u64..1000,
            ) {
                let (n, c_in, h, w) = dims;
                let (kernel, stride, padding) = geometry;
                prop_assume!(kernel <= h + 2 * padding && kernel <= w + 2 * padding);
                let case = (n, c_in, h, w, c_out, kernel, stride, padding);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (x, wt, gy) = backward_operands(case, &mut rng);
                for threads in [1, 2, 7] {
                    Runtime::new(threads)
                        .install(|| assert_backward_matches_oracle(&x, &wt, &gy, stride, padding));
                }
            }
        }
    }

    #[test]
    fn mismatched_panels_are_rejected() {
        let x = Tensor::zeros([1, 1, 4, 4]);
        let w = Tensor::zeros([1, 1, 3, 3]);
        let gy = Tensor::zeros([1, 1, 2, 2]);
        // Panels unfolded with the wrong stride have the wrong column count.
        let wrong = im2col_packed(&x, 3, 1, 0).unwrap();
        assert!(conv2d_backward_packed(&x, &w, &gy, 2, 0, false, &wrong).is_err());
    }
}
