//! im2col-based 2-D convolution and max-pooling with backward passes.
//!
//! Layout convention: feature maps are flat `[channels, height, width]`
//! buffers in row-major order (`c * h * w + y * w + x`), matching what the
//! CNN model in `fedprox-models` stores per sample. Convolutions support an
//! arbitrary stride with symmetric zero padding; the paper's CNN uses the
//! stride-1 "same" configuration (two 5x5 convolutions each followed by
//! 2x2 max-pooling), built via [`Conv2dSpec::same`].
//!
//! Like the matmul entry points, the convolutions dispatch on the
//! kernel selector (see [`crate::kernel`]): the `Reference` kernel
//! materialises the im2col matrix and runs the naive GEMM over it,
//! while the tiled kernels run a *fused* im2col-GEMM — the packing
//! stage of the blocked GEMM reads receptive-field taps straight from
//! the input image through a virtual [`GemmSource`] view, so the
//! `col_rows × col_cols` column matrix (≈ 5 MB for the paper's second
//! conv layer) never exists on the fast path. Both paths accumulate
//! every output element in the same order, so they agree bitwise.

use crate::kernel::{self, Blocking, GemmSource, Kernel, MatRef};
use crate::matrix::Matrix;

/// Static description of a convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel edge length.
    pub kernel: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Symmetric zero padding on each side.
    pub pad: usize,
    /// Step between receptive-field origins (1 = dense convolution).
    pub stride: usize,
}

impl Conv2dSpec {
    /// A "same" convolution (output spatial size equals input, stride 1)
    /// for an odd kernel.
    pub fn same(in_ch: usize, out_ch: usize, kernel: usize, height: usize, width: usize) -> Self {
        assert!(!kernel.is_multiple_of(2), "same-padding requires an odd kernel");
        Conv2dSpec { in_ch, out_ch, kernel, height, width, pad: kernel / 2, stride: 1 }
    }

    /// Same spec with a different stride (builder style). Output spatial
    /// dims follow the usual floor formula `(h + 2p − k)/stride + 1`.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride >= 1, "conv stride must be >= 1");
        self.stride = stride;
        self
    }

    /// Output height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of weight parameters (`out_ch * in_ch * k * k`).
    pub fn weight_len(&self) -> usize {
        self.out_ch * self.in_ch * self.kernel * self.kernel
    }

    /// Length of an input buffer.
    pub fn input_len(&self) -> usize {
        self.in_ch * self.height * self.width
    }

    /// Length of an output buffer.
    pub fn output_len(&self) -> usize {
        self.out_ch * self.out_height() * self.out_width()
    }

    /// Rows of the im2col matrix (= number of output pixels).
    pub fn col_rows(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Columns of the im2col matrix (= receptive-field size).
    pub fn col_cols(&self) -> usize {
        self.in_ch * self.kernel * self.kernel
    }
}

/// Unfold `input` (`[in_ch, h, w]`) into the im2col matrix: one row per
/// `v` clamped into `[0, hi]` as an index — the shared lossy cast
/// behind every padding-window clamp in this module.
#[inline(always)]
fn clamp_idx(v: isize, hi: usize) -> usize {
    // fedlint: allow(lossy-cast) — the clamp proves the value is in [0, hi]
    v.clamp(0, hi as isize) as usize
}

/// `v` as an index, for call sites whose guards prove `v ≥ 0`.
#[inline(always)]
fn pos_idx(v: isize) -> usize {
    debug_assert!(v >= 0, "pos_idx: negative index {v}");
    // fedlint: allow(lossy-cast) — every caller guards v ≥ 0 (debug-asserted)
    v as usize
}

/// output pixel, one column per (channel, ky, kx) of the receptive field.
/// Out-of-bounds taps read zero.
pub fn im2col(spec: &Conv2dSpec, input: &[f64], cols: &mut Matrix) {
    assert_eq!(input.len(), spec.input_len(), "im2col: input length");
    assert_eq!(cols.shape(), (spec.col_rows(), spec.col_cols()), "im2col: cols shape");
    fedprox_telemetry::span!("tensor", "im2col", "rows" => spec.col_rows(), "cols" => spec.col_cols());
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let (h, w, k, pad, s) = (spec.height, spec.width, spec.kernel, spec.pad, spec.stride);
    // One kernel row (fixed c, ky) taps k consecutive input cells, so
    // each row segment is a clamped contiguous copy with zero fill for
    // the padding overhang — same values as the per-tap loop, written
    // a window at a time.
    for oy in 0..oh {
        for ox in 0..ow {
            let row = cols.row_mut(oy * ow + ox);
            let y0 = (oy * s) as isize - pad as isize;
            let x0 = (ox * s) as isize - pad as isize;
            let lo = clamp_idx(-x0, k);
            let hi = clamp_idx(w as isize - x0, k);
            let mut idx = 0;
            for c in 0..spec.in_ch {
                let chan = &input[c * h * w..(c + 1) * h * w];
                for ky in 0..k {
                    let iy = y0 + ky as isize;
                    let seg = &mut row[idx..idx + k];
                    if iy < 0 || iy >= h as isize {
                        seg.fill(0.0);
                    } else {
                        seg[..lo].fill(0.0);
                        if lo < hi {
                            let src = pos_idx(iy) * w + pos_idx(x0 + lo as isize);
                            seg[lo..hi].copy_from_slice(&chan[src..src + (hi - lo)]);
                        }
                        seg[hi..].fill(0.0);
                    }
                    idx += k;
                }
            }
        }
    }
}

/// Fold an im2col-shaped gradient back onto the input (`col2im`),
/// accumulating overlapping taps. Inverse-adjoint of [`im2col`].
pub fn col2im(spec: &Conv2dSpec, cols: &Matrix, input_grad: &mut [f64]) {
    assert_eq!(input_grad.len(), spec.input_len(), "col2im: input length");
    assert_eq!(cols.shape(), (spec.col_rows(), spec.col_cols()), "col2im: cols shape");
    input_grad.fill(0.0);
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let (h, w, k, pad, s) = (spec.height, spec.width, spec.kernel, spec.pad, spec.stride);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = cols.row(oy * ow + ox);
            let mut idx = 0;
            for c in 0..spec.in_ch {
                let base = c * h * w;
                for ky in 0..k {
                    let iy = (oy * s + ky) as isize - pad as isize;
                    for kx in 0..k {
                        let ix = (ox * s + kx) as isize - pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            input_grad[base + pos_idx(iy) * w + pos_idx(ix)] += row[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Scratch buffers reused across convolution calls to avoid per-sample
/// allocation in the training hot loop. All buffers are grown lazily on
/// first use and retained, so steady-state calls allocate nothing; the
/// materialised `cols` matrix is only ever populated by the `Reference`
/// kernel.
#[derive(Debug, Clone)]
pub struct ConvScratch {
    /// im2col matrix (reference path only).
    cols: Matrix,
    /// Column-gradient matrix (both backward paths).
    cols_grad: Matrix,
    /// Spec the tap tables below were built for.
    table_spec: Option<Conv2dSpec>,
    /// Receptive-field origin (y) per output pixel, pre-pad.
    pix_y: Vec<isize>,
    /// Receptive-field origin (x) per output pixel, pre-pad.
    pix_x: Vec<isize>,
    /// Channel base offset per im2col column.
    f_base: Vec<usize>,
    /// Vertical tap offset (ky − pad) per im2col column.
    f_dy: Vec<isize>,
    /// Horizontal tap offset (kx − pad) per im2col column.
    f_dx: Vec<isize>,
}

impl ConvScratch {
    /// Scratch for `spec`; buffers are grown on first use.
    pub fn new(spec: &Conv2dSpec) -> Self {
        let mut s = ConvScratch {
            cols: Matrix::zeros(0, 0),
            cols_grad: Matrix::zeros(0, 0),
            table_spec: None,
            pix_y: Vec::new(),
            pix_x: Vec::new(),
            f_base: Vec::new(),
            f_dy: Vec::new(),
            f_dx: Vec::new(),
        };
        s.prepare_tables(spec);
        s
    }

    /// (Re)build the pixel/field tap tables when the spec changed.
    fn prepare_tables(&mut self, spec: &Conv2dSpec) {
        if self.table_spec == Some(*spec) {
            return;
        }
        let (oh, ow) = (spec.out_height(), spec.out_width());
        let (k, pad, s) = (spec.kernel, spec.pad, spec.stride);
        self.pix_y.clear();
        self.pix_x.clear();
        for oy in 0..oh {
            for ox in 0..ow {
                self.pix_y.push((oy * s) as isize);
                self.pix_x.push((ox * s) as isize);
            }
        }
        self.f_base.clear();
        self.f_dy.clear();
        self.f_dx.clear();
        for c in 0..spec.in_ch {
            for ky in 0..k {
                for kx in 0..k {
                    self.f_base.push(c * spec.height * spec.width);
                    self.f_dy.push(ky as isize - pad as isize);
                    self.f_dx.push(kx as isize - pad as isize);
                }
            }
        }
        self.table_spec = Some(*spec);
    }

    /// The virtual im2col operand over `input` (tables must be built).
    fn im2col_view<'a>(&'a self, spec: &Conv2dSpec, input: &'a [f64], trans: bool) -> Im2colView<'a> {
        debug_assert_eq!(self.table_spec, Some(*spec));
        Im2colView {
            input,
            h: spec.height as isize,
            w: spec.width as isize,
            width: spec.width,
            pix_y: &self.pix_y,
            pix_x: &self.pix_x,
            f_base: &self.f_base,
            f_dy: &self.f_dy,
            f_dx: &self.f_dx,
            kw: spec.kernel,
            ow: spec.out_width(),
            stride: spec.stride,
            fields: spec.col_cols(),
            npix: spec.col_rows(),
            trans,
        }
    }
}

/// Virtual im2col matrix: answers GEMM packing reads with receptive-
/// field taps straight from the input image — the column matrix is
/// never materialised. Natural orientation is `col_cols × col_rows`
/// (one row per field, one column per output pixel); `trans` flips it.
struct Im2colView<'a> {
    input: &'a [f64],
    h: isize,
    w: isize,
    width: usize,
    pix_y: &'a [isize],
    pix_x: &'a [isize],
    f_base: &'a [usize],
    f_dy: &'a [isize],
    f_dx: &'a [isize],
    /// Kernel edge length — field index `f` taps column `f % kw` of its
    /// kernel row, which is what lets `fill_fields` split a lane into
    /// contiguous per-row runs.
    kw: usize,
    /// Output row width — pixel index `p` sits in output row `p / ow`,
    /// which is what lets `fill_pixels` split a lane into per-row runs.
    ow: usize,
    /// Conv stride: within one output row consecutive pixels tap input
    /// cells `stride` apart (contiguous copies when 1).
    stride: usize,
    fields: usize,
    npix: usize,
    trans: bool,
}

impl Im2colView<'_> {
    /// The im2col value at (field `f`, pixel `p`): the tapped input
    /// cell, or 0.0 when the tap lands in the zero padding. Bitwise
    /// identical to what [`im2col`] writes at `cols[p, f]`.
    #[inline]
    fn tap(&self, f: usize, p: usize) -> f64 {
        let iy = self.pix_y[p] + self.f_dy[f];
        let ix = self.pix_x[p] + self.f_dx[f];
        if iy >= 0 && iy < self.h && ix >= 0 && ix < self.w {
            self.input[self.f_base[f] + pos_idx(iy) * self.width + pos_idx(ix)]
        } else {
            0.0
        }
    }

    /// Packing lane in field-major orientation: one field `f`, pixels
    /// `p0 ..`. Hoists the field's tap offsets out of the pixel loop and
    /// walks the lane one output row at a time: within a row, pixel taps
    /// advance `stride` input cells, so at stride 1 each row segment is
    /// a clamped `copy_from_slice` with zero fill for the padding
    /// overhang — no per-element bounds branch at any lane width.
    #[inline]
    fn fill_pixels(&self, f: usize, p0: usize, lane: &mut [f64]) {
        let base = self.f_base[f];
        let dy = self.f_dy[f];
        let dx = self.f_dx[f];
        let len = lane.len();
        let mut j = 0;
        while j < len {
            let p = p0 + j;
            let run = (self.ow - p % self.ow).min(len - j);
            let iy = self.pix_y[p] + dy;
            if iy < 0 || iy >= self.h {
                lane[j..j + run].fill(0.0);
                j += run;
                continue;
            }
            let rowbase = base + pos_idx(iy) * self.width;
            let ix0 = self.pix_x[p] + dx;
            if self.stride == 1 {
                // Clamp the tap run [ix0, ix0 + run) to the image row.
                let lo = clamp_idx(-ix0, run);
                let hi = clamp_idx(self.w - ix0, run);
                lane[j..j + lo].fill(0.0);
                if lo < hi {
                    let src = rowbase + pos_idx(ix0 + lo as isize);
                    lane[j + lo..j + hi].copy_from_slice(&self.input[src..src + (hi - lo)]);
                }
                lane[j + hi..j + run].fill(0.0);
            } else {
                for (t, slot) in lane[j..j + run].iter_mut().enumerate() {
                    let ix = ix0 + (t * self.stride) as isize;
                    *slot = if ix >= 0 && ix < self.w {
                        self.input[rowbase + pos_idx(ix)]
                    } else {
                        0.0
                    };
                }
            }
            j += run;
        }
    }

    /// Packing lane in pixel-major orientation (the `trans` view): one
    /// pixel `p`, fields `f0 ..`. Hoists the pixel's origin, and walks
    /// the lane one kernel-row run at a time: consecutive fields within
    /// a run share (channel, ky) and tap consecutive input cells, so
    /// each run is a clamped contiguous copy.
    #[inline]
    fn fill_fields(&self, p: usize, f0: usize, lane: &mut [f64]) {
        let y0 = self.pix_y[p];
        let x0 = self.pix_x[p];
        let k = self.kw;
        let len = lane.len();
        let mut j = 0;
        while j < len {
            let f = f0 + j;
            let run = (k - (f % k)).min(len - j);
            let iy = y0 + self.f_dy[f];
            if iy < 0 || iy >= self.h {
                lane[j..j + run].fill(0.0);
            } else {
                let ix0 = x0 + self.f_dx[f];
                let lo = clamp_idx(-ix0, run);
                let hi = clamp_idx(self.w - ix0, run);
                lane[j..j + lo].fill(0.0);
                if lo < hi {
                    let src = self.f_base[f] + pos_idx(iy * self.w + ix0 + lo as isize);
                    lane[j + lo..j + hi].copy_from_slice(&self.input[src..src + (hi - lo)]);
                }
                lane[j + hi..j + run].fill(0.0);
            }
            j += run;
        }
    }
}

impl GemmSource for Im2colView<'_> {
    #[inline]
    fn src_rows(&self) -> usize {
        if self.trans {
            self.npix
        } else {
            self.fields
        }
    }

    #[inline]
    fn src_cols(&self) -> usize {
        if self.trans {
            self.fields
        } else {
            self.npix
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        if self.trans {
            self.tap(j, i)
        } else {
            self.tap(i, j)
        }
    }

    #[inline]
    fn fill_row(&self, row: usize, j0: usize, lane: &mut [f64]) {
        if self.trans {
            self.fill_fields(row, j0, lane);
        } else {
            self.fill_pixels(row, j0, lane);
        }
    }

    #[inline]
    fn fill_col(&self, col: usize, i0: usize, lane: &mut [f64]) {
        if self.trans {
            self.fill_pixels(col, i0, lane);
        } else {
            self.fill_fields(col, i0, lane);
        }
    }
}

/// Forward convolution: `output[o, y, x] = Σ weight[o, ·]·cols[yx, ·] + bias[o]`.
///
/// `weight` is `[out_ch, in_ch*k*k]` flattened, `bias` has `out_ch`
/// entries, `output` is `[out_ch, oh, ow]` flattened. Dispatches on the
/// active kernel; all kernels produce bitwise-identical output.
pub fn conv2d_forward(
    spec: &Conv2dSpec,
    input: &[f64],
    weight: &[f64],
    bias: &[f64],
    output: &mut [f64],
    scratch: &mut ConvScratch,
) {
    assert_eq!(input.len(), spec.input_len(), "conv2d: input length");
    assert_eq!(weight.len(), spec.weight_len(), "conv2d: weight length");
    assert_eq!(bias.len(), spec.out_ch, "conv2d: bias length");
    assert_eq!(output.len(), spec.output_len(), "conv2d: output length");
    fedprox_telemetry::span!(
        "tensor", "conv2d_fwd",
        "out_ch" => spec.out_ch, "pix" => spec.col_rows(), "fields" => spec.col_cols(),
    );
    let npix = spec.col_rows();
    let fields = spec.col_cols();
    let wref = MatRef::new(weight, spec.out_ch, fields);
    match kernel::active() {
        Kernel::Reference => {
            scratch.cols.reshape_in_place(npix, fields);
            im2col(spec, input, &mut scratch.cols);
            // cols is stored pixel-major; view it transposed so the GEMM
            // reads `cols[p, f]` as its (f, p) operand element.
            let cview = MatRef::transposed(scratch.cols.as_slice(), fields, npix);
            kernel::reference::gemm_ref(&wref, &cview, output, spec.out_ch, npix, fields, false);
        }
        k => {
            scratch.prepare_tables(spec);
            let view = scratch.im2col_view(spec, input, false);
            kernel::tiled::gemm(
                &wref,
                &view,
                output,
                spec.out_ch,
                npix,
                fields,
                false,
                Blocking::for_shape(spec.out_ch, npix, fields),
                k == Kernel::TiledParallel,
            );
        }
    }
    for (o, &b) in bias.iter().enumerate() {
        for v in output[o * npix..(o + 1) * npix].iter_mut() {
            *v += b;
        }
    }
    crate::guard::check_finite("conv2d_forward", output);
}

/// Allocating convenience wrapper around [`conv2d_forward`]: builds fresh
/// scratch and output buffers on every call. The scratch-reusing entry
/// point is the hot-path API; this one serves one-off callers and is the
/// reference implementation the workspace-reuse differential tests compare
/// against.
pub fn conv2d_forward_alloc(
    spec: &Conv2dSpec,
    input: &[f64],
    weight: &[f64],
    bias: &[f64],
) -> Vec<f64> {
    let mut output = vec![0.0; spec.output_len()];
    let mut scratch = ConvScratch::new(spec);
    conv2d_forward(spec, input, weight, bias, &mut output, &mut scratch);
    output
}

/// Backward convolution. Given the forward `input` and `grad_output`
/// (`[out_ch, oh, ow]`), accumulates `grad_weight` / `grad_bias` (+=)
/// and, when `grad_input` is `Some`, writes it (overwrite). `None` skips
/// the column-gradient GEMM and the col2im scatter — a network's first
/// layer has no use for the gradient of its input — and leaves
/// `grad_weight` / `grad_bias` bitwise as `Some` would. Self-contained:
/// the pass re-derives every receptive-field tap from `input`, so it does
/// not depend on which kernel (if any) ran the forward pass.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    spec: &Conv2dSpec,
    input: &[f64],
    grad_output: &[f64],
    weight: &[f64],
    grad_weight: &mut [f64],
    grad_bias: &mut [f64],
    grad_input: Option<&mut [f64]>,
    scratch: &mut ConvScratch,
) {
    let npix = spec.col_rows();
    fedprox_telemetry::span!(
        "tensor", "conv2d_bwd",
        "out_ch" => spec.out_ch, "pix" => npix, "fields" => spec.col_cols(),
    );
    assert_eq!(input.len(), spec.input_len(), "conv2d_backward: input");
    assert_eq!(grad_output.len(), spec.output_len(), "conv2d_backward: grad_output");
    assert_eq!(grad_weight.len(), spec.weight_len(), "conv2d_backward: grad_weight");
    assert_eq!(grad_bias.len(), spec.out_ch, "conv2d_backward: grad_bias");
    if let Some(gi) = &grad_input {
        assert_eq!(gi.len(), spec.input_len(), "conv2d_backward: grad_input");
    }

    // grad_bias[o] += Σ_p grad_output[o, p] — kernel-independent, so the
    // accumulation tree is shared by every path.
    for (o, gb) in grad_bias.iter_mut().enumerate() {
        for &g in &grad_output[o * npix..(o + 1) * npix] {
            *gb += g;
        }
    }

    let fields = spec.col_cols();
    let go_ref = MatRef::new(grad_output, spec.out_ch, npix);
    match kernel::active() {
        Kernel::Reference => {
            scratch.cols.reshape_in_place(npix, fields);
            im2col(spec, input, &mut scratch.cols);
            // grad_weight[o, f] += Σ_p grad_output[o, p] * cols[p, f]
            let cref = MatRef::new(scratch.cols.as_slice(), npix, fields);
            kernel::reference::gemm_ref(
                &go_ref,
                &cref,
                grad_weight,
                spec.out_ch,
                fields,
                npix,
                true,
            );
            let Some(grad_input) = grad_input else {
                return;
            };
            // cols_grad[p, f] = Σ_o grad_output[o, p] * weight[o, f]
            scratch.cols_grad.reshape_in_place(npix, fields);
            let got = MatRef::transposed(grad_output, npix, spec.out_ch);
            let wref = MatRef::new(weight, spec.out_ch, fields);
            kernel::reference::gemm_ref(
                &got,
                &wref,
                scratch.cols_grad.as_mut_slice(),
                npix,
                fields,
                spec.out_ch,
                false,
            );
            col2im(spec, &scratch.cols_grad, grad_input);
        }
        k => {
            scratch.prepare_tables(spec);
            // grad_weight through the fused GEMM: B is the transposed
            // virtual im2col view, packed straight from the input.
            {
                let view = scratch.im2col_view(spec, input, true);
                kernel::tiled::gemm(
                    &go_ref,
                    &view,
                    grad_weight,
                    spec.out_ch,
                    fields,
                    npix,
                    true,
                    Blocking::for_shape(spec.out_ch, fields, npix),
                    k == Kernel::TiledParallel,
                );
            }
            let Some(grad_input) = grad_input else {
                return;
            };
            // grad_input = col2im(goᵀ · W): the column gradient runs
            // through the tiled GEMM — bitwise equal to the reference
            // gemm by the kernel contract — and the scatter replays the
            // reference col2im adds as kernel-row windows: fields are
            // (c, ky, kx)-lexicographic, so one (c, ky) run taps
            // contiguous input cells, and clamping the kx window
            // replaces the per-field bounds branch while keeping every
            // add in the exact (p, f) order of col2im.
            scratch.cols_grad.reshape_in_place(npix, fields);
            let got = MatRef::transposed(grad_output, npix, spec.out_ch);
            let wref = MatRef::new(weight, spec.out_ch, fields);
            kernel::tiled::gemm(
                &got,
                &wref,
                scratch.cols_grad.as_mut_slice(),
                npix,
                fields,
                spec.out_ch,
                false,
                Blocking::for_shape(npix, fields, spec.out_ch),
                k == Kernel::TiledParallel,
            );
            grad_input.fill(0.0);
            let (h, w, kk) = (spec.height, spec.width, spec.kernel);
            let pad = spec.pad as isize;
            for p in 0..npix {
                let x0 = scratch.pix_x[p] - pad;
                let lo = clamp_idx(-x0, kk);
                let hi = clamp_idx(w as isize - x0, kk);
                let row = scratch.cols_grad.row(p);
                for c in 0..spec.in_ch {
                    let cbase = c * h * w;
                    for ky in 0..kk {
                        let iy = scratch.pix_y[p] + ky as isize - pad;
                        if iy < 0 || iy >= h as isize || lo >= hi {
                            continue;
                        }
                        let rbase = c * kk * kk + ky * kk;
                        let dst0 = cbase + pos_idx(iy) * w + pos_idx(x0 + lo as isize);
                        for (d, &v) in grad_input[dst0..dst0 + (hi - lo)]
                            .iter_mut()
                            .zip(&row[rbase + lo..rbase + hi])
                        {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Static description of a non-overlapping 2-D max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Channels (pooling is per channel).
    pub channels: usize,
    /// Input height (must be divisible by `size`).
    pub height: usize,
    /// Input width (must be divisible by `size`).
    pub width: usize,
    /// Pool window edge (stride equals window: non-overlapping).
    pub size: usize,
}

impl Pool2dSpec {
    /// Output height.
    pub fn out_height(&self) -> usize {
        self.height / self.size
    }
    /// Output width.
    pub fn out_width(&self) -> usize {
        self.width / self.size
    }
    /// Input buffer length.
    pub fn input_len(&self) -> usize {
        self.channels * self.height * self.width
    }
    /// Output buffer length.
    pub fn output_len(&self) -> usize {
        self.channels * self.out_height() * self.out_width()
    }
}

/// Max-pool forward. Records the argmax index of each window in `argmax`
/// (same length as `output`) for the backward pass.
pub fn maxpool2d_forward(
    spec: &Pool2dSpec,
    input: &[f64],
    output: &mut [f64],
    argmax: &mut [usize],
) {
    assert!(spec.height.is_multiple_of(spec.size), "maxpool: height not divisible");
    assert!(spec.width.is_multiple_of(spec.size), "maxpool: width not divisible");
    assert_eq!(input.len(), spec.input_len());
    assert_eq!(output.len(), spec.output_len());
    assert_eq!(argmax.len(), spec.output_len());
    let (oh, ow, s, h, w) = (spec.out_height(), spec.out_width(), spec.size, spec.height, spec.width);
    for c in 0..spec.channels {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f64::NEG_INFINITY;
                let mut best_idx = 0;
                for py in 0..s {
                    for px in 0..s {
                        let idx = (oy * s + py) * w + (ox * s + px);
                        if chan[idx] > best {
                            best = chan[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = c * oh * ow + oy * ow + ox;
                output[o] = best;
                argmax[o] = c * h * w + best_idx;
            }
        }
    }
}

/// Max-pool backward: routes each output gradient to its recorded argmax.
/// `grad_input` is overwritten.
pub fn maxpool2d_backward(
    spec: &Pool2dSpec,
    grad_output: &[f64],
    argmax: &[usize],
    grad_input: &mut [f64],
) {
    assert_eq!(grad_output.len(), spec.output_len());
    assert_eq!(argmax.len(), spec.output_len());
    assert_eq!(grad_input.len(), spec.input_len());
    grad_input.fill(0.0);
    for (g, &idx) in grad_output.iter().zip(argmax) {
        grad_input[idx] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_3x3() -> Conv2dSpec {
        Conv2dSpec::same(1, 1, 3, 4, 4)
    }

    #[test]
    fn same_spec_preserves_spatial_size() {
        let s = Conv2dSpec::same(3, 8, 5, 28, 28);
        assert_eq!(s.out_height(), 28);
        assert_eq!(s.out_width(), 28);
        assert_eq!(s.weight_len(), 8 * 3 * 25);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let spec = spec_3x3();
        let input: Vec<f64> = (0..16).map(|i| i as f64).collect();
        // Kernel with 1 at the centre.
        let mut weight = vec![0.0; 9];
        weight[4] = 1.0;
        let bias = [0.0];
        let mut output = vec![0.0; 16];
        let mut scratch = ConvScratch::new(&spec);
        conv2d_forward(&spec, &input, &weight, &bias, &mut output, &mut scratch);
        assert_eq!(output, input);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let spec = spec_3x3();
        let input = vec![0.0; 16];
        let weight = vec![0.0; 9];
        let bias = [2.5];
        let mut output = vec![0.0; 16];
        let mut scratch = ConvScratch::new(&spec);
        conv2d_forward(&spec, &input, &weight, &bias, &mut output, &mut scratch);
        assert!(output.iter().all(|&v| v == 2.5));
    }

    #[test]
    fn conv_matches_naive_direct_convolution() {
        let spec =
            Conv2dSpec { in_ch: 2, out_ch: 3, kernel: 3, height: 5, width: 6, pad: 1, stride: 1 };
        let mut rng_state = 12345u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) - 0.5
        };
        let input: Vec<f64> = (0..spec.input_len()).map(|_| next()).collect();
        let weight: Vec<f64> = (0..spec.weight_len()).map(|_| next()).collect();
        let bias: Vec<f64> = (0..spec.out_ch).map(|_| next()).collect();
        let mut output = vec![0.0; spec.output_len()];
        let mut scratch = ConvScratch::new(&spec);
        conv2d_forward(&spec, &input, &weight, &bias, &mut output, &mut scratch);

        // Naive direct convolution.
        let (h, w, k, p) = (spec.height, spec.width, spec.kernel, spec.pad as isize);
        for o in 0..spec.out_ch {
            for oy in 0..spec.out_height() {
                for ox in 0..spec.out_width() {
                    let mut s = bias[o];
                    for c in 0..spec.in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy as isize + ky as isize - p;
                                let ix = ox as isize + kx as isize - p;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    let wi = o * spec.in_ch * k * k + c * k * k + ky * k + kx;
                                    s += weight[wi] * input[c * h * w + iy as usize * w + ix as usize];
                                }
                            }
                        }
                    }
                    let got = output[o * spec.out_height() * spec.out_width()
                        + oy * spec.out_width()
                        + ox];
                    assert!((got - s).abs() < 1e-10, "mismatch at o={o} oy={oy} ox={ox}");
                }
            }
        }
    }

    #[test]
    fn with_stride_dims_follow_floor_formula() {
        let s = Conv2dSpec::same(1, 4, 3, 9, 9).with_stride(2);
        assert_eq!((s.out_height(), s.out_width()), (5, 5));
        // Non-exact division exercises the floor: (6-2)/2+1 = 3, (5-2)/2+1 = 2.
        let t = Conv2dSpec { in_ch: 1, out_ch: 1, kernel: 2, height: 6, width: 5, pad: 0, stride: 2 };
        assert_eq!((t.out_height(), t.out_width()), (3, 2));
    }

    #[test]
    fn strided_conv_matches_naive_direct_convolution() {
        let spec =
            Conv2dSpec { in_ch: 2, out_ch: 3, kernel: 3, height: 7, width: 6, pad: 1, stride: 2 };
        assert_eq!((spec.out_height(), spec.out_width()), (4, 3));
        let mut rng_state = 777u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) - 0.5
        };
        let input: Vec<f64> = (0..spec.input_len()).map(|_| next()).collect();
        let weight: Vec<f64> = (0..spec.weight_len()).map(|_| next()).collect();
        let bias: Vec<f64> = (0..spec.out_ch).map(|_| next()).collect();
        let output = conv2d_forward_alloc(&spec, &input, &weight, &bias);

        let (h, w, k, p) = (spec.height, spec.width, spec.kernel, spec.pad as isize);
        for o in 0..spec.out_ch {
            for oy in 0..spec.out_height() {
                for ox in 0..spec.out_width() {
                    let mut s = bias[o];
                    for c in 0..spec.in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - p;
                                let ix = (ox * spec.stride + kx) as isize - p;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    let wi = o * spec.in_ch * k * k + c * k * k + ky * k + kx;
                                    s += weight[wi] * input[c * h * w + iy as usize * w + ix as usize];
                                }
                            }
                        }
                    }
                    let got = output[o * spec.out_height() * spec.out_width()
                        + oy * spec.out_width()
                        + ox];
                    assert!((got - s).abs() < 1e-10, "mismatch at o={o} oy={oy} ox={ox}");
                }
            }
        }
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let spec =
            Conv2dSpec { in_ch: 1, out_ch: 2, kernel: 3, height: 4, width: 4, pad: 1, stride: 1 };
        let mut state = 999u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let input: Vec<f64> = (0..spec.input_len()).map(|_| next()).collect();
        let weight: Vec<f64> = (0..spec.weight_len()).map(|_| next()).collect();
        let bias: Vec<f64> = (0..spec.out_ch).map(|_| next()).collect();
        // Loss = sum of squares of conv output / 2.
        let loss = |input: &[f64], weight: &[f64], bias: &[f64]| -> f64 {
            let mut out = vec![0.0; spec.output_len()];
            let mut s = ConvScratch::new(&spec);
            conv2d_forward(&spec, input, weight, bias, &mut out, &mut s);
            out.iter().map(|v| v * v).sum::<f64>() / 2.0
        };
        let mut out = vec![0.0; spec.output_len()];
        let mut scratch = ConvScratch::new(&spec);
        conv2d_forward(&spec, &input, &weight, &bias, &mut out, &mut scratch);
        let grad_output = out.clone(); // d(½Σo²)/do = o
        let mut gw = vec![0.0; spec.weight_len()];
        let mut gb = vec![0.0; spec.out_ch];
        let mut gi = vec![0.0; spec.input_len()];
        conv2d_backward(
            &spec, &input, &grad_output, &weight, &mut gw, &mut gb, Some(&mut gi), &mut scratch,
        );

        let h = 1e-6;
        for i in (0..spec.weight_len()).step_by(5) {
            let mut wp = weight.clone();
            let mut wm = weight.clone();
            wp[i] += h;
            wm[i] -= h;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * h);
            assert!((fd - gw[i]).abs() < 1e-4, "grad_weight[{i}]: fd={fd} an={}", gw[i]);
        }
        for i in 0..spec.out_ch {
            let mut bp = bias.clone();
            let mut bm = bias.clone();
            bp[i] += h;
            bm[i] -= h;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * h);
            assert!((fd - gb[i]).abs() < 1e-4, "grad_bias[{i}]");
        }
        for i in (0..spec.input_len()).step_by(3) {
            let mut ip = input.clone();
            let mut im = input.clone();
            ip[i] += h;
            im[i] -= h;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * h);
            assert!((fd - gi[i]).abs() < 1e-4, "grad_input[{i}]: fd={fd} an={}", gi[i]);
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), C> == <x, col2im(C)> — the two operators are adjoint.
        let spec =
            Conv2dSpec { in_ch: 2, out_ch: 1, kernel: 3, height: 4, width: 5, pad: 1, stride: 1 };
        let x: Vec<f64> = (0..spec.input_len()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut cols = Matrix::zeros(spec.col_rows(), spec.col_cols());
        im2col(&spec, &x, &mut cols);
        let c_data: Vec<f64> =
            (0..spec.col_rows() * spec.col_cols()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let c = Matrix::from_vec(spec.col_rows(), spec.col_cols(), c_data);
        let lhs = crate::vecops::dot(cols.as_slice(), c.as_slice());
        let mut back = vec![0.0; spec.input_len()];
        col2im(&spec, &c, &mut back);
        let rhs = crate::vecops::dot(&x, &back);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn im2col_view_matches_materialised_cols_bitwise() {
        // The fused path's virtual operand must read exactly what
        // im2col writes, including padding zeros and stride > 1.
        for spec in [
            Conv2dSpec::same(2, 3, 3, 5, 6),
            Conv2dSpec::same(1, 2, 5, 7, 7).with_stride(2),
            Conv2dSpec { in_ch: 1, out_ch: 1, kernel: 2, height: 6, width: 5, pad: 0, stride: 3 },
        ] {
            let input: Vec<f64> =
                (0..spec.input_len()).map(|i| (i as f64 * 0.83).sin() - 0.2).collect();
            let mut cols = Matrix::zeros(spec.col_rows(), spec.col_cols());
            im2col(&spec, &input, &mut cols);
            let scratch = ConvScratch::new(&spec);
            let view = scratch.im2col_view(&spec, &input, false);
            let viewt = scratch.im2col_view(&spec, &input, true);
            for p in 0..spec.col_rows() {
                for f in 0..spec.col_cols() {
                    let want = cols.get(p, f).to_bits();
                    assert_eq!(view.at(f, p).to_bits(), want, "{spec:?} p={p} f={f}");
                    assert_eq!(viewt.at(p, f).to_bits(), want, "{spec:?} p={p} f={f} (t)");
                }
            }
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let spec = Pool2dSpec { channels: 1, height: 4, width: 4, size: 2 };
        #[rustfmt::skip]
        let input = vec![
            1.0, 2.0,   5.0, 6.0,
            3.0, 4.0,   8.0, 7.0,

            0.0, -1.0,  9.0, 1.0,
            -2.0, -3.0, 2.0, 3.0,
        ];
        let mut out = vec![0.0; 4];
        let mut arg = vec![0usize; 4];
        maxpool2d_forward(&spec, &input, &mut out, &mut arg);
        assert_eq!(out, vec![4.0, 8.0, 0.0, 9.0]);
        let go = vec![1.0, 2.0, 3.0, 4.0];
        let mut gi = vec![0.0; 16];
        maxpool2d_backward(&spec, &go, &arg, &mut gi);
        assert_eq!(gi[5], 1.0); // position of 4.0
        assert_eq!(gi[6], 2.0); // position of 8.0
        assert_eq!(gi[8], 3.0); // position of 0.0
        assert_eq!(gi[10], 4.0); // position of 9.0
        assert_eq!(gi.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn maxpool_multichannel() {
        let spec = Pool2dSpec { channels: 2, height: 2, width: 2, size: 2 };
        let input = vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0];
        let mut out = vec![0.0; 2];
        let mut arg = vec![0usize; 2];
        maxpool2d_forward(&spec, &input, &mut out, &mut arg);
        assert_eq!(out, vec![4.0, 8.0]);
        assert_eq!(arg, vec![3, 4]);
    }
}
