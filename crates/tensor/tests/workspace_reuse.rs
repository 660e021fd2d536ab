//! Differential tests for scratch-buffer reuse in the convolution kernels.
//!
//! The hot-path entry points ([`conv2d_forward`] / [`conv2d_backward`])
//! thread a caller-held [`ConvScratch`] through every call; the allocation
//! pass relies on one scratch being reused across many samples and many
//! steps. These tests pin down the contract that reuse must be
//! *observationally invisible*: a scratch that has already been through
//! arbitrary other calls produces bitwise-identical results to freshly
//! allocated buffers, across square, non-square, multi-channel and
//! stride > 1 shapes.

use fedprox_tensor::conv::{
    col2im, conv2d_backward, conv2d_forward, conv2d_forward_alloc, im2col, Conv2dSpec,
    ConvScratch,
};
use fedprox_tensor::Matrix;

/// Deterministic xorshift stream so every shape gets distinct, reproducible
/// data without pulling in an RNG crate.
fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

/// The shape matrix the reuse contract is checked over: square stride-1,
/// non-square, multi-channel, and stride-2 variants (both exact and floor
/// output divisions).
fn shapes() -> Vec<Conv2dSpec> {
    vec![
        Conv2dSpec::same(1, 2, 3, 6, 6),
        // Non-square input, multi-channel.
        Conv2dSpec::same(2, 3, 3, 5, 8),
        // Stride 2, square.
        Conv2dSpec::same(1, 2, 3, 9, 9).with_stride(2),
        // Stride 2, non-square, floor division in one dimension.
        Conv2dSpec { in_ch: 2, out_ch: 2, kernel: 3, height: 7, width: 6, pad: 1, stride: 2 },
        // Stride 3, no padding.
        Conv2dSpec { in_ch: 1, out_ch: 2, kernel: 2, height: 8, width: 11, pad: 0, stride: 3 },
    ]
}

#[test]
fn forward_with_reused_scratch_is_bitwise_identical_to_alloc_path() {
    for (si, spec) in shapes().iter().enumerate() {
        let mut scratch = ConvScratch::new(spec);
        // Drive several distinct samples through the SAME scratch; each must
        // match a from-scratch allocation exactly.
        for sample in 0..4u64 {
            let seed = 0xA11C_0000 + (si as u64) * 16 + sample;
            let input = stream(seed, spec.input_len());
            let weight = stream(seed ^ 0xBEEF, spec.weight_len());
            let bias = stream(seed ^ 0xCAFE, spec.out_ch);
            let reference = conv2d_forward_alloc(spec, &input, &weight, &bias);
            // Reused output buffer starts dirty on purpose.
            let mut output = vec![f64::NAN; spec.output_len()];
            conv2d_forward(spec, &input, &weight, &bias, &mut output, &mut scratch);
            assert_eq!(
                output, reference,
                "forward mismatch: shape #{si} ({spec:?}), sample {sample}"
            );
        }
    }
}

#[test]
fn backward_with_reused_scratch_is_bitwise_identical_to_fresh_scratch() {
    for (si, spec) in shapes().iter().enumerate() {
        // `reused` accumulates history across samples; `fresh` is rebuilt
        // per sample. Gradients must agree bitwise either way.
        let mut reused = ConvScratch::new(spec);
        for sample in 0..3u64 {
            let seed = 0xB0B0_0000 + (si as u64) * 16 + sample;
            let input = stream(seed, spec.input_len());
            let weight = stream(seed ^ 0x1234, spec.weight_len());
            let bias = stream(seed ^ 0x5678, spec.out_ch);
            let grad_output = stream(seed ^ 0x9ABC, spec.output_len());

            let run = |scratch: &mut ConvScratch| {
                let mut output = vec![0.0; spec.output_len()];
                conv2d_forward(spec, &input, &weight, &bias, &mut output, scratch);
                let mut gw = vec![0.0; spec.weight_len()];
                let mut gb = vec![0.0; spec.out_ch];
                let mut gi = vec![0.0; spec.input_len()];
                conv2d_backward(
                    spec, &input, &grad_output, &weight, &mut gw, &mut gb, Some(&mut gi), scratch,
                );
                (output, gw, gb, gi)
            };

            let mut fresh = ConvScratch::new(spec);
            let expected = run(&mut fresh);
            let got = run(&mut reused);
            assert_eq!(got, expected, "backward mismatch: shape #{si} ({spec:?}), sample {sample}");
        }
    }
}

#[test]
fn im2col_overwrites_every_scratch_cell() {
    // im2col must fully overwrite `cols` — a partially-written scratch
    // would silently leak the previous sample into the matmul. Poison the
    // buffer and check nothing survives.
    for spec in shapes() {
        let input = stream(0xF00D, spec.input_len());
        let mut clean = Matrix::zeros(spec.col_rows(), spec.col_cols());
        im2col(&spec, &input, &mut clean);
        let poison: Vec<f64> = vec![1e300; spec.col_rows() * spec.col_cols()];
        let mut dirty = Matrix::from_vec(spec.col_rows(), spec.col_cols(), poison);
        im2col(&spec, &input, &mut dirty);
        assert_eq!(dirty.as_slice(), clean.as_slice(), "stale im2col cell leaked: {spec:?}");
    }
}

#[test]
fn strided_im2col_col2im_stay_adjoint() {
    // <im2col(x), C> == <x, col2im(C)> must survive the stride
    // generalisation — the backward pass depends on exact adjointness.
    for spec in shapes() {
        let x = stream(0xAD01, spec.input_len());
        let mut cols = Matrix::zeros(spec.col_rows(), spec.col_cols());
        im2col(&spec, &x, &mut cols);
        let c_data: Vec<f64> =
            (0..spec.col_rows() * spec.col_cols()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let c = Matrix::from_vec(spec.col_rows(), spec.col_cols(), c_data);
        let lhs: f64 = cols.as_slice().iter().zip(c.as_slice()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; spec.input_len()];
        col2im(&spec, &c, &mut back);
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "adjoint broken for {spec:?}: {lhs} vs {rhs}");
    }
}
