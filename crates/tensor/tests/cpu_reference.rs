//! The kernel-layer differential suite: every tiled kernel must match
//! the scalar cpu-reference oracle **bitwise**, and the parallel
//! dispatch must match the sequential tiled kernel bitwise.
//!
//! This is the gate behind the tiled matmul/conv rewrite — the blocked
//! kernels are only allowed to exist because these sweeps prove they
//! are observationally identical to the naive loops on every shape
//! class that matters: degenerate 1×N / N×1, sizes straddling the
//! micro-kernel tile (MR±1, NR±1), sizes straddling the cache blocks
//! (MC±1, KC±1), non-square, and strided / padded convolutions,
//! forward *and* backward.
//!
//! The kernel selector is process-global, so every test takes a shared
//! mutex before switching kernels.

use fedprox_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec, ConvScratch};
use fedprox_tensor::kernel::{with_kernel, Kernel};
use fedprox_tensor::matrix::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedprox_tensor::{kernel, vecops, Matrix};
use std::sync::Mutex;

/// Serializes kernel-selector switches across this binary's tests.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic xorshift stream; distinct seeds give distinct data.
fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, stream(seed, rows * cols))
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: bit mismatch at flat index {i}: {g:?} vs {w:?}"
        );
    }
}

/// The (m, k, n) sweep: degenerate vectors, micro-tile straddles around
/// MR = 4 and NR = 8, cache-block straddles around MC = 64 and KC = 256,
/// and assorted non-square shapes.
fn gemm_dims() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 5, 9),    // 1×N row vector times matrix
        (9, 5, 1),    // matrix times N×1 column vector
        (3, 7, 7),    // MR−1 rows, NR−1 cols
        (5, 6, 9),    // MR+1 rows, NR+1 cols
        (4, 4, 8),    // exact micro-tile
        (63, 33, 65), // MC±1 rows
        (65, 40, 63),
        (31, 255, 17), // KC−1 depth
        (18, 257, 34), // KC+1 depth
        (64, 64, 64),  // exact cache-block corner
        (12, 300, 20), // deep non-square
    ]
}

#[test]
fn matmul_all_variants_match_reference_bitwise_across_shape_sweep() {
    let _g = lock();
    for (m, k, n) in gemm_dims() {
        let seed = (m * 1000 + k * 10 + n) as u64;
        // Operands for each transposition convention.
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0xAA);
        let at = rand_matrix(k, m, seed ^ 0xBB); // matmul_tn: aᵀ·b with a stored k×m
        let bt = rand_matrix(n, k, seed ^ 0xCC); // matmul_nt: a·bᵀ with b stored n×k

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                let mut nn = Matrix::zeros(m, n);
                matmul_into(&a, &b, &mut nn);
                let mut tn = Matrix::zeros(m, n);
                matmul_tn_into(&at, &b, &mut tn);
                let mut nt = Matrix::zeros(m, n);
                matmul_nt_into(&a, &bt, &mut nt);
                (nn, tn, nt)
            })
        };

        let (r_nn, r_tn, r_nt) = run(Kernel::Reference);
        let (t_nn, t_tn, t_nt) = run(Kernel::Tiled);
        let (p_nn, p_tn, p_nt) = run(Kernel::TiledParallel);

        let ctx = format!("m={m} k={k} n={n}");
        assert_bits_eq(t_nn.as_slice(), r_nn.as_slice(), &format!("matmul tiled {ctx}"));
        assert_bits_eq(t_tn.as_slice(), r_tn.as_slice(), &format!("matmul_tn tiled {ctx}"));
        assert_bits_eq(t_nt.as_slice(), r_nt.as_slice(), &format!("matmul_nt tiled {ctx}"));
        // Parallel must equal sequential tiled (and hence the reference).
        assert_bits_eq(p_nn.as_slice(), t_nn.as_slice(), &format!("matmul par {ctx}"));
        assert_bits_eq(p_tn.as_slice(), t_tn.as_slice(), &format!("matmul_tn par {ctx}"));
        assert_bits_eq(p_nt.as_slice(), t_nt.as_slice(), &format!("matmul_nt par {ctx}"));
    }
}

#[test]
fn matvec_and_matvec_t_match_reference_bitwise_across_shape_sweep() {
    let _g = lock();
    // (m, k) straddles the 4-row register block, the 64-row parallel
    // chunk, and the matvec_t 2048-column block.
    for (m, k) in [
        (1, 1),
        (1, 9),
        (9, 1),
        (3, 5),
        (5, 3),
        (4, 8),
        (63, 31),
        (65, 33),
        (64, 64),
        (200, 257),
        (130, 2049),
        (70, 1025), // m·k past the parallel threshold with ragged tails
    ] {
        let seed = (m * 10_000 + k) as u64;
        let a = rand_matrix(m, k, seed);
        let x = stream(seed ^ 0x11, k);
        let xt = stream(seed ^ 0x22, m);

        let run = |kern: Kernel| {
            with_kernel(kern, || (a.matvec(&x), a.matvec_t(&xt)))
        };
        let (r_mv, r_mvt) = run(Kernel::Reference);
        let (t_mv, t_mvt) = run(Kernel::Tiled);
        let (p_mv, p_mvt) = run(Kernel::TiledParallel);

        let ctx = format!("m={m} k={k}");
        assert_bits_eq(&t_mv, &r_mv, &format!("matvec tiled {ctx}"));
        assert_bits_eq(&t_mvt, &r_mvt, &format!("matvec_t tiled {ctx}"));
        assert_bits_eq(&p_mv, &t_mv, &format!("matvec par {ctx}"));
        assert_bits_eq(&p_mvt, &t_mvt, &format!("matvec_t par {ctx}"));
    }
}

/// Conv shape sweep: stride 1 and > 1, with and without padding,
/// multi-channel, non-square, and a receptive field straddling the
/// micro-tile width.
fn conv_specs() -> Vec<Conv2dSpec> {
    vec![
        Conv2dSpec::same(1, 1, 3, 4, 4),
        Conv2dSpec::same(2, 3, 3, 5, 8),
        Conv2dSpec::same(1, 8, 5, 12, 12),
        Conv2dSpec::same(1, 2, 3, 9, 9).with_stride(2),
        Conv2dSpec { in_ch: 2, out_ch: 2, kernel: 3, height: 7, width: 6, pad: 1, stride: 2 },
        Conv2dSpec { in_ch: 1, out_ch: 2, kernel: 2, height: 8, width: 11, pad: 0, stride: 3 },
        Conv2dSpec { in_ch: 3, out_ch: 5, kernel: 3, height: 6, width: 7, pad: 2, stride: 1 },
    ]
}

#[test]
fn conv_forward_matches_reference_bitwise_across_spec_sweep() {
    let _g = lock();
    for (si, spec) in conv_specs().iter().enumerate() {
        let seed = 0xC0DE + si as u64;
        let input = stream(seed, spec.input_len());
        let weight = stream(seed ^ 0x1, spec.weight_len());
        let bias = stream(seed ^ 0x2, spec.out_ch);

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                let mut out = vec![0.0; spec.output_len()];
                let mut scratch = ConvScratch::new(spec);
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut scratch);
                out
            })
        };
        let reference = run(Kernel::Reference);
        let tiled = run(Kernel::Tiled);
        let par = run(Kernel::TiledParallel);
        assert_bits_eq(&tiled, &reference, &format!("conv fwd tiled {spec:?}"));
        assert_bits_eq(&par, &tiled, &format!("conv fwd par {spec:?}"));
    }
}

#[test]
fn conv_backward_matches_reference_bitwise_across_spec_sweep() {
    let _g = lock();
    for (si, spec) in conv_specs().iter().enumerate() {
        let seed = 0xBADA + si as u64;
        let input = stream(seed, spec.input_len());
        let weight = stream(seed ^ 0x3, spec.weight_len());
        let grad_output = stream(seed ^ 0x4, spec.output_len());

        let run = |kern: Kernel| {
            with_kernel(kern, || {
                // Non-zero initial gw/gb exercise the accumulate (+=) path.
                let mut gw = stream(seed ^ 0x5, spec.weight_len());
                let mut gb = stream(seed ^ 0x6, spec.out_ch);
                let mut gi = vec![0.0; spec.input_len()];
                let mut scratch = ConvScratch::new(spec);
                conv2d_backward(
                    spec,
                    &input,
                    &grad_output,
                    &weight,
                    &mut gw,
                    &mut gb,
                    Some(&mut gi),
                    &mut scratch,
                );
                (gw, gb, gi)
            })
        };
        let (r_gw, r_gb, r_gi) = run(Kernel::Reference);
        let (t_gw, t_gb, t_gi) = run(Kernel::Tiled);
        let (p_gw, p_gb, p_gi) = run(Kernel::TiledParallel);

        assert_bits_eq(&t_gw, &r_gw, &format!("conv bwd gw tiled {spec:?}"));
        assert_bits_eq(&t_gb, &r_gb, &format!("conv bwd gb tiled {spec:?}"));
        assert_bits_eq(&t_gi, &r_gi, &format!("conv bwd gi tiled {spec:?}"));
        assert_bits_eq(&p_gw, &t_gw, &format!("conv bwd gw par {spec:?}"));
        assert_bits_eq(&p_gb, &t_gb, &format!("conv bwd gb par {spec:?}"));
        assert_bits_eq(&p_gi, &t_gi, &format!("conv bwd gi par {spec:?}"));
    }
}

/// Skipping the input gradient (`grad_input: None`, what a network's
/// first layer passes) must leave the weight and bias gradients bitwise
/// as the full pass computes them, under every kernel.
#[test]
fn conv_backward_without_input_grad_keeps_weight_grads_bitwise() {
    let _g = lock();
    for (si, spec) in conv_specs().iter().enumerate() {
        let seed = 0x0DD5 + si as u64;
        let input = stream(seed, spec.input_len());
        let weight = stream(seed ^ 0x3, spec.weight_len());
        let grad_output = stream(seed ^ 0x4, spec.output_len());
        for kern in [Kernel::Reference, Kernel::Tiled, Kernel::TiledParallel] {
            let run = |with_input: bool| {
                with_kernel(kern, || {
                    let mut gw = stream(seed ^ 0x5, spec.weight_len());
                    let mut gb = stream(seed ^ 0x6, spec.out_ch);
                    let mut gi = vec![0.0; spec.input_len()];
                    let mut scratch = ConvScratch::new(spec);
                    conv2d_backward(
                        spec,
                        &input,
                        &grad_output,
                        &weight,
                        &mut gw,
                        &mut gb,
                        with_input.then_some(&mut gi[..]),
                        &mut scratch,
                    );
                    (gw, gb)
                })
            };
            let (full_gw, full_gb) = run(true);
            let (skip_gw, skip_gb) = run(false);
            let ctx = format!("conv bwd without gi {kern:?} {spec:?}");
            assert_bits_eq(&skip_gw, &full_gw, &format!("gw: {ctx}"));
            assert_bits_eq(&skip_gb, &full_gb, &format!("gb: {ctx}"));
        }
    }
}

#[test]
fn repeated_calls_through_one_scratch_stay_reference_identical() {
    // The fused path's thread-local pack buffers and the ConvScratch tap
    // tables persist across calls; later calls must not be perturbed by
    // earlier state. Interleave shapes through shared scratches and
    // compare against fresh reference runs each time.
    let _g = lock();
    let specs = conv_specs();
    let mut scratches: Vec<ConvScratch> = specs.iter().map(ConvScratch::new).collect();
    for round in 0..3u64 {
        for (si, spec) in specs.iter().enumerate() {
            let seed = 0x5EED_0000 + round * 64 + si as u64;
            let input = stream(seed, spec.input_len());
            let weight = stream(seed ^ 0x7, spec.weight_len());
            let bias = stream(seed ^ 0x8, spec.out_ch);

            let reference = with_kernel(Kernel::Reference, || {
                let mut out = vec![0.0; spec.output_len()];
                let mut fresh = ConvScratch::new(spec);
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut fresh);
                out
            });
            let tiled = with_kernel(Kernel::TiledParallel, || {
                let mut out = vec![0.0; spec.output_len()];
                conv2d_forward(spec, &input, &weight, &bias, &mut out, &mut scratches[si]);
                out
            });
            assert_bits_eq(&tiled, &reference, &format!("round {round} spec {si} reuse"));
        }
    }
}

/// Picked rows for a gathered kernel: out of order, with repeats.
fn picked_rows(b: usize, pool: usize) -> Vec<usize> {
    (0..b).map(|i| (i * 7 + 3) % pool).collect()
}

/// Logit-gradient-like coefficients with exact zeros (the skipped
/// terms) and both signs.
fn coefficients(len: usize, seed: u64) -> Vec<f64> {
    let zero_some = |(i, v): (usize, f64)| if i % 7 == 3 { 0.0 } else { v };
    stream(seed, len).into_iter().enumerate().map(zero_some).collect()
}

#[test]
fn gathered_kernels_match_per_row_ops_bitwise_under_every_kernel() {
    let _g = lock();
    let pool = 40;
    for k in [1usize, 7, 60, 784] {
        let x = stream(0xC0FF_EE00 + k as u64, pool * k);
        for m in [1usize, 2, 3, 5, 10, 11] {
            let seed = (m * 1_000 + k) as u64;
            let a = stream(seed, m * k);
            let start = stream(seed ^ 0x33, m * k);
            for b in 1..=33usize {
                let rows = picked_rows(b, pool);
                let g = coefficients(b * m, seed ^ b as u64);
                let ctx = format!("m={m} k={k} b={b}");

                // The gathered matvec is one matvec per picked row.
                let mut want = vec![0.0; b * m];
                with_kernel(Kernel::Reference, || {
                    for (o, &r) in want.chunks_exact_mut(m).zip(&rows) {
                        kernel::matvec_into(&a, m, k, &x[r * k..(r + 1) * k], o);
                    }
                });
                for kern in [Kernel::Reference, Kernel::Tiled, Kernel::TiledParallel] {
                    let mut got = vec![f64::NAN; b * m];
                    let mut panel = Vec::new();
                    with_kernel(kern, || {
                        kernel::gather_matvec_into(&a, m, k, &x, &rows, &mut got, &mut panel)
                    });
                    assert_bits_eq(&got, &want, &format!("gather_matvec {kern:?} {ctx}"));
                }

                // The rank product is the per-row axpys into a zeroed
                // matrix, with and without the per-row decay term.
                for decay in [None, Some((0.01 / b as f64, a.as_slice()))] {
                    let mut want = vec![0.0; m * k];
                    for (gs, &r) in g.chunks_exact(m).zip(&rows) {
                        for (c, &gc) in gs.iter().enumerate() {
                            if gc != 0.0 {
                                let row = &mut want[c * k..(c + 1) * k];
                                vecops::axpy(gc, &x[r * k..(r + 1) * k], row);
                            }
                        }
                        if let Some((alpha, w)) = decay {
                            vecops::axpy(alpha, w, &mut want);
                        }
                    }
                    for kern in [Kernel::Reference, Kernel::Tiled, Kernel::TiledParallel] {
                        // Whatever `d` held before is overwritten.
                        let mut got = start.clone();
                        with_kernel(kern, || {
                            kernel::gather_rank_update(&mut got, m, k, &x, &rows, &g, decay)
                        });
                        let ctx = format!("rank_update {kern:?} {ctx} decay {}", decay.is_some());
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn gathered_kernels_report_shape_errors() {
    let a = [1.0; 6];
    let x = [1.0; 9];
    let mut out = [0.0; 4];
    let mut panel = Vec::new();
    // A picked row past the end of x (3 rows of 3).
    let err = kernel::try_gather_matvec_into(&a, 2, 3, &x, &[0, 3], &mut out, &mut panel);
    assert_eq!(err.map_err(|e| e.op), Err("gather_matvec"));
    // The weights disagree with (m, k).
    let err = kernel::try_gather_matvec_into(&a[..5], 2, 3, &x, &[0, 1], &mut out, &mut panel);
    assert!(err.is_err());
    let mut d = [0.0; 6];
    let g = [1.0; 4];
    let err = kernel::try_gather_rank_update(&mut d, 2, 3, &x, &[0, 3], &g, None);
    assert_eq!(err.map_err(|e| e.op), Err("gather_rank_update"));
    // Coefficients for the wrong number of rows, and a short decay term.
    assert!(kernel::try_gather_rank_update(&mut d, 2, 3, &x, &[0], &g, None).is_err());
    let short = Some((0.5, &a[..4]));
    assert!(kernel::try_gather_rank_update(&mut d, 2, 3, &x, &[0, 1], &g, short).is_err());
    assert!(kernel::try_gather_rank_update(&mut d, 2, 3, &x, &[0, 1], &g, None).is_ok());
}
