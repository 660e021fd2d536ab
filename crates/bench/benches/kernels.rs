//! Micro-benchmarks of the tensor substrate: the kernels every training
//! step is built from. Regressions here multiply into every experiment.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedprox_tensor::conv::{
    conv2d_backward, conv2d_forward, maxpool2d_forward, Conv2dSpec, ConvScratch, Pool2dSpec,
};
use fedprox_tensor::{activations, vecops, Matrix};

fn pseudo(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

fn bench_vecops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vecops");
    for &n in &[1_000usize, 100_000] {
        let a = pseudo(n, 1);
        let b = pseudo(n, 2);
        g.bench_with_input(BenchmarkId::new("dot", n), &n, |bch, _| {
            bch.iter(|| vecops::dot(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("par_dot", n), &n, |bch, _| {
            bch.iter(|| vecops::par_dot(black_box(&a), black_box(&b)))
        });
        let mut y = pseudo(n, 3);
        g.bench_with_input(BenchmarkId::new("axpy", n), &n, |bch, _| {
            bch.iter(|| vecops::axpy(0.5, black_box(&a), black_box(&mut y)))
        });
    }
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[32usize, 128] {
        let a = Matrix::from_vec(n, n, pseudo(n * n, 4));
        let b = Matrix::from_vec(n, n, pseudo(n * n, 5));
        g.bench_with_input(BenchmarkId::new("square", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
    }
    // Logistic-regression shape: (classes x features) · feature vector.
    let w = Matrix::from_vec(10, 784, pseudo(7840, 6));
    let x = pseudo(784, 7);
    g.bench_function("matvec_10x784", |bch| bch.iter(|| black_box(&w).matvec(black_box(&x))));
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    // The paper CNN's first layer (28x28, 5x5, 1→32).
    let spec = Conv2dSpec::same(1, 32, 5, 28, 28);
    let input = pseudo(spec.input_len(), 8);
    let weight = pseudo(spec.weight_len(), 9);
    let bias = pseudo(spec.out_ch, 10);
    let mut out = vec![0.0; spec.output_len()];
    let mut scratch = ConvScratch::new(&spec);
    g.bench_function("forward_28x28_1to32_k5", |bch| {
        bch.iter(|| {
            conv2d_forward(&spec, black_box(&input), &weight, &bias, &mut out, &mut scratch)
        })
    });
    let go = pseudo(spec.output_len(), 11);
    let mut gw = vec![0.0; spec.weight_len()];
    let mut gb = vec![0.0; spec.out_ch];
    let mut gi = vec![0.0; spec.input_len()];
    conv2d_forward(&spec, &input, &weight, &bias, &mut out, &mut scratch);
    g.bench_function("backward_28x28_1to32_k5", |bch| {
        bch.iter(|| {
            conv2d_backward(
                &spec,
                black_box(&input),
                black_box(&go),
                &weight,
                &mut gw,
                &mut gb,
                Some(&mut gi),
                &mut scratch,
            )
        })
    });
    let pool = Pool2dSpec { channels: 32, height: 28, width: 28, size: 2 };
    let pin = pseudo(pool.input_len(), 12);
    let mut pout = vec![0.0; pool.output_len()];
    let mut parg = vec![0usize; pool.output_len()];
    g.bench_function("maxpool_32x28x28", |bch| {
        bch.iter(|| maxpool2d_forward(&pool, black_box(&pin), &mut pout, &mut parg))
    });
    g.finish();
}

fn bench_activations(c: &mut Criterion) {
    let mut g = c.benchmark_group("activations");
    let logits = pseudo(10, 13);
    g.bench_function("softmax_10", |bch| {
        bch.iter(|| {
            let mut l = logits.clone();
            activations::softmax_inplace(black_box(&mut l));
            l
        })
    });
    g.bench_function("cross_entropy_grad_10", |bch| {
        let mut out = vec![0.0; 10];
        bch.iter(|| {
            activations::cross_entropy_grad_from_logits(black_box(&logits), 3, &mut out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_vecops, bench_matmul, bench_conv, bench_activations);
criterion_main!(benches);
