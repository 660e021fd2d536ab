//! The benchmark registry: micro-benchmarks over the tensor kernels and
//! the optim inner loop, plus macro-benchmarks timing one full FedProxVR
//! round per model (logistic, MLP, CNN) on small synthetic data.
//!
//! Everything is seeded and fixed-size; the only run-to-run variation is
//! wall time. Iteration budgets are declared per bench (full and quick),
//! never calibrated, so CI can require two runs to execute identical work.

use crate::report::{BenchEntry, BenchReport, SCHEMA};
use crate::timer::{self, Timing};
use fedprox_core::algorithm::Algorithm;
use fedprox_core::config::FedConfig;
use fedprox_core::server::{aggregate, weights_from_sizes};
use fedprox_core::device::Device;
use fedprox_data::synthetic::{generate, SyntheticConfig};
use fedprox_data::Dataset;
use fedprox_models::{Cnn, CnnSpec, GradScratch, LossModel, Mlp, MultinomialLogistic};
use fedprox_optim::estimator::{Estimator, EstimatorKind};
use fedprox_optim::prox::{L1Prox, Proximal, QuadraticProx};
use fedprox_optim::solver::{IterateChoice, LocalSolver, LocalSolverConfig};
use fedprox_optim::StepSize;
use fedprox_tensor::activations::softmax_inplace;
use fedprox_tensor::conv::{
    conv2d_backward, conv2d_forward, im2col, Conv2dSpec, ConvScratch,
};
use fedprox_tensor::kernel;
use fedprox_tensor::matrix::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedprox_tensor::{vecops, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One registered benchmark: identity plus a ready-to-run closure with
/// all state captured (setup happens at construction, outside timing).
pub struct Bench {
    /// Unique id `<op>/<shape>`.
    pub id: String,
    /// Operation name.
    pub op: &'static str,
    /// Shape/configuration token.
    pub shape: &'static str,
    /// `"micro"` or `"macro"`.
    pub kind: &'static str,
    /// Budget for a full run.
    pub full: Timing,
    /// Budget for `--quick`.
    pub quick: Timing,
    /// The timed body.
    pub run: Box<dyn FnMut()>,
}

impl Bench {
    fn new(
        op: &'static str,
        shape: &'static str,
        kind: &'static str,
        full: Timing,
        quick: Timing,
        run: Box<dyn FnMut()>,
    ) -> Self {
        Bench { id: format!("{op}/{shape}"), op, shape, kind, full, quick, run }
    }

    /// The budget for the given mode.
    pub fn timing(&self, quick: bool) -> Timing {
        if quick {
            self.quick
        } else {
            self.full
        }
    }
}

/// Deterministic value stream (independent of the `rand` crate's
/// internals, so fixtures never drift with shim changes).
fn xorshift(mut state: u64) -> impl FnMut() -> f64 {
    state |= 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

fn filled_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut next = xorshift(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = next();
    }
    m
}

fn filled_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    (0..len).map(|_| next()).collect()
}

/// Classification dataset with unit-interval features (CNN-friendly).
fn image_data(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
    let mut next = xorshift(seed);
    let mut f = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..dim {
            f.row_mut(i)[j] = next().abs();
        }
        y.push((i % classes) as f64);
    }
    Dataset::new(f, y, classes)
}

fn matmul_bench(
    op: &'static str,
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    full: Timing,
    quick: Timing,
) -> Bench {
    // Operand shapes per transposition convention (see tensor::matrix).
    let (a, b, out) = match op {
        "matmul" => (filled_matrix(m, k, 11), filled_matrix(k, n, 12), Matrix::zeros(m, n)),
        "matmul_tn" => (filled_matrix(k, m, 13), filled_matrix(k, n, 14), Matrix::zeros(m, n)),
        "matmul_nt" => (filled_matrix(m, k, 15), filled_matrix(n, k, 16), Matrix::zeros(m, n)),
        other => unreachable!("unknown matmul op {other}"),
    };
    let mut out = out;
    Bench::new(
        op,
        shape,
        "micro",
        full,
        quick,
        Box::new(move || {
            match op {
                "matmul" => matmul_into(&a, &b, &mut out),
                "matmul_tn" => matmul_tn_into(&a, &b, &mut out),
                _ => matmul_nt_into(&a, &b, &mut out),
            }
            black_box(out.as_slice());
        }),
    )
}

fn estimator_step_bench(kind: EstimatorKind, shape: &'static str) -> Bench {
    let model = MultinomialLogistic::new(60, 10).with_l2(0.01);
    let data = image_data(64, 60, 10, 0xE57E);
    let w0 = model.init_params(3);
    let mut w_t = w0.clone();
    // A fixed iterate near (but not at) the anchor, so the VR correction
    // terms do real work.
    for (j, v) in w_t.iter_mut().enumerate() {
        *v += 0.01 * ((j % 7) as f64 - 3.0);
    }
    let batch: Vec<usize> = (0..16).map(|i| (i * 37) % 64).collect();
    let mut est = Estimator::begin(kind, &model, &data, &w0);
    let op = match kind {
        EstimatorKind::Svrg => "svrg_step",
        _ => "sarah_step",
    };
    Bench::new(
        op,
        shape,
        "micro",
        Timing::new(5, 100, 5),
        Timing::new(1, 5, 3),
        Box::new(move || {
            est.step(&model, &data, &batch, &w_t);
            black_box(est.direction());
        }),
    )
}

fn prox_bench(op: &'static str, shape: &'static str, prox: Box<dyn Proximal>) -> Bench {
    let x = filled_vec(8192, 0x9B0C);
    let mut out = vec![0.0; 8192];
    Bench::new(
        op,
        shape,
        "micro",
        Timing::new(5, 200, 5),
        Timing::new(1, 5, 3),
        Box::new(move || {
            prox.prox(0.05, &x, &mut out);
            black_box(&out[..]);
        }),
    )
}

fn round_bench(
    op: &'static str,
    shape: &'static str,
    model: Box<dyn LossModel>,
    shards: Vec<Dataset>,
    cfg: FedConfig,
    full: Timing,
    quick: Timing,
) -> Bench {
    let sizes: Vec<usize> = shards.iter().map(Dataset::len).collect();
    let weights = weights_from_sizes(&sizes);
    let devices: Vec<Device> =
        shards.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let w0 = model.init_params(fedprox_models::MODEL_SEED);
    let mut agg = vec![0.0; w0.len()];
    Bench::new(
        op,
        shape,
        "macro",
        full,
        quick,
        Box::new(move || {
            let updates: Vec<_> = devices
                .iter()
                .map(|d| d.local_update(&model, &w0, &cfg, 0).expect("round"))
                .collect();
            let pairs: Vec<(&[f64], f64)> =
                updates.iter().zip(&weights).map(|(u, &wt)| (&u.w[..], wt)).collect();
            aggregate(&pairs, &mut agg);
            black_box(&agg[..]);
        }),
    )
}

/// Build the full benchmark suite, in report order.
// The suite reads as a sequential registry — one push per bench, grouped
// by subsystem with commentary — which a single `vec![]` literal would
// obscure.
#[allow(clippy::vec_init_then_push)]
pub fn build_suite() -> Vec<Bench> {
    let mut benches = Vec::new();

    // -- tensor kernels -----------------------------------------------------
    benches.push(matmul_bench(
        "matmul",
        "64x64x64",
        64,
        64,
        64,
        Timing::new(3, 40, 5),
        Timing::new(1, 3, 3),
    ));
    benches.push(matmul_bench(
        "matmul",
        "128x128x128",
        128,
        128,
        128,
        Timing::new(2, 10, 5),
        Timing::new(1, 2, 3),
    ));
    benches.push(matmul_bench(
        "matmul_tn",
        "96x64x80",
        64,
        96,
        80,
        Timing::new(3, 40, 5),
        Timing::new(1, 3, 3),
    ));
    benches.push(matmul_bench(
        "matmul_nt",
        "64x96x80",
        64,
        96,
        80,
        Timing::new(3, 40, 5),
        Timing::new(1, 3, 3),
    ));

    // The same 128^3 product pinned to the scalar reference kernel: the
    // report shows tiled vs reference side by side, and the ratio is the
    // speedup the blocked kernels buy on this machine.
    {
        let a = filled_matrix(128, 128, 17);
        let b = filled_matrix(128, 128, 18);
        let mut out = Matrix::zeros(128, 128);
        benches.push(Bench::new(
            "matmul_ref",
            "128x128x128",
            "micro",
            Timing::new(2, 10, 5),
            Timing::new(1, 2, 3),
            Box::new(move || {
                kernel::with_kernel(kernel::Kernel::Reference, || matmul_into(&a, &b, &mut out));
                black_box(out.as_slice());
            }),
        ));
    }

    // Tile-size sweep over the blocked kernel (same 128^3 product, varying
    // Blocking): re-run on new hardware to re-pick the defaults. Results
    // are bitwise identical across the sweep, so only time differs.
    for (shape, bl) in [
        ("mc32-kc64-nc128", kernel::Blocking::new(32, 64, 128)),
        ("mc64-kc256-nc256", kernel::Blocking::new(64, 256, 256)),
        ("mc128-kc128-nc512", kernel::Blocking::new(128, 128, 512)),
    ] {
        let a = filled_matrix(128, 128, 21);
        let b = filled_matrix(128, 128, 22);
        let mut out = Matrix::zeros(128, 128);
        benches.push(Bench::new(
            "matmul_tile",
            shape,
            "micro",
            Timing::new(2, 10, 5),
            Timing::new(1, 2, 3),
            Box::new(move || {
                kernel::matmul_into_blocked(&a, &b, &mut out, bl);
                black_box(out.as_slice());
            }),
        ));
    }

    // Matrix-vector products at the logistic model's geometry
    // (10 classes x 784 features is the paper's MNIST head; 512x784 is a
    // bigger dense layer that exercises the row-blocked kernel).
    {
        let a = filled_vec(512 * 784, 0xAB01);
        let x = filled_vec(784, 0xAB02);
        let mut out = vec![0.0; 512];
        benches.push(Bench::new(
            "matvec",
            "512x784",
            "micro",
            Timing::new(3, 60, 5),
            Timing::new(1, 3, 3),
            Box::new(move || {
                kernel::matvec_into(&a, 512, 784, &x, &mut out);
                black_box(&out[..]);
            }),
        ));
    }
    {
        let a = filled_vec(512 * 784, 0xAB03);
        let x = filled_vec(512, 0xAB04);
        let mut out = vec![0.0; 784];
        benches.push(Bench::new(
            "matvec_t",
            "512x784",
            "micro",
            Timing::new(3, 60, 5),
            Timing::new(1, 3, 3),
            Box::new(move || {
                kernel::matvec_t_into(&a, 512, 784, &x, &mut out);
                black_box(&out[..]);
            }),
        ));
    }

    // im2col unfold on the paper's 28x28 geometry (8 output channels).
    {
        let spec = Conv2dSpec::same(1, 8, 5, 28, 28);
        let input = filled_vec(spec.input_len(), 0x1337);
        let mut cols = Matrix::zeros(spec.col_rows(), spec.col_cols());
        benches.push(Bench::new(
            "im2col",
            "1x28x28-k5",
            "micro",
            Timing::new(3, 60, 5),
            Timing::new(1, 3, 3),
            Box::new(move || {
                im2col(&spec, &input, &mut cols);
                black_box(cols.as_slice());
            }),
        ));
    }

    // Convolution forward/backward through the im2col path.
    {
        let spec = Conv2dSpec::same(1, 8, 5, 28, 28);
        let input = filled_vec(spec.input_len(), 0xC0FF);
        let weight = filled_vec(spec.weight_len(), 0xC1FF);
        let bias = filled_vec(spec.out_ch, 0xC2FF);
        let mut output = vec![0.0; spec.output_len()];
        let mut scratch = ConvScratch::new(&spec);
        benches.push(Bench::new(
            "conv2d_fwd",
            "1to8x28x28-k5",
            "micro",
            Timing::new(3, 30, 5),
            Timing::new(1, 3, 3),
            Box::new(move || {
                conv2d_forward(&spec, &input, &weight, &bias, &mut output, &mut scratch);
                black_box(&output[..]);
            }),
        ));
    }
    {
        let spec = Conv2dSpec::same(1, 8, 5, 28, 28);
        let input = filled_vec(spec.input_len(), 0xB0FF);
        let weight = filled_vec(spec.weight_len(), 0xB1FF);
        let bias = filled_vec(spec.out_ch, 0xB2FF);
        let mut output = vec![0.0; spec.output_len()];
        let mut scratch = ConvScratch::new(&spec);
        // Warm the scratch tables once so the timed body measures the
        // steady-state (zero-allocation) backward.
        conv2d_forward(&spec, &input, &weight, &bias, &mut output, &mut scratch);
        let grad_out = filled_vec(spec.output_len(), 0xB3FF);
        let mut gw = vec![0.0; spec.weight_len()];
        let mut gb = vec![0.0; spec.out_ch];
        let mut gi = vec![0.0; spec.input_len()];
        benches.push(Bench::new(
            "conv2d_bwd",
            "1to8x28x28-k5",
            "micro",
            Timing::new(3, 30, 5),
            Timing::new(1, 3, 3),
            Box::new(move || {
                // Grad buffers accumulate (+=); zeroing is part of the op,
                // as every real caller starts from a zeroed gradient.
                gw.fill(0.0);
                gb.fill(0.0);
                conv2d_backward(
                    &spec, &input, &grad_out, &weight, &mut gw, &mut gb, Some(&mut gi), &mut scratch,
                );
                black_box(&gi[..]);
            }),
        ));
    }

    // Softmax and reductions.
    {
        let src = filled_vec(4096, 0x50F7);
        let mut buf = vec![0.0; 4096];
        benches.push(Bench::new(
            "softmax",
            "4096",
            "micro",
            Timing::new(5, 200, 5),
            Timing::new(1, 5, 3),
            Box::new(move || {
                buf.copy_from_slice(&src);
                softmax_inplace(&mut buf);
                black_box(&buf[..]);
            }),
        ));
    }
    {
        let x = filled_vec(16384, 0xA001);
        benches.push(Bench::new(
            "reduce_norm_sq",
            "16384",
            "micro",
            Timing::new(5, 400, 5),
            Timing::new(1, 5, 3),
            Box::new(move || {
                black_box(vecops::norm_sq(&x));
            }),
        ));
    }
    {
        let a = filled_vec(16384, 0xA002);
        let b = filled_vec(16384, 0xA003);
        benches.push(Bench::new(
            "reduce_dot",
            "16384",
            "micro",
            Timing::new(5, 400, 5),
            Timing::new(1, 5, 3),
            Box::new(move || {
                black_box(vecops::dot(&a, &b));
            }),
        ));
    }

    // -- optim inner loop ---------------------------------------------------
    benches.push(estimator_step_bench(EstimatorKind::Svrg, "logistic-60x10-b16"));
    benches.push(estimator_step_bench(EstimatorKind::Sarah, "logistic-60x10-b16"));

    {
        let anchor = filled_vec(8192, 0x9A0C);
        benches.push(prox_bench("prox_quad", "8192", Box::new(QuadraticProx::new(0.3, anchor))));
    }
    benches.push(prox_bench("prox_l1", "8192", Box::new(L1Prox::new(0.02))));

    // Minibatch gradients of the paper's convex model (784 features, 10
    // classes) through one reused scratch: the fig2 batch (4) and a full
    // 32-sample chunk. Steady state allocates nothing (ci.sh gates it).
    for (shape, b) in [("784x10-b4", 4usize), ("784x10-b32", 32)] {
        let model = MultinomialLogistic::new(784, 10);
        let data = image_data(96, 784, 10, 0x10C1);
        let w = model.init_params(9);
        let batch: Vec<usize> = (0..b).map(|i| (i * 37) % 96).collect();
        let mut out = vec![0.0; model.dim()];
        let mut scratch = GradScratch::new();
        benches.push(Bench::new(
            "logistic_grad",
            shape,
            "micro",
            Timing::new(5, 200, 5),
            Timing::new(2, 10, 3),
            Box::new(move || {
                model.batch_grad_in(&w, &data, &batch, &mut out, &mut scratch);
                black_box(&out[..]);
            }),
        ));
    }

    // A whole local solve: anchor full gradient + tau proximal VR steps.
    {
        let model = MultinomialLogistic::new(60, 10).with_l2(0.01);
        let data = image_data(64, 60, 10, 0x501E);
        let w0 = model.init_params(5);
        let prox = QuadraticProx::new(0.1, w0.clone());
        let scfg = LocalSolverConfig {
            kind: EstimatorKind::Sarah,
            step: StepSize::Constant(0.05),
            tau: 8,
            batch_size: 8,
            choice: IterateChoice::Last,
        };
        let solver = LocalSolver;
        benches.push(Bench::new(
            "local_solve",
            "logistic-60x10-tau8-b8",
            "micro",
            Timing::new(2, 20, 5),
            Timing::new(1, 2, 3),
            Box::new(move || {
                let mut rng = StdRng::seed_from_u64(7);
                let out = solver.solve(&model, &data, &prox, &w0, &scfg, &mut rng);
                black_box(&out.w[..]);
            }),
        ));
    }

    // -- macro: one full FedProxVR round per model --------------------------
    {
        let shards = generate(&SyntheticConfig { seed: 41, ..Default::default() }, &[40; 8]);
        benches.push(round_bench(
            "round",
            "fedproxvr-logistic-8dev",
            Box::new(MultinomialLogistic::new(60, 10).with_l2(0.01)),
            shards,
            FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
                .with_seed(17)
                .with_tau(4)
                .with_batch_size(8)
                .with_mu(0.1),
            Timing::new(2, 10, 5),
            Timing::new(1, 2, 2),
        ));
    }
    {
        let shards = generate(&SyntheticConfig { seed: 43, ..Default::default() }, &[40; 8]);
        benches.push(round_bench(
            "round",
            "fedproxvr-mlp-8dev",
            Box::new(Mlp::new(60, 32, 10).with_l2(0.01)),
            shards,
            FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
                .with_seed(19)
                .with_tau(4)
                .with_batch_size(8)
                .with_mu(0.1),
            Timing::new(2, 8, 5),
            Timing::new(1, 2, 2),
        ));
    }
    {
        let spec = CnnSpec::tiny();
        let dim = spec.in_ch * spec.side * spec.side;
        let shards: Vec<Dataset> =
            (0..4).map(|d| image_data(24, dim, spec.classes, 0xCCC0 + d)).collect();
        benches.push(round_bench(
            "round",
            "fedproxvr-cnn-tiny-4dev",
            Box::new(Cnn::new(spec)),
            shards,
            FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                .with_seed(23)
                .with_tau(2)
                .with_batch_size(4)
                .with_mu(0.1),
            Timing::new(1, 4, 4),
            Timing::new(1, 1, 2),
        ));
    }

    // -- macro: one event-driven round over a million-device population ----
    // The population is lazy (per-device sample counts + shard synthesis
    // on demand), so setup cost is the Zipf size scan, not data; each
    // iteration samples K=64 clients, solves them, and aggregates.
    {
        use fedprox_core::config::{RunnerKind, SamplerSpec, SimRunnerOptions};
        use fedprox_data::partition::ZipfPopulation;
        use fedprox_data::synthetic::SyntheticPool;
        use fedprox_sim::{LazyPopulation, Population, SimEngine};

        let zipf = ZipfPopulation::new(1_000_000, 40, 120, 1.5, 4.0, 29);
        let pool = SyntheticPool::new(SyntheticConfig { seed: 29, ..Default::default() });
        let lazy = LazyPopulation::new(zipf, pool);
        let model = MultinomialLogistic::new(60, 10);
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_seed(29)
            .with_tau(4)
            .with_batch_size(8)
            .with_mu(0.1)
            .with_rounds(1)
            .with_runner(RunnerKind::EventDriven(
                SimRunnerOptions::default().with_sampler(SamplerSpec::UniformK(64)),
            ));
        benches.push(Bench::new(
            "sim_round_1m",
            "zipf-k64",
            "macro",
            Timing::new(2, 10, 5),
            Timing::new(1, 2, 2),
            Box::new(move || {
                let engine =
                    SimEngine::new(&model, Population::Lazy(lazy.clone()), None, cfg.clone());
                match engine.run() {
                    Ok(h) => {
                        black_box(&h.final_model[..]);
                    }
                    Err(e) => panic!("sim_round_1m failed: {e}"),
                }
            }),
        ));
    }

    benches
}

/// Run the suite (optionally filtered by substring) and assemble the
/// report. `quick` selects the reduced budgets.
pub fn run_suite(name: &str, quick: bool, filter: Option<&str>) -> BenchReport {
    let mut entries = Vec::new();
    for mut bench in build_suite() {
        if let Some(f) = filter {
            if !bench.id.contains(f) {
                continue;
            }
        }
        let timing = bench.timing(quick);
        let m = timer::run(timing, bench.run.as_mut());
        entries.push(BenchEntry {
            id: bench.id.clone(),
            kind: bench.kind.to_string(),
            op: bench.op.to_string(),
            shape: bench.shape.to_string(),
            warmup: timing.warmup,
            iters: timing.iters,
            repeats: timing.repeats,
            ns_per_iter: m.ns_per_iter,
            bytes_per_iter: m.bytes_per_iter,
            allocs_per_iter: m.allocs_per_iter,
        });
    }
    let mode = if quick { "quick" } else { "full" };
    BenchReport {
        schema: SCHEMA.to_string(),
        name: name.to_string(),
        mode: mode.to_string(),
        config: fedprox_obs::fnv64(&format!("fedperf name={name} mode={mode} filter={filter:?}")),
        kernel: kernel::active().name().to_string(),
        features: compiled_features(),
        entries,
    }
}

/// The feature set this harness was compiled with, comma-joined in a
/// fixed order — part of the run-ledger stamp so the baseline gate can
/// refuse cross-build comparisons.
fn compiled_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    if cfg!(feature = "count-alloc") {
        feats.push("count-alloc");
    }
    if cfg!(feature = "telemetry") {
        feats.push("telemetry");
    }
    feats.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    #[test]
    fn suite_ids_are_unique_and_cover_micro_and_macro() {
        let suite = build_suite();
        let mut ids: Vec<&str> = suite.iter().map(|b| b.id.as_str()).collect();
        let micro = suite.iter().filter(|b| b.kind == "micro").count();
        let macr = suite.iter().filter(|b| b.kind == "macro").count();
        assert!(micro >= 8, "need >= 8 micro benches, have {micro}");
        assert!(macr >= 3, "need >= 3 macro benches, have {macr}");
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate bench ids");
    }

    #[test]
    fn quick_suite_runs_and_validates() {
        let rep = run_suite("selftest", true, None);
        let json = rep.to_json().unwrap_or_default();
        let back = crate::report::BenchReport::from_json(&json)
            .unwrap_or_else(|e| panic!("emitted report fails validation: {e}"));
        assert_eq!(back.entries.len(), rep.entries.len());
        assert!(report::check_determinism(&rep, &back).is_ok());
    }

    #[test]
    fn filter_selects_subset() {
        let rep = run_suite("f", true, Some("reduce_"));
        assert_eq!(rep.entries.len(), 2);
        assert!(rep.entries.iter().all(|e| e.op.starts_with("reduce_")));
    }
}
