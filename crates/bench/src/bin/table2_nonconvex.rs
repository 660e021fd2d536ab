//! Table 2: best-hyper-parameter test accuracies on the non-convex task
//! (two-layer CNN, MNIST-like), found by random search per algorithm.


// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_bench::{mnist_federation, parse_args, write_json, RunInfo, Scale, TraceSession};
use fedprox_core::search::{random_search, SearchSpace};
use fedprox_core::{Algorithm, FedConfig};
use fedprox_models::{Cnn, CnnSpec};
use fedprox_optim::estimator::EstimatorKind;

fn main() {
    let args = parse_args("table2_nonconvex", std::env::args().skip(1));
    let info = RunInfo::new(args.describe("table2_nonconvex"), args.seed);
    let trace = TraceSession::start(args.obs.as_deref(), &info);
    let (devices_n, lo, hi, trials, spec, space) = match args.scale {
        Scale::Paper => (
            10,
            454,
            3939,
            8,
            CnnSpec::paper(),
            SearchSpace {
                taus: vec![10, 20],
                betas: vec![5.0, 7.0, 9.0, 10.0],
                mus: vec![0.01, 0.1],
                batches: vec![16, 32, 64],
                rounds: (600, 1000),
            },
        ),
        Scale::Small => (
            4,
            20,
            50,
            3,
            CnnSpec::tiny(),
            SearchSpace {
                taus: vec![3, 5],
                betas: vec![5.0, 7.0],
                mus: vec![0.01, 0.1],
                batches: vec![8, 16],
                rounds: (8, 15),
            },
        ),
    };

    let fed = mnist_federation(devices_n, lo, hi, args.seed);
    // The tiny spec classifies 3 classes; remap labels for the small run.
    let (devices, test, model) = if spec.classes < 10 {
        let remap = |d: &fedprox_data::Dataset| {
            let side_dim = spec.side * spec.side;
            let feats: Vec<f64> = (0..d.len())
                .flat_map(|i| {
                    // Downsample 28x28 → side x side by strided picking.
                    let stride = 28 / spec.side;
                    let x = d.x(i);
                    (0..side_dim).map(move |j| {
                        let (r, c) = (j / spec.side, j % spec.side);
                        x[(r * stride) * 28 + c * stride]
                    })
                })
                .collect();
            let labels: Vec<f64> =
                (0..d.len()).map(|i| (d.class_of(i) % spec.classes) as f64).collect();
            fedprox_data::Dataset::new(
                fedprox_tensor::Matrix::from_vec(d.len(), side_dim, feats),
                labels,
                spec.classes,
            )
        };
        let devices: Vec<fedprox_core::Device> = fed
            .devices
            .iter()
            .map(|d| fedprox_core::Device::new(d.id, remap(&d.data)))
            .collect();
        (devices, remap(&fed.test), Cnn::new(spec))
    } else {
        (fed.devices, fed.test, Cnn::new(spec))
    };

    let base = FedConfig::new(Algorithm::FedAvg)
        .with_smoothness(2.0)
        .with_eval_every(4);

    println!("Table 2: non-convex task (CNN, mnist-like), {trials} trials per algorithm");
    println!(
        "{:<20} {:>5} {:>6} {:>6} {:>5} {:>6} {:>10}",
        "Algorithm", "tau", "beta", "mu", "B", "T", "Accuracy"
    );
    let mut results = Vec::new();
    for alg in [
        Algorithm::FedAvg,
        Algorithm::FedProxVr(EstimatorKind::Svrg),
        Algorithm::FedProxVr(EstimatorKind::Sarah),
    ] {
        let r = random_search(&model, &devices, &test, alg, &space, trials, args.seed, &base)
            .expect("search");
        let b = &r.best;
        println!(
            "{:<20} {:>5} {:>6} {:>6} {:>5} {:>6} {:>9.2}%",
            r.algorithm,
            b.tau,
            b.beta,
            b.mu,
            b.batch,
            b.rounds,
            b.accuracy * 100.0
        );
        results.push(r);
    }
    if let Some(dir) = &args.out {
        write_json(dir, "table2_nonconvex", &results);
    }
    trace.finish();
}
