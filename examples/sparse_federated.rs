//! Sparse FedProxVR: the paper's surrogate extended with an L1 term,
//! `h_s(w) = μ/2 ‖w − w̄‖² + l1 ‖w‖₁` — still closed-form proximable, so
//! Algorithm 1 runs unchanged (this is exactly the composite, non-smooth
//! setting the ProxSVRG/ProxSARAH literature the paper builds on was
//! designed for).
//!
//! Scenario: only 10 of 60 features are informative; the L1 term should
//! recover a sparse global model without hurting accuracy much.
//!
//! ```sh
//! cargo run --release --example sparse_federated
//! ```

// Example code: panicking with context keeps the walkthrough focused
// on the federated-learning API rather than error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox::data::split::split_federation;
use fedprox::data::synthetic::device_rng;
use fedprox::data::Dataset;
use fedprox::models::MultinomialLogistic;
use fedprox::prelude::*;
use fedprox::tensor::Matrix;
use rand::Rng;

/// Build shards where the labels depend only on the first `informative`
/// features; the rest are pure noise.
fn sparse_task(devices: usize, samples: usize, dim: usize, informative: usize) -> Vec<Dataset> {
    (0..devices)
        .map(|id| {
            let mut rng = device_rng(77, id as u64);
            let mut f = Matrix::zeros(samples, dim);
            let mut y = Vec::with_capacity(samples);
            for i in 0..samples {
                let row = f.row_mut(i);
                for v in row.iter_mut() {
                    *v = rng.gen_range(-1.0..1.0);
                }
                // Two classes split by a sparse hyperplane (plus a small
                // device-specific tilt — heterogeneity).
                let tilt = 0.2 * (id as f64 - devices as f64 / 2.0) / devices as f64;
                let score: f64 =
                    row[..informative].iter().enumerate().map(|(j, &v)| {
                        let coef = if j % 2 == 0 { 1.0 } else { -1.0 };
                        coef * v
                    }).sum::<f64>() + tilt;
                y.push(if score > 0.0 { 1.0 } else { 0.0 });
            }
            Dataset::new(f, y, 2)
        })
        .collect()
}

fn main() {
    let dim = 60;
    let informative = 10;
    let shards = sparse_task(8, 150, dim, informative);
    let (train, test) = split_federation(&shards, 7);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = MultinomialLogistic::new(dim, 2);

    println!(
        "{:>8} {:>12} {:>12} {:>16}",
        "l1", "accuracy", "final loss", "nonzero weights"
    );
    for l1 in [0.0, 0.01, 0.05, 0.15] {
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_beta(4.0)
            .with_smoothness(2.0)
            .with_tau(15)
            .with_mu(0.1)
            .with_l1(l1)
            .with_batch_size(8)
            .with_rounds(60)
            .with_eval_every(60)
            .with_seed(7);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        let acc = h.records.last().unwrap().test_accuracy;
        let loss = h.final_loss().unwrap_or(f64::NAN);
        let nonzero = h.final_model.iter().filter(|v| v.abs() > 1e-6).count();
        println!(
            "{l1:>8} {:>11.1}% {loss:>12.4} {nonzero:>11}/{}",
            acc * 100.0,
            h.final_model.len()
        );
    }
    println!("\nLarger l1 zeroes out more of the {}-dim model while the task only", dim);
    println!("needs {informative} informative features — sparsity costs little accuracy.");
}
