//! Every model in the zoo, trained federatedly — the System Model's
//! example losses (linear regression, SVM) included, plus the sparse
//! FedProxVR extension.

use fedprox::data::Dataset;
use fedprox::models::{Cnn, CnnSpec, LinearRegression, Mlp, SmoothedSvm};
use fedprox::prelude::*;
use fedprox::tensor::Matrix;

fn regression_devices(n_dev: usize) -> (Vec<Device>, Dataset) {
    let true_w = [1.5, -2.0, 0.5];
    let make = |id: usize, n: usize| -> Dataset {
        let mut f = Matrix::zeros(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let x = [
                ((i * 3 + id * 17) as f64 * 0.31).sin(),
                ((i * 7 + id * 5) as f64 * 0.53).cos(),
                ((i + id) as f64 * 0.11).sin(),
            ];
            f.row_mut(i).copy_from_slice(&x);
            // Device-specific intercept shift = heterogeneity.
            y.push(true_w.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>()
                + 0.05 * id as f64);
        }
        Dataset::new(f, y, 0)
    };
    let devices: Vec<Device> =
        (0..n_dev).map(|id| Device::new(id, make(id, 60))).collect();
    let test = make(99, 40);
    (devices, test)
}

fn binary_devices(n_dev: usize) -> (Vec<Device>, Dataset) {
    let make = |id: usize, n: usize| -> Dataset {
        let mut f = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2;
            let cx = if cls == 0 { -2.0 } else { 2.0 };
            f.row_mut(i)[0] = cx + ((i * 13 + id * 7) as f64 * 0.47).sin();
            f.row_mut(i)[1] = cx * 0.5 + ((i * 11 + id * 3) as f64 * 0.29).cos();
            y.push(cls as f64);
        }
        Dataset::new(f, y, 2)
    };
    let devices: Vec<Device> =
        (0..n_dev).map(|id| Device::new(id, make(id, 50))).collect();
    let test = make(77, 60);
    (devices, test)
}

fn cfg(alg: Algorithm) -> FedConfig {
    FedConfig::new(alg)
        .with_beta(4.0)
        .with_smoothness(1.0)
        .with_tau(10)
        .with_mu(0.2)
        .with_batch_size(8)
        .with_rounds(20)
        .with_eval_every(10)
        .with_seed(31)
}

#[test]
fn linear_regression_federated() {
    let (devices, test) = regression_devices(5);
    let model = LinearRegression::with_intercept(3);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedProxVr(EstimatorKind::Sarah)),
    )
    .run().expect("run");
    assert!(!h.diverged());
    assert!(
        h.final_loss().unwrap() < 0.1 * h.records[0].train_loss,
        "linreg: {} -> {}",
        h.records[0].train_loss,
        h.final_loss().unwrap()
    );
}

#[test]
fn svm_federated_reaches_high_accuracy() {
    let (devices, test) = binary_devices(4);
    let model = SmoothedSvm::new(2, 0.5).with_l2(0.01);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)),
    )
    .run().expect("run");
    assert!(!h.diverged());
    assert!(h.best_accuracy() > 0.95, "svm acc {}", h.best_accuracy());
}

#[test]
fn mlp_federated_all_algorithms() {
    let (devices, test) = binary_devices(3);
    let model = Mlp::new(2, 8, 2);
    for alg in [Algorithm::FedAvg, Algorithm::FedProx, Algorithm::Fsvrg] {
        let h = FederatedTrainer::new(&model, &devices, &test, cfg(alg)).run().expect("run");
        assert!(!h.diverged(), "{}", alg.name());
        assert!(
            h.final_loss().unwrap() < h.records[0].train_loss,
            "{} did not descend",
            alg.name()
        );
    }
}

#[test]
fn hidden_cnn_federated() {
    // Tiny CNN with the McMahan-style dense layer on 8x8 inputs.
    let spec = CnnSpec::tiny_hidden();
    let dim = spec.side * spec.side;
    let make = |id: usize, n: usize| -> Dataset {
        let mut f = Matrix::zeros(n, dim);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % spec.classes;
            for j in 0..dim {
                // Class-dependent intensity bands + noise-ish hash.
                let base = 0.2 + 0.3 * cls as f64;
                let h = (((i * 31 + j * 7 + id * 13) % 17) as f64) / 17.0;
                f.row_mut(i)[j] = (base + 0.2 * h).min(1.0);
            }
            y.push(cls as f64);
        }
        Dataset::new(f, y, spec.classes)
    };
    let devices: Vec<Device> = (0..3).map(|id| Device::new(id, make(id, 24))).collect();
    let test = make(9, 18);
    let model = Cnn::new(spec);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(10).with_smoothness(2.0),
    )
    .run().expect("run");
    assert!(!h.diverged());
    assert!(h.final_loss().unwrap() < h.records[0].train_loss);
}

#[test]
fn sparse_fedproxvr_zeroes_noise_features() {
    // 2 informative + 18 noise features; L1 should kill most of the noise
    // block in the final global model.
    let make = |id: usize, n: usize| -> Dataset {
        let mut f = Matrix::zeros(n, 20);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2;
            let sign = if cls == 0 { -1.0 } else { 1.0 };
            f.row_mut(i)[0] = sign * (1.0 + ((i + id) as f64 * 0.37).sin().abs());
            f.row_mut(i)[1] = sign * 0.7;
            for j in 2..20 {
                f.row_mut(i)[j] = (((i * 7 + j * 13 + id * 3) % 11) as f64 - 5.0) / 5.0;
            }
            y.push(cls as f64);
        }
        Dataset::new(f, y, 2)
    };
    let devices: Vec<Device> = (0..4).map(|id| Device::new(id, make(id, 60))).collect();
    let test = make(8, 40);
    let model = fedprox::models::MultinomialLogistic::new(20, 2);
    let run = |l1: f64| {
        FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_l1(l1).with_rounds(40),
        )
        .run()
        .expect("run")
    };
    let dense = run(0.0);
    let sparse = run(0.05);
    let nonzero = |h: &History| h.final_model.iter().filter(|v| v.abs() > 1e-6).count();
    assert!(
        nonzero(&sparse) < nonzero(&dense),
        "sparse {} vs dense {}",
        nonzero(&sparse),
        nonzero(&dense)
    );
    // And it still classifies.
    assert!(sparse.best_accuracy() > 0.9, "sparse acc {}", sparse.best_accuracy());
}
