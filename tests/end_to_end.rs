//! End-to-end integration tests spanning the whole workspace: data
//! generation → partitioning → federated training → metrics.

use fedprox::core::config::NetRunnerOptions;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::data::Dataset;
use fedprox::models::{Mlp, MultinomialLogistic};
use fedprox::prelude::*;

fn synthetic_federation(seed: u64, sizes: &[usize]) -> (Vec<Device>, Dataset) {
    let shards =
        generate(&SyntheticConfig { seed, ..Default::default() }, sizes);
    let (train, test) = split_federation(&shards, seed);
    let devices = train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    (devices, test)
}

fn cfg(alg: Algorithm) -> FedConfig {
    FedConfig::new(alg)
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(8)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(15)
        .with_eval_every(5)
        .with_seed(99)
}

#[test]
fn all_algorithms_learn_synthetic_logistic() {
    let (devices, test) = synthetic_federation(1, &[80, 120, 60]);
    let model = MultinomialLogistic::new(60, 10);
    for alg in [
        Algorithm::FedAvg,
        Algorithm::FedProxVr(EstimatorKind::Svrg),
        Algorithm::FedProxVr(EstimatorKind::Sarah),
    ] {
        let h = FederatedTrainer::new(&model, &devices, &test, cfg(alg)).run().expect("run");
        assert!(!h.diverged(), "{} diverged", alg.name());
        let first = h.records[0].train_loss;
        let last = h.final_loss().unwrap();
        assert!(last < first * 0.9, "{}: {first:.3} -> {last:.3}", alg.name());
        assert!(h.best_accuracy() > 0.2, "{}: acc {}", alg.name(), h.best_accuracy());
    }
}

#[test]
fn nonconvex_mlp_learns_federatedly() {
    let (devices, test) = synthetic_federation(2, &[100, 100]);
    let model = Mlp::new(60, 16, 10);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(20),
    )
    .run().expect("run");
    assert!(!h.diverged());
    assert!(h.final_loss().unwrap() < h.records[0].train_loss);
}

#[test]
fn three_backends_produce_identical_metrics() {
    let (devices, test) = synthetic_federation(3, &[60, 90, 40]);
    let model = MultinomialLogistic::new(60, 10);
    let base = cfg(Algorithm::FedProxVr(EstimatorKind::Sarah)).with_rounds(6);

    let h_seq = FederatedTrainer::new(&model, &devices, &test, base.clone()).run().expect("run");
    let h_sim = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        base.clone().with_runner(RunnerKind::EventDriven(SimRunnerOptions::default())),
    )
    .run().expect("run");
    let h_net = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        base.with_runner(RunnerKind::Network(NetRunnerOptions::default())),
    )
    .run().expect("run");

    assert_eq!(h_seq.records.len(), h_sim.records.len());
    assert_eq!(h_seq.records.len(), h_net.records.len());
    for ((a, b), c) in h_seq.records.iter().zip(&h_sim.records).zip(&h_net.records) {
        assert_eq!(a.train_loss, b.train_loss, "seq vs sim at round {}", a.round);
        assert_eq!(a.train_loss, c.train_loss, "seq vs net at round {}", a.round);
        assert_eq!(a.test_accuracy, c.test_accuracy);
    }
}

#[test]
fn single_sample_devices_work() {
    // Failure-injection: degenerate federation with 1-sample shards.
    let shards = generate(
        &SyntheticConfig { seed: 5, ..Default::default() },
        &[1, 1, 200],
    );
    let devices: Vec<Device> =
        shards.iter().cloned().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let test = shards[2].clone();
    let model = MultinomialLogistic::new(60, 10);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_batch_size(4).with_rounds(5),
    )
    .run().expect("run");
    assert!(!h.diverged());
    assert_eq!(h.rounds_run, 5);
}

#[test]
fn histories_export_and_reimport() {
    let (devices, test) = synthetic_federation(6, &[50, 70]);
    let model = MultinomialLogistic::new(60, 10);
    let h = FederatedTrainer::new(&model, &devices, &test, cfg(Algorithm::FedAvg)).run().expect("run");
    let json = h.to_json();
    let back = History::from_json(&json).unwrap();
    // Compare within 1 ULP: the vendored serde_json's float parser is
    // occasionally off by one ULP on roundtrip, which is irrelevant for
    // experiment records.
    assert_eq!(back.records.len(), h.records.len());
    let close = |a: f64, b: f64| (a - b).abs() <= f64::EPSILON * a.abs().max(b.abs()).max(1.0);
    for (x, y) in back.records.iter().zip(&h.records) {
        assert_eq!(x.round, y.round);
        assert!(close(x.train_loss, y.train_loss));
        assert!(close(x.test_accuracy, y.test_accuracy));
        assert!(close(x.grad_norm_sq, y.grad_norm_sq));
        assert_eq!(x.grad_evals, y.grad_evals);
    }
    let csv = h.to_csv();
    assert_eq!(csv.trim().lines().count(), h.records.len() + 1);
}

#[test]
fn seeded_runs_are_fully_reproducible() {
    let (devices, test) = synthetic_federation(7, &[60, 60]);
    let model = MultinomialLogistic::new(60, 10);
    let a = FederatedTrainer::new(&model, &devices, &test, cfg(Algorithm::FedAvg)).run().expect("run");
    let b = FederatedTrainer::new(&model, &devices, &test, cfg(Algorithm::FedAvg)).run().expect("run");
    assert_eq!(a.records, b.records);
    let c = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(Algorithm::FedAvg).with_seed(100),
    )
    .run().expect("run");
    assert_ne!(a.records, c.records);
}
