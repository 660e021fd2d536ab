//! Hands-free parameter selection: estimate the problem constants from
//! data, measure heterogeneity, solve the paper's training-time problem
//! (23) for your deployment's γ, and train with the result — the whole
//! Section 4.3 pipeline in one call.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

// Example code: panicking with context keeps the walkthrough focused
// on the federated-learning API rather than error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox::core::autotune::{autotune, AutoTuneRequest};
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::MultinomialLogistic;
use fedprox::prelude::*;

fn main() {
    let shards = generate(
        &SyntheticConfig { alpha: 1.0, beta: 1.0, seed: 99, ..Default::default() },
        &[150, 90, 200, 120, 80],
    );
    let (train, test) = split_federation(&shards, 99);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = MultinomialLogistic::new(60, 10);

    // Deployment: local compute is 1% the cost of a round trip.
    let req = AutoTuneRequest { gamma: 1e-2, tau_cap: 30, seed: 99, ..Default::default() };
    let report = autotune(&model, &devices, &req).expect("tuning failed");

    println!("estimated constants:");
    println!(
        "  L_max = {:.2}, L_typical = {:.2}, lambda = {:.4}",
        report.constants.smoothness_max,
        report.constants.smoothness_typical,
        report.constants.nonconvexity
    );
    println!("  measured sigma_bar^2 = {:.3}", report.sigma_bar_sq);
    println!("problem (23) optimum at gamma = {}:", req.gamma);
    println!(
        "  beta* = {:.2}, mu* = {:.2}, theta* = {:.3}, tau* = {:.0}{}, Theta* = {:.4}",
        report.optimum.beta,
        report.optimum.mu,
        report.optimum.theta,
        report.optimum.tau,
        if report.tau_clipped { " (clipped)" } else { "" },
        report.optimum.capital_theta
    );

    let cfg = report
        .config
        .clone()
        .with_rounds(40)
        .with_eval_every(10);
    println!(
        "\ntraining FedProxVR(SVRG) with the tuned config (tau = {}, eta = {:.4}):",
        cfg.tau,
        cfg.eta()
    );
    let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
    for r in &h.records {
        println!(
            "  round {:>3}: loss {:.4}, accuracy {:.1}%",
            r.round,
            r.train_loss,
            r.test_accuracy * 100.0
        );
    }
    assert!(!h.diverged());
}
