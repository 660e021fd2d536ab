//! Heterogeneity study: how the data-divergence σ̄² of Assumption 1
//! impacts convergence, and how the proximal penalty μ counteracts it
//! (Remark 2 of the paper).
//!
//! Sweeps the Synthetic(α, β) heterogeneity knobs, measures the empirical
//! σ̄², the theoretical maximum local accuracy θ_max, and the realised
//! convergence of FedProxVR with and without the proximal term.
//!
//! ```sh
//! cargo run --release --example heterogeneity_study
//! ```

// Example code: panicking with context keeps the walkthrough focused
// on the federated-learning API rather than error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox::core::{eval, theory};
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::{LossModel, MultinomialLogistic};
use fedprox::prelude::*;

fn main() {
    let model = MultinomialLogistic::new(60, 10);
    let sizes = vec![100usize; 10];

    println!(
        "{:>10} {:>9} {:>10} | {:>12} {:>12} | {:>12} {:>12}",
        "alpha=beta", "sigma^2", "theta_max", "stable mu=0", "stable mu=1", "aggr. mu=0", "aggr. mu=1"
    );
    for het in [0.0, 0.5, 1.0, 2.0] {
        let cfg_data = SyntheticConfig {
            alpha: het,
            beta: het,
            iid: het == 0.0,
            seed: 11,
            ..Default::default()
        };
        let shards = generate(&cfg_data, &sizes);
        let (train, test) = split_federation(&shards, 11);
        let devices: Vec<Device> =
            train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();

        // Empirical heterogeneity at the initial model.
        let w0 = model.init_params(11);
        let sigma_sq = eval::empirical_sigma_bar_sq(&model, &devices, &w0).unwrap_or(f64::NAN);
        let theta_max = theory::theta_max(sigma_sq);

        // Two step-size regimes: a stable one (Lemma 1-ish) where the
        // proximal term only adds drag, and an aggressive one where it is
        // what keeps the aggregate from blowing up (the Fig. 4 regime).
        let run = |mu: f64, smoothness: f64| -> f64 {
            let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                .with_beta(4.0)
                .with_smoothness(smoothness)
                .with_tau(20)
                .with_mu(mu)
                .with_batch_size(8)
                .with_rounds(40)
                .with_eval_every(40)
                .with_seed(11);
            FederatedTrainer::new(&model, &devices, &test, cfg)
                .run()
                .expect("run")
                .final_loss()
                .unwrap_or(f64::INFINITY)
        };
        println!(
            "{:>10} {:>9.3} {:>10.3} | {:>12.4} {:>12.4} | {:>12.4} {:>12.4}",
            het,
            sigma_sq,
            theta_max,
            run(0.0, 2.0),
            run(1.0, 2.0),
            run(0.0, 0.25),
            run(1.0, 0.25),
        );
    }
    println!("\nAs heterogeneity grows, sigma^2 rises and the admissible theta_max of");
    println!("Remark 2(1) shrinks. In the stable step-size regime the proximal term");
    println!("only adds drag (mu=1 slightly behind mu=0 — Remark 2(2)'s trade-off);");
    println!("in the aggressive regime it is what keeps the loss from exploding");
    println!("(right pair of columns — the Fig. 4 effect).");
}
