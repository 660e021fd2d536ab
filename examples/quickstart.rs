//! Quickstart: train FedProxVR (SARAH) on a heterogeneous synthetic
//! federation and compare it against FedAvg, in ~30 lines of library use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! With `--features telemetry`, pass `--obs PATH` to also stream the
//! run's observability record to PATH — the same file the bench
//! binaries write — and inspect it with `fedobs summary PATH`, `fedobs
//! health PATH` or `fedobs prof report PATH`.

// Example code: panicking with context keeps the walkthrough focused
// on the federated-learning API rather than error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox::prelude::*;
use fedprox::core::config::FedConfig as Cfg;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::MultinomialLogistic;

/// Minimal hand-rolled scan for `--flag PATH` (the example deliberately
/// has no argument-parsing dependency).
fn path_from_args(flag: &str) -> Option<String> {
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == flag {
            return argv.next();
        }
    }
    None
}

fn main() {
    let obs_path = path_from_args("--obs");
    // Arm the collector, stream to the file and lead it with the run
    // ledger header; `collector::finish_stream` below completes it.
    #[cfg(feature = "telemetry")]
    let streamed = match obs_path.as_deref() {
        Some(path) => {
            use fedprox_telemetry::collector;
            collector::arm();
            let streamed = collector::stream_to(path).is_ok();
            let ledger = fedprox_obs::RunLedger {
                version: 1,
                config: fedprox_obs::fnv64("quickstart"),
                seed: 42,
                kernel: fedprox::tensor::kernel::active().name().to_string(),
                faults: fedprox_obs::fnv64(""),
                features: "telemetry".to_string(),
                crates: format!("fedprox={}", env!("CARGO_PKG_VERSION")),
            };
            collector::record_event(ledger.to_event());
            streamed
        }
        None => false,
    };
    #[cfg(not(feature = "telemetry"))]
    if obs_path.is_some() {
        eprintln!("warning: --obs ignored: rebuild with `--features telemetry` to record it");
    }

    // 1. A heterogeneous federation: 8 devices, power-law-ish sizes,
    //    device-specific data distributions (Synthetic(1,1) of the paper).
    let sizes = [120, 80, 200, 60, 150, 90, 110, 70];
    let shards = generate(&SyntheticConfig { alpha: 1.0, beta: 1.0, seed: 42, ..Default::default() }, &sizes);
    let (train, test) = split_federation(&shards, 42);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();

    // 2. The convex model of the paper's experiments.
    let model = MultinomialLogistic::new(60, 10);

    // 3. Train both algorithms with the same budget.
    for algorithm in [Algorithm::FedAvg, Algorithm::FedProxVr(EstimatorKind::Sarah)] {
        let cfg: Cfg = FedConfig::new(algorithm)
            .with_beta(5.0) // step size eta = 1/(beta * L)
            .with_smoothness(3.0)
            .with_tau(10) // local iterations per round
            .with_mu(0.5) // proximal penalty (ignored by FedAvg)
            .with_batch_size(8)
            .with_rounds(60)
            .with_eval_every(10)
            .with_seed(42);
        let history = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");

        println!("== {}", algorithm.name());
        for r in &history.records {
            println!(
                "  round {:>3}: train loss {:.4}, test accuracy {:.1}%",
                r.round,
                r.train_loss,
                r.test_accuracy * 100.0
            );
        }
        println!(
            "  best accuracy {:.1}%  (diverged: {})\n",
            history.best_accuracy() * 100.0,
            history.diverged()
        );
    }

    #[cfg(feature = "telemetry")]
    if let Some(path) = obs_path {
        match fedprox_telemetry::collector::finish_stream(&path, streamed) {
            Ok(()) => println!("obs: run written to {path} (inspect with `fedobs summary`)"),
            Err(e) => eprintln!("obs: failed to write {path}: {e}"),
        }
    }
}
