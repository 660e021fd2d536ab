//! Quickstart: train FedProxVR (SARAH) on a heterogeneous synthetic
//! federation and compare it against FedAvg, in ~30 lines of library use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! With `--features telemetry`, pass `--trace PATH` to also record a
//! fedtrace JSONL event trace of the run and print its summary tables,
//! and/or `--prof PATH` to record a fedprof span-tree profile (inspect
//! with `fedprof report PATH`).

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
    let trace_path = path_from_args("--trace");
    let prof_path = path_from_args("--prof");
    #[cfg(feature = "telemetry")]
    if trace_path.is_some() || prof_path.is_some() {
        fedprox_telemetry::collector::arm();
    }
    #[cfg(not(feature = "telemetry"))]
    for (flag, requested) in
        [("--trace", trace_path.is_some()), ("--prof", prof_path.is_some())]
    {
        if requested {
            eprintln!(
                "warning: {flag} ignored: rebuild with `--features telemetry` to record it"
            );
        }
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
    if trace_path.is_some() || prof_path.is_some() {
        use fedprox_telemetry::event::Event;
        use fedprox_telemetry::{collector, jsonl, summary};
        let events = collector::drain();
        collector::disarm();
        if let Some(path) = trace_path {
            match std::fs::write(&path, jsonl::to_jsonl(&events)) {
                Ok(()) => println!("trace: {} events written to {path}", events.len()),
                Err(e) => eprintln!("trace: failed to write {path}: {e}"),
            }
            print!("{}", summary::TelemetryReport::from_events(&events).render(10));
        }
        if let Some(path) = prof_path {
            let prof: Vec<Event> = events
                .iter()
                .filter(|e| matches!(e, Event::PathStat { .. } | Event::TraceTruncated { .. }))
                .cloned()
                .collect();
            match std::fs::write(&path, jsonl::to_jsonl(&prof)) {
                Ok(()) => println!(
                    "prof: {} span-tree paths written to {path} \
                     (inspect with `fedprof report {path}`)",
                    prof.len()
                ),
                Err(e) => eprintln!("prof: failed to write {path}: {e}"),
            }
        }
    }
    #[cfg(not(feature = "telemetry"))]
    drop((trace_path, prof_path));
}
