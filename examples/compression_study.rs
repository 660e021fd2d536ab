//! Uplink compression study: what happens to FedProxVR when the local
//! models are Top-K sparsified or quantised before aggregation — the
//! communication-efficiency direction the paper cites (Konečný et al.).
//!
//! Built from the library's public pieces (per-device local updates +
//! manual aggregation) to show the training loop is composable.
//!
//! ```sh
//! cargo run --release --example compression_study
//! ```

// Example code: panicking with context keeps the walkthrough focused
// on the federated-learning API rather than error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox::core::{eval, server};
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::{LossModel, MultinomialLogistic};
use fedprox::net::Compressor;
use fedprox::prelude::*;

fn main() {
    let shards = generate(
        &SyntheticConfig { alpha: 1.0, beta: 1.0, seed: 13, ..Default::default() },
        &[120, 90, 150, 80, 110, 100],
    );
    let (train, test) = split_federation(&shards, 13);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = MultinomialLogistic::new(60, 10);
    let weights: Vec<f64> = {
        let sizes: Vec<usize> = devices.iter().map(Device::samples).collect();
        server::weights_from_sizes(&sizes)
    };
    let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(10)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_seed(13);
    let rounds = 40;
    let dim = model.dim();

    let schemes: [(&str, Compressor); 4] = [
        ("raw f64", Compressor::None),
        ("top-10%", Compressor::TopK { k: dim / 10 }),
        ("top-1%", Compressor::TopK { k: dim / 100 }),
        ("8-bit quant", Compressor::Uniform { bits: 8 }),
    ];

    println!(
        "{:<12} {:>14} {:>12} {:>12}",
        "uplink", "bytes/device", "train loss", "test acc"
    );
    for (name, scheme) in schemes {
        let mut global = model.init_params(13);
        for round in 0..rounds {
            let updates: Vec<_> = devices
                .iter()
                .map(|d| d.local_update(&model, &global, &cfg, round).expect("round"))
                .collect();
            // Compress each uplink *update* (w_n − w̄): deltas are what
            // sparsification tolerates — most coordinates barely move in
            // one round, so Top-K on the delta loses little, whereas
            // Top-K on the raw model would zero out 90% of the weights.
            let recovered: Vec<Vec<f64>> = updates
                .iter()
                .map(|u| {
                    let delta: Vec<f64> =
                        u.w.iter().zip(&global).map(|(w, g)| w - g).collect();
                    let back = Compressor::decompress(&scheme.compress(&delta));
                    back.iter().zip(&global).map(|(d, g)| g + d).collect()
                })
                .collect();
            let locals: Vec<(&[f64], f64)> = recovered
                .iter()
                .enumerate()
                .map(|(i, w)| (w.as_slice(), weights[i]))
                .collect();
            let mut agg = vec![0.0; dim];
            server::aggregate(&locals, &mut agg);
            global = agg;
        }
        let loss = eval::global_loss(&model, &devices, &global);
        let acc = eval::test_accuracy(&model, &test, &global);
        println!(
            "{name:<12} {:>14} {loss:>12.4} {:>11.1}%",
            scheme.wire_bytes(dim),
            acc * 100.0
        );
    }
    println!("\nTop-10% and 8-bit quantisation cut uplink bytes ~7-8x with little");
    println!("accuracy cost; top-1% is aggressive enough to slow convergence.");
}
