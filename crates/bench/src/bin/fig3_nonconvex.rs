//! Figure 3: convergence of FedProxVR (SVRG / SARAH) vs FedAvg on the
//! non-convex task — the two-layer CNN on the MNIST-like dataset, B = 64,
//! 10 devices, under (β, τ) = (5, 10) and (7, 20).


// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_bench::plot::{write_svg, Metric, PlotOptions};
use fedprox_bench::{
    mnist_federation, parse_args, print_histories, write_json, RunInfo, Scale, TraceSession,
};
use fedprox_core::{Algorithm, FedConfig, FederatedTrainer};
use fedprox_models::{Cnn, CnnSpec};
use fedprox_optim::estimator::EstimatorKind;

fn main() {
    let args = parse_args("fig3_nonconvex", std::env::args().skip(1));
    let info = RunInfo::new(args.describe("fig3_nonconvex"), args.seed);
    let trace = TraceSession::start(args.obs.as_deref(), &info);
    // Paper scale: 10 devices, sizes [454, 3939], full 32/64-channel CNN.
    // Small: 6 devices, a scaled-down CNN (identical code paths).
    // Small scale keeps the paper's batch-to-shard ratio (see
    // fig2_convex): B = 16 on shards of 100–250 ≈ B = 64 on 454–3939.
    let (devices_n, lo, hi, rounds, eval_every, spec, batch) = match args.scale {
        Scale::Paper => (10, 454, 3939, 100, 5, CnnSpec::paper(), 64),
        Scale::Small => (5, 100, 250, 40, 10, CnnSpec::small(), 16),
    };
    let rounds = args.rounds.unwrap_or(rounds);

    let fed = mnist_federation(devices_n, lo, hi, args.seed);
    let model = Cnn::new(spec);
    println!(
        "mnist-like federation: {} devices, sizes [{}, {}], test {} samples, CNN dim {}",
        fed.devices.len(),
        fed.devices.iter().map(|d| d.samples()).min().unwrap(),
        fed.devices.iter().map(|d| d.samples()).max().unwrap(),
        fed.test.len(),
        fedprox_models::LossModel::dim(&model),
    );

    let settings: &[(f64, usize, &str)] = match args.scale {
        Scale::Paper => &[(5.0, 10, "(beta=5, tau=10)"), (7.0, 20, "(beta=7, tau=20)")],
        Scale::Small => &[(5.0, 10, "(beta=5, tau=10)"), (7.0, 15, "(beta=7, tau=15)")],
    };

    let algorithms = [
        Algorithm::FedAvg,
        Algorithm::FedProxVr(EstimatorKind::Svrg),
        Algorithm::FedProxVr(EstimatorKind::Sarah),
    ];

    for &(beta, tau, label) in settings {
        let mut results = Vec::new();
        for alg in algorithms {
            let cfg = FedConfig::new(alg)
                .with_beta(beta)
                .with_tau(tau)
                .with_mu(0.01)
                .with_batch_size(batch)
                .with_smoothness(4.0) // empirical curvature scale; η = 1/(4β)
                .with_rounds(rounds)
                .with_seed(args.seed)
                .with_eval_every(eval_every)
                .with_runner(args.runner());
            let h = FederatedTrainer::new(&model, &fed.devices, &fed.test, cfg).run().expect("run");
            results.push((alg.name().to_string(), h));
        }
        let refs: Vec<(String, &fedprox_core::History)> =
            results.iter().map(|(l, h)| (l.clone(), h)).collect();
        print_histories(&format!("Fig. 3 {label}, B={batch} (CNN)"), &refs);
        if let Some(dir) = &args.out {
            let safe = label.replace(['(', ')', '=', ',', ' '], "_");
            for (l, h) in &results {
                write_json(dir, &format!("fig3_{safe}_{l}"), h);
            }
            write_svg(
                dir,
                &format!("fig3_{safe}_loss"),
                &refs,
                Metric::TrainLoss,
                &PlotOptions { title: format!("Fig. 3 {label}: training loss"), ..Default::default() },
            );
            write_svg(
                dir,
                &format!("fig3_{safe}_acc"),
                &refs,
                Metric::TestAccuracy,
                &PlotOptions { title: format!("Fig. 3 {label}: test accuracy"), ..Default::default() },
            );
        }
    }
    trace.finish();
}
