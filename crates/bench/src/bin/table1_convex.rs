//! Table 1: best-hyper-parameter test accuracies on the convex task
//! (multinomial logistic regression, Fashion-MNIST-like), found by random
//! search per algorithm — reproducing the paper's search protocol.


// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_bench::{fashion_federation, parse_args, write_json, RunInfo, Scale, TraceSession};
use fedprox_core::search::{random_search, SearchSpace};
use fedprox_core::{Algorithm, FedConfig};
use fedprox_models::MultinomialLogistic;
use fedprox_optim::estimator::EstimatorKind;

fn main() {
    let args = parse_args("table1_convex", std::env::args().skip(1));
    let info = RunInfo::new(args.describe("table1_convex"), args.seed);
    let trace = TraceSession::start(args.obs.as_deref(), &info);
    let (devices_n, lo, hi, trials, space) = match args.scale {
        Scale::Paper => (
            100,
            37,
            1350,
            12,
            SearchSpace {
                taus: vec![10, 20],
                betas: vec![5.0, 7.0, 10.0],
                mus: vec![0.01, 0.1, 0.5],
                batches: vec![16, 32, 64],
                rounds: (600, 1000),
            },
        ),
        Scale::Small => (
            15,
            40,
            150,
            4,
            SearchSpace {
                taus: vec![5, 10, 20],
                betas: vec![5.0, 7.0],
                mus: vec![0.1, 0.5],
                batches: vec![4, 8],
                rounds: (40, 80),
            },
        ),
    };

    let fed = fashion_federation(devices_n, lo, hi, args.seed);
    let model = MultinomialLogistic::new(784, 10);
    // Empirical curvature scale (see fig2_convex for why not the
    // worst-case bound).
    let base = FedConfig::new(Algorithm::FedAvg)
        .with_smoothness(5.0)
        .with_eval_every(5);

    println!("Table 1: convex task (fashion-like), {trials} trials per algorithm");
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
        let r = random_search(
            &model, &fed.devices, &fed.test, alg, &space, trials, args.seed, &base,
        )
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
        write_json(dir, "table1_convex", &results);
    }
    trace.finish();
}
