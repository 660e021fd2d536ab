//! Figure 4: the effect of the proximal penalty μ on FedProxVR's
//! convergence, on the Synthetic dataset (convex task).
//!
//! The paper observes: μ = 0 diverges; μ > 0 stabilises the loss; and
//! overly large μ slows convergence — the smoothness/speed trade-off of
//! Remark 2(2). Two ingredients expose the μ = 0 divergence: an
//! aggressive step size (β below Lemma 1's feasible range) and — crucial —
//! Algorithm 1's own uniform-random iterate selection (line 10): at μ = 0
//! the inner iterates oscillate, a random one may land anywhere on the
//! oscillation, and aggregation variance explodes. The proximal anchor
//! damps the oscillation amplitude, restoring convergence monotonically
//! in μ.


// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_bench::plot::{write_svg, Metric, PlotOptions};
use fedprox_bench::{
    parse_args, print_histories, synthetic_federation, write_json, RunInfo, Scale, TraceSession,
};
use fedprox_core::{Algorithm, FedConfig, FederatedTrainer};
use fedprox_models::MultinomialLogistic;
use fedprox_optim::estimator::EstimatorKind;
use fedprox_optim::solver::IterateChoice;

fn main() {
    let args = parse_args("fig4_mu_effect", std::env::args().skip(1));
    let info = RunInfo::new(args.describe("fig4_mu_effect"), args.seed);
    let trace = TraceSession::start(args.obs.as_deref(), &info);
    let (devices_n, lo, hi, rounds, eval_every) = match args.scale {
        Scale::Paper => (100, 37, 3277, 200, 5),
        Scale::Small => (10, 30, 120, 50, 1),
    };
    let rounds = args.rounds.unwrap_or(rounds);

    // Heavy heterogeneity (alpha = beta = 1) as in the paper's Synthetic.
    let fed = synthetic_federation(1.0, 1.0, devices_n, lo, hi, args.seed);
    let model = MultinomialLogistic::new(60, 10);
    println!(
        "synthetic(1,1) federation: {} devices, sizes [{}, {}]",
        fed.devices.len(),
        fed.devices.iter().map(|d| d.samples()).min().unwrap(),
        fed.devices.iter().map(|d| d.samples()).max().unwrap(),
    );

    let mus = [0.0, 0.1, 0.5, 1.0, 2.0];
    let seeds: Vec<u64> = (0..3).map(|k| args.seed + k).collect();
    let mut results = Vec::new();
    for &mu in &mus {
        for &seed in &seeds {
            let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                .with_beta(1.0) // aggressive: η = 1/L, outside Lemma 1's β > 3
                .with_tau(30)
                .with_mu(mu)
                .with_batch_size(16)
                .with_smoothness(1.0) // deliberately optimistic L estimate
                .with_rounds(rounds)
                .with_seed(seed)
                .with_eval_every(eval_every)
                .with_iterate_choice(IterateChoice::UniformRandom) // Alg. 1 line 10
                .with_runner(args.runner());
            let h = FederatedTrainer::new(&model, &fed.devices, &fed.test, cfg).run().expect("run");
            results.push((format!("mu={mu}/s{seed}"), h));
        }
    }

    // Print the first seed's curves (the figure), then summarise across
    // seeds (the aggressive regime is chaotic, so per-seed finals are
    // noisy — the paper's monotone story lives in the medians).
    let refs: Vec<(String, &fedprox_core::History)> = results
        .iter()
        .filter(|(l, _)| l.ends_with(&format!("/s{}", args.seed)))
        .map(|(l, h)| (l.clone(), h))
        .collect();
    print_histories("Fig. 4: effect of proximal penalty mu (Synthetic, SVRG)", &refs);

    println!(
        "\nSummary across {} seeds (tail = mean of last 10 evaluated losses):",
        seeds.len()
    );
    let baseline = results[0].1.records.first().map_or(f64::NAN, |r| r.train_loss);
    for &mu in &mus {
        let mut tails: Vec<f64> = results
            .iter()
            .filter(|(l, _)| l.starts_with(&format!("mu={mu}/")))
            .map(|(_, h)| {
                let tail: Vec<f64> =
                    h.records.iter().rev().take(10).map(|r| r.train_loss).collect();
                fedprox_tensor::vecops::mean(&tail)
            })
            .collect();
        tails.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = tails[tails.len() / 2];
        let worst = *tails.last().unwrap();
        let verdict = if !median.is_finite() || median > baseline {
            "DIVERGED"
        } else if worst > baseline {
            "UNSTABLE (worst seed diverges)"
        } else {
            "converged"
        };
        println!(
            "  mu={mu:>4}: baseline {baseline:.3} -> median tail {median:.4}, worst {worst:.4}  [{verdict}]"
        );
    }

    if let Some(dir) = &args.out {
        for (l, h) in &results {
            write_json(dir, &format!("fig4_{}", l.replace(['.', '/'], "_")), h);
        }
        write_svg(
            dir,
            "fig4_mu_effect_loss",
            &refs,
            Metric::TrainLoss,
            &PlotOptions {
                title: "Fig. 4: training loss vs mu (seed 1)".into(),
                ..Default::default()
            },
        );
    }
    trace.finish();
}
