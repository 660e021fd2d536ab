//! Figure 1: the effect of the weight factor γ = d_cmp/d_com on the
//! optimal FedProxVR parameters (β*, μ*, θ*, Θ*) from problem (23),
//! for σ̄² ∈ {0.1, 1, 10} with L = 1, λ = 0.5.
//!
//! Also prints a Lemma 1 sanity panel (`--check-lemma1` effect is always
//! on): τ bounds at representative β and the β_min/τ solution of
//! eqs. (15)/(16).

use fedprox_bench::{parse_args, write_json, RunInfo, TraceSession};
use fedprox_core::paramopt::{self, OptimalParams};
use fedprox_core::theory::{Lemma1, TheoryParams};

fn main() {
    let args = parse_args("fig1_param_opt", std::env::args().skip(1));
    // No federated training happens here (pure theory evaluation), but
    // the flags behave uniformly across all experiment binaries.
    let info = RunInfo::new(args.describe("fig1_param_opt"), args.seed);
    let trace = TraceSession::start(args.obs.as_deref(), &info);

    // The γ axis of Fig. 1 (log-spaced).
    let gammas: Vec<f64> = (0..=16).map(|i| 10f64.powf(-4.0 + i as f64 * 0.25)).collect();
    let sigmas = [0.1, 1.0, 10.0];

    println!("Figure 1: optimal parameters of problem (23) vs gamma (L=1, lambda=0.5)");
    let mut all: Vec<OptimalParams> = Vec::new();
    for &s2 in &sigmas {
        let base = TheoryParams { smoothness: 1.0, lambda: 0.5, mu: f64::NAN, sigma_bar_sq: s2 };
        println!("\n-- sigma_bar^2 = {s2}");
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>14}",
            "gamma", "beta*", "mu*", "theta*", "tau*", "Theta*", "objective"
        );
        for &gamma in &gammas {
            match paramopt::solve(&base, gamma) {
                Some(o) => {
                    println!(
                        "{:>10.4e} {:>10.3} {:>10.3} {:>10.4} {:>10.1} {:>12.5} {:>14.4e}",
                        gamma, o.beta, o.mu, o.theta, o.tau, o.capital_theta, o.objective
                    );
                    all.push(o);
                }
                None => println!("{gamma:>10.4e} {:>10}", "infeasible"),
            }
        }
    }

    // Lemma 1 sanity panel.
    println!("\nLemma 1 sanity (sigma^2 = 1, mu = 2, theta = 0.3):");
    let p = TheoryParams { smoothness: 1.0, lambda: 0.5, mu: 2.0, sigma_bar_sq: 1.0 };
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "beta", "tau_lower", "tau_upper_sarah", "tau_upper_svrg"
    );
    for beta in [5.0, 10.0, 20.0, 50.0, 100.0] {
        let lo = Lemma1::tau_lower(&p, beta, 0.3).map_or("-".into(), |v| format!("{v:.1}"));
        println!(
            "{:>8} {:>16} {:>16.1} {:>16.1}",
            beta,
            lo,
            Lemma1::tau_upper_sarah(beta),
            Lemma1::tau_upper_svrg(beta)
        );
    }
    if let Some(bs) = Lemma1::beta_min_sarah(&p, 0.3, 1e5) {
        println!("beta_min (eq. 15) = {:.3}, tau (eq. 16) = {:.1}", bs.beta, bs.tau);
    }

    if let Some(dir) = &args.out {
        write_json(dir, "fig1_param_opt", &all);
    }
    trace.finish();
}
