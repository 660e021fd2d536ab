//! End-to-end parameter selection: the paper's full recipe, automated.
//!
//! Section 4.3 assumes the problem constants are known; Fig. 1's caption
//! notes L and λ "can be estimated by sampling real-world dataset". This
//! module chains everything:
//!
//! 1. estimate L and λ by probing the model on the devices' data
//!    (`fedprox_models::estimate`),
//! 2. measure the heterogeneity σ̄² at the initial model (`eval`),
//! 3. solve problem (23) for the deployment's γ = d_cmp/d_com
//!    (`paramopt`), yielding (β*, μ*, θ*, τ*),
//! 4. emit a ready-to-run [`FedConfig`] plus the full diagnostic trail.

use crate::algorithm::Algorithm;
use crate::config::FedConfig;
use crate::device::Device;
use crate::theory::TheoryParams;
use crate::{eval, paramopt};
use fedprox_models::estimate::{estimate_constants, ConstantEstimates, EstimateConfig};
use fedprox_models::LossModel;
use fedprox_optim::estimator::EstimatorKind;

/// Inputs to the tuner.
#[derive(Debug, Clone)]
pub struct AutoTuneRequest {
    /// Deployment weight factor γ = d_cmp / d_com.
    pub gamma: f64,
    /// Which estimator the tuned config should use.
    pub estimator: EstimatorKind,
    /// Mini-batch size for the tuned config.
    pub batch_size: usize,
    /// Cap on the tuned τ (the theory's τ* can be in the thousands; real
    /// runs usually cap it).
    pub tau_cap: usize,
    /// Probing configuration for the L/λ estimation.
    pub probe: EstimateConfig,
    /// Seed for the emitted config.
    pub seed: u64,
}

impl Default for AutoTuneRequest {
    fn default() -> Self {
        AutoTuneRequest {
            gamma: 1e-2,
            estimator: EstimatorKind::Svrg,
            batch_size: 16,
            tau_cap: 100,
            probe: EstimateConfig::default(),
            seed: 0,
        }
    }
}

/// The tuner's output: the config plus every intermediate quantity.
#[derive(Debug, Clone)]
pub struct AutoTuneReport {
    /// Ready-to-run configuration.
    pub config: FedConfig,
    /// Estimated constants (worst-case L in `smoothness_max`, practical
    /// scale in `smoothness_typical`, non-convexity in `nonconvexity`).
    pub constants: ConstantEstimates,
    /// Measured heterogeneity σ̄² at the initial model.
    pub sigma_bar_sq: f64,
    /// The problem-(23) optimum that produced the config.
    pub optimum: paramopt::OptimalParams,
    /// Whether τ was clipped by `tau_cap`.
    pub tau_clipped: bool,
}

/// Errors the tuner can hit.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoTuneError {
    /// σ̄² could not be measured (zero global gradient at init).
    DegenerateGradient,
    /// Problem (23) had no feasible optimum for these constants.
    Infeasible,
    /// The federation has no devices to probe.
    NoDevices,
}

impl std::fmt::Display for AutoTuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoTuneError::DegenerateGradient => {
                write!(f, "autotune: global gradient vanished at the initial model")
            }
            AutoTuneError::Infeasible => {
                write!(f, "autotune: problem (23) infeasible for the estimated constants")
            }
            AutoTuneError::NoDevices => {
                write!(f, "autotune: the federation has no devices to probe")
            }
        }
    }
}

impl std::error::Error for AutoTuneError {}

/// Run the full pipeline.
pub fn autotune<M: LossModel>(
    model: &M,
    devices: &[Device],
    req: &AutoTuneRequest,
) -> Result<AutoTuneReport, AutoTuneError> {
    let w0 = model.init_params(req.seed);

    // 1. Constants, probed on the pooled data of a few devices (probing
    //    every device would cost full-gradient passes for nothing — the
    //    constants are properties of the loss family, not the sharding).
    let probe_device = devices
        .iter()
        .max_by_key(|d| d.samples())
        .ok_or(AutoTuneError::NoDevices)?;
    let constants = estimate_constants(model, &probe_device.data, &w0, &req.probe);
    // The paper's theory wants an L that upper-bounds curvature, but the
    // *typical* scale is what makes η = 1/(βL) practical (see the fig2
    // binary's discussion) — split the difference geometrically.
    let l = (constants.smoothness_max * constants.smoothness_typical).max(1e-12).sqrt();
    let lambda = constants.nonconvexity.max(1e-3); // keep μ̃ > 0 meaningful

    // 2. Heterogeneity.
    let sigma_bar_sq = eval::empirical_sigma_bar_sq(model, devices, &w0)
        .ok_or(AutoTuneError::DegenerateGradient)?;

    // 3. Problem (23).
    let base = TheoryParams { smoothness: l, lambda, mu: f64::NAN, sigma_bar_sq };
    let optimum = paramopt::solve(&base, req.gamma).ok_or(AutoTuneError::Infeasible)?;

    // 4. Emit.
    let tau_star = optimum.tau.round() as usize;
    let tau = tau_star.min(req.tau_cap).max(1);
    let config = FedConfig::new(Algorithm::FedProxVr(req.estimator))
        .with_beta(optimum.beta)
        .with_smoothness(l)
        .with_tau(tau)
        .with_mu(optimum.mu)
        .with_batch_size(req.batch_size)
        .with_seed(req.seed);
    Ok(AutoTuneReport {
        config,
        constants,
        sigma_bar_sq,
        optimum,
        tau_clipped: tau != tau_star,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FederatedTrainer;
    use fedprox_data::split::split_federation;
    use fedprox_data::synthetic::{generate, SyntheticConfig};
    use fedprox_models::MultinomialLogistic;

    fn federation(seed: u64) -> (Vec<Device>, fedprox_data::Dataset) {
        let shards =
            generate(&SyntheticConfig { seed, ..Default::default() }, &[100, 140, 80]);
        let (train, test) = split_federation(&shards, seed);
        (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
    }

    #[test]
    fn produces_feasible_config() {
        let (devices, _) = federation(1);
        let model = MultinomialLogistic::new(60, 10);
        let report = autotune(&model, &devices, &AutoTuneRequest::default()).unwrap();
        assert!(report.config.beta > 3.0);
        assert!(report.config.mu > 0.0);
        assert!(report.config.tau >= 1 && report.config.tau <= 100);
        assert!(report.sigma_bar_sq > 0.0);
        assert!(report.optimum.capital_theta > 0.0);
        assert!(report.constants.smoothness_max > 0.0);
    }

    #[test]
    fn tuned_config_actually_trains() {
        let (devices, test) = federation(2);
        let model = MultinomialLogistic::new(60, 10);
        let report = autotune(
            &model,
            &devices,
            &AutoTuneRequest { tau_cap: 20, ..Default::default() },
        )
        .unwrap();
        let cfg = report
            .config
            .with_rounds(8)
            .with_eval_every(8);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(!h.diverged(), "tuned config diverged");
        assert!(
            h.final_loss().unwrap() < h.records[0].train_loss,
            "tuned config failed to make progress"
        );
    }

    #[test]
    fn smaller_gamma_yields_more_local_work() {
        let (devices, _) = federation(3);
        let model = MultinomialLogistic::new(60, 10);
        let tune = |gamma: f64| {
            autotune(
                &model,
                &devices,
                &AutoTuneRequest { gamma, tau_cap: usize::MAX, ..Default::default() },
            )
            .unwrap()
        };
        let expensive_comm = tune(1e-4);
        let cheap_comm = tune(1.0);
        assert!(
            expensive_comm.config.tau > cheap_comm.config.tau,
            "γ=1e-4 τ={} should exceed γ=1 τ={}",
            expensive_comm.config.tau,
            cheap_comm.config.tau
        );
    }

    #[test]
    fn deterministic() {
        let (devices, _) = federation(4);
        let model = MultinomialLogistic::new(60, 10);
        let a = autotune(&model, &devices, &AutoTuneRequest::default()).unwrap();
        let b = autotune(&model, &devices, &AutoTuneRequest::default()).unwrap();
        assert_eq!(a.config.beta, b.config.beta);
        assert_eq!(a.config.mu, b.config.mu);
        assert_eq!(a.sigma_bar_sq, b.sigma_bar_sq);
    }
}
