//! A federated device: its data shard and the local update of
//! Algorithm 1 (lines 3–10).

use crate::algorithm::Algorithm;
use crate::config::FedConfig;
use crate::error::FedError;
use fedprox_data::synthetic::device_rng;
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use fedprox_optim::solver::{
    IterateChoice, LocalOutcome, LocalSolver, LocalSolverConfig, SolveScratch,
};
use fedprox_optim::{EstimatorKind, QuadraticProx, SparseQuadraticProx, StepSize, ZeroProx};

/// One device of the federation.
#[derive(Debug, Clone)]
pub struct Device {
    /// Stable device index `n`.
    pub id: usize,
    /// The local training shard `𝒟_n`.
    pub data: Dataset,
}

/// Where a local solve's anchor gradient comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Anchor<'g> {
    /// As the algorithm prescribes: the variance-reduced solves compute
    /// their own `∇F_n(w̄)`; FSVRG reads the server-distributed global
    /// gradient (`None` when the server sent none).
    Server(Option<&'g [f64]>),
    /// The device's own `∇F_n(w̄)` at this very global model, evaluated
    /// earlier (the previous round's evaluation). FedProxVR's
    /// variance-reduced solves start from it instead of recomputing it;
    /// every other algorithm ignores it.
    Own(&'g [f64]),
}

/// Buffers a caller holds across local updates: the solver's scratch and
/// the proximal centre, so a solve allocates only the returned model.
#[derive(Debug, Default)]
pub(crate) struct LocalScratch {
    solve: SolveScratch,
    center: Vec<f64>,
}

/// Result of one local update.
#[derive(Debug, Clone)]
pub struct LocalUpdate {
    /// The local model `w_n^{(s)}`.
    pub w: Vec<f64>,
    /// Per-sample gradient evaluations spent.
    pub grad_evals: usize,
    /// Estimator direction-norm statistics from the solve's probe
    /// (all-zero unless the telemetry collector was armed).
    pub dir_stats: fedprox_optim::DirectionStats,
}

impl Device {
    /// Create a device.
    pub fn new(id: usize, data: Dataset) -> Self {
        Device { id, data }
    }

    /// Shard size `D_n`.
    pub fn samples(&self) -> usize {
        self.data.len()
    }

    /// Run the local update for global iteration `round` starting from
    /// the received global model `global`.
    ///
    /// Randomness is drawn from a stream derived from
    /// `(cfg.seed, round, device id)`, so the result is identical across
    /// the sequential, parallel, and networked backends.
    ///
    /// Fails with [`FedError::MissingGlobalGradient`] when the configured
    /// algorithm is [`Algorithm::Fsvrg`], which anchors on a gradient only
    /// [`Self::local_update_anchored`] can receive.
    pub fn local_update<M: LossModel>(
        &self,
        model: &M,
        global: &[f64],
        cfg: &FedConfig,
        round: usize,
    ) -> Result<LocalUpdate, FedError> {
        self.local_update_anchored(model, global, cfg, round, None)
    }

    /// [`Self::local_update`] with an optional server-distributed global
    /// gradient (required by [`Algorithm::Fsvrg`], ignored otherwise).
    pub fn local_update_anchored<M: LossModel>(
        &self,
        model: &M,
        global: &[f64],
        cfg: &FedConfig,
        round: usize,
        global_grad: Option<&[f64]>,
    ) -> Result<LocalUpdate, FedError> {
        let mut scratch = LocalScratch::default();
        self.local_update_with(model, global, cfg, round, Anchor::Server(global_grad), &mut scratch)
    }

    /// The local update every entry point runs: the algorithm's solve from
    /// `global`, its anchor gradient taken from `anchor`, its buffers from
    /// `scratch` (bitwise the same result whatever the scratch held before).
    pub(crate) fn local_update_with<M: LossModel>(
        &self,
        model: &M,
        global: &[f64],
        cfg: &FedConfig,
        round: usize,
        anchor: Anchor<'_>,
        scratch: &mut LocalScratch,
    ) -> Result<LocalUpdate, FedError> {
        let mut rng = device_rng(
            cfg.seed ^ (round as u64).wrapping_mul(0x2545F4914F6CDD1D),
            self.id as u64,
        );
        let solver = LocalSolver;
        let step = cfg
            .step_override
            .unwrap_or_else(|| StepSize::paper(cfg.beta, cfg.smoothness));
        let scfg = |kind, choice| LocalSolverConfig {
            kind,
            step,
            tau: cfg.tau,
            batch_size: cfg.batch_size,
            choice,
        };
        // The proximal centre is the global model, copied into the buffer
        // the scratch keeps across solves (and handed back after).
        let center = |mut c: Vec<f64>| {
            c.clear();
            c.extend_from_slice(global);
            c
        };
        let (data, solve) = (&self.data, &mut scratch.solve);
        let outcome: LocalOutcome = match cfg.algorithm {
            Algorithm::FedAvg => {
                // FedAvg: τ plain SGD steps from the global model, last
                // iterate, no proximal term, no anchor full gradient.
                let scfg = scfg(EstimatorKind::Sgd, IterateChoice::Last);
                solver.solve_with(model, data, &ZeroProx, global, &scfg, &mut rng, solve)
            }
            Algorithm::FedProx => {
                // FedProx: proximal surrogate + plain SGD, last iterate.
                let prox = QuadraticProx::new(cfg.mu, center(std::mem::take(&mut scratch.center)));
                let scfg = scfg(EstimatorKind::Sgd, IterateChoice::Last);
                let out = solver.solve_with(model, data, &prox, global, &scfg, &mut rng, solve);
                scratch.center = prox.anchor;
                out
            }
            Algorithm::Fsvrg => {
                // FSVRG: SVRG anchored at the *global* gradient the server
                // distributed; no proximal term; last iterate. A caller
                // that skipped the distribution step gets a typed error
                // rather than a panic reachable from the public API.
                let Anchor::Server(Some(ag)) = anchor else {
                    return Err(FedError::MissingGlobalGradient { round });
                };
                let scfg = scfg(EstimatorKind::Svrg, IterateChoice::Last);
                solver.solve_anchored_with(
                    model,
                    data,
                    &ZeroProx,
                    global,
                    &scfg,
                    &mut rng,
                    Some(ag),
                    solve,
                )
            }
            Algorithm::FedProxVr(kind) => {
                let scfg = scfg(kind, cfg.iterate_choice);
                // A reused ∇F_n(w̄) stands in for the solve's own anchor
                // computation (Algorithm 1 line 3) and is accounted as
                // that computation: the same guard, the same counters,
                // the same D_n gradient evaluations.
                let own = match anchor {
                    Anchor::Own(g) if kind.needs_anchor() => {
                        fedprox_telemetry::counter!("optim.anchor_full_grad", 1u32);
                        fedprox_telemetry::counter!("optim.grad_evals", data.len());
                        fedprox_tensor::guard::check_finite(
                            "anchor full gradient (Algorithm 1 line 3)",
                            g,
                        );
                        Some(g)
                    }
                    _ => None,
                };
                let c = center(std::mem::take(&mut scratch.center));
                let mut out = if cfg.l1 > 0.0 {
                    let prox = SparseQuadraticProx::new(cfg.mu, cfg.l1, c);
                    let out = solver
                        .solve_anchored_with(model, data, &prox, global, &scfg, &mut rng, own, solve);
                    scratch.center = prox.anchor;
                    out
                } else {
                    let prox = QuadraticProx::new(cfg.mu, c);
                    let out = solver
                        .solve_anchored_with(model, data, &prox, global, &scfg, &mut rng, own, solve);
                    scratch.center = prox.anchor;
                    out
                };
                if own.is_some() {
                    out.grad_evals += data.len();
                }
                out
            }
        };
        Ok(LocalUpdate { w: outcome.w, grad_evals: outcome.grad_evals, dir_stats: outcome.dir_stats })
    }

    /// Measure the empirical local accuracy ratio of criterion (11):
    /// `‖∇J_n(w_local)‖ / ‖∇F_n(global)‖` (smaller is better; the paper
    /// requires it ≤ θ in expectation).
    pub fn theta_measured<M: LossModel>(
        &self,
        model: &M,
        global: &[f64],
        local: &[f64],
        mu: f64,
    ) -> f64 {
        let solver = LocalSolver;
        let prox = QuadraticProx::new(mu, global.to_vec());
        let j_norm = solver.surrogate_grad_norm(model, &self.data, &prox, local);
        let mut g = vec![0.0; model.dim()];
        model.full_grad(global, &self.data, &mut g);
        let f_norm = fedprox_tensor::vecops::norm(&g);
        if f_norm < 1e-15 {
            0.0
        } else {
            j_norm / f_norm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_models::LinearRegression;
    use fedprox_optim::estimator::EstimatorKind;
    use fedprox_tensor::Matrix;

    fn toy_device(id: usize) -> Device {
        let n = 40;
        let mut f = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let x0 = ((i + id * 7) as f64 * 0.37).sin();
            let x1 = ((i + id * 3) as f64 * 0.73).cos();
            f.row_mut(i).copy_from_slice(&[x0, x1]);
            y.push(2.0 * x0 - x1 + id as f64 * 0.1);
        }
        Device::new(id, Dataset::new(f, y, 0))
    }

    #[test]
    fn local_update_is_deterministic_per_round_and_device() {
        let d = toy_device(3);
        let m = LinearRegression::new(2);
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_seed(5);
        let w0 = vec![1.0, -1.0];
        let a = d.local_update(&m, &w0, &cfg, 7).expect("update");
        let b = d.local_update(&m, &w0, &cfg, 7).expect("update");
        assert_eq!(a.w, b.w);
        let c = d.local_update(&m, &w0, &cfg, 8).expect("update");
        assert_ne!(a.w, c.w, "different rounds must draw different batches");
    }

    #[test]
    fn different_devices_use_different_streams() {
        let d0 = toy_device(0);
        let d1 = Device::new(1, d0.data.clone()); // same data, different id
        let m = LinearRegression::new(2);
        let cfg = FedConfig::new(Algorithm::FedAvg).with_seed(5).with_tau(5);
        let w0 = vec![0.5, 0.5];
        let a = d0.local_update(&m, &w0, &cfg, 0).expect("update");
        let b = d1.local_update(&m, &w0, &cfg, 0).expect("update");
        assert_ne!(a.w, b.w);
    }

    #[test]
    fn fedavg_skips_anchor_full_gradient() {
        let d = toy_device(1);
        let m = LinearRegression::new(2);
        let cfg = FedConfig::new(Algorithm::FedAvg).with_tau(3).with_batch_size(4);
        let upd = d.local_update(&m, &[0.0, 0.0], &cfg, 0).expect("update");
        // SGD path: one batch per step incl. the first.
        assert_eq!(upd.grad_evals, 4 * 4);
        let cfg_vr = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_tau(3)
            .with_batch_size(4);
        let upd_vr = d.local_update(&m, &[0.0, 0.0], &cfg_vr, 0).expect("update");
        // VR path: full gradient (40) + 2×4 per inner step × 3.
        assert_eq!(upd_vr.grad_evals, 40 + 3 * 8);
    }

    #[test]
    fn proximal_update_improves_surrogate() {
        let d = toy_device(0);
        let m = LinearRegression::new(2);
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_tau(30)
            .with_mu(0.1)
            .with_beta(3.0);
        let w0 = vec![2.0, 2.0];
        let upd = d.local_update(&m, &w0, &cfg, 0).expect("update");
        let theta = d.theta_measured(&m, &w0, &upd.w, cfg.mu);
        // Uniform-random iterate selection means we cannot demand a tiny
        // θ, but it must improve on no-progress (θ = 1).
        assert!(theta < 1.0, "theta {theta}");
    }

    #[test]
    fn fsvrg_without_anchor_is_a_typed_error() {
        let d = toy_device(0);
        let m = LinearRegression::new(2);
        let cfg = FedConfig::new(Algorithm::Fsvrg).with_tau(2).with_batch_size(4);
        let err = d.local_update(&m, &[0.0, 0.0], &cfg, 4).expect_err("anchorless FSVRG");
        assert_eq!(err, FedError::MissingGlobalGradient { round: 4 });
        // With the server-distributed anchor the same call succeeds.
        let g = vec![0.1, -0.2];
        let upd = d
            .local_update_anchored(&m, &[0.0, 0.0], &cfg, 4, Some(&g))
            .expect("anchored FSVRG");
        assert!(upd.w.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn theta_measured_zero_cases() {
        let d = toy_device(0);
        let m = LinearRegression::new(2);
        // If local == stationary point of J (here: coincides only when
        // gradient tiny), theta small. Degenerate: zero F-gradient →
        // returns 0 by convention.
        let theta = d.theta_measured(&m, &[1e30, 1e30], &[0.0, 0.0], 0.1);
        assert!(theta.is_finite());
    }
}
