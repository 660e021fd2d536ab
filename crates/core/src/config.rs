//! Experiment configuration.

use crate::algorithm::Algorithm;
use fedprox_net::NetOptions;
use serde::{Deserialize, Serialize};

/// Which execution backend runs the devices.
// `Network` carries the full `NetOptions` (links, retry policy, optional
// resilience plan) and dwarfs the unit variants; a run holds exactly one
// `RunnerKind` inside its `FedConfig`, so the size gap never multiplies
// and boxing would only add churn at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunnerKind {
    /// The in-process round engine over the trainer's devices, one
    /// device after another on the calling thread, with no virtual
    /// clock — the reference trajectory. `participation < 1` samples
    /// `⌈pN⌉` devices a round.
    Sequential,
    /// The `fedprox-net` actor runtime with simulated delays.
    Network(NetRunnerOptions),
    /// The same in-process round engine with a per-round client sampler
    /// and a virtual clock (download/compute/upload legs, deadlines).
    /// [`FederatedTrainer`] runs it over its devices;
    /// [`RoundEngine`] also runs it over a lazily synthesized
    /// population, with memory bounded by the active set.
    ///
    /// [`FederatedTrainer`]: crate::algorithm::FederatedTrainer
    /// [`RoundEngine`]: crate::engine::RoundEngine
    EventDriven(SimRunnerOptions),
}

/// Options for the networked backend.
#[derive(Debug, Clone)]
pub struct NetRunnerOptions {
    /// Link/drop/straggler configuration.
    pub net: NetOptions,
    /// Compute-cost model: seconds per per-sample gradient evaluation
    /// (turns a device's `grad_evals` into its simulated `d_cmp`).
    pub sec_per_grad_eval: f64,
}

impl Default for NetRunnerOptions {
    fn default() -> Self {
        NetRunnerOptions { net: NetOptions::default(), sec_per_grad_eval: 1e-6 }
    }
}

/// How the event-driven backend picks each round's active client set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerSpec {
    /// Every device, every round (p = 1). On a materialized population
    /// this reproduces the sequential backend's trajectory bitwise.
    Full,
    /// K devices uniformly without replacement, drawn from the same
    /// `(seed, round)` stream the sequential backend's partial
    /// participation uses — so `K = ⌈pN⌉` matches `participation = p`
    /// bitwise.
    UniformK(usize),
    /// K devices without replacement with inclusion probability ∝ their
    /// sample count `n_k` (FedProx's sampling scheme, arXiv 1812.06127);
    /// aggregation then averages the K updates uniformly.
    WeightedK(usize),
    /// Each device independently active with probability p ∈ (0, 1];
    /// aggregation reweights contributions by 1/p with the residual
    /// weight left on the previous global model, so weights still sum
    /// to the full-participation total (unbiased — arXiv 2210.14362).
    Bernoulli(f64),
}

/// Options for the event-driven backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRunnerOptions {
    /// Per-round client sampling strategy.
    pub sampler: SamplerSpec,
    /// Compute-cost model: seconds per per-sample gradient evaluation.
    pub sec_per_grad_eval: f64,
    /// Server → device transfer time per round, seconds.
    pub downlink_s: f64,
    /// Device → server transfer time per round, seconds.
    pub uplink_s: f64,
    /// Multiplicative per-(round, device) compute jitter half-width
    /// (0 = deterministic timing; timing never feeds back into the
    /// trajectory either way).
    pub jitter: f64,
}

impl Default for SimRunnerOptions {
    fn default() -> Self {
        SimRunnerOptions {
            sampler: SamplerSpec::Full,
            sec_per_grad_eval: 1e-6,
            downlink_s: 0.05,
            uplink_s: 0.05,
            jitter: 0.0,
        }
    }
}

impl SimRunnerOptions {
    /// Set the sampler.
    pub fn with_sampler(mut self, sampler: SamplerSpec) -> Self {
        self.sampler = sampler;
        self
    }
    /// Set the compute-cost model (seconds per gradient evaluation).
    pub fn with_sec_per_grad_eval(mut self, s: f64) -> Self {
        self.sec_per_grad_eval = s;
        self
    }
    /// Set the per-(round, device) compute jitter half-width.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }
}

/// Full configuration of a federated training run (one curve of
/// Figs. 2–4, or one trial of Tables 1–2).
#[derive(Debug, Clone)]
pub struct FedConfig {
    /// FedAvg or FedProxVR(SVRG | SARAH).
    pub algorithm: Algorithm,
    /// Step-size parameter β (η = 1/(βL)).
    pub beta: f64,
    /// Smoothness estimate L of the per-sample losses.
    pub smoothness: f64,
    /// Local iterations τ per round.
    pub tau: usize,
    /// Proximal penalty μ (ignored by FedAvg).
    pub mu: f64,
    /// Mini-batch size B.
    pub batch_size: usize,
    /// Global iterations T.
    pub rounds: usize,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Evaluate metrics every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Execution backend.
    pub runner: RunnerKind,
    /// Which local iterate FedProxVR devices return (Algorithm 1 line 10
    /// specifies the uniformly-random iterate, which the convergence proof
    /// needs; the paper's released experiment code returns the last
    /// iterate, which converges faster in practice — the default here).
    pub iterate_choice: fedprox_optim::solver::IterateChoice,
    /// Also measure the empirical local accuracy θ (eq. (11)) each
    /// evaluated round — costs one extra full gradient per device.
    pub measure_theta: bool,
    /// Training-loss ceiling: past it the run is recorded as diverged
    /// (used by the Fig. 4 μ = 0 experiment) and stops.
    pub loss_guard: f64,
    /// Fraction of devices sampled per round, in `(0, 1]`. The paper runs
    /// full participation (1.0, the default); this is the standard FedAvg
    /// `C` knob for the massive-fleet setting the paper's introduction
    /// motivates. The sequential backend samples `⌈pN⌉` devices a round
    /// when < 1.0; the event-driven backend takes its sampler from
    /// [`SimRunnerOptions`] instead, and the networked backend rejects
    /// < 1.0.
    pub participation: f64,
    /// Override the local step-size schedule. `None` (default) uses the
    /// paper's fixed `η = 1/(βL)`; setting e.g.
    /// [`fedprox_optim::StepSize::Diminishing`] enables the ablation the
    /// paper's footnote 1 argues against.
    pub step_override: Option<fedprox_optim::StepSize>,
    /// L1 sparsity strength added to FedProxVR's surrogate:
    /// `h_s(w) = μ/2 ‖w − w̄‖² + l1 ‖w‖₁` (still closed-form proximable —
    /// the non-smooth composite setting ProxSVRG/ProxSARAH were built
    /// for). 0 (default) recovers the paper's surrogate exactly.
    pub l1: f64,
    /// Fault-injection plan and graceful-degradation policy (fedresil).
    /// `None` (the default) keeps strict semantics: every sampled device
    /// must respond and any worker failure aborts the run. `Some` runs
    /// the round under the plan's device faults, excludes non-responders
    /// with aggregation weights renormalized over the rest, and records
    /// per-round participation in the [`crate::metrics::History`].
    pub resilience: Option<fedprox_faults::Resilience>,
}

impl FedConfig {
    /// Reasonable defaults around the paper's mid-range settings.
    pub fn new(algorithm: Algorithm) -> Self {
        FedConfig {
            algorithm,
            beta: 5.0,
            smoothness: 1.0,
            tau: 10,
            mu: 0.1,
            batch_size: 32,
            rounds: 100,
            seed: 0,
            eval_every: 1,
            runner: RunnerKind::Sequential,
            iterate_choice: fedprox_optim::solver::IterateChoice::Last,
            measure_theta: false,
            loss_guard: 1e9,
            participation: 1.0,
            step_override: None,
            l1: 0.0,
            resilience: None,
        }
    }

    /// The paper's step size η = 1/(βL).
    pub fn eta(&self) -> f64 {
        1.0 / (self.beta * self.smoothness)
    }

    /// Builder-style setters.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0);
        self.beta = beta;
        self
    }
    /// Set L.
    pub fn with_smoothness(mut self, l: f64) -> Self {
        assert!(l > 0.0);
        self.smoothness = l;
        self
    }
    /// Set τ.
    pub fn with_tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }
    /// Set μ.
    pub fn with_mu(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0);
        self.mu = mu;
        self
    }
    /// Set B.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        assert!(b >= 1);
        self.batch_size = b;
        self
    }
    /// Set T.
    pub fn with_rounds(mut self, t: usize) -> Self {
        self.rounds = t;
        self
    }
    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Set evaluation cadence.
    pub fn with_eval_every(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.eval_every = k;
        self
    }
    /// Set the backend.
    pub fn with_runner(mut self, r: RunnerKind) -> Self {
        self.runner = r;
        self
    }
    /// Enable θ measurement.
    pub fn with_measure_theta(mut self, on: bool) -> Self {
        self.measure_theta = on;
        self
    }
    /// Choose the local iterate rule (see the field docs).
    pub fn with_iterate_choice(mut self, c: fedprox_optim::solver::IterateChoice) -> Self {
        self.iterate_choice = c;
        self
    }
    /// Sample only a fraction of devices each round (see the field docs).
    pub fn with_participation(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "participation must be in (0, 1]");
        self.participation = p;
        self
    }
    /// Override the local step-size schedule (see the field docs).
    pub fn with_step_override(mut self, step: fedprox_optim::StepSize) -> Self {
        self.step_override = Some(step);
        self
    }
    /// Add L1 sparsity to the FedProxVR surrogate (see the field docs).
    pub fn with_l1(mut self, l1: f64) -> Self {
        assert!(l1 >= 0.0, "l1 must be non-negative");
        self.l1 = l1;
        self
    }
    /// Run under a fault plan with graceful degradation (see the field
    /// docs).
    pub fn with_resilience(mut self, resilience: fedprox_faults::Resilience) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Summary for experiment output.
    pub fn summary(&self) -> ConfigSummary {
        ConfigSummary {
            algorithm: self.algorithm.name().to_string(),
            beta: self.beta,
            tau: self.tau,
            mu: self.mu,
            batch_size: self.batch_size,
            rounds: self.rounds,
            eta: self.eta(),
            seed: self.seed,
            l1: self.l1,
            participation: self.participation,
            uniform_random_iterate: matches!(
                self.iterate_choice,
                fedprox_optim::solver::IterateChoice::UniformRandom
            ),
        }
    }
}

/// Serializable configuration summary embedded in experiment output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// β.
    pub beta: f64,
    /// τ.
    pub tau: usize,
    /// μ.
    pub mu: f64,
    /// B.
    pub batch_size: usize,
    /// T.
    pub rounds: usize,
    /// η = 1/(βL).
    pub eta: f64,
    /// Master seed.
    pub seed: u64,
    /// L1 sparsity strength (0 = the paper's surrogate).
    #[serde(default)]
    pub l1: f64,
    /// Device participation fraction.
    #[serde(default = "one")]
    pub participation: f64,
    /// Whether Algorithm 1 line 10's uniform-random iterate was used.
    #[serde(default)]
    pub uniform_random_iterate: bool,
}

fn one() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_optim::estimator::EstimatorKind;

    #[test]
    fn eta_is_inverse_beta_l() {
        let c = FedConfig::new(Algorithm::FedAvg).with_beta(4.0).with_smoothness(0.5);
        assert!((c.eta() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builder_chains() {
        let c = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_beta(7.0)
            .with_tau(20)
            .with_mu(0.5)
            .with_batch_size(64)
            .with_rounds(250)
            .with_seed(9)
            .with_eval_every(5)
            .with_measure_theta(true);
        assert_eq!(c.tau, 20);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.rounds, 250);
        assert_eq!(c.seed, 9);
        assert_eq!(c.eval_every, 5);
        assert!(c.measure_theta);
        let s = c.summary();
        assert_eq!(s.algorithm, "fedproxvr-sarah");
        assert_eq!(s.mu, 0.5);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_batch() {
        let _ = FedConfig::new(Algorithm::FedAvg).with_batch_size(0);
    }
}
