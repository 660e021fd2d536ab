//! Random hyper-parameter search — the procedure behind Tables 1 and 2:
//! "we conduct a random search on carefully chosen ranges of
//! hyperparameters to determine which combination of them would yield the
//! highest test accuracy with respect to each algorithm."

use crate::algorithm::{Algorithm, FederatedTrainer};
use crate::config::{FedConfig, RunnerKind};
use crate::device::Device;
use crate::error::FedError;
use fedprox_data::synthetic::device_rng;
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Candidate values for each searched hyper-parameter.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Local iteration counts τ.
    pub taus: Vec<usize>,
    /// Step-size parameters β.
    pub betas: Vec<f64>,
    /// Proximal penalties μ (ignored for FedAvg, which fixes μ = 0).
    pub mus: Vec<f64>,
    /// Mini-batch sizes B.
    pub batches: Vec<usize>,
    /// Global iteration budget range `[lo, hi]` (the paper's Tables 1–2
    /// report T between ~895 and ~995).
    pub rounds: (usize, usize),
}

impl SearchSpace {
    /// Ranges mirroring the paper's Tables 1–2 entries.
    pub fn paper_like() -> Self {
        SearchSpace {
            taus: vec![10, 20],
            betas: vec![5.0, 7.0, 9.0, 10.0],
            mus: vec![0.01, 0.1, 0.5],
            batches: vec![16, 32, 64],
            rounds: (100, 200),
        }
    }
}

/// One sampled trial and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trial {
    /// τ sampled.
    pub tau: usize,
    /// β sampled.
    pub beta: f64,
    /// μ sampled (0 for FedAvg).
    pub mu: f64,
    /// B sampled.
    pub batch: usize,
    /// T sampled.
    pub rounds: usize,
    /// Best test accuracy over the run.
    pub accuracy: f64,
    /// Whether the run diverged.
    pub diverged: bool,
}

/// Search outcome: the best trial plus the full log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Algorithm searched.
    pub algorithm: String,
    /// The winning trial.
    pub best: Trial,
    /// Every trial, in execution order.
    pub trials: Vec<Trial>,
}

/// Run `n_trials` random configurations of `algorithm` and return the one
/// with the highest test accuracy. Divergence is a recorded trial
/// outcome, not an error; `Err` means a run could not proceed at all
/// (see [`FedError`]).
#[allow(clippy::too_many_arguments)]
pub fn random_search<M: LossModel>(
    model: &M,
    devices: &[Device],
    test: &Dataset,
    algorithm: Algorithm,
    space: &SearchSpace,
    n_trials: usize,
    seed: u64,
    base: &FedConfig,
) -> Result<SearchResult, FedError> {
    assert!(n_trials >= 1, "need at least one trial");
    assert!(
        !space.taus.is_empty()
            && !space.betas.is_empty()
            && !space.mus.is_empty()
            && !space.batches.is_empty(),
        "search space must be non-empty"
    );
    let mut rng = device_rng(seed, 0x5EA6C);
    let mut trials = Vec::with_capacity(n_trials);
    for t in 0..n_trials {
        let tau = pick(&space.taus, &mut rng);
        let beta = pick(&space.betas, &mut rng);
        let mu = if matches!(algorithm, Algorithm::FedAvg) {
            0.0
        } else {
            pick(&space.mus, &mut rng)
        };
        let batch = pick(&space.batches, &mut rng);
        let rounds = rng.gen_range(space.rounds.0..=space.rounds.1);

        let cfg = FedConfig {
            algorithm,
            beta,
            tau,
            mu,
            batch_size: batch,
            rounds,
            seed: seed.wrapping_add(t as u64),
            runner: RunnerKind::Sequential,
            ..base.clone()
        };
        let history = FederatedTrainer::new(model, devices, test, cfg).run()?;
        trials.push(Trial {
            tau,
            beta,
            mu,
            batch,
            rounds,
            accuracy: history.best_accuracy(),
            diverged: history.diverged(),
        });
    }
    let best = match trials
        .iter()
        .filter(|t| !t.diverged)
        .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
        // All trials diverged: report the first so the table row exists.
        .or_else(|| trials.first())
    {
        Some(t) => t.clone(),
        None => unreachable!("n_trials >= 1 is asserted, so at least one trial ran"),
    };
    Ok(SearchResult { algorithm: algorithm.name().to_string(), best, trials })
}


/// Uniform pick from a non-empty slice. Consumes exactly one
/// `gen_range(0..len)` draw — the same stream consumption as
/// `SliceRandom::choose`, so search results stay seed-stable.
fn pick<T: Copy, R: Rng>(xs: &[T], rng: &mut R) -> T {
    let i = rng.gen_range(0..xs.len()); // panics on an empty slice, like indexing would
    match xs.get(i) {
        Some(&x) => x,
        None => unreachable!("gen_range(0..len) keeps i in bounds"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_data::split::split_federation;
    use fedprox_data::synthetic::{generate, SyntheticConfig};
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn federation() -> (Vec<Device>, Dataset, MultinomialLogistic) {
        let shards = generate(&SyntheticConfig { seed: 9, ..Default::default() }, &[50, 70]);
        let (train, test) = split_federation(&shards, 9);
        let devices: Vec<Device> =
            train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
        (devices, test, MultinomialLogistic::new(60, 10))
    }

    fn tiny_space() -> SearchSpace {
        SearchSpace {
            taus: vec![3, 5],
            betas: vec![5.0, 8.0],
            mus: vec![0.1, 0.5],
            batches: vec![8],
            rounds: (3, 5),
        }
    }

    #[test]
    fn search_returns_best_non_diverged_trial() {
        let (devices, test, model) = federation();
        let base = FedConfig::new(Algorithm::FedAvg);
        let r = random_search(
            &model,
            &devices,
            &test,
            Algorithm::FedProxVr(EstimatorKind::Svrg),
            &tiny_space(),
            4,
            1,
            &base,
        )
        .expect("search");
        assert_eq!(r.trials.len(), 4);
        assert_eq!(r.algorithm, "fedproxvr-svrg");
        let max_acc =
            r.trials.iter().filter(|t| !t.diverged).map(|t| t.accuracy).fold(0.0, f64::max);
        assert_eq!(r.best.accuracy, max_acc);
    }

    #[test]
    fn fedavg_trials_force_mu_zero() {
        let (devices, test, model) = federation();
        let base = FedConfig::new(Algorithm::FedAvg);
        let r = random_search(
            &model,
            &devices,
            &test,
            Algorithm::FedAvg,
            &tiny_space(),
            3,
            2,
            &base,
        )
        .expect("search");
        assert!(r.trials.iter().all(|t| t.mu == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (devices, test, model) = federation();
        let base = FedConfig::new(Algorithm::FedAvg);
        let a = random_search(
            &model, &devices, &test, Algorithm::FedAvg, &tiny_space(), 3, 5, &base,
        )
        .expect("search");
        let b = random_search(
            &model, &devices, &test, Algorithm::FedAvg, &tiny_space(), 3, 5, &base,
        )
        .expect("search");
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.accuracy, y.accuracy);
            assert_eq!(x.tau, y.tau);
        }
    }
}
