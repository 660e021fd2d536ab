//! The top-level training loop: FedProxVR (Algorithm 1) and the FedAvg
//! baseline, over any execution backend.

use crate::config::{FedConfig, NetRunnerOptions, RunnerKind};
use crate::device::Device;
use crate::engine::{validate_devices, HandOff, Recorder, RoundEngine};
use crate::error::FedError;
use crate::metrics::History;
use crate::server;
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use fedprox_net::runtime::TryFnWorker;
use fedprox_net::{DeviceReply, NetworkRuntime, WorkerError};
use fedprox_tensor::vecops;

/// Which federated algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// McMahan et al.'s FedAvg: τ plain SGD steps per device, last
    /// iterate, plain averaging.
    FedAvg,
    /// Li et al.'s FedProx: the proximal surrogate of eq. (6) solved with
    /// plain SGD (no variance reduction) — the paper's closest prior.
    FedProx,
    /// Konečný et al.'s FSVRG: SVRG anchored at the **global** gradient
    /// `∇F̄(w̄)` distributed by the server (one extra aggregation per
    /// round), no proximal term.
    Fsvrg,
    /// The paper's FedProxVR with the given variance-reduced estimator.
    FedProxVr(fedprox_optim::EstimatorKind),
}

impl Algorithm {
    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::FedAvg => "fedavg",
            Algorithm::FedProx => "fedprox",
            Algorithm::Fsvrg => "fsvrg",
            Algorithm::FedProxVr(k) => match k {
                fedprox_optim::EstimatorKind::Svrg => "fedproxvr-svrg",
                fedprox_optim::EstimatorKind::Sarah => "fedproxvr-sarah",
                fedprox_optim::EstimatorKind::Sgd => "fedproxvr-sgd",
                fedprox_optim::EstimatorKind::FullGd => "fedproxvr-gd",
            },
        }
    }

    /// Whether the server must distribute the global gradient `∇F̄(w̄)`
    /// alongside the model each round (FSVRG only).
    pub fn needs_global_gradient(&self) -> bool {
        matches!(self, Algorithm::Fsvrg)
    }
}

/// Drives global iterations of the configured algorithm over a federation.
pub struct FederatedTrainer<'a, M: LossModel> {
    model: &'a M,
    devices: &'a [Device],
    test: &'a Dataset,
    cfg: FedConfig,
}

impl<'a, M: LossModel> FederatedTrainer<'a, M> {
    /// Build a trainer. `devices` must be non-empty, indexed to match
    /// their `id` fields (aggregation weights come from shard sizes) and
    /// hold data; the `run*` methods report a violation as a
    /// [`FedError`].
    pub fn new(model: &'a M, devices: &'a [Device], test: &'a Dataset, cfg: FedConfig) -> Self {
        FederatedTrainer { model, devices, test, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FedConfig {
        &self.cfg
    }

    /// Run from the model's seeded initialisation.
    ///
    /// Training dynamics (divergence, loss guards) are recorded in the
    /// returned [`History`], never surfaced as errors; `Err` means the
    /// run itself could not proceed (see [`FedError`]).
    pub fn run(&self) -> Result<History, FedError> {
        let w0 = self.model.init_params(self.cfg.seed);
        self.run_from(w0)
    }

    /// Run from an explicit initial global model. The in-process runners
    /// share the [`RoundEngine`]; the networked one hands the loop to the
    /// actor runtime.
    pub fn run_from(&self, w0: Vec<f64>) -> Result<History, FedError> {
        match &self.cfg.runner {
            RunnerKind::Network(opts) => self.run_networked(w0, opts),
            RunnerKind::Sequential | RunnerKind::EventDriven(_) => {
                RoundEngine::for_trainer(self.model, self.devices, self.test, self.cfg.clone())
                    .run_from(w0)
            }
        }
    }

    /// Networked backend: the actor runtime owns the loop; metrics are
    /// recorded from its per-round callback and timing is patched in from
    /// the virtual clock afterwards.
    fn run_networked(&self, w0: Vec<f64>, opts: &NetRunnerOptions) -> Result<History, FedError> {
        validate_devices(self.devices)?;
        if self.cfg.participation < 1.0 {
            return Err(FedError::PartialParticipationUnsupported);
        }
        if self.cfg.algorithm.needs_global_gradient() {
            return Err(FedError::FsvrgUnsupported { backend: "the networked backend" });
        }
        let weights = server::weights_from_sizes(
            &self.devices.iter().map(Device::samples).collect::<Vec<_>>(),
        );
        let workers: Vec<_> = self
            .devices
            .iter()
            .map(|d| {
                let model = self.model;
                let cfg = &self.cfg;
                let weight = weights[d.id];
                let sec_per = opts.sec_per_grad_eval;
                // Fallible worker: a local-update failure crosses the
                // simulated wire as a typed `WorkerFailed` transport
                // error instead of a panic. (Unreachable today — FSVRG,
                // the only failing algorithm, is rejected above.)
                TryFnWorker(move |round: u32, global: &[f64]| {
                    let upd = d
                        .local_update(model, global, cfg, round as usize)
                        .map_err(WorkerError::new)?;
                    Ok(DeviceReply {
                        params: upd.w,
                        weight,
                        grad_evals: upd.grad_evals as u64,
                        compute_time: upd.grad_evals as f64 * sec_per,
                    })
                })
            })
            .collect();

        // Device-level direction probes never cross the simulated wire
        // (the frame format must not depend on telemetry state), so the
        // networked monitor carries zero direction statistics and gets
        // its straggler skew backfilled from the clock afterwards. The
        // actor workers compute their own anchors: nothing is handed off.
        let (devices, test, cfg) = (Some(self.devices), Some(self.test), &self.cfg);
        let mut recorder = Recorder::new(self.model, devices, test, cfg, &w0, HandOff::Nothing);
        // The runtime's own resilience option wins when both are set;
        // otherwise the trainer-level policy is handed down.
        let mut net_opts = opts.net.clone();
        if net_opts.resilience.is_none() {
            net_opts.resilience = self.cfg.resilience.clone();
        }
        let report = NetworkRuntime.run(
            workers,
            w0,
            self.cfg.rounds as u32,
            &net_opts,
            |round, global| {
                let s = round as usize + 1;
                if !vecops::all_finite(global) {
                    recorder.non_finite(s, None, None, 0);
                    return false;
                }
                !recorder.evaluate_round(s, global, None, 0, 0.0, 0)
            },
        );
        // Transport errors are protocol/configuration bugs in the
        // in-process simulation, never training dynamics; there is no
        // meaningful History for them, so they propagate typed.
        let report = report.map_err(FedError::Net)?;

        #[cfg(feature = "telemetry")]
        if let Some(m) = recorder.monitor() {
            m.set_skews(&report.round_skews);
            for p in &report.participation {
                m.note_participation(p.round, p.responder_fraction());
            }
        }
        let (mut records, divergence) = recorder.finish();

        // Patch per-round simulated time and traffic into the records.
        let mut cumulative = Vec::with_capacity(report.round_durations.len());
        let mut acc = 0.0;
        for d in &report.round_durations {
            acc += d;
            cumulative.push(acc);
        }
        let total_bytes = report.clock.bytes_up().saturating_add(report.clock.bytes_down());
        let per_round_bytes = if report.rounds_run > 0 {
            total_bytes / report.rounds_run as u64
        } else {
            0
        };
        for rec in records.iter_mut() {
            if rec.round >= 1 && rec.round <= cumulative.len() {
                rec.sim_time = cumulative[rec.round - 1];
                rec.bytes = per_round_bytes.saturating_mul(rec.round as u64);
            }
        }

        Ok(History {
            config: self.cfg.summary(),
            records,
            divergence,
            rounds_run: report.rounds_run as usize,
            total_sim_time: report.clock.now(),
            final_model: report.final_model,
            participation: report.participation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_data::split::split_federation;
    use fedprox_faults::DeviceOutcome;
    use fedprox_data::synthetic::{generate, SyntheticConfig};
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn federation(seed: u64) -> (Vec<Device>, Dataset, MultinomialLogistic) {
        let shards =
            generate(&SyntheticConfig { seed, ..Default::default() }, &[60, 90, 40, 80]);
        let (train, test) = split_federation(&shards, seed);
        let devices: Vec<Device> =
            train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
        (devices, test, MultinomialLogistic::new(60, 10))
    }

    fn base_cfg(alg: Algorithm) -> FedConfig {
        FedConfig::new(alg)
            .with_beta(5.0)
            .with_tau(5)
            .with_mu(0.5)
            .with_batch_size(8)
            .with_rounds(10)
            .with_seed(7)
    }

    #[test]
    fn training_reduces_loss_all_algorithms() {
        let (devices, test, model) = federation(1);
        for alg in [
            Algorithm::FedAvg,
            Algorithm::FedProxVr(EstimatorKind::Svrg),
            Algorithm::FedProxVr(EstimatorKind::Sarah),
        ] {
            let trainer = FederatedTrainer::new(&model, &devices, &test, base_cfg(alg));
            let h = trainer.run().expect("run");
            assert!(!h.diverged(), "{} diverged", alg.name());
            assert_eq!(h.rounds_run, 10);
            let first = h.records.first().unwrap().train_loss;
            let last = h.final_loss().unwrap();
            assert!(last < first, "{}: {first} -> {last}", alg.name());
        }
    }

    #[test]
    fn sequential_and_event_driven_identical() {
        use crate::config::SimRunnerOptions;
        let (devices, test, model) = federation(2);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah));
        let h_seq = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let h_sim = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_runner(RunnerKind::EventDriven(SimRunnerOptions::default())),
        )
        .run().expect("run");
        assert_eq!(h_seq.records.len(), h_sim.records.len());
        for (a, b) in h_seq.records.iter().zip(&h_sim.records) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "round {}", a.round);
            assert_eq!(a.test_accuracy, b.test_accuracy);
        }
        assert_eq!(h_seq.final_model, h_sim.final_model);
        // Only the event-driven run keeps a virtual clock.
        assert_eq!(h_seq.total_sim_time, 0.0);
        assert!(h_sim.total_sim_time > 0.0);
    }

    #[test]
    fn network_matches_sequential_trajectory() {
        let (devices, test, model) = federation(3);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(5);
        let h_seq = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let h_net = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_runner(RunnerKind::Network(NetRunnerOptions::default())),
        )
        .run().expect("run");
        assert_eq!(h_seq.records.len(), h_net.records.len());
        for (a, b) in h_seq.records.iter().zip(&h_net.records) {
            assert_eq!(a.train_loss, b.train_loss, "round {}", a.round);
        }
        // Network run reports simulated time.
        assert!(h_net.total_sim_time > 0.0);
        assert!(h_net.records.last().unwrap().sim_time > 0.0);
        assert!(h_net.records.last().unwrap().bytes > 0);
    }

    #[test]
    fn measure_theta_records_values() {
        let (devices, test, model) = federation(4);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_rounds(3)
            .with_measure_theta(true);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(h.records[0].theta_measured.is_none(), "no theta before any local solve");
        for r in h.records.iter().skip(1) {
            let t = r.theta_measured.expect("theta missing");
            assert!(t.is_finite() && t >= 0.0);
        }
    }

    #[test]
    fn eval_every_thins_records() {
        let (devices, test, model) = federation(5);
        let cfg = base_cfg(Algorithm::FedAvg).with_rounds(10).with_eval_every(4);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        let rounds: Vec<usize> = h.records.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 4, 8, 10]); // baseline, every 4th, final
    }

    #[test]
    fn fedprox_and_fsvrg_baselines_learn() {
        let (devices, test, model) = federation(9);
        for alg in [Algorithm::FedProx, Algorithm::Fsvrg] {
            let h = FederatedTrainer::new(&model, &devices, &test, base_cfg(alg)).run().expect("run");
            assert!(!h.diverged(), "{} diverged", alg.name());
            assert!(
                h.final_loss().unwrap() < h.records[0].train_loss,
                "{} failed to learn",
                alg.name()
            );
        }
    }

    #[test]
    fn fsvrg_accounts_for_global_gradient_cost() {
        let (devices, test, model) = federation(10);
        let total_samples: u64 = devices.iter().map(|d| d.samples() as u64).sum();
        let rounds = 3;
        let h = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::Fsvrg).with_rounds(rounds).with_eval_every(1),
        )
        .run().expect("run");
        let evals = h.records.last().unwrap().grad_evals;
        // At least one full pass per round just for the global gradient.
        assert!(evals >= rounds as u64 * total_samples, "evals {evals}");
    }

    #[test]
    fn networked_rejects_fsvrg() {
        let (devices, test, model) = federation(11);
        let cfg = base_cfg(Algorithm::Fsvrg)
            .with_runner(RunnerKind::Network(NetRunnerOptions::default()));
        let got = FederatedTrainer::new(&model, &devices, &test, cfg).run();
        assert!(matches!(got, Err(FedError::FsvrgUnsupported { .. })), "{got:?}");
    }

    #[test]
    fn partial_participation_trains_and_differs_from_full() {
        let (devices, test, model) = federation(7);
        let full = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6),
        )
        .run().expect("run");
        let half = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6).with_participation(0.5),
        )
        .run().expect("run");
        assert!(!half.diverged());
        // Different device subsets ⇒ different trajectory.
        assert_ne!(
            full.final_loss().unwrap(),
            half.final_loss().unwrap(),
            "sampling half the devices should change the trajectory"
        );
        // Still learns.
        assert!(half.final_loss().unwrap() < half.records[0].train_loss);
        // Reproducible.
        let half2 = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6).with_participation(0.5),
        )
        .run().expect("run");
        assert_eq!(half.records, half2.records);
    }

    #[test]
    fn networked_rejects_partial_participation() {
        let (devices, test, model) = federation(8);
        let cfg = base_cfg(Algorithm::FedAvg)
            .with_participation(0.5)
            .with_runner(RunnerKind::Network(NetRunnerOptions::default()));
        let got = FederatedTrainer::new(&model, &devices, &test, cfg).run();
        assert!(matches!(got, Err(FedError::PartialParticipationUnsupported)), "{got:?}");
    }

    #[test]
    fn local_crash_excludes_device_and_records_participation() {
        use fedprox_faults::{FaultPlan, Resilience};
        let (devices, test, model) = federation(12);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(6);
        let faulted = cfg
            .clone()
            .with_resilience(Resilience::with_plan(FaultPlan::new().crash(2, 3)));
        let h = FederatedTrainer::new(&model, &devices, &test, faulted.clone()).run().expect("run");
        assert!(!h.diverged());
        assert_eq!(h.rounds_run, 6);
        assert_eq!(h.participation.len(), 6);
        for p in &h.participation {
            assert!(!p.skipped);
            if p.round >= 3 {
                assert_eq!(p.outcomes[2], DeviceOutcome::Crashed);
                assert_eq!(p.responders(), 3);
                assert!(p.responder_weight < 1.0);
            } else {
                assert_eq!(p.responders(), 4);
                assert!((p.responder_weight - 1.0).abs() < 1e-12);
            }
        }
        // The faulted trajectory differs from the clean one…
        let clean = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(clean.participation.is_empty());
        assert_ne!(clean.final_loss(), h.final_loss());
        // …and is reproducible bit-for-bit.
        let h2 = FederatedTrainer::new(&model, &devices, &test, faulted).run().expect("run");
        assert_eq!(h.records, h2.records);
        assert_eq!(h.participation, h2.participation);
    }

    #[test]
    fn local_quorum_shortfall_skips_rounds_without_error() {
        use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
        let (devices, test, model) = federation(13);
        // Device 1 holds 90 of 270 training samples; while it is offline
        // the responding weight 2/3 misses a 0.9 quorum and the round is
        // skipped with the global model untouched.
        let resil = Resilience::with_plan(FaultPlan::new().offline(1, 2, 3))
            .with_quorum(QuorumPolicy::weight_fraction(0.9));
        let cfg = base_cfg(Algorithm::FedAvg).with_rounds(5).with_resilience(resil);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(!h.diverged());
        assert_eq!(h.rounds_run, 5);
        let skipped: Vec<usize> =
            h.participation.iter().filter(|p| p.skipped).map(|p| p.round).collect();
        assert_eq!(skipped, vec![2, 3]);
        // eval_every = 1: skipped rounds leave the evaluated loss
        // bitwise unchanged.
        assert_eq!(h.records[1].round, 1);
        assert_eq!(h.records[2].train_loss.to_bits(), h.records[1].train_loss.to_bits());
        assert_eq!(h.records[3].train_loss.to_bits(), h.records[1].train_loss.to_bits());
        assert_ne!(h.records[4].train_loss.to_bits(), h.records[3].train_loss.to_bits());
    }

    #[test]
    fn local_zero_fault_resilience_matches_strict_run() {
        use fedprox_faults::Resilience;
        let (devices, test, model) = federation(14);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah));
        let strict = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let resilient = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_resilience(Resilience::default()),
        )
        .run().expect("run");
        assert_eq!(strict.records, resilient.records);
        for (a, b) in strict.final_model.iter().zip(&resilient.final_model) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resilient.participation.len(), 10);
        assert!(resilient.participation.iter().all(|p| p.responders() == 4 && !p.skipped));
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::FedAvg.name(), "fedavg");
        assert_eq!(Algorithm::FedProxVr(EstimatorKind::Svrg).name(), "fedproxvr-svrg");
        assert_eq!(Algorithm::FedProxVr(EstimatorKind::Sarah).name(), "fedproxvr-sarah");
    }

    #[test]
    fn empty_federation_rejected() {
        let (_, test, model) = federation(6);
        for runner in [
            RunnerKind::Sequential,
            RunnerKind::Network(NetRunnerOptions::default()),
        ] {
            let cfg = base_cfg(Algorithm::FedAvg).with_runner(runner);
            let got = FederatedTrainer::new(&model, &[], &test, cfg).run();
            assert!(matches!(got, Err(FedError::EmptyFederation)), "{got:?}");
        }
    }
}
