//! The round engine against Algorithm 1 rebuilt from public calls.
//!
//! `FederatedTrainer::run` evaluates with one fused loss-and-gradient
//! pass per device, hands those per-device gradients to the next round's
//! variance-reduced solves as their anchors (and their combination to
//! FSVRG's next round as the server gradient), and holds one solver
//! scratch across the run. None of that may show: a loop made only of
//! `Device::local_update_anchored`, `server::aggregate` and
//! `eval::global_loss` / `test_accuracy` / `stationarity_gap` /
//! `global_grad` — which recomputes every gradient and evaluates the
//! slow way — must produce the same final model and the same
//! `RoundRecord`s, bit for bit.

// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::core::{eval, server, Sampler};
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::{Cnn, CnnSpec, GradScratch, MultinomialLogistic};
use fedprox::prelude::*;
use fedprox::tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};

fn synthetic_federation(seed: u64) -> (Vec<Device>, Dataset) {
    let shards = generate(&SyntheticConfig { seed, ..Default::default() }, &[50, 70, 40, 60]);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

/// Small random images for the tiny CNN (8×8, 3 classes).
fn image_federation(seed: u64) -> (Vec<Device>, Dataset) {
    let spec = CnnSpec::tiny();
    let pixels = spec.in_ch * spec.side * spec.side;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut shard = |n: usize| {
        let mut f = Matrix::zeros(n, pixels);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes;
            for v in f.row_mut(i).iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *v = (state >> 11) as f64 / (1u64 << 53) as f64 + 0.3 * class as f64;
            }
            y.push(class as f64);
        }
        Dataset::new(f, y, spec.classes)
    };
    let devices = [14, 9, 11].iter().enumerate().map(|(i, &n)| Device::new(i, shard(n))).collect();
    (devices, shard(12))
}

fn base(alg: Algorithm) -> FedConfig {
    FedConfig::new(alg)
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(4)
        .with_mu(0.5)
        .with_batch_size(6)
        .with_rounds(6)
        .with_seed(17)
}

/// Algorithm 1 from public calls only, in the engine's order: sample,
/// drop crashed/offline devices, gate on quorum, solve, aggregate,
/// evaluate on the cadence.
fn public_loop<M: LossModel>(
    model: &M,
    devices: &[Device],
    test: &Dataset,
    cfg: &FedConfig,
) -> (Vec<f64>, Vec<RoundRecord>) {
    let n = devices.len();
    let weights = server::weights_from_sizes(&devices.iter().map(Device::samples).collect::<Vec<_>>());
    let sampler = Sampler::new(if cfg.participation >= 1.0 {
        SamplerSpec::Full
    } else {
        SamplerSpec::UniformK((cfg.participation * n as f64).ceil() as usize)
    });
    let record = |round: usize, w: &[f64], grad_evals: u64| RoundRecord {
        round,
        train_loss: eval::global_loss(model, devices, w),
        test_accuracy: eval::test_accuracy(model, test, w),
        grad_norm_sq: eval::stationarity_gap(model, devices, w),
        theta_measured: None,
        sim_time: 0.0,
        bytes: 0,
        grad_evals,
    };
    let mut global = model.init_params(cfg.seed);
    let mut records = vec![record(0, &global, 0)];
    let mut grad_evals = 0u64;
    for s in 1..=cfg.rounds {
        let sampled = sampler.sample(n, s, cfg.seed, |d| devices[d].samples());
        let active: Vec<usize> = sampled
            .into_iter()
            .filter(|&d| {
                cfg.resilience
                    .as_ref()
                    .is_none_or(|r| !r.plan.is_crashed(d, s) && !r.plan.is_offline(d, s))
            })
            .collect();
        let weight_sum: f64 = active.iter().map(|&d| weights[d]).sum();
        let met = cfg.resilience.as_ref().is_none_or(|r| r.quorum.met(weight_sum, active.len()));
        if met {
            // FSVRG's server gradient: N full passes, counted as such.
            let server_grad = cfg.algorithm.needs_global_gradient().then(|| {
                let mut g = vec![0.0; global.len()];
                eval::global_grad(model, devices, &global, &mut g);
                grad_evals += devices.iter().map(|d| d.samples() as u64).sum::<u64>();
                g
            });
            let updates: Vec<_> = active
                .iter()
                .map(|&d| {
                    devices[d]
                        .local_update_anchored(model, &global, cfg, s - 1, server_grad.as_deref())
                        .expect("local update")
                })
                .collect();
            for u in &updates {
                grad_evals += u.grad_evals as u64;
            }
            let locals: Vec<(&[f64], f64)> =
                active.iter().zip(&updates).map(|(&d, u)| (u.w.as_slice(), weights[d])).collect();
            let mut agg = vec![0.0; global.len()];
            server::aggregate(&locals, &mut agg);
            global = agg;
        }
        if s % cfg.eval_every == 0 || s == cfg.rounds {
            records.push(record(s, &global, grad_evals));
        }
    }
    (global, records)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One record's fields, floats as raw bits.
type Fields = (usize, u64, u64, u64, Option<u64>, u64, u64, u64);

/// Every field of every record, floats as raw bits.
fn fields(records: &[RoundRecord]) -> Vec<Fields> {
    records
        .iter()
        .map(|r| {
            (
                r.round,
                r.train_loss.to_bits(),
                r.test_accuracy.to_bits(),
                r.grad_norm_sq.to_bits(),
                r.theta_measured.map(f64::to_bits),
                r.sim_time.to_bits(),
                r.bytes,
                r.grad_evals,
            )
        })
        .collect()
}

fn assert_engine_matches_public_loop<M: LossModel>(
    model: &M,
    devices: &[Device],
    test: &Dataset,
    cfg: FedConfig,
    label: &str,
) -> History {
    let h = FederatedTrainer::new(model, devices, test, cfg.clone()).run().expect("engine run");
    let (final_model, records) = public_loop(model, devices, test, &cfg);
    assert!(!h.diverged(), "{label}: diverged");
    assert_eq!(bits(&h.final_model), bits(&final_model), "{label}: final model");
    assert_eq!(fields(&h.records), fields(&records), "{label}: round records");
    h
}

#[test]
fn vr_estimators_with_every_eval_cadence_match_the_public_loop() {
    let (devices, test) = synthetic_federation(3);
    let model = MultinomialLogistic::new(60, 10);
    for kind in [EstimatorKind::Svrg, EstimatorKind::Sarah] {
        for every in [1, 2, 3] {
            let cfg = base(Algorithm::FedProxVr(kind)).with_eval_every(every);
            assert_engine_matches_public_loop(
                &model,
                &devices,
                &test,
                cfg,
                &format!("{kind:?}, eval_every {every}"),
            );
        }
    }
}

#[test]
fn l1_prox_and_partial_participation_match_the_public_loop() {
    let (devices, test) = synthetic_federation(5);
    let model = MultinomialLogistic::new(60, 10);
    let svrg = Algorithm::FedProxVr(EstimatorKind::Svrg);
    let l1 = base(svrg).with_l1(1e-3).with_eval_every(1);
    assert_engine_matches_public_loop(&model, &devices, &test, l1, "l1 > 0");
    for every in [1, 2] {
        let partial = base(svrg).with_participation(0.5).with_eval_every(every);
        assert_engine_matches_public_loop(
            &model,
            &devices,
            &test,
            partial,
            &format!("participation 0.5, eval_every {every}"),
        );
    }
}

#[test]
fn resilient_run_with_a_crash_and_a_skipped_round_matches_the_public_loop() {
    let (devices, test) = synthetic_federation(7);
    let model = MultinomialLogistic::new(60, 10);
    // Device 3 crashes at round 4; devices 0 and 1 are offline in round
    // 2, which leaves 2 responders against a quorum of 3.
    let plan = FaultPlan::new().crash(3, 4).offline(0, 2, 2).offline(1, 2, 2);
    let quorum = QuorumPolicy { min_weight: 0.0, min_responders: 3 };
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Sarah))
        .with_eval_every(1)
        .with_resilience(Resilience::with_plan(plan).with_quorum(quorum));
    let h = assert_engine_matches_public_loop(&model, &devices, &test, cfg, "resilient");
    // The scenario must really contain what it claims to cover.
    let skipped: Vec<usize> =
        h.participation.iter().filter(|p| p.skipped).map(|p| p.round).collect();
    assert_eq!(skipped, vec![2], "quorum-skipped rounds");
    let last = h.participation.last().expect("participation records");
    assert_eq!(last.count(DeviceOutcome::Crashed), 1, "crashed devices in the last round");
}

#[test]
fn cnn_matches_the_public_loop() {
    let (devices, test) = image_federation(11);
    let model = Cnn::new(CnnSpec::tiny());
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_smoothness(10.0)
        .with_rounds(3)
        .with_eval_every(1);
    assert_engine_matches_public_loop(&model, &devices, &test, cfg, "tiny CNN");
}

/// A model that counts its full-gradient passes (`full_grad_in` and the
/// fused `full_loss_and_grad_in`) and forwards everything to `inner`.
struct CountingModel<M> {
    inner: M,
    full_grads: AtomicUsize,
}

impl<M: LossModel> CountingModel<M> {
    fn new(inner: M) -> Self {
        CountingModel { inner, full_grads: AtomicUsize::new(0) }
    }

    /// Full-gradient passes since the last call.
    fn take(&self) -> usize {
        self.full_grads.swap(0, Ordering::Relaxed)
    }
}

impl<M: LossModel> LossModel for CountingModel<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.inner.init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        self.inner.sample_loss(w, data, i)
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        self.inner.sample_grad_accum(w, data, i, scale, out)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        self.inner.predict(w, x)
    }
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        self.inner.batch_loss(w, data, indices)
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        self.inner.batch_grad_in(w, data, indices, out, scratch)
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        self.full_grads.fetch_add(1, Ordering::Relaxed);
        self.inner.full_grad_in(w, data, out, scratch)
    }
    fn full_loss_and_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        self.full_grads.fetch_add(1, Ordering::Relaxed);
        self.inner.full_loss_and_grad_in(w, data, out, scratch)
    }
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        self.inner.accuracy(w, data)
    }
}

#[test]
fn fsvrg_reuses_the_evaluation_gradient_and_matches_the_public_loop() {
    let (devices, test) = synthetic_federation(9);
    let model = CountingModel::new(MultinomialLogistic::new(60, 10));
    let n = devices.len();
    for every in [1, 2, 3] {
        let cfg = base(Algorithm::Fsvrg).with_eval_every(every);
        let trainer = FederatedTrainer::new(&model, &devices, &test, cfg.clone());
        let h = trainer.run().expect("engine run");
        let engine_passes = model.take();
        let (final_model, records) = public_loop(&model, &devices, &test, &cfg);
        let loop_passes = model.take();
        let label = format!("FSVRG, eval_every {every}");
        assert!(!h.diverged(), "{label}: diverged");
        assert_eq!(bits(&h.final_model), bits(&final_model), "{label}: final model");
        assert_eq!(fields(&h.records), fields(&records), "{label}: round records");
        // Every evaluation before the last hands ∇F̄ to the next round,
        // which then skips its N full passes.
        let feeding = h.records.iter().filter(|r| r.round < cfg.rounds).count();
        assert_eq!(loop_passes - engine_passes, n * feeding, "{label}: full-gradient passes");
    }
}
