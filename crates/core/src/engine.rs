//! [`RoundEngine`] — the one in-process round loop of Algorithm 1.
//!
//! Every in-process backend runs this loop: sample, fault-filter,
//! quorum-gate, local solves, aggregate, evaluate. Devices are passive:
//! a sampled device is (lazily) materialized, runs its τ-step proximal
//! solve, surrenders its local model, and is dropped before the next
//! round. [`crate::FederatedTrainer`] runs it over its device slice for
//! [`RunnerKind::Sequential`] (`Full` sampling, or `UniformK(⌈pN⌉)` when
//! `participation < 1`, and no virtual clock) and for
//! [`RunnerKind::EventDriven`] (the options' sampler plus the virtual
//! clock); `RoundEngine::new` also runs it over a lazily synthesized
//! [`Population`] of millions of devices.
//!
//! **Timing.** With the clock on, each active device's round is three
//! legs — download, compute (gradient evaluations × seconds per
//! evaluation × the population's compute factor × the fault plan's slow
//! factor × optional jitter), upload. Its finish is accumulated leg by
//! leg from the round start, `((t0 + download) + compute) + upload`, and
//! a device whose finish lies past the round deadline is a
//! `DeadlineMiss`. Timing never feeds back into the trajectory: the
//! aggregation runs in the sampler's order.
//!
//! **Equivalence.** On a materialized population every stream is keyed
//! by `(seed, round)` or `(seed, round, stable id)`, so the sequential
//! and event-driven runs of one config agree bitwise in every metric
//! field (the sim-time and byte columns report the virtual clock, which
//! the sequential run leaves at zero). `tests/sim_runtime.rs` locks this.
//!
//! **Evaluation feeds the next round.** An evaluation at `w̄^{(s)}` makes
//! one fused loss-and-gradient pass per device, and the per-device
//! gradients `∇F_n(w̄^{(s)})` are exactly the anchors Algorithm 1 line 3
//! has round `s+1` compute at the same model through the same reduction.
//! For FedProxVR's variance-reduced solves the recorder keeps them, tagged
//! `s`, and round `s+1` hands device `n` its own as the anchor. Each is
//! dropped as its solve takes it and the rest once the round's solves
//! are done; any other round recomputes. The reused anchor is guarded
//! and counted as computed (`grad_evals`, eq. (19) timing and the
//! telemetry counters are unchanged) — a real device computes its own,
//! so the saving is the simulator's only. FSVRG's server gradient is the
//! same evaluation's `∇F̄(w̄^{(s)})`, bitwise `eval::global_grad` at that
//! model: the recorder keeps it, tagged `s`, and round `s+1` distributes
//! it instead of recomputing it, still counting the `N` full passes.
//! Armed telemetry runs hand nothing over: they compute every anchor
//! inside its solve, so the profile charges each counted gradient to the
//! solve that counts it, and FSVRG's gradient in its round.

use crate::algorithm::Algorithm;
use crate::config::{FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
use crate::device::{Anchor, Device, LocalScratch};
use crate::error::FedError;
use crate::metrics::{DivergenceCause, History, RoundRecord, RunningTotal};
use crate::population::Population;
use crate::sampler::{bernoulli_reweight, Sampler};
use crate::{eval, server};
use fedprox_data::Dataset;
use fedprox_faults::{DeviceOutcome, RoundParticipation};
use fedprox_models::LossModel;
use fedprox_net::clock::DeviceRoundTiming;
use fedprox_net::VirtualClock;
use fedprox_tensor::vecops;
use rand::Rng;

/// Seed-domain tag for the optional compute-jitter stream (disjoint from
/// the sampling, fault and solver stream families).
const JITTER_TAG: u64 = 0x51D0_77E1;

/// Per-round progress handed to [`RoundEngine::run_with`] callbacks (the
/// `fedsim` CLI measures per-round allocation traffic from here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Global round `s` (1-based).
    pub round: usize,
    /// Devices whose local models entered this round's aggregation
    /// (0 for a quorum-skipped round).
    pub active: usize,
    /// Virtual clock after the round.
    pub sim_time: f64,
}

/// The in-process round engine.
///
/// It accepts a [`Population`] instead of a device slice (so
/// million-device populations never materialize) and an optional test
/// set: rounds are evaluated only over a materialized population with a
/// test set, so a lazy run's `History.records` only ever carries a
/// divergence marker.
pub struct RoundEngine<'a, M: LossModel> {
    model: &'a M,
    population: Population<'a>,
    test: Option<&'a Dataset>,
    cfg: FedConfig,
    opts: SimRunnerOptions,
    /// Whether rounds run on the virtual clock (event-driven) or take no
    /// simulated time (sequential).
    clocked: bool,
}

impl<'a, M: LossModel> RoundEngine<'a, M> {
    /// Build an event-driven engine. Options come from the config's
    /// [`RunnerKind::EventDriven`] when selected, defaults otherwise
    /// (so a config built for another backend still runs, full-sampled).
    /// Contract violations (an empty population, misnumbered devices,
    /// FSVRG over a lazy population) are reported by the `run*` methods.
    pub fn new(
        model: &'a M,
        population: Population<'a>,
        test: Option<&'a Dataset>,
        cfg: FedConfig,
    ) -> Self {
        let opts = match &cfg.runner {
            RunnerKind::EventDriven(o) => *o,
            _ => SimRunnerOptions::default(),
        };
        RoundEngine { model, population, test, cfg, opts, clocked: true }
    }

    /// The engine [`crate::FederatedTrainer`] runs for the in-process
    /// runners. `Sequential` samples from `participation` and keeps no
    /// clock; `EventDriven` takes its sampler and timing from the options.
    pub(crate) fn for_trainer(
        model: &'a M,
        devices: &'a [Device],
        test: &'a Dataset,
        cfg: FedConfig,
    ) -> Self {
        let (opts, clocked) = match &cfg.runner {
            RunnerKind::EventDriven(o) => (*o, true),
            _ => {
                let sampler = if cfg.participation >= 1.0 {
                    SamplerSpec::Full
                } else {
                    // The sampler clamps K to [1, N].
                    SamplerSpec::UniformK((cfg.participation * devices.len() as f64).ceil() as usize)
                };
                (SimRunnerOptions::default().with_sampler(sampler), false)
            }
        };
        let population = Population::Materialized(devices);
        RoundEngine { model, population, test: Some(test), cfg, opts, clocked }
    }

    /// Run from the model's seeded initialisation.
    pub fn run(&self) -> Result<History, FedError> {
        self.run_from(self.model.init_params(self.cfg.seed))
    }

    /// Run from an explicit initial global model.
    pub fn run_from(&self, w0: Vec<f64>) -> Result<History, FedError> {
        self.run_loop(w0, &mut |_| {})
    }

    /// Run from the seeded initialisation with a per-round observer.
    pub fn run_with(&self, mut on_round: impl FnMut(&RoundStats)) -> Result<History, FedError> {
        self.run_loop(self.model.init_params(self.cfg.seed), &mut on_round)
    }

    /// The engine's entry contract, checked once before any work.
    fn validate(&self) -> Result<(), FedError> {
        match &self.population {
            Population::Materialized(devs) => validate_devices(devs),
            Population::Lazy(_) if self.population.is_empty() => Err(FedError::EmptyFederation),
            Population::Lazy(_) if self.cfg.algorithm.needs_global_gradient() => {
                Err(FedError::FsvrgUnsupported { backend: "a lazy population" })
            }
            Population::Lazy(_) => Ok(()),
        }
    }

    /// Device `d`'s legs in round `s`.
    fn timing(&self, d: usize, s: usize, grad_evals: usize) -> DeviceRoundTiming {
        let mut compute = grad_evals as f64
            * self.opts.sec_per_grad_eval
            * self.population.compute_factor_of(d);
        if let Some(r) = &self.cfg.resilience {
            compute *= r.plan.slow_factor(d, s);
        }
        if self.opts.jitter > 0.0 {
            let mut rng = fedprox_faults::stream_rng(self.cfg.seed ^ JITTER_TAG, s as u64, d as u64);
            let u01: f64 = rng.gen_range(0.0..1.0);
            compute *= 1.0 + self.opts.jitter * (2.0 * u01 - 1.0);
        }
        DeviceRoundTiming { download: self.opts.downlink_s, compute, upload: self.opts.uplink_s }
    }

    fn run_loop(
        &self,
        w0: Vec<f64>,
        on_round: &mut dyn FnMut(&RoundStats),
    ) -> Result<History, FedError> {
        self.validate()?;
        let cfg = &self.cfg;
        let n = self.population.len();
        let dim = w0.len();
        let sampler = Sampler::new(self.opts.sampler);
        let devices = self.population.devices();
        // Compact participation records (outcomes aligned with the
        // sample) keep lazy rounds O(K); materialized ones are dense.
        let compact = devices.is_none();
        // Materialized populations normalise weights over the slice;
        // lazy ones resolve D_d / D per sampled device.
        let dense_weights = devices.map(|devs| {
            server::weights_from_sizes(&devs.iter().map(Device::samples).collect::<Vec<_>>())
        });
        let total_samples = self.population.total_samples() as f64;
        let weight_of = |d: usize| match &dense_weights {
            Some(w) => w[d],
            None => self.population.size_of(d) as f64 / total_samples,
        };
        let resil = cfg.resilience.as_ref();
        let deadline = resil.and_then(|r| r.deadline_s).filter(|_| self.clocked);
        // Participation ledger: resilient runs, and every lazy run
        // (sampled rounds are the story a million-device run tells).
        let record_participation = resil.is_some() || compact;

        // Evaluations hand their gradients to the next round where it
        // would compute exactly them (module docs).
        let hand_off = match cfg.algorithm {
            _ if collector_armed() => HandOff::Nothing,
            Algorithm::FedProxVr(kind) if kind.needs_anchor() => HandOff::Anchors,
            Algorithm::Fsvrg => HandOff::GlobalGrad,
            _ => HandOff::Nothing,
        };
        let mut recorder = Recorder::new(self.model, devices, self.test, cfg, &w0, hand_off);
        let mut global = w0;
        let mut agg = vec![0.0; dim];
        let mut total_grad_evals = RunningTotal::new();
        let mut rounds_run = 0;
        let mut clock = VirtualClock::default();
        let mut participation: Vec<RoundParticipation> = Vec::new();

        for s in 1..=cfg.rounds {
            fedprox_telemetry::span!("core", "round", "s" => s);
            // ∇F_n(w̄^{(s−1)}) or ∇F̄(w̄^{(s−1)}) from the evaluation that
            // ended round s−1, when it kept them.
            let mut anchors = recorder.take_anchors(s - 1);
            let mut kept_global_grad = recorder.take_global_grad(s - 1);
            let sampled = sampler.sample(n, s, cfg.seed, |d| self.population.size_of(d));

            // Fault filtering on the sampled set, addressed by stable
            // device id (see `fedprox_faults::PlannedFault::device`).
            // `slots[j]` is active device j's outcome index.
            let mut outcomes =
                vec![DeviceOutcome::NotSelected; if compact { sampled.len() } else { n }];
            let mut active: Vec<usize> = Vec::with_capacity(sampled.len());
            let mut slots: Vec<usize> = Vec::with_capacity(sampled.len());
            for (j, &d) in sampled.iter().enumerate() {
                let slot = if compact { j } else { d };
                outcomes[slot] = match resil {
                    Some(r) if r.plan.is_crashed(d, s) => DeviceOutcome::Crashed,
                    Some(r) if r.plan.is_offline(d, s) => DeviceOutcome::Offline,
                    _ => {
                        active.push(d);
                        slots.push(slot);
                        DeviceOutcome::Responded
                    }
                };
            }
            let sampled_ids = compact.then(|| sampled.iter().map(|&d| d as u32).collect());
            let weight_sum: f64 = active.iter().map(|&d| weight_of(d)).sum();
            if !resil.is_none_or(|r| r.quorum.met(weight_sum, active.len())) {
                // A round without enough responding weight is skipped
                // (global model unchanged) and counted, never fatal.
                let rec = RoundParticipation {
                    round: s,
                    outcomes,
                    responder_weight: weight_sum,
                    skipped: true,
                    sampled: sampled_ids,
                };
                recorder.note_participation(&rec);
                #[cfg(feature = "telemetry")]
                fedprox_telemetry::collector::trigger_postmortem(
                    "quorum_skip",
                    s as u32,
                    fedprox_net::runtime::attribute_skip(&rec),
                );
                if record_participation {
                    participation.push(rec);
                }
                rounds_run = s;
                let bytes = clock.bytes_down() + clock.bytes_up();
                let stop = recorder.evaluate_round(
                    s,
                    &global,
                    None,
                    total_grad_evals.get(),
                    clock.now(),
                    bytes,
                );
                on_round(&RoundStats { round: s, active: 0, sim_time: clock.now() });
                if stop {
                    break;
                }
                continue;
            }

            // FSVRG: the server aggregates and re-distributes the global
            // gradient before the local updates (one extra exchange,
            // over the whole materialized population).
            let global_grad = match (cfg.algorithm.needs_global_gradient(), devices) {
                (true, Some(devs)) => {
                    let g = kept_global_grad.take().unwrap_or_else(|| {
                        let mut g = vec![0.0; dim];
                        eval::global_grad(self.model, devs, &global, &mut g);
                        g
                    });
                    // Every device spent a full local gradient pass for it.
                    for d in devs {
                        total_grad_evals.add(d.samples() as u64);
                    }
                    Some(g)
                }
                _ => None,
            };

            // Local solves: the per-(round, device) solver streams are
            // keyed by stable id, so a lazily synthesized device produces
            // the same local model a resident one would. The round's
            // solves share one scratch; it and the anchors no solve took
            // are freed before the evaluation allocates its own buffers.
            let mut local = LocalScratch::default();
            let mut updates = Vec::with_capacity(active.len());
            for &d in &active {
                fedprox_telemetry::span!("core", "device_update", "device" => d, "round" => s - 1);
                let own = anchors.as_mut().and_then(|a| a.get_mut(d)?.take());
                let anchor = match own.as_deref() {
                    Some(g) => Anchor::Own(g),
                    None => Anchor::Server(global_grad.as_deref()),
                };
                let u = match &self.population {
                    Population::Materialized(devs) => {
                        devs[d].local_update_with(self.model, &global, cfg, s - 1, anchor, &mut local)
                    }
                    Population::Lazy(lazy) => lazy
                        .device(d)
                        .local_update_with(self.model, &global, cfg, s - 1, anchor, &mut local),
                }?;
                total_grad_evals.add(u.grad_evals as u64);
                updates.push(u);
            }
            drop((local, anchors));
            recorder.note_round(s, &active, &updates);

            // Optional θ measurement against the pre-aggregation global
            // (materialized populations only).
            let theta = match (devices, cfg.measure_theta) {
                (Some(devs), true) => {
                    let mut sum = 0.0;
                    let mut wsum = 0.0;
                    for (&i, u) in active.iter().zip(&updates) {
                        sum += weight_of(i)
                            * devs[i].theta_measured(self.model, &global, &u.w, cfg.mu);
                        wsum += weight_of(i);
                    }
                    Some(sum / wsum)
                }
                _ => None,
            };

            // Timing: devices finishing past the deadline drop out of the
            // aggregation (their compute still happened and is charged).
            // The round lasts as long as its slowest responder, or the
            // deadline when anyone missed it. The model crosses the link
            // once per direction per active device.
            let mut responded = vec![true; active.len()];
            #[cfg(feature = "telemetry")]
            let mut responder_timings: Vec<(usize, DeviceRoundTiming)> = Vec::new();
            if self.clocked {
                let t0 = clock.now();
                let mut candidates: Vec<f64> = Vec::with_capacity(active.len());
                for (j, (&d, u)) in active.iter().zip(&updates).enumerate() {
                    let t = self.timing(d, s, u.grad_evals);
                    let finish = ((t0 + t.download) + t.compute) + t.upload;
                    match deadline {
                        Some(dl) if finish - t0 > dl => {
                            responded[j] = false;
                            outcomes[slots[j]] = DeviceOutcome::DeadlineMiss;
                            candidates.push(dl);
                        }
                        _ => {
                            candidates.push(t.total());
                            #[cfg(feature = "telemetry")]
                            responder_timings.push((d, t));
                        }
                    }
                }
                let leg_bytes = (active.len() * dim * 8) as u64;
                clock.record_traffic(leg_bytes, leg_bytes);
                clock.advance_partial_round(&candidates);
                #[cfg(feature = "telemetry")]
                fedprox_net::runtime::record_round_telemetry(
                    (s - 1) as u32,
                    &responder_timings,
                    leg_bytes,
                    leg_bytes,
                    clock.now(),
                );
            }

            let responders: Vec<usize> = (0..active.len()).filter(|&j| responded[j]).collect();
            let rec = RoundParticipation {
                round: s,
                outcomes,
                responder_weight: responders.iter().map(|&j| weight_of(active[j])).sum(),
                skipped: false,
                sampled: sampled_ids,
            };
            if record_participation {
                recorder.note_participation(&rec);
                participation.push(rec);
            }

            // Aggregation, in the sampler's participant order. A round
            // whose every device missed the deadline leaves the global
            // model unchanged.
            if !responders.is_empty() {
                let locals: Vec<(&[f64], f64)> = responders
                    .iter()
                    .map(|&j| (updates[j].w.as_slice(), weight_of(active[j])))
                    .collect();
                aggregate(self.opts.sampler, &global, &locals, &mut agg);
                std::mem::swap(&mut global, &mut agg);
            }
            rounds_run = s;
            let stats = RoundStats { round: s, active: responders.len(), sim_time: clock.now() };

            if !vecops::all_finite(&global) {
                // Attribute the blowup to the first active device whose
                // local model was itself non-finite, when any was
                // (aggregation-only blowups report no device).
                let device = active
                    .iter()
                    .zip(&updates)
                    .find(|(_, u)| !vecops::all_finite(&u.w))
                    .map(|(&d, _)| d);
                recorder.non_finite(s, device, theta, total_grad_evals.get());
                on_round(&stats);
                break;
            }
            let bytes = clock.bytes_down() + clock.bytes_up();
            let stop =
                recorder.evaluate_round(s, &global, theta, total_grad_evals.get(), clock.now(), bytes);
            on_round(&stats);
            if stop {
                break;
            }
        }

        let (records, divergence) = recorder.finish();
        Ok(History {
            config: cfg.summary(),
            records,
            divergence,
            rounds_run,
            total_sim_time: clock.now(),
            final_model: global,
            participation,
        })
    }
}

/// One round's aggregation of the responders' `(local model, D_d/D)`
/// pairs into `agg`, as the sampler's scheme requires.
fn aggregate(spec: SamplerSpec, global: &[f64], locals: &[(&[f64], f64)], agg: &mut [f64]) {
    match spec {
        SamplerSpec::Bernoulli(p) if p < 1.0 => {
            // 1/p reweighting with the residual weight on the previous
            // global model (see `sampler::bernoulli_reweight`); the
            // residual can be negative, so this bypasses
            // `server::aggregate`'s weight assertions.
            let w: Vec<f64> = locals.iter().map(|&(_, w)| w).collect();
            let (scaled, residual) = bernoulli_reweight(&w, p);
            agg.fill(0.0);
            vecops::axpy(residual, global, agg);
            for (&(local, _), &sw) in locals.iter().zip(&scaled) {
                vecops::axpy(sw, local, agg);
            }
        }
        SamplerSpec::WeightedK(_) => {
            // Inclusion probability carried the n_k bias; the aggregate
            // is a plain 1/K average.
            let w = 1.0 / locals.len() as f64;
            let even: Vec<(&[f64], f64)> = locals.iter().map(|&(l, _)| (l, w)).collect();
            server::aggregate(&even, agg);
        }
        // Raw D_d/D weights; `server::aggregate` renormalises by the
        // responding weight.
        _ => server::aggregate(locals, agg),
    }
}

/// The contract every materialized federation meets: non-empty, device
/// `i` carries id `i`, and no shard is empty.
pub(crate) fn validate_devices(devices: &[Device]) -> Result<(), FedError> {
    if devices.is_empty() {
        return Err(FedError::EmptyFederation);
    }
    for (position, d) in devices.iter().enumerate() {
        if d.id != position {
            return Err(FedError::DeviceIdMismatch { position, id: d.id });
        }
        if d.data.is_empty() {
            return Err(FedError::EmptyShard { device: position });
        }
    }
    Ok(())
}

/// What an evaluation at `w̄^{(s)}` keeps for round `s+1` (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HandOff {
    /// Nothing: every round computes its own gradients.
    Nothing,
    /// Each device's `∇F_n(w̄^{(s)})`, as its variance-reduced solve's
    /// anchor.
    Anchors,
    /// `∇F̄(w̄^{(s)})`, as FSVRG's server gradient.
    GlobalGrad,
}

/// The evaluation side of a run, shared by every backend: the
/// `History` records, the divergence verdict, and (armed telemetry
/// only) the health monitor and the flight-recorder triggers.
pub(crate) struct Recorder<'a, M: LossModel> {
    model: &'a M,
    devices: Option<&'a [Device]>,
    test: Option<&'a Dataset>,
    cfg: &'a FedConfig,
    records: Vec<RoundRecord>,
    divergence: DivergenceCause,
    /// What evaluations keep for the next round.
    hand_off: HandOff,
    /// `(s, [∇F_n(w̄^{(s)})])` from the evaluation of round `s`, each
    /// taken at most once.
    anchors: Option<(usize, Vec<Option<Vec<f64>>>)>,
    /// `(s, ∇F̄(w̄^{(s)}))` from the evaluation of round `s`.
    global_grad: Option<(usize, Vec<f64>)>,
    #[cfg(feature = "telemetry")]
    monitor: Option<crate::health::HealthMonitor>,
}

/// Whether the telemetry collector is recording (never in builds
/// without the `telemetry` feature).
fn collector_armed() -> bool {
    #[cfg(feature = "telemetry")]
    {
        fedprox_telemetry::collector::is_armed()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
}

impl<'a, M: LossModel> Recorder<'a, M> {
    /// Evaluate round 0 — the initial global model, so every curve
    /// starts from the same baseline (and divergence is visible as an
    /// *increase*) — and arm the health monitor. Rounds are evaluated
    /// only when both `devices` and `test` are present; `hand_off` says
    /// what each evaluation keeps for [`Self::take_anchors`] or
    /// [`Self::take_global_grad`].
    pub(crate) fn new(
        model: &'a M,
        devices: Option<&'a [Device]>,
        test: Option<&'a Dataset>,
        cfg: &'a FedConfig,
        w0: &[f64],
        hand_off: HandOff,
    ) -> Self {
        let mut r = Recorder {
            model,
            devices,
            test,
            cfg,
            records: Vec::new(),
            divergence: DivergenceCause::None,
            hand_off,
            anchors: None,
            global_grad: None,
            #[cfg(feature = "telemetry")]
            monitor: None,
        };
        // An armed run's σ̄² is a statistic of these same round-0
        // gradients, so they are kept for it too.
        let armed = collector_armed();
        let keep = hand_off == HandOff::Anchors || armed;
        let pass = r.evaluate(0, w0, None, 0, 0.0, 0, keep).map(|(rec, pass)| {
            r.records.push(rec);
            pass
        });
        #[cfg(feature = "telemetry")]
        {
            // The σ̄² measurement is read-only on model and data — it
            // draws from no RNG stream — so arming cannot perturb the
            // training trajectory.
            r.monitor = devices.filter(|_| armed).map(|devs| {
                let sigma = match &pass {
                    Some(p) => eval::sigma_bar_sq_of(devs, &p.grads, &p.gbar),
                    None => eval::empirical_sigma_bar_sq(model, devs, w0),
                };
                crate::health::HealthMonitor::new(crate::health::HealthConfig::from_run(
                    cfg, sigma,
                ))
            });
            if let (Some(m), Some(rec)) = (r.monitor.as_mut(), r.records.first()) {
                m.observe_eval(0, rec.train_loss, rec.grad_norm_sq, None);
            }
        }
        if let Some(p) = pass {
            r.keep(0, p);
        }
        r
    }

    /// One evaluation of `global`: a fused loss-and-gradient pass per
    /// device gives the training loss and the stationarity gap (bitwise
    /// [`eval::global_loss`] and [`eval::stationarity_gap`]); with `keep`
    /// the pass also carries the per-device gradients.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &self,
        round: usize,
        global: &[f64],
        theta: Option<f64>,
        grad_evals: u64,
        sim_time: f64,
        bytes: u64,
        keep: bool,
    ) -> Option<(RoundRecord, eval::FusedPass)> {
        let (devices, test) = (self.devices?, self.test?);
        fedprox_telemetry::span!("core", "evaluate", "round" => round);
        let pass = eval::fused_pass(self.model, devices, global, keep);
        let rec = RoundRecord {
            round,
            train_loss: pass.loss,
            test_accuracy: eval::test_accuracy(self.model, test, global),
            grad_norm_sq: vecops::norm_sq(&pass.gbar),
            theta_measured: theta,
            sim_time,
            bytes,
            grad_evals,
        };
        Some((rec, pass))
    }

    /// Keep what `hand_off` names from round `s`'s evaluation for round
    /// `s+1` (an empty gradient set keeps nothing).
    fn keep(&mut self, s: usize, pass: eval::FusedPass) {
        match self.hand_off {
            HandOff::Anchors if !pass.grads.is_empty() => {
                self.anchors = Some((s, pass.grads.into_iter().map(Some).collect()));
            }
            HandOff::GlobalGrad => self.global_grad = Some((s, pass.gbar)),
            _ => {}
        }
    }

    /// The per-device gradients the evaluation of round `s` kept, indexed
    /// by device id. Anything older is dropped.
    pub(crate) fn take_anchors(&mut self, s: usize) -> Option<Vec<Option<Vec<f64>>>> {
        self.anchors.take().filter(|&(round, _)| round == s).map(|(_, grads)| grads)
    }

    /// `∇F̄(w̄^{(s)})` when the evaluation of round `s` kept it. Anything
    /// older is dropped.
    pub(crate) fn take_global_grad(&mut self, s: usize) -> Option<Vec<f64>> {
        self.global_grad.take().filter(|&(round, _)| round == s).map(|(_, g)| g)
    }

    /// Evaluate round `s` when it falls on the eval cadence: record it,
    /// feed the monitor, and apply the loss guard. Returns whether the
    /// guard tripped (the run stops there).
    pub(crate) fn evaluate_round(
        &mut self,
        s: usize,
        global: &[f64],
        theta: Option<f64>,
        grad_evals: u64,
        sim_time: f64,
        bytes: u64,
    ) -> bool {
        if !(s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds) {
            return false;
        }
        // The final round's gradients would feed no round.
        let feeds = s < self.cfg.rounds;
        let keep = self.hand_off == HandOff::Anchors && feeds;
        let Some((rec, pass)) =
            self.evaluate(s, global, theta, grad_evals, sim_time, bytes, keep)
        else {
            return false;
        };
        if feeds {
            self.keep(s, pass);
        }
        let bad = !rec.train_loss.is_finite() || rec.train_loss > self.cfg.loss_guard;
        #[cfg(feature = "telemetry")]
        if let Some(m) = self.monitor.as_mut() {
            if bad {
                m.observe_loss_guard(s, rec.train_loss, self.cfg.loss_guard);
            } else {
                m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, rec.theta_measured);
            }
        }
        self.records.push(rec);
        if bad {
            self.divergence = DivergenceCause::LossGuard { round: s };
            #[cfg(feature = "telemetry")]
            fedprox_telemetry::collector::trigger_postmortem("loss_guard", s as u32, None);
        }
        bad
    }

    /// Record a non-finite global model after round `s`, blamed on
    /// `device` when one was identified.
    pub(crate) fn non_finite(
        &mut self,
        s: usize,
        device: Option<usize>,
        theta: Option<f64>,
        grad_evals: u64,
    ) {
        self.divergence = DivergenceCause::NonFinite { round: s, device };
        #[cfg(feature = "telemetry")]
        {
            if let Some(m) = self.monitor.as_mut() {
                m.observe_non_finite(s, device);
            }
            fedprox_telemetry::collector::trigger_postmortem(
                "non_finite",
                s as u32,
                device.map(|d| d as u32),
            );
        }
        self.records.push(RoundRecord {
            round: s,
            train_loss: f64::INFINITY,
            test_accuracy: 0.0,
            grad_norm_sq: f64::INFINITY,
            theta_measured: theta,
            sim_time: 0.0,
            bytes: 0,
            grad_evals,
        });
    }

    /// Feed one round's local-solve observations to the monitor.
    fn note_round(&mut self, s: usize, active: &[usize], updates: &[crate::device::LocalUpdate]) {
        #[cfg(not(feature = "telemetry"))]
        let _ = (s, active, updates);
        #[cfg(feature = "telemetry")]
        if let Some(m) = self.monitor.as_mut() {
            let mut dir = fedprox_optim::DirectionStats::default();
            let mut work: Vec<(usize, u64)> = Vec::with_capacity(updates.len());
            for (&i, u) in active.iter().zip(updates) {
                dir.merge(&u.dir_stats);
                work.push((i, u.grad_evals as u64));
            }
            m.note_round(s, &dir, &work);
        }
    }

    /// Emit one recorded round's participation observations.
    fn note_participation(&mut self, rec: &RoundParticipation) {
        #[cfg(not(feature = "telemetry"))]
        let _ = rec;
        #[cfg(feature = "telemetry")]
        {
            fedprox_net::runtime::record_participation_telemetry(rec);
            if let Some(m) = self.monitor.as_mut() {
                m.note_participation(rec.round, rec.responder_fraction());
            }
        }
    }

    /// The armed health monitor, for backfills after the run.
    #[cfg(feature = "telemetry")]
    pub(crate) fn monitor(&mut self) -> Option<&mut crate::health::HealthMonitor> {
        self.monitor.as_mut()
    }

    /// The run's records and divergence verdict; hands the monitor's
    /// samples and anomalies to the armed collector.
    pub(crate) fn finish(self) -> (Vec<RoundRecord>, DivergenceCause) {
        #[cfg(feature = "telemetry")]
        if let Some(m) = self.monitor {
            for e in m.into_events() {
                fedprox_telemetry::collector::record_event(e);
            }
        }
        (self.records, self.divergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::population::LazyPopulation;
    use fedprox_data::partition::ZipfPopulation;
    use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
    use fedprox_faults::Resilience;
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lazy_population(devices: usize, seed: u64) -> LazyPopulation {
        let zipf = ZipfPopulation::new(devices, 30, 90, 1.5, 4.0, seed);
        let pool = SyntheticPool::new(SyntheticConfig { seed, ..Default::default() });
        LazyPopulation::new(zipf, pool)
    }

    fn options(sampler: SamplerSpec) -> SimRunnerOptions {
        SimRunnerOptions::default().with_sampler(sampler)
    }

    fn cfg(opts: SimRunnerOptions, seed: u64) -> FedConfig {
        FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_beta(5.0)
            .with_tau(3)
            .with_mu(0.5)
            .with_batch_size(8)
            .with_rounds(4)
            .with_seed(seed)
            .with_runner(RunnerKind::EventDriven(opts))
    }

    fn model_bits(h: &History) -> Vec<u64> {
        h.final_model.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lazy_sampled_run_is_deterministic_and_compact() {
        let model = MultinomialLogistic::new(60, 10);
        let run = |seed: u64| {
            let pop = Population::Lazy(lazy_population(500, seed));
            RoundEngine::new(&model, pop, None, cfg(options(SamplerSpec::UniformK(8)), seed))
                .run()
                .unwrap()
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(model_bits(&a), model_bits(&b), "same seed must be bitwise stable");
        // A different seed takes a different trajectory.
        assert_ne!(model_bits(&a), model_bits(&run(10)));
    }

    #[test]
    fn lazy_run_records_compact_participation() {
        let model = MultinomialLogistic::new(60, 10);
        let pop = Population::Lazy(lazy_population(300, 5));
        let engine = RoundEngine::new(&model, pop, None, cfg(options(SamplerSpec::UniformK(6)), 5));
        let history = engine.run().expect("run");
        assert_eq!(history.participation.len(), 4);
        for rec in &history.participation {
            let ids = rec.sampled.as_ref().expect("lazy participation must be compact");
            assert_eq!(ids.len(), 6);
            assert_eq!(rec.outcomes.len(), 6);
            assert!(!rec.skipped);
        }
        assert!(history.records.is_empty(), "lazy runs never evaluate");
        assert!(history.total_sim_time > 0.0);
    }

    #[test]
    fn weighted_and_bernoulli_schemes_run_end_to_end() {
        let model = MultinomialLogistic::new(60, 10);
        for spec in [SamplerSpec::WeightedK(6), SamplerSpec::Bernoulli(0.02)] {
            let pop = Population::Lazy(lazy_population(400, 13));
            let history =
                RoundEngine::new(&model, pop, None, cfg(options(spec), 13)).run().expect("run");
            assert_eq!(history.rounds_run, 4, "{spec:?}");
            assert!(history.final_model.iter().all(|x| x.is_finite()), "{spec:?}");
        }
    }

    #[test]
    fn fsvrg_is_rejected() {
        let model = MultinomialLogistic::new(60, 10);
        let pop = Population::Lazy(lazy_population(10, 1));
        let cfg = FedConfig::new(Algorithm::Fsvrg).with_seed(1);
        let got = RoundEngine::new(&model, pop, None, cfg).run();
        assert!(matches!(got, Err(FedError::FsvrgUnsupported { .. })), "{got:?}");
    }

    #[test]
    fn misnumbered_or_empty_populations_are_rejected() {
        use fedprox_data::synthetic::generate;
        let model = MultinomialLogistic::new(60, 10);
        let cfg = cfg(options(SamplerSpec::Full), 2);
        let got = RoundEngine::new(&model, Population::Materialized(&[]), None, cfg.clone()).run();
        assert!(matches!(got, Err(FedError::EmptyFederation)), "{got:?}");
        let shards = generate(&SyntheticConfig { seed: 2, ..Default::default() }, &[20, 30]);
        let devices: Vec<Device> = shards.into_iter().map(|s| Device::new(1, s)).collect();
        let got = RoundEngine::new(&model, Population::Materialized(&devices), None, cfg).run();
        assert!(
            matches!(got, Err(FedError::DeviceIdMismatch { position: 0, id: 1 })),
            "{got:?}"
        );
    }

    /// The Bernoulli-p aggregate is `residual·global + Σ (w_i/p)·w_i`
    /// for any responder set (arXiv 2210.14362) — the one aggregation
    /// that bypasses `server::aggregate`'s weight checks.
    #[test]
    fn bernoulli_aggregate_is_the_reweighted_sum() {
        let mut rng = StdRng::seed_from_u64(41);
        let dim = 7;
        for p in [0.05, 0.3, 0.9] {
            for _ in 0..50 {
                let responders = rng.gen_range(1..12);
                let global: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let models: Vec<Vec<f64>> = (0..responders)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .collect();
                // Population weights D_i/D of a sampled set (≤ 1 in total).
                let weights: Vec<f64> =
                    (0..responders).map(|_| rng.gen_range(0.001..0.08)).collect();
                let locals: Vec<(&[f64], f64)> =
                    models.iter().zip(&weights).map(|(m, &w)| (m.as_slice(), w)).collect();
                let mut agg = vec![f64::NAN; dim];
                aggregate(SamplerSpec::Bernoulli(p), &global, &locals, &mut agg);

                let residual = 1.0 - weights.iter().map(|w| w / p).sum::<f64>();
                for (k, a) in agg.iter().enumerate() {
                    let want = residual * global[k]
                        + models.iter().zip(&weights).map(|(m, w)| w / p * m[k]).sum::<f64>();
                    assert!((a - want).abs() < 1e-9, "p={p}: coord {k}: {a} vs {want}");
                }

                // Every local model equal to the global: the weights sum
                // to one, so the aggregate is the global itself.
                let same: Vec<(&[f64], f64)> =
                    weights.iter().map(|&w| (global.as_slice(), w)).collect();
                aggregate(SamplerSpec::Bernoulli(p), &global, &same, &mut agg);
                for (a, g) in agg.iter().zip(&global) {
                    assert!((a - g).abs() < 1e-12, "p={p}: {a} vs {g}");
                }
            }
        }
    }

    /// A deadline between two sampled devices' finishes drops exactly
    /// the slower ones as `DeadlineMiss`, and the round lasts exactly
    /// the deadline.
    #[test]
    fn deadline_drops_exactly_the_slow_devices_of_a_lazy_round() {
        let model = MultinomialLogistic::new(60, 10);
        let lazy = lazy_population(2_000, 19);
        let opts = options(SamplerSpec::UniformK(10)).with_sec_per_grad_eval(1e-3);
        let base = cfg(opts, 19).with_rounds(1);

        // Each sampled device's finish, from the engine's own calls.
        let sampled = Sampler::new(opts.sampler).sample(lazy.zipf.len(), 1, 19, |d| {
            lazy.zipf.size_of(d)
        });
        let w0 = model.init_params(19);
        let finishes: Vec<(usize, f64)> = sampled
            .iter()
            .map(|&d| {
                let u = lazy.device(d).local_update(&model, &w0, &base, 0).expect("solve");
                let compute = u.grad_evals as f64 * 1e-3 * lazy.zipf.compute_factor_of(d);
                (d, ((0.0 + opts.downlink_s) + compute) + opts.uplink_s)
            })
            .collect();
        let mut sorted: Vec<f64> = finishes.iter().map(|&(_, f)| f).collect();
        sorted.sort_by(f64::total_cmp);
        let deadline = 0.5 * (sorted[4] + sorted[5]);
        assert!(sorted[4] < deadline && deadline < sorted[5], "finishes tie: {sorted:?}");

        let cfg = base.with_resilience(Resilience::default().with_deadline(deadline));
        let h = RoundEngine::new(&model, Population::Lazy(lazy.clone()), None, cfg)
            .run()
            .expect("run");
        let rec = &h.participation[0];
        assert_eq!(rec.sampled.as_deref().map(<[u32]>::len), Some(10));
        for &(d, finish) in &finishes {
            let want = if finish > deadline {
                DeviceOutcome::DeadlineMiss
            } else {
                DeviceOutcome::Responded
            };
            assert_eq!(rec.outcome_of(d), want, "device {d} finishing at {finish}");
        }
        assert_eq!(rec.count(DeviceOutcome::DeadlineMiss), 5);
        assert_eq!(h.total_sim_time.to_bits(), deadline.to_bits());
    }
}
