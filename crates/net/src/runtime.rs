//! Thread-per-device actor runtime.
//!
//! One OS thread per device, crossbeam channels for transport, every
//! model crossing a channel in encoded wire form (so byte counts are
//! real). The server thread drives synchronous rounds: broadcast the
//! global model, wait for all local models, aggregate weighted by
//! `D_n / D` (Algorithm 1 line 12), advance the virtual clock.
//!
//! Failure injection: links may drop messages with probability
//! `drop_prob` — a drop costs one extra latency sample and is counted as
//! a retransmission, bounded by the configurable [`RetryPolicy`] — and
//! any number of devices may carry compute-time multipliers
//! ([`NetOptions::compute_multipliers`]).
//!
//! With a [`Resilience`] policy attached the runtime switches into
//! graceful-degradation mode: the fault plan removes crashed/offline
//! devices before traffic happens, exhausted retries and missed round
//! deadlines exclude a device from the round instead of erroring the
//! run, aggregation renormalizes weights over the responder set, and
//! rounds below quorum are skipped-and-counted. Every round then yields
//! a [`RoundParticipation`] record in the report.
//!
//! Randomness in both modes comes from per-(round, device) streams
//! ([`stream_rng`]) consumed in a fixed intra-device order (downlink →
//! uplink → jitter), so reply arrival order cannot perturb the draw
//! sequence, and a strict run equals the same run under an empty fault
//! plan.

use crate::clock::{DeviceRoundTiming, VirtualClock};
use crate::codec;
use crate::codec::CodecError;
use crate::delay::LinkSpec;
use crate::message::Message;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fedprox_faults::{stream_rng, DeviceOutcome, Resilience, RetryPolicy, RoundParticipation};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Transport-layer failure of a networked run.
///
/// Every variant is a protocol or configuration bug in the simulation
/// itself (frames never leave the process), so callers generally treat
/// these as fatal — but the runtime reports them as values instead of
/// panicking so the caller owns that decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A frame failed to decode.
    Codec(CodecError),
    /// An actor channel disconnected mid-round (a device thread died).
    ChannelClosed(&'static str),
    /// A device never delivered its local model for the round.
    MissingReply {
        /// Device index whose slot stayed empty.
        device: usize,
    },
    /// A device answered for a different round than the one in flight.
    StaleRound {
        /// Device that answered.
        device: u32,
        /// Round carried by the reply.
        got: u32,
        /// Round the server was collecting.
        expected: u32,
    },
    /// The server received a message kind only devices should see.
    UnexpectedMessage,
    /// Aggregation weights summed to zero.
    ZeroAggregationWeight,
    /// A transfer exhausted the [`RetryPolicy`] in strict (non-resilient)
    /// mode, where a device that cannot be reached is fatal
    /// (`drop_prob` too close to 1, or `max_retries` too small).
    RetryLimit,
    /// A device worker panicked inside the actor scope.
    WorkerPanic {
        /// The failing device id, when the actor caught the panic and
        /// could still report it; `None` when the panic escaped to the
        /// scope join (e.g. a codec bug before the worker ran).
        device: Option<u32>,
    },
    /// A device worker reported a typed failure ([`WorkerError`]) for
    /// its round instead of a reply.
    WorkerFailed {
        /// The failing device id.
        device: u32,
        /// The worker's failure reason, verbatim.
        reason: String,
    },
    /// A device received a frame it could not decode and retired after
    /// reporting the codec bug.
    MalformedFrame {
        /// The reporting device id.
        device: u32,
    },
    /// [`NetworkRuntime::run`] was handed no device workers.
    NoDevices,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "net: {e}"),
            NetError::ChannelClosed(which) => write!(f, "net: {which} disconnected"),
            NetError::MissingReply { device } => {
                write!(f, "net: missing reply from device {device}")
            }
            NetError::StaleRound { device, got, expected } => write!(
                f,
                "net: device {device} replied for round {got} while collecting round {expected}"
            ),
            NetError::UnexpectedMessage => write!(f, "net: server received a non-LocalModel message"),
            NetError::NoDevices => write!(f, "net: network runtime needs at least one device"),
            NetError::ZeroAggregationWeight => write!(f, "net: aggregation weights sum to zero"),
            NetError::RetryLimit => write!(f, "net: drop probability too close to 1"),
            NetError::WorkerPanic { device: Some(d) } => {
                write!(f, "net: worker for device {d} panicked")
            }
            NetError::WorkerPanic { device: None } => write!(f, "net: a device worker panicked"),
            NetError::WorkerFailed { device, reason } => {
                write!(f, "net: worker for device {device} failed: {reason}")
            }
            NetError::MalformedFrame { device } => {
                write!(f, "net: device {device} received an undecodable frame")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// What a device hands back after its local update.
#[derive(Debug, Clone)]
pub struct DeviceReply {
    /// Local model `w_n^{(s)}`.
    pub params: Vec<f64>,
    /// Aggregation weight `D_n / D`.
    pub weight: f64,
    /// Per-sample gradient evaluations spent this round.
    pub grad_evals: u64,
    /// Simulated compute time in seconds (before straggler scaling).
    pub compute_time: f64,
}

/// A typed local-update failure a [`DeviceWorker`] can report instead of
/// panicking. The reason crosses the wire as [`Message::Failed`], so the
/// server can attribute the failure (strict mode:
/// [`NetError::WorkerFailed`]; graceful-degradation mode: the device is
/// retired as crashed and the round degrades).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerError {
    /// Human-readable failure reason.
    pub reason: String,
}

impl WorkerError {
    /// Build a failure from anything displayable.
    pub fn new(reason: impl fmt::Display) -> Self {
        WorkerError { reason: reason.to_string() }
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker: {}", self.reason)
    }
}

impl std::error::Error for WorkerError {}

/// A device's local-update logic, driven by the runtime.
pub trait DeviceWorker: Send {
    /// Perform the local update for `round` starting from `global`.
    /// Returning `Err` retires the device: the failure travels to the
    /// server as a typed message instead of a panic.
    fn update(&mut self, round: u32, global: &[f64]) -> Result<DeviceReply, WorkerError>;
}

impl<W: DeviceWorker + ?Sized> DeviceWorker for Box<W> {
    fn update(&mut self, round: u32, global: &[f64]) -> Result<DeviceReply, WorkerError> {
        (**self).update(round, global)
    }
}

/// Adapter turning an infallible closure into a [`DeviceWorker`].
pub struct FnWorker<F>(pub F);

impl<F> DeviceWorker for FnWorker<F>
where
    F: FnMut(u32, &[f64]) -> DeviceReply + Send,
{
    fn update(&mut self, round: u32, global: &[f64]) -> Result<DeviceReply, WorkerError> {
        Ok((self.0)(round, global))
    }
}

/// Adapter turning a fallible closure into a [`DeviceWorker`].
pub struct TryFnWorker<F>(pub F);

impl<F> DeviceWorker for TryFnWorker<F>
where
    F: FnMut(u32, &[f64]) -> Result<DeviceReply, WorkerError> + Send,
{
    fn update(&mut self, round: u32, global: &[f64]) -> Result<DeviceReply, WorkerError> {
        (self.0)(round, global)
    }
}

/// Runtime options.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Server → device link.
    pub downlink: LinkSpec,
    /// Device → server link.
    pub uplink: LinkSpec,
    /// Probability that any single transmission attempt is dropped.
    pub drop_prob: f64,
    /// Per-device compute-time multipliers `(stable device id,
    /// multiplier)`. The key is the device's **stable id** (`Device::id`
    /// — workers are spawned in id order here, so wire ids equal stable
    /// ids), never a position in a sampled participant set; the
    /// event-driven backend shares this addressing invariant (see
    /// `fedprox_faults::PlannedFault::device`). Any number of devices
    /// may be slowed (or sped up); entries naming the same device
    /// multiply ([`NetOptions::compute_multiplier_for`] folds them).
    /// [`NetOptions::with_straggler`] keeps the classic
    /// single-straggler form.
    pub compute_multipliers: Vec<(usize, f64)>,
    /// Optional per-round multiplicative compute jitter applied to every
    /// device's reported compute time (e.g. a LogNormal with μ = 0 models
    /// CPU contention on real handsets). Sampled per (device, round).
    pub compute_jitter: Option<crate::delay::DelayModel>,
    /// Retry/backoff policy for every simulated transfer. The default
    /// reproduces the historical hardcoded retransmit loop draw-for-draw
    /// (up to 1000 retries, no backoff), so existing runs are unchanged.
    pub retry: RetryPolicy,
    /// Graceful-degradation mode (fault plan, round deadline, quorum).
    /// `None` — the default — keeps the strict legacy behaviour: every
    /// device must answer every round and any failure is fatal.
    pub resilience: Option<Resilience>,
    /// Seed for the delay/drop randomness.
    pub seed: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            downlink: LinkSpec::constant(0.05),
            uplink: LinkSpec::constant(0.05),
            drop_prob: 0.0,
            compute_multipliers: Vec::new(),
            compute_jitter: None,
            retry: RetryPolicy::default(),
            resilience: None,
            seed: 0,
        }
    }
}

impl NetOptions {
    /// The classic single-straggler setup: multiply `device`'s compute
    /// time by `mult` every round.
    pub fn with_straggler(mut self, device: usize, mult: f64) -> Self {
        self.compute_multipliers.push((device, mult));
        self
    }

    /// Attach a graceful-degradation policy (see [`Resilience`]).
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// The folded compute-time multiplier for the device with stable id
    /// `device` (1.0 when no entry names it; repeated entries multiply).
    pub fn compute_multiplier_for(&self, device: usize) -> f64 {
        self.compute_multipliers
            .iter()
            .filter(|&&(dev, _)| dev == device)
            .map(|&(_, mult)| mult)
            .product()
    }
}

/// Outcome of a networked run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Final global model.
    pub final_model: Vec<f64>,
    /// Virtual clock at the end (time, traffic, waste).
    pub clock: VirtualClock,
    /// Total retransmitted messages.
    pub retransmissions: u64,
    /// Duration of each completed round.
    pub round_durations: Vec<f64>,
    /// Per-round straggler skew: the slowest device finish over the
    /// round's median finish, minus one (0 when all devices tie, or the
    /// median is zero). Deterministic for a fixed seed — derived from
    /// the same virtual-clock timings as `round_durations`.
    pub round_skews: Vec<f64>,
    /// Rounds actually executed (callback may stop early).
    pub rounds_run: u32,
    /// Per-round participation records. Empty in strict mode
    /// (`NetOptions::resilience` unset); one entry per executed round in
    /// graceful-degradation mode, including skipped rounds.
    pub participation: Vec<RoundParticipation>,
}

/// The actor runtime.
#[derive(Debug, Default)]
pub struct NetworkRuntime;

impl NetworkRuntime {
    /// Run `rounds` synchronous rounds over `workers`, starting from
    /// `initial`. `on_round(round, global)` fires after each aggregation;
    /// returning `false` stops the run early (used by divergence guards
    /// and time-budget experiments).
    ///
    /// Errors are transport/protocol failures (see [`NetError`]); in the
    /// in-process simulation they only arise from bugs or degenerate
    /// options, never from ordinary training dynamics.
    pub fn run<W: DeviceWorker>(
        &self,
        workers: Vec<W>,
        initial: Vec<f64>,
        rounds: u32,
        opts: &NetOptions,
        mut on_round: impl FnMut(u32, &[f64]) -> bool,
    ) -> Result<NetReport, NetError> {
        let n = workers.len();
        if n == 0 {
            return Err(NetError::NoDevices);
        }
        let dim = initial.len();
        fedprox_telemetry::gauge!("net.devices", n);

        // Per-device command channels and one shared reply channel.
        let mut to_device: Vec<Sender<Bytes>> = Vec::with_capacity(n);
        let mut device_rx: Vec<Receiver<Bytes>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            to_device.push(tx);
            device_rx.push(rx);
        }
        let (reply_tx, reply_rx) = unbounded::<Bytes>();

        let mut clock = VirtualClock::new();
        let mut retransmissions = 0u64;
        let mut round_durations = Vec::new();
        let mut round_skews = Vec::new();
        let mut participation: Vec<RoundParticipation> = Vec::new();
        let mut global = initial;
        let mut rounds_run = 0;
        let resil = opts.resilience.as_ref();
        // Devices gone for good: planned crashes once their round
        // arrives, plus panicked workers under a crash-tolerant policy.
        let mut dead = vec![false; n];

        let scope_outcome = crossbeam::scope(|scope| -> Result<(), NetError> {
            // Device actors.
            for (id, (mut worker, rx)) in
                workers.into_iter().zip(device_rx).enumerate()
            {
                let reply_tx = reply_tx.clone();
                // fedlint: allow(spawn-ordering) — reply arrival order is immaterial: the server collects into per-device slots and aggregates in id order (see `slots` below), and RNG draws come from per-(round, device) streams
                scope.spawn(move |_| {
                    while let Ok(frame) = rx.recv() {
                        // Frames come from `codec::encode` in this very
                        // process, so a decode failure is a codec bug.
                        // The device cannot even learn the round from a
                        // mangled frame: it reports the bug as a typed
                        // `Malformed` message and retires.
                        let decoded = match codec::decode(&frame) {
                            Ok(msg) => msg,
                            Err(_) => {
                                let bug = Message::Malformed { device: id as u32 };
                                let _ = reply_tx.send(codec::encode(&bug));
                                break;
                            }
                        };
                        match decoded {
                            Message::GlobalModel { round, params } => {
                                let outcome = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(|| worker.update(round, &params)),
                                );
                                let (msg, retire) = match outcome {
                                    Ok(Ok(reply)) => (
                                        Message::LocalModel {
                                            device: id as u32,
                                            round,
                                            params: reply.params,
                                            weight: reply.weight,
                                            grad_evals: reply.grad_evals,
                                            compute_time: reply.compute_time,
                                        },
                                        false,
                                    ),
                                    // A typed failure: the reason crosses
                                    // the wire; the device retires.
                                    Ok(Err(e)) => (
                                        Message::Failed {
                                            device: id as u32,
                                            round,
                                            reason: e.reason,
                                        },
                                        true,
                                    ),
                                    // The worker's state may be poisoned:
                                    // report the failing device id to the
                                    // server, then retire this actor.
                                    Err(_) => {
                                        (Message::Panicked { device: id as u32, round }, true)
                                    }
                                };
                                // The server hanging up early just means
                                // this device's reply is no longer wanted.
                                if reply_tx.send(codec::encode(&msg)).is_err() || retire {
                                    break;
                                }
                            }
                            Message::Shutdown => break,
                            Message::LocalModel { .. }
                            | Message::Panicked { .. }
                            | Message::Failed { .. }
                            | Message::Malformed { .. } => {
                                unreachable!("device received a server-bound message")
                            }
                        }
                    }
                });
            }
            drop(reply_tx);

            // Server loop, as an immediately-run closure so that every
            // early error still falls through to the shutdown broadcast
            // below — otherwise device actors would block on `recv`
            // forever and the scope would never join.
            let served = (|| -> Result<(), NetError> {
                'rounds: for round in 0..rounds {
                    // 1-based global round `s` of Algorithm 1, the index
                    // every fault-plan query speaks.
                    let s = round as usize + 1;
                    // Per-attempt drop probability: the global rate,
                    // raised by any flaky-link fault active this round.
                    let drop_prob = |d: usize| {
                        let flaky = resil.map_or(0.0, |r| r.plan.drop_prob(d, s));
                        opts.drop_prob.max(flaky)
                    };
                    #[cfg(feature = "telemetry")]
                    let traffic_before = (clock.bytes_down(), clock.bytes_up());
                    let broadcast = {
                        fedprox_telemetry::span!("net", "encode", "round" => round);
                        codec::encode(&Message::GlobalModel { round, params: global.clone() })
                    };
                    let down_len = broadcast.len();

                    // Tentative outcome per device: the fault plan removes
                    // crashed and offline devices before any traffic
                    // happens; everyone else starts as a responder and may
                    // be demoted below. In strict mode everyone responds
                    // or the run errors.
                    let mut outcomes: Vec<DeviceOutcome> = if let Some(resil) = resil {
                        dead.iter_mut()
                            .enumerate()
                            .map(|(d, dead_d)| {
                                if *dead_d || resil.plan.is_crashed(d, s) {
                                    *dead_d = true;
                                    DeviceOutcome::Crashed
                                } else if resil.plan.is_offline(d, s) {
                                    DeviceOutcome::Offline
                                } else {
                                    DeviceOutcome::Responded
                                }
                            })
                            .collect()
                    } else {
                        vec![DeviceOutcome::Responded; n]
                    };

                    // Simulate downlink per reachable device (bounded
                    // retransmit on drop) and hand the frame over.
                    let mut downloads = vec![0.0f64; n];
                    let mut failed_elapsed = vec![0.0f64; n];
                    let mut streams: Vec<Option<StdRng>> = (0..n).map(|_| None).collect();
                    let mut sent = 0usize;
                    for (d, outcome) in outcomes.iter_mut().enumerate() {
                        if *outcome != DeviceOutcome::Responded {
                            continue;
                        }
                        // Per-(round, device) stream, consumed in a fixed
                        // order (downlink now, uplink and jitter at reply
                        // time), so draws are independent of reply
                        // arrival order.
                        let mut dev_rng = stream_rng(opts.seed ^ 0x6E75, s as u64, d as u64);
                        let transfer = simulate_transfer(
                            &opts.downlink,
                            down_len,
                            drop_prob(d),
                            &mut dev_rng,
                            &opts.retry,
                        );
                        streams[d] = Some(dev_rng);
                        match transfer {
                            Transfer::Delivered { delay, retries } => {
                                downloads[d] = delay;
                                retransmissions += retries;
                                clock.record_traffic((retries + 1) * down_len as u64, 0);
                                to_device[d]
                                    .send(broadcast.clone())
                                    .map_err(|_| NetError::ChannelClosed("device command channel"))?;
                                sent += 1;
                            }
                            Transfer::Exhausted { wasted, retries } => {
                                if resil.is_none() {
                                    return Err(NetError::RetryLimit);
                                }
                                // The attempts still burned air time and
                                // bandwidth; the device never gets the
                                // model this round and rejoins next round.
                                retransmissions += retries;
                                clock.record_traffic((retries + 1) * down_len as u64, 0);
                                *outcome = DeviceOutcome::LinkFailed;
                                failed_elapsed[d] = wasted;
                            }
                        }
                    }

                    // Collect the local models we are owed (one reply per
                    // frame actually delivered).
                    let mut timings = vec![
                        DeviceRoundTiming { download: 0.0, compute: 0.0, upload: 0.0 };
                        n
                    ];
                    // Collect into per-device slots first, then aggregate in
                    // device-id order — floating-point addition is not
                    // associative, and the sequential/parallel backends sum in
                    // id order, so this keeps all three backends bit-identical.
                    let mut slots: Vec<Option<(Vec<f64>, f64)>> = vec![None; n];
                    for _ in 0..sent {
                        let frame = {
                            fedprox_telemetry::span!("net", "recv_wait", "round" => round);
                            reply_rx
                                .recv()
                                .map_err(|_| NetError::ChannelClosed("device reply channel"))?
                        };
                        let up_len = frame.len();
                        let decoded = {
                            fedprox_telemetry::span!("net", "decode", "bytes" => up_len);
                            codec::decode(&frame)?
                        };
                        match decoded {
                            Message::LocalModel {
                                device, params, weight, compute_time, round: r, ..
                            } => {
                                if r != round {
                                    return Err(NetError::StaleRound {
                                        device,
                                        got: r,
                                        expected: round,
                                    });
                                }
                                let d = device as usize;
                                let mut compute =
                                    compute_time * opts.compute_multiplier_for(d);
                                if let Some(resil) = resil {
                                    compute *= resil.plan.slow_factor(d, s);
                                }
                                let dev_rng =
                                    streams[d].as_mut().ok_or(NetError::UnexpectedMessage)?;
                                let transfer = simulate_transfer(
                                    &opts.uplink,
                                    up_len,
                                    drop_prob(d),
                                    dev_rng,
                                    &opts.retry,
                                );
                                if let Some(jitter) = &opts.compute_jitter {
                                    compute *= jitter.sample(dev_rng);
                                }
                                match transfer {
                                    Transfer::Delivered { delay, retries } => {
                                        retransmissions += retries;
                                        clock.record_traffic(0, (retries + 1) * up_len as u64);
                                        let timing = DeviceRoundTiming {
                                            download: downloads[d],
                                            compute,
                                            upload: delay,
                                        };
                                        let missed = resil
                                            .and_then(|r| r.deadline_s)
                                            .is_some_and(|deadline| timing.total() > deadline);
                                        timings[d] = timing;
                                        if missed {
                                            outcomes[d] = DeviceOutcome::DeadlineMiss;
                                        } else {
                                            slots[d] = Some((params, weight));
                                        }
                                    }
                                    Transfer::Exhausted { wasted, retries } => {
                                        if resil.is_none() {
                                            return Err(NetError::RetryLimit);
                                        }
                                        retransmissions += retries;
                                        clock.record_traffic(0, (retries + 1) * up_len as u64);
                                        outcomes[d] = DeviceOutcome::LinkFailed;
                                        failed_elapsed[d] = downloads[d] + compute + wasted;
                                    }
                                }
                            }
                            Message::Panicked { device, .. } => {
                                let tolerate = resil.is_some_and(|r| r.crash_on_panic);
                                if !tolerate {
                                    return Err(NetError::WorkerPanic { device: Some(device) });
                                }
                                let d = device as usize;
                                dead[d] = true;
                                outcomes[d] = DeviceOutcome::Crashed;
                            }
                            Message::Failed { device, reason, .. } => {
                                // A typed worker failure follows the panic
                                // policy: fatal in strict mode, a crashed
                                // participant under graceful degradation.
                                let tolerate = resil.is_some_and(|r| r.crash_on_panic);
                                if !tolerate {
                                    return Err(NetError::WorkerFailed { device, reason });
                                }
                                let d = device as usize;
                                dead[d] = true;
                                outcomes[d] = DeviceOutcome::Crashed;
                            }
                            Message::Malformed { device } => {
                                // A codec bug is a protocol failure in
                                // both modes — degrading would silently
                                // train on a desynchronized federation.
                                return Err(NetError::MalformedFrame { device });
                            }
                            Message::GlobalModel { .. } | Message::Shutdown => {
                                return Err(NetError::UnexpectedMessage);
                            }
                        }
                    }

                    if let Some(resil) = resil {
                        // Aggregate over the responder set, weights
                        // renormalized over responders; below quorum the
                        // round is skipped-and-counted (global unchanged).
                        let mut agg = vec![0.0f64; dim];
                        let mut weight_sum = 0.0;
                        let mut responders = 0usize;
                        for (params, weight) in slots.iter().flatten() {
                            for (a, p) in agg.iter_mut().zip(params) {
                                *a += weight * p;
                            }
                            weight_sum += weight;
                            responders += 1;
                        }
                        let quorum_ok = resil.quorum.met(weight_sum, responders);
                        if quorum_ok {
                            for a in agg.iter_mut() {
                                *a /= weight_sum;
                            }
                            global = agg;
                        }
                        // Round duration: responders contribute their
                        // finish, deadline misses the deadline itself (the
                        // server stops waiting there), failed links their
                        // wasted transfer time capped at the deadline.
                        let mut candidates = Vec::with_capacity(n);
                        let mut finishes = Vec::with_capacity(n);
                        for (d, outcome) in outcomes.iter().enumerate() {
                            match outcome {
                                DeviceOutcome::Responded => {
                                    let f = timings[d].total();
                                    candidates.push(f);
                                    finishes.push(f);
                                }
                                DeviceOutcome::DeadlineMiss => {
                                    if let Some(deadline) = resil.deadline_s {
                                        candidates.push(deadline);
                                    }
                                }
                                DeviceOutcome::LinkFailed => {
                                    let e = failed_elapsed[d];
                                    candidates.push(match resil.deadline_s {
                                        Some(deadline) => e.min(deadline),
                                        None => e,
                                    });
                                }
                                _ => {}
                            }
                        }
                        round_durations.push(clock.advance_partial_round(&candidates));
                        round_skews.push(skew_from_finishes(finishes));
                        participation.push(RoundParticipation {
                            round: s,
                            outcomes: outcomes.clone(),
                            responder_weight: weight_sum,
                            skipped: !quorum_ok,
                            sampled: None,
                        });
                        rounds_run = round + 1;
                        #[cfg(feature = "telemetry")]
                        {
                            let responder_timings: Vec<(usize, DeviceRoundTiming)> = outcomes
                                .iter()
                                .enumerate()
                                .filter(|(_, o)| **o == DeviceOutcome::Responded)
                                .map(|(d, _)| (d, timings[d]))
                                .collect();
                            record_round_telemetry(
                                round,
                                &responder_timings,
                                clock.bytes_down() - traffic_before.0,
                                clock.bytes_up() - traffic_before.1,
                                clock.now(),
                            );
                            if let Some(rec) = participation.last() {
                                record_participation_telemetry(rec);
                                if rec.skipped {
                                    fedprox_telemetry::collector::trigger_postmortem(
                                        "quorum_skip",
                                        s as u32,
                                        attribute_skip(rec),
                                    );
                                }
                            }
                        }
                        if !on_round(round, &global) {
                            break 'rounds;
                        }
                    } else {
                        let mut agg = vec![0.0f64; dim];
                        let mut weight_sum = 0.0;
                        for (d, slot) in slots.iter().enumerate() {
                            let (params, weight) =
                                slot.as_ref().ok_or(NetError::MissingReply { device: d })?;
                            for (a, p) in agg.iter_mut().zip(params) {
                                *a += weight * p;
                            }
                            weight_sum += weight;
                        }
                        if weight_sum <= 0.0 {
                            return Err(NetError::ZeroAggregationWeight);
                        }
                        for a in agg.iter_mut() {
                            *a /= weight_sum;
                        }
                        global = agg;
                        round_durations.push(clock.advance_round(&timings));
                        round_skews.push(round_skew(&timings));
                        rounds_run = round + 1;
                        #[cfg(feature = "telemetry")]
                        record_round_telemetry(
                            round,
                            &timings.iter().copied().enumerate().collect::<Vec<_>>(),
                            clock.bytes_down() - traffic_before.0,
                            clock.bytes_up() - traffic_before.1,
                            clock.now(),
                        );
                        if !on_round(round, &global) {
                            break 'rounds;
                        }
                    }
                }
                Ok(())
            })();

            // Shut the actors down (on success and on error alike).
            let bye = codec::encode(&Message::Shutdown);
            for tx in &to_device {
                let _ = tx.send(bye.clone());
            }
            served
        });
        match scope_outcome {
            Ok(served) => served?,
            Err(_panic) => return Err(NetError::WorkerPanic { device: None }),
        }

        Ok(NetReport {
            final_model: global,
            clock,
            retransmissions,
            round_durations,
            round_skews,
            rounds_run,
            participation,
        })
    }
}

/// Straggler skew of one round: slowest finish over median finish, minus
/// one. Computed for every run (armed or not) so the report's shape never
/// depends on telemetry state.
fn round_skew(timings: &[DeviceRoundTiming]) -> f64 {
    skew_from_finishes(timings.iter().map(|t| t.download + t.compute + t.upload).collect())
}

/// Skew over an arbitrary set of finish times (only responders, in
/// resilient rounds). Fewer than two finishes cannot skew.
fn skew_from_finishes(mut finishes: Vec<f64>) -> f64 {
    if finishes.len() < 2 {
        return 0.0;
    }
    finishes.sort_by(f64::total_cmp);
    let m = finishes.len();
    let median = if m % 2 == 1 {
        finishes[m / 2]
    } else {
        0.5 * (finishes[m / 2 - 1] + finishes[m / 2])
    };
    let max = finishes[m - 1];
    if median > 0.0 && max.is_finite() {
        max / median - 1.0
    } else {
        0.0
    }
}

/// Emit the per-round simulation observations: one [`DeviceRound`] per
/// `(stable id, legs)` entry (straggler lag = finish time minus the
/// round's median finish), one [`Bytes`] per direction, and the closing
/// [`RoundEnd`]; `round` is 0-based. Everything
/// here derives from the virtual clock, so armed and disarmed runs stay
/// bitwise-identical in their training output.
///
/// [`DeviceRound`]: fedprox_telemetry::event::Event::DeviceRound
/// [`Bytes`]: fedprox_telemetry::event::Event::Bytes
/// [`RoundEnd`]: fedprox_telemetry::event::Event::RoundEnd
#[cfg(feature = "telemetry")]
pub fn record_round_telemetry(
    round: u32,
    timings: &[(usize, DeviceRoundTiming)],
    down_bytes: u64,
    up_bytes: u64,
    sim_now: f64,
) {
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let finishes: Vec<f64> =
        timings.iter().map(|(_, t)| t.download + t.compute + t.upload).collect();
    let mut sorted = finishes.clone();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m > 0 {
        let median = if m % 2 == 1 {
            sorted[m / 2]
        } else {
            0.5 * (sorted[m / 2 - 1] + sorted[m / 2])
        };
        for ((d, t), finish) in timings.iter().zip(&finishes) {
            let lag = finish - median;
            collector::record_event(Event::DeviceRound {
                round,
                device: *d as u32,
                download_s: t.download,
                compute_s: t.compute,
                upload_s: t.upload,
                finish_s: *finish,
                lag_s: lag,
            });
            fedprox_telemetry::histogram!("net.straggler_lag_s", lag.max(0.0));
        }
    }
    collector::record_event(Event::Bytes {
        round,
        kind: "global_model".into(),
        direction: "down".into(),
        bytes: down_bytes,
    });
    collector::record_event(Event::Bytes {
        round,
        kind: "local_model".into(),
        direction: "up".into(),
        bytes: up_bytes,
    });
    collector::record_event(Event::RoundEnd { round, sim_time_s: sim_now });
}

/// Emit the participation observations of one recorded round: running
/// outcome counters plus one structured [`Participation`] event carrying
/// the round's responder weight and skip flag. Like every telemetry
/// emission this observes — it never perturbs the run.
///
/// [`Participation`]: fedprox_telemetry::event::Event::Participation
#[cfg(feature = "telemetry")]
pub fn record_participation_telemetry(rec: &RoundParticipation) {
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let responded = rec.responders();
    let crashed = rec.count(DeviceOutcome::Crashed);
    let offline = rec.count(DeviceOutcome::Offline);
    let deadline_miss = rec.count(DeviceOutcome::DeadlineMiss);
    let link_failed = rec.count(DeviceOutcome::LinkFailed);
    fedprox_telemetry::counter!("net.participation.responded", responded as u64);
    fedprox_telemetry::counter!("net.participation.crashed", crashed as u64);
    fedprox_telemetry::counter!("net.participation.offline", offline as u64);
    fedprox_telemetry::counter!("net.participation.link_failed", link_failed as u64);
    fedprox_telemetry::counter!("net.round.deadline_miss", deadline_miss as u64);
    if rec.skipped {
        fedprox_telemetry::counter!("net.round.skipped", 1u64);
    }
    collector::record_event(Event::Participation {
        round: rec.round as u32,
        responded: responded as u32,
        crashed: crashed as u32,
        offline: offline as u32,
        deadline_miss: deadline_miss as u32,
        link_failed: link_failed as u32,
        weight: rec.responder_weight,
        skipped: u32::from(rec.skipped),
    });
}

/// Pick the device a quorum skip is blamed on for the post-mortem
/// marker, by **stable id**: the first crashed device when any crashed,
/// otherwise the first device that failed to respond for any other
/// reason (offline, deadline miss, failed link). Compact records (a
/// sampled round) translate the outcome position through their sampled
/// column; dense records use the position, which is the id there.
/// `None` when every device responded and the responding weight still
/// missed quorum.
#[cfg(feature = "telemetry")]
pub fn attribute_skip(rec: &RoundParticipation) -> Option<u32> {
    let pos = rec
        .outcomes
        .iter()
        .position(|o| *o == DeviceOutcome::Crashed)
        .or_else(|| {
            rec.outcomes.iter().position(|o| {
                !matches!(o, DeviceOutcome::Responded | DeviceOutcome::NotSelected)
            })
        })?;
    match &rec.sampled {
        Some(ids) => ids.get(pos).copied(),
        None => Some(pos as u32),
    }
}

/// Result of one logical transfer.
enum Transfer {
    /// The payload arrived `delay` simulated seconds after the send
    /// started (all attempts plus any policy backoff), after `retries`
    /// retransmissions.
    Delivered {
        /// Total simulated delay.
        delay: f64,
        /// Dropped attempts before the one that got through.
        retries: u64,
    },
    /// The retry policy gave up: every attempt was dropped, wasting
    /// `wasted` simulated seconds of air time.
    Exhausted {
        /// Simulated time burned on the failed attempts.
        wasted: f64,
        /// Retransmissions performed before giving up.
        retries: u64,
    },
}

/// One logical transfer over `link`: resample on each drop, charging
/// every attempt (plus any policy backoff before it) to the returned
/// delay, until delivery or `policy` is exhausted. The default policy
/// reproduces the historical hardcoded loop draw-for-draw: a zero
/// backoff adds nothing, and the limit check sits after the retry
/// sample exactly as before.
fn simulate_transfer(
    link: &LinkSpec,
    bytes: usize,
    drop_prob: f64,
    rng: &mut StdRng,
    policy: &RetryPolicy,
) -> Transfer {
    let mut total = link.transfer_time(bytes, rng);
    let mut retries = 0u64;
    while drop_prob > 0.0 && rng.gen_range(0.0..1.0) < drop_prob {
        retries += 1;
        let backoff = policy.backoff_before(retries);
        if backoff > 0.0 {
            total += backoff;
        }
        total += link.transfer_time(bytes, rng);
        if retries > policy.max_retries {
            return Transfer::Exhausted { wasted: total, retries };
        }
    }
    Transfer::Delivered { delay: total, retries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;

    /// Worker that averages toward a target point.
    fn toward(target: Vec<f64>, weight: f64) -> Box<dyn DeviceWorker> {
        Box::new(FnWorker(move |_round: u32, global: &[f64]| {
            let params: Vec<f64> =
                global.iter().zip(&target).map(|(g, t)| g + 0.5 * (t - g)).collect();
            DeviceReply { params, weight, grad_evals: 10, compute_time: 0.01 }
        }))
    }

    #[test]
    fn converges_to_weighted_consensus() {
        let workers: Vec<Box<dyn DeviceWorker>> = vec![
            toward(vec![1.0, 1.0], 0.5),
            toward(vec![3.0, -1.0], 0.5),
        ];
        let report = NetworkRuntime.run(
            workers,
            vec![0.0, 0.0],
            60,
            &NetOptions::default(),
            |_, _| true,
        ).expect("runtime");
        // Fixed point: average of the two targets.
        assert!((report.final_model[0] - 2.0).abs() < 1e-6, "{:?}", report.final_model);
        assert!((report.final_model[1] - 0.0).abs() < 1e-6);
        assert_eq!(report.rounds_run, 60);
        assert_eq!(report.clock.rounds(), 60);
        // Symmetric devices over constant links: no straggler skew.
        assert_eq!(report.round_skews.len(), 60);
        assert!(report.round_skews.iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn virtual_time_matches_constant_delays() {
        let opts = NetOptions {
            downlink: LinkSpec::constant(0.1),
            uplink: LinkSpec::constant(0.2),
            ..Default::default()
        };
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![0.0], 1.0), toward(vec![0.0], 1.0)];
        let report = NetworkRuntime.run(workers, vec![5.0], 10, &opts, |_, _| true).expect("runtime");
        // Each round: 0.1 + 0.01 + 0.2 = 0.31.
        assert!((report.clock.now() - 3.1).abs() < 1e-9, "{}", report.clock.now());
        assert!(report.round_durations.iter().all(|&d| (d - 0.31).abs() < 1e-12));
    }

    #[test]
    fn traffic_counted_in_real_bytes() {
        let dim = 7;
        let workers: Vec<Box<dyn DeviceWorker>> = vec![toward(vec![0.0; dim], 1.0)];
        let report = NetworkRuntime
            .run(workers, vec![1.0; dim], 3, &NetOptions::default(), |_, _| true)
            .expect("runtime");
        let down_msg = codec::encoded_len(&Message::GlobalModel { round: 0, params: vec![0.0; dim] });
        let up_msg = codec::encoded_len(&Message::LocalModel {
            device: 0,
            round: 0,
            params: vec![0.0; dim],
            weight: 1.0,
            grad_evals: 0,
            compute_time: 0.0,
        });
        assert_eq!(report.clock.bytes_down(), 3 * down_msg as u64);
        assert_eq!(report.clock.bytes_up(), 3 * up_msg as u64);
    }

    #[test]
    fn early_stop_via_callback() {
        let workers: Vec<Box<dyn DeviceWorker>> = vec![toward(vec![0.0], 1.0)];
        let report =
            NetworkRuntime
                .run(workers, vec![8.0], 100, &NetOptions::default(), |round, _| round < 4)
                .expect("runtime");
        assert_eq!(report.rounds_run, 5);
    }

    #[test]
    fn drops_cause_retransmissions_but_not_loss() {
        let opts = NetOptions { drop_prob: 0.3, seed: 42, ..Default::default() };
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![1.0], 0.7), toward(vec![1.0], 0.3)];
        let report = NetworkRuntime.run(workers, vec![0.0], 40, &opts, |_, _| true).expect("runtime");
        assert!(report.retransmissions > 0, "expected some drops at p=0.3");
        // The run still converges: payloads are never lost.
        assert!((report.final_model[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn straggler_dominates_round_duration() {
        let opts = NetOptions {
            downlink: LinkSpec::constant(0.0),
            uplink: LinkSpec::constant(0.0),
            ..Default::default()
        }
        .with_straggler(1, 50.0);
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![0.0], 0.5), toward(vec![0.0], 0.5)];
        let report = NetworkRuntime.run(workers, vec![1.0], 5, &opts, |_, _| true).expect("runtime");
        // compute 0.01 × 50 = 0.5 per round.
        assert!((report.clock.now() - 2.5).abs() < 1e-9);
        assert!(report.clock.straggler_waste() > 1.0);
        // Skew: finishes {0.01, 0.5}, median 0.255 → 0.5/0.255 − 1 ≈ 0.961.
        assert_eq!(report.round_skews.len(), 5);
        for &s in &report.round_skews {
            assert!((s - (0.5 / 0.255 - 1.0)).abs() < 1e-9, "skew {s}");
        }
    }

    #[test]
    fn compute_jitter_varies_round_durations_deterministically() {
        let mk = |seed: u64| NetOptions {
            downlink: LinkSpec::constant(0.0),
            uplink: LinkSpec::constant(0.0),
            compute_jitter: Some(DelayModel::LogNormal { mu: 0.0, sigma: 0.5 }),
            seed,
            ..Default::default()
        };
        let run = |seed: u64| {
            let workers: Vec<Box<dyn DeviceWorker>> =
                vec![toward(vec![0.0], 0.5), toward(vec![0.0], 0.5)];
            NetworkRuntime.run(workers, vec![1.0], 10, &mk(seed), |_, _| true).expect("runtime")
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.round_durations, b.round_durations, "jitter must be seeded");
        // Jitter makes durations vary across rounds.
        let mean = a.round_durations.iter().sum::<f64>() / a.round_durations.len() as f64;
        assert!(a.round_durations.iter().any(|&d| (d - mean).abs() > 1e-6));
        // Math is untouched.
        assert!((a.final_model[0] - run(99).final_model[0]).abs() < 1e-15);
    }

    #[test]
    fn heterogeneous_weights_respected() {
        // Device A (weight 0.9) pins to 10, device B (0.1) pins to 0:
        // aggregation should sit near 9 after convergence.
        let pin = |target: f64, weight: f64| -> Box<dyn DeviceWorker> {
            Box::new(FnWorker(move |_r: u32, _g: &[f64]| DeviceReply {
                params: vec![target],
                weight,
                grad_evals: 1,
                compute_time: 0.0,
            }))
        };
        let workers: Vec<Box<dyn DeviceWorker>> = vec![pin(10.0, 0.9), pin(0.0, 0.1)];
        let report = NetworkRuntime
            .run(workers, vec![0.0], 2, &NetOptions::default(), |_, _| true)
            .expect("runtime");
        assert!((report.final_model[0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_delays_produce_variable_rounds() {
        let opts = NetOptions {
            downlink: LinkSpec {
                latency: DelayModel::LogNormal { mu: -3.0, sigma: 1.0 },
                bytes_per_sec: f64::INFINITY,
            },
            seed: 9,
            ..Default::default()
        };
        let workers: Vec<Box<dyn DeviceWorker>> = (0..4)
            .map(|_| toward(vec![0.0], 0.25))
            .collect();
        let report = NetworkRuntime.run(workers, vec![1.0], 20, &opts, |_, _| true).expect("runtime");
        let durs = &report.round_durations;
        let mean = durs.iter().sum::<f64>() / durs.len() as f64;
        assert!(durs.iter().any(|&d| (d - mean).abs() > 1e-6), "rounds identical");
    }

    #[test]
    fn multiple_stragglers_all_apply() {
        let opts = NetOptions {
            downlink: LinkSpec::constant(0.0),
            uplink: LinkSpec::constant(0.0),
            compute_multipliers: vec![(0, 10.0), (2, 30.0), (2, 2.0)],
            ..Default::default()
        };
        let workers: Vec<Box<dyn DeviceWorker>> =
            (0..3).map(|_| toward(vec![0.0], 1.0 / 3.0)).collect();
        let report = NetworkRuntime.run(workers, vec![1.0], 4, &opts, |_, _| true).expect("runtime");
        // Device 2 dominates: 0.01 × 30 × 2 = 0.6 per round.
        assert!((report.clock.now() - 2.4).abs() < 1e-9, "{}", report.clock.now());
    }

    #[test]
    fn strict_mode_report_has_no_participation() {
        let workers: Vec<Box<dyn DeviceWorker>> = vec![toward(vec![0.0], 1.0)];
        let report = NetworkRuntime
            .run(workers, vec![1.0], 3, &NetOptions::default(), |_, _| true)
            .expect("runtime");
        assert!(report.participation.is_empty());
    }

    #[test]
    fn planned_crash_excludes_device_and_renormalizes() {
        use fedprox_faults::{FaultPlan, Resilience};
        let pin = |target: f64, weight: f64| -> Box<dyn DeviceWorker> {
            Box::new(FnWorker(move |_r: u32, _g: &[f64]| DeviceReply {
                params: vec![target],
                weight,
                grad_evals: 1,
                compute_time: 0.01,
            }))
        };
        // Weights 0.5/0.3/0.2 pinning 0/10/20: full aggregation gives
        // 0·0.5 + 10·0.3 + 20·0.2 = 7; without device 2 it renormalizes
        // to (0·0.5 + 10·0.3)/0.8 = 3.75.
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![pin(0.0, 0.5), pin(10.0, 0.3), pin(20.0, 0.2)];
        let opts = NetOptions::default()
            .with_resilience(Resilience::with_plan(FaultPlan::new().crash(2, 2)));
        let mut per_round = Vec::new();
        let report = NetworkRuntime
            .run(workers, vec![0.0], 3, &opts, |_, g| {
                per_round.push(g[0]);
                true
            })
            .expect("runtime");
        assert!((per_round[0] - 7.0).abs() < 1e-12, "round 1 full: {per_round:?}");
        assert!((per_round[1] - 3.75).abs() < 1e-12, "round 2 partial: {per_round:?}");
        assert!((per_round[2] - 3.75).abs() < 1e-12);
        assert_eq!(report.participation.len(), 3);
        assert_eq!(report.participation[0].responders(), 3);
        assert_eq!(report.participation[1].outcomes[2], DeviceOutcome::Crashed);
        assert_eq!(report.participation[1].responders(), 2);
        assert!((report.participation[1].responder_weight - 0.8).abs() < 1e-12);
        assert!(!report.participation[1].skipped);
    }

    #[test]
    fn offline_window_rejoins() {
        use fedprox_faults::{FaultPlan, Resilience};
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![1.0], 0.5), toward(vec![1.0], 0.5)];
        let opts = NetOptions::default()
            .with_resilience(Resilience::with_plan(FaultPlan::new().offline(1, 2, 3)));
        let report = NetworkRuntime.run(workers, vec![0.0], 5, &opts, |_, _| true).expect("runtime");
        let outcomes: Vec<DeviceOutcome> =
            report.participation.iter().map(|r| r.outcomes[1]).collect();
        use DeviceOutcome::*;
        assert_eq!(outcomes, vec![Responded, Offline, Offline, Responded, Responded]);
        assert!(report.participation.iter().all(|r| !r.skipped));
    }

    #[test]
    fn quorum_shortfall_skips_round_without_error() {
        use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![1.0], 0.6), toward(vec![1.0], 0.4)];
        // Device 0 (60% of the weight) is offline in round 2: the 40%
        // responder set misses the 50% quorum, so round 2 must leave the
        // global model untouched and be counted as skipped.
        let resil = Resilience::with_plan(FaultPlan::new().offline(0, 2, 2))
            .with_quorum(QuorumPolicy::weight_fraction(0.5));
        let opts = NetOptions::default().with_resilience(resil);
        let mut per_round = Vec::new();
        let report = NetworkRuntime
            .run(workers, vec![0.0], 3, &opts, |_, g| {
                per_round.push(g[0]);
                true
            })
            .expect("runtime");
        assert_eq!(report.rounds_run, 3);
        assert_eq!(per_round.len(), 3);
        assert_eq!(
            per_round[1].to_bits(),
            per_round[0].to_bits(),
            "skipped round must not move the model"
        );
        assert!(per_round[2] > per_round[1], "training resumes after the skip");
        assert!(report.participation[1].skipped);
        assert!(!report.participation[0].skipped);
        assert!(!report.participation[2].skipped);
    }

    #[test]
    fn deadline_excludes_slow_device() {
        use fedprox_faults::{FaultPlan, Resilience};
        let pin = |target: f64, weight: f64| -> Box<dyn DeviceWorker> {
            Box::new(FnWorker(move |_r: u32, _g: &[f64]| DeviceReply {
                params: vec![target],
                weight,
                grad_evals: 1,
                compute_time: 0.01,
            }))
        };
        let workers: Vec<Box<dyn DeviceWorker>> = vec![pin(0.0, 0.5), pin(10.0, 0.5)];
        // Device 1 is slowed ×100 (compute 1.0 s) past the 0.5 s
        // deadline; links are free so device 0 finishes at 0.01 s.
        let resil = Resilience::with_plan(FaultPlan::new().slow(1, 100.0, 1, 10))
            .with_deadline(0.5);
        let opts = NetOptions {
            downlink: LinkSpec::constant(0.0),
            uplink: LinkSpec::constant(0.0),
            ..Default::default()
        }
        .with_resilience(resil);
        let report = NetworkRuntime.run(workers, vec![5.0], 2, &opts, |_, _| true).expect("runtime");
        assert!((report.final_model[0] - 0.0).abs() < 1e-12, "only device 0 aggregates");
        for rec in &report.participation {
            assert_eq!(rec.outcomes[1], DeviceOutcome::DeadlineMiss);
            assert!((rec.responder_weight - 0.5).abs() < 1e-12);
        }
        // The server stops waiting at the deadline.
        assert!(report.round_durations.iter().all(|&d| (d - 0.5).abs() < 1e-12));
    }

    #[test]
    fn flaky_link_exhaustion_degrades_to_link_failed() {
        use fedprox_faults::{FaultPlan, Resilience, RetryPolicy};
        let workers: Vec<Box<dyn DeviceWorker>> =
            vec![toward(vec![1.0], 0.5), toward(vec![1.0], 0.5)];
        // Device 1's link drops 90% of attempts and the policy allows no
        // retries at all: with seed sweeps it will fail some rounds, and
        // the run must complete anyway.
        let resil = Resilience::with_plan(FaultPlan::new().flaky(1, 0.9, 1, 30));
        let opts = NetOptions {
            retry: RetryPolicy::attempts(0),
            seed: 5,
            ..Default::default()
        }
        .with_resilience(resil);
        let report = NetworkRuntime.run(workers, vec![0.0], 30, &opts, |_, _| true).expect("runtime");
        let failed: usize = report
            .participation
            .iter()
            .map(|r| r.count(DeviceOutcome::LinkFailed))
            .sum();
        assert!(failed > 10, "90% drop with zero retries should fail most rounds: {failed}");
        // Device 0's link is clean, so quorum (any responder) always holds
        // and the model still converges toward the target.
        assert!(report.participation.iter().all(|r| !r.skipped));
        assert!((report.final_model[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn panicked_worker_becomes_crashed_participant() {
        let ok = |weight: f64| -> Box<dyn DeviceWorker> {
            Box::new(FnWorker(move |_r: u32, g: &[f64]| DeviceReply {
                params: g.iter().map(|x| 0.5 * x).collect(),
                weight,
                grad_evals: 1,
                compute_time: 0.01,
            }))
        };
        let bad: Box<dyn DeviceWorker> = Box::new(FnWorker(|round: u32, g: &[f64]| {
            // fedlint: allow(no-panic) — this worker exists to panic; the test asserts the runtime tolerates it
            assert!(round < 1, "device fault injected at round 2");
            DeviceReply {
                params: g.to_vec(),
                weight: 0.5,
                grad_evals: 1,
                compute_time: 0.01,
            }
        }));
        let workers: Vec<Box<dyn DeviceWorker>> = vec![ok(0.5), bad];
        let opts = NetOptions::default().with_resilience(fedprox_faults::Resilience::default());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = NetworkRuntime.run(workers, vec![4.0], 4, &opts, |_, _| true);
        std::panic::set_hook(prev);
        let report = report.expect("panic must degrade, not abort");
        assert_eq!(report.rounds_run, 4);
        assert_eq!(report.participation[0].responders(), 2);
        use DeviceOutcome::*;
        let dev1: Vec<DeviceOutcome> =
            report.participation.iter().map(|r| r.outcomes[1]).collect();
        assert_eq!(dev1, vec![Responded, Crashed, Crashed, Crashed]);
    }

    #[test]
    fn typed_worker_failure_is_fatal_in_strict_mode() {
        let failing: Box<dyn DeviceWorker> = Box::new(TryFnWorker(|round: u32, g: &[f64]| {
            if round >= 1 {
                return Err(WorkerError::new("injected typed failure"));
            }
            Ok(DeviceReply {
                params: g.to_vec(),
                weight: 0.5,
                grad_evals: 1,
                compute_time: 0.01,
            })
        }));
        let workers: Vec<Box<dyn DeviceWorker>> = vec![toward(vec![0.0], 0.5), failing];
        let err = NetworkRuntime
            .run(workers, vec![1.0], 4, &NetOptions::default(), |_, _| true)
            .expect_err("strict mode must surface the typed failure");
        assert_eq!(
            err,
            NetError::WorkerFailed { device: 1, reason: "injected typed failure".to_string() }
        );
    }

    #[test]
    fn typed_worker_failure_degrades_to_crashed_participant() {
        let failing: Box<dyn DeviceWorker> = Box::new(TryFnWorker(|round: u32, g: &[f64]| {
            if round >= 1 {
                return Err(WorkerError::new("injected typed failure"));
            }
            Ok(DeviceReply {
                params: g.iter().map(|x| 0.5 * x).collect(),
                weight: 0.5,
                grad_evals: 1,
                compute_time: 0.01,
            })
        }));
        let workers: Vec<Box<dyn DeviceWorker>> = vec![toward(vec![0.0], 0.5), failing];
        let opts = NetOptions::default().with_resilience(fedprox_faults::Resilience::default());
        let report = NetworkRuntime
            .run(workers, vec![4.0], 4, &opts, |_, _| true)
            .expect("typed failure must degrade, not abort");
        assert_eq!(report.rounds_run, 4);
        use DeviceOutcome::*;
        let dev1: Vec<DeviceOutcome> =
            report.participation.iter().map(|r| r.outcomes[1]).collect();
        assert_eq!(dev1, vec![Responded, Crashed, Crashed, Crashed]);
    }

    /// The per-device reply threads race on the shared reply channel, but
    /// collection goes into per-device slots aggregated in id order — so
    /// repeated runs must be bitwise identical even with jittery links
    /// making arrival order genuinely nondeterministic. Guards the
    /// `spawn-ordering` allowance on the actor spawn.
    #[test]
    fn repeated_networked_runs_are_bitwise_identical() {
        let run = || {
            let workers: Vec<Box<dyn DeviceWorker>> = (0..6)
                .map(|i| toward(vec![i as f64, -(i as f64)], 1.0 / 6.0))
                .collect();
            let opts = NetOptions {
                downlink: LinkSpec {
                    latency: DelayModel::LogNormal { mu: -4.0, sigma: 1.0 },
                    bytes_per_sec: f64::INFINITY,
                },
                drop_prob: 0.2,
                seed: 77,
                ..Default::default()
            };
            let mut traj: Vec<u64> = Vec::new();
            let report = NetworkRuntime
                .run(workers, vec![0.0, 0.0], 20, &opts, |_, g| {
                    traj.extend(g.iter().map(|x| x.to_bits()));
                    true
                })
                .expect("runtime");
            (traj, report.final_model.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let (traj_a, final_a) = run();
        let (traj_b, final_b) = run();
        assert_eq!(traj_a, traj_b, "per-round globals must be bitwise stable");
        assert_eq!(final_a, final_b);
    }

    #[test]
    fn zero_fault_resilience_keeps_the_model_trajectory() {
        let run = |resilient: bool| {
            let workers: Vec<Box<dyn DeviceWorker>> =
                vec![toward(vec![1.0, -2.0], 0.7), toward(vec![3.0, 0.0], 0.3)];
            let mut opts = NetOptions { drop_prob: 0.1, seed: 21, ..Default::default() };
            if resilient {
                opts = opts.with_resilience(fedprox_faults::Resilience::default());
            }
            let mut traj: Vec<u64> = Vec::new();
            let report = NetworkRuntime
                .run(workers, vec![0.0, 0.0], 15, &opts, |_, g| {
                    traj.extend(g.iter().map(|x| x.to_bits()));
                    true
                })
                .expect("runtime");
            (traj, report)
        };
        let (strict_traj, strict) = run(false);
        let (resil_traj, resil) = run(true);
        // The model trajectory is bitwise-identical: delays never touch
        // the math, and full participation aggregates in id order in both
        // modes.
        assert_eq!(strict_traj, resil_traj);
        assert_eq!(
            strict.final_model.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            resil.final_model.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(resil.participation.len(), 15);
        assert!(resil.participation.iter().all(|r| r.responders() == 2 && !r.skipped));
    }

    #[test]
    fn strict_link_draws_match_an_empty_fault_plan() {
        // Strict mode draws every transfer from the same per-(round,
        // device) streams as resilient mode, so reply arrival order
        // cannot leak into the link draws: the two runs agree bitwise.
        let run = |resilient: bool| {
            let workers: Vec<Box<dyn DeviceWorker>> = vec![
                toward(vec![1.0, -2.0], 0.5),
                toward(vec![3.0, 0.0], 0.3),
                toward(vec![-1.0, 4.0], 0.2),
            ];
            let mut opts = NetOptions { drop_prob: 0.4, seed: 3, ..Default::default() };
            if resilient {
                let empty = fedprox_faults::FaultPlan::new();
                opts = opts.with_resilience(Resilience::with_plan(empty));
            }
            NetworkRuntime.run(workers, vec![0.0, 0.0], 12, &opts, |_, _| true).expect("runtime")
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (strict, resil) = (run(false), run(true));
        assert!(strict.retransmissions > 0, "p = 0.4 must drop something");
        assert_eq!(bits(&strict.round_durations), bits(&resil.round_durations));
        assert_eq!(strict.retransmissions, resil.retransmissions);
        assert_eq!(strict.clock.bytes_up(), resil.clock.bytes_up());
        assert_eq!(strict.clock.bytes_down(), resil.clock.bytes_down());
        assert_eq!(bits(&strict.final_model), bits(&resil.final_model));
    }

    #[test]
    fn no_devices_is_a_typed_error() {
        let workers: Vec<Box<dyn DeviceWorker>> = Vec::new();
        let out = NetworkRuntime.run(workers, vec![0.0], 3, &NetOptions::default(), |_, _| true);
        assert!(matches!(out, Err(NetError::NoDevices)));
    }
}
