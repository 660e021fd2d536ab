//! The telemetry event model.
//!
//! Everything the collector records — and everything `fedobs` reads
//! back from a JSONL trace — is one of these variants. Two broad
//! families:
//!
//! * **Wall-clock observations** ([`Event::Span`], [`Event::SpanStat`]):
//!   monotonic-clock durations of instrumented scopes. These vary run to
//!   run (they measure the host), which is fine — they never feed back
//!   into training.
//! * **Simulation observations** ([`Event::DeviceRound`],
//!   [`Event::Bytes`], [`Event::RoundEnd`]): derived from the virtual
//!   clock and the wire codec, so they are bitwise-reproducible across
//!   runs with the same seed.
//!
//! Counters, gauges, and histograms sit in between: counts of discrete
//! work items (gradient evaluations, prox applications) are
//! deterministic; histograms of wall durations are not.

/// One telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A single activation of a `span!` scope.
    Span {
        /// Instrumented layer (`tensor`, `optim`, `net`, `core`).
        layer: String,
        /// Operation name within the layer (e.g. `matmul`).
        name: String,
        /// Wall-clock duration in microseconds.
        micros: f64,
        /// Static key/value attributes (dimensions, indices, sizes).
        attrs: Vec<(String, f64)>,
    },
    /// Aggregate over *every* activation of one `(layer, name)` span,
    /// including activations beyond the raw-event cap. Exact-count
    /// assertions should use this, never raw [`Event::Span`] records.
    SpanStat {
        /// Instrumented layer.
        layer: String,
        /// Operation name.
        name: String,
        /// Total activations.
        count: u64,
        /// Summed wall-clock duration in microseconds.
        total_micros: f64,
        /// Longest single activation in microseconds.
        max_micros: f64,
    },
    /// Final value of a monotonically-increasing counter.
    Counter {
        /// Counter name (e.g. `optim.inner_step`).
        name: String,
        /// Accumulated value (saturating).
        value: u64,
    },
    /// Last-written value of a gauge.
    Gauge {
        /// Gauge name.
        name: String,
        /// Final value.
        value: f64,
    },
    /// A fixed-bucket histogram. `counts.len() == bounds.len() + 1`; the
    /// last bucket counts samples above every bound.
    Histogram {
        /// Upper bucket bounds (inclusive), ascending.
        bounds: Vec<f64>,
        /// Per-bucket sample counts.
        counts: Vec<u64>,
        /// Histogram name.
        name: String,
    },
    /// Per-device timing of one synchronous round, in simulated seconds.
    DeviceRound {
        /// Round index (0-based, as on the wire).
        round: u32,
        /// Device id.
        device: u32,
        /// Server → device transfer time.
        download_s: f64,
        /// Local computation time.
        compute_s: f64,
        /// Device → server transfer time.
        upload_s: f64,
        /// `download + compute + upload`.
        finish_s: f64,
        /// Straggler lag: `finish` minus the round's median finish.
        lag_s: f64,
    },
    /// Traffic for one message kind in one round.
    Bytes {
        /// Round index (0-based).
        round: u32,
        /// Wire message kind (`global_model`, `local_model`).
        kind: String,
        /// `down` (server → devices) or `up` (devices → server).
        direction: String,
        /// Bytes on the wire, including retransmissions.
        bytes: u64,
    },
    /// End of one synchronous round.
    RoundEnd {
        /// Round index (0-based).
        round: u32,
        /// Virtual-clock time at the end of the round.
        sim_time_s: f64,
    },
    /// Per-round algorithm-health sample assembled by the core
    /// `HealthMonitor`. Every field is derived from the deterministic
    /// training trajectory (losses, gradient norms, virtual clock), so
    /// health samples are bitwise-reproducible across armed runs with
    /// the same seed. Optional fields encode as JSON `null` when absent.
    Health {
        /// Global round index (1-based; round 0 is the initial model).
        round: u32,
        /// Training loss at this round (always finite — rounds that
        /// cannot produce a finite sample emit an [`Event::Anomaly`]
        /// instead).
        train_loss: f64,
        /// `train_loss` minus the previous sampled round's loss
        /// (0.0 on the first sample).
        loss_delta: f64,
        /// Squared gradient-mapping norm, the paper's eq. (12) gap.
        grad_norm_sq: f64,
        /// Measured local accuracy θ of criterion (11), when enabled.
        theta: Option<f64>,
        /// Lemma 1 admissible lower bound on θ for the configured τ
        /// (inverse of eq. (55)); `None` when β ≤ 3.
        theta_lo: Option<f64>,
        /// Remark 2(1) admissible upper bound `θ_max(σ̄²)`.
        theta_hi: Option<f64>,
        /// Theorem 1 predicted stationarity envelope `Δ/(Θ·round)`,
        /// when the federated factor Θ is positive.
        bound: Option<f64>,
        /// Mean squared estimator direction norm `‖v‖²` across all
        /// inner steps of this round's participating local solves.
        dir_mean_sq: f64,
        /// Welford M2 of the squared direction norms (variance · n).
        dir_m2: f64,
        /// Mean squared anchor direction norm `‖v⁰‖²` across the
        /// round's local solves (the variance-reduction reference).
        dir_anchor_sq: f64,
        /// Inner steps contributing to the direction statistics
        /// (0 when probes were unavailable, e.g. networked backend).
        dir_steps: u64,
        /// Straggler skew from the sim clock: the round's slowest
        /// device finish over the median finish, minus one. `None`
        /// for local (non-networked) backends.
        skew: Option<f64>,
    },
    /// A typed algorithm-health anomaly raised by a `HealthMonitor`
    /// rule. Like [`Event::Health`], anomalies are derived only from
    /// the deterministic trajectory.
    Anomaly {
        /// Global round index the rule fired on (1-based).
        round: u32,
        /// Which rule fired.
        rule: AnomalyRule,
        /// Offending device id, when the rule attributes one.
        device: Option<u32>,
        /// Rule-specific measured value (always finite; non-finite
        /// measurements are clamped to `f64::MAX` by the monitor).
        value: f64,
        /// Rule-specific threshold the value was compared against.
        limit: f64,
    },
    /// Per-round participation of a resilient (fault-injected) run: how
    /// many devices landed in each outcome class, the responding weight
    /// fraction, and whether the round was skipped for failing quorum.
    /// Derived from the deterministic fault plan and virtual clock, so
    /// bitwise-reproducible like the other simulation observations.
    Participation {
        /// Global round index (1-based, matching `History` records and
        /// [`Event::Health`] — not the 0-based wire round).
        round: u32,
        /// Devices that responded in time.
        responded: u32,
        /// Devices permanently crashed (plan or tolerated panic).
        crashed: u32,
        /// Devices inside an offline window.
        offline: u32,
        /// Devices excluded for missing the round deadline.
        deadline_miss: u32,
        /// Devices whose link exhausted the retry policy this round.
        link_failed: u32,
        /// Responding fraction of the federation aggregation weight.
        weight: f64,
        /// 1 when the round failed quorum and was skipped, else 0
        /// (an integer, not a bool, for the hand-rolled JSONL parser).
        skipped: u32,
    },
    /// Aggregate over every activation of one span-tree *path*: the
    /// chain of `span!` names from the outermost open scope down to
    /// this one on the recording thread (e.g.
    /// `round/device_update/local_solve/matmul`). Unlike
    /// [`Event::SpanStat`]'s flat per-op view, a path distinguishes a
    /// `matmul` under `local_solve` from one under `evaluate`, and
    /// carries exact self-vs-child accounting. Counts and allocator
    /// columns are deterministic for single-threaded runs; the
    /// microsecond columns measure the host.
    PathStat {
        /// `/`-joined span names, outermost first.
        path: String,
        /// Total activations of this exact path.
        count: u64,
        /// Summed wall-clock duration, including children, in µs.
        total_micros: f64,
        /// Summed wall-clock duration minus time spent in child spans.
        self_micros: f64,
        /// Longest single activation (total time) in µs.
        max_micros: f64,
        /// Allocator bytes requested while this path was open,
        /// including children. Zero when no alloc probe is installed.
        total_bytes: u64,
        /// Allocator bytes attributed to this span itself (total minus
        /// bytes attributed to child spans).
        self_bytes: u64,
        /// Allocator calls while this path was open, including children.
        total_allocs: u64,
        /// Allocator calls attributed to this span itself.
        self_allocs: u64,
    },
    /// Marker that raw [`Event::Span`] records were discarded at the
    /// buffer cap with no streaming sink attached: the trace's raw span
    /// sample is partial (aggregates remain exact). Reports flag this.
    TraceTruncated {
        /// Raw span records discarded.
        dropped_spans: u64,
    },
    /// Events discarded because a buffer cap was hit. Aggregates
    /// ([`Event::SpanStat`], [`Event::Counter`]) are never dropped.
    Dropped {
        /// Number of discarded events.
        count: u64,
    },
    /// Run-ledger header: identifies the run that produced a JSONL
    /// stream so two files can be provably joined (same digests) or
    /// refused. Emitted once at `TraceSession` start, stitched as the
    /// first record into every sink, and read back by `fedobs ledger`.
    /// All fields derive from configuration, never from wall clocks, so
    /// two same-seed runs emit bitwise-identical headers.
    RunMeta {
        /// Ledger schema version (currently 1).
        version: u32,
        /// Digest (FNV-1a 64, hex) of the canonical config description.
        config: String,
        /// Master seed of the run.
        seed: u64,
        /// Active tensor-kernel selector (`reference`, `tiled`,
        /// `tiled-par`).
        kernel: String,
        /// Digest (FNV-1a 64, hex) of the fault-plan description;
        /// digest of the empty string for fault-free runs.
        faults: String,
        /// Comma-joined compiled cargo feature set (stable order).
        features: String,
        /// Comma-joined `crate=version` pairs of the emitting stack.
        crates: String,
    },
    /// Flight-recorder marker: a divergence cause or a quorum-skip
    /// fired at this point in the stream. The collector snapshots its
    /// ring of recent events when the first marker fires; `fedobs
    /// postmortem` renders the marker's surrounding window as a
    /// correlated post-mortem bundle.
    Postmortem {
        /// Global round index the trigger fired on (1-based, matching
        /// [`Event::Participation`] and [`Event::Health`]).
        round: u32,
        /// Trigger kind (`non_finite`, `loss_guard`, `quorum_skip`).
        reason: String,
        /// Implicated device, when one could be attributed (the first
        /// non-finite contributor, or the first crashed/non-responding
        /// device of a skipped round).
        device: Option<u32>,
    },
}

/// The fixed vocabulary of health-anomaly rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyRule {
    /// Non-finite model parameters after aggregation.
    NonFinite,
    /// Training loss crossed the configured loss guard (or went
    /// non-finite while parameters stayed finite).
    LossGuard,
    /// Measured θ exceeded the admissible Remark 2(1) ceiling.
    ThetaViolation,
    /// SVRG/SARAH direction second moment not shrinking relative to
    /// its anchor: variance reduction is buying nothing.
    VrIneffective,
    /// A participating device contributed almost no gradient work
    /// relative to the round's busiest device.
    Starvation,
    /// The responding weight fraction of a resilient run stayed below
    /// the configured participation floor for k consecutive rounds —
    /// the federation is quorum-adjacent and aggregation quality is
    /// degrading.
    ParticipationGap,
}

impl AnomalyRule {
    /// Stable wire name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyRule::NonFinite => "non_finite",
            AnomalyRule::LossGuard => "loss_guard",
            AnomalyRule::ThetaViolation => "theta_violation",
            AnomalyRule::VrIneffective => "vr_ineffective",
            AnomalyRule::Starvation => "starvation",
            AnomalyRule::ParticipationGap => "participation_gap",
        }
    }

    /// Inverse of [`AnomalyRule::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "non_finite" => Some(AnomalyRule::NonFinite),
            "loss_guard" => Some(AnomalyRule::LossGuard),
            "theta_violation" => Some(AnomalyRule::ThetaViolation),
            "vr_ineffective" => Some(AnomalyRule::VrIneffective),
            "starvation" => Some(AnomalyRule::Starvation),
            "participation_gap" => Some(AnomalyRule::ParticipationGap),
            _ => None,
        }
    }

    /// Every rule, in a stable order (for report tables).
    pub fn all() -> [AnomalyRule; 6] {
        [
            AnomalyRule::NonFinite,
            AnomalyRule::LossGuard,
            AnomalyRule::ThetaViolation,
            AnomalyRule::VrIneffective,
            AnomalyRule::Starvation,
            AnomalyRule::ParticipationGap,
        ]
    }
}

impl Event {
    /// The stable `"t"` tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::SpanStat { .. } => "span_stat",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "hist",
            Event::DeviceRound { .. } => "device_round",
            Event::Bytes { .. } => "bytes",
            Event::RoundEnd { .. } => "round_end",
            Event::Health { .. } => "health",
            Event::Anomaly { .. } => "anomaly",
            Event::Participation { .. } => "participation",
            Event::PathStat { .. } => "path_stat",
            Event::TraceTruncated { .. } => "trace_truncated",
            Event::Dropped { .. } => "dropped",
            Event::RunMeta { .. } => "run_meta",
            Event::Postmortem { .. } => "postmortem",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let events = [
            Event::Span { layer: "a".into(), name: "b".into(), micros: 0.0, attrs: vec![] },
            Event::SpanStat {
                layer: "a".into(),
                name: "b".into(),
                count: 0,
                total_micros: 0.0,
                max_micros: 0.0,
            },
            Event::Counter { name: "c".into(), value: 0 },
            Event::Gauge { name: "g".into(), value: 0.0 },
            Event::Histogram { name: "h".into(), bounds: vec![], counts: vec![] },
            Event::DeviceRound {
                round: 0,
                device: 0,
                download_s: 0.0,
                compute_s: 0.0,
                upload_s: 0.0,
                finish_s: 0.0,
                lag_s: 0.0,
            },
            Event::Bytes { round: 0, kind: "k".into(), direction: "d".into(), bytes: 0 },
            Event::RoundEnd { round: 0, sim_time_s: 0.0 },
            Event::Health {
                round: 0,
                train_loss: 0.0,
                loss_delta: 0.0,
                grad_norm_sq: 0.0,
                theta: None,
                theta_lo: None,
                theta_hi: None,
                bound: None,
                dir_mean_sq: 0.0,
                dir_m2: 0.0,
                dir_anchor_sq: 0.0,
                dir_steps: 0,
                skew: None,
            },
            Event::Anomaly {
                round: 0,
                rule: AnomalyRule::NonFinite,
                device: None,
                value: 0.0,
                limit: 0.0,
            },
            Event::Participation {
                round: 0,
                responded: 0,
                crashed: 0,
                offline: 0,
                deadline_miss: 0,
                link_failed: 0,
                weight: 0.0,
                skipped: 0,
            },
            Event::PathStat {
                path: "a/b".into(),
                count: 0,
                total_micros: 0.0,
                self_micros: 0.0,
                max_micros: 0.0,
                total_bytes: 0,
                self_bytes: 0,
                total_allocs: 0,
                self_allocs: 0,
            },
            Event::TraceTruncated { dropped_spans: 0 },
            Event::Dropped { count: 0 },
            Event::RunMeta {
                version: 1,
                config: "0".into(),
                seed: 0,
                kernel: "tiled-par".into(),
                faults: "0".into(),
                features: String::new(),
                crates: String::new(),
            },
            Event::Postmortem { round: 0, reason: "quorum_skip".into(), device: None },
        ];
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn anomaly_rule_names_roundtrip() {
        for rule in AnomalyRule::all() {
            assert_eq!(AnomalyRule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(AnomalyRule::from_name("nope"), None);
    }
}
