//! `--obs` support: arm the collector for the duration of a run and
//! stream everything it records to one JSONL file — the run-ledger
//! header first, then every raw event (flushed at each round end, so
//! memory stays bounded and the file can be tailed live), then the
//! aggregate tail (`span_stat`, `path_stat`, counters, gauges,
//! histograms) appended by [`TraceSession::finish`]. `fedobs` reads the
//! one file for every view: `summary`, `health`, `prof`, `timeline`,
//! `critpath`, `postmortem` and `ledger`.
//!
//! The session is a no-op when built without the `telemetry` feature —
//! it warns that `--obs` was ignored — and when no path was given, so
//! binaries can call it unconditionally.

/// Scoped observability for one experiment run.
///
/// ```ignore
/// let obs = TraceSession::start(args.obs.as_deref(), &info);
/// // ... run the experiment ...
/// obs.finish(); // appends the aggregate tail
/// ```
#[derive(Debug)]
pub struct TraceSession {
    path: Option<String>,
    /// Whether the streaming sink actually attached to `path` (only
    /// consulted by `finish`, which is compiled out without telemetry).
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    streamed: bool,
}

/// What the run ledger records about this invocation. The config and
/// fault-plan descriptions are canonical strings (see
/// [`CommonArgs::describe`](crate::args::CommonArgs::describe));
/// `TraceSession` digests them (FNV-1a 64) into the [`RunMeta`] header
/// that leads the `--obs` stream, so any two output files can be
/// provably joined — or refused — offline.
///
/// [`RunMeta`]: fedprox_telemetry::event::Event::RunMeta
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Canonical config description (digested, never stored raw).
    pub config: String,
    /// Master seed.
    pub seed: u64,
    /// Canonical fault-plan description; empty for fault-free runs.
    pub faults: String,
}

impl RunInfo {
    /// A fault-free run's ledger identity.
    pub fn new(config: impl Into<String>, seed: u64) -> Self {
        RunInfo { config: config.into(), seed, faults: String::new() }
    }

    /// Attach a canonical fault-plan description.
    #[must_use]
    pub fn with_faults(mut self, faults: impl Into<String>) -> Self {
        self.faults = faults.into();
        self
    }

    /// The ledger header event for this run, digests applied. Public
    /// so fedperf can stamp the same identity into its reports.
    #[cfg(feature = "telemetry")]
    pub fn to_event(&self) -> fedprox_telemetry::event::Event {
        fedprox_telemetry::event::Event::RunMeta {
            version: 1,
            config: fedprox_obs::fnv64(&self.config),
            seed: self.seed,
            kernel: fedprox_tensor::kernel::active().name().to_string(),
            faults: fedprox_obs::fnv64(&self.faults),
            features: compiled_features(),
            crates: format!("fedprox={}", env!("CARGO_PKG_VERSION")),
        }
    }
}

/// Comma-joined compiled feature set of the bench binary, in a fixed
/// order (currently only `telemetry` can be on when this is reachable).
#[cfg(feature = "telemetry")]
fn compiled_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    if cfg!(feature = "telemetry") {
        feats.push("telemetry");
    }
    feats.join(",")
}

impl TraceSession {
    /// Arm the collector if an `--obs` path was requested (and the
    /// instrumentation is compiled in): install the perfbench counting
    /// allocator as the span allocation probe, attach the streaming
    /// sink, and record `info`'s [`RunMeta`] header as the stream's
    /// first line. If the sink cannot attach, the whole record is
    /// written at [`finish`](TraceSession::finish) instead.
    ///
    /// [`RunMeta`]: fedprox_telemetry::event::Event::RunMeta
    pub fn start(obs: Option<&str>, info: &RunInfo) -> Self {
        #[cfg(feature = "telemetry")]
        let streamed = match obs {
            Some(p) => {
                use fedprox_telemetry::collector;
                fedprox_perfbench::alloc::install_telemetry_probe();
                collector::arm();
                let streamed = collector::stream_to(p)
                    .map_err(|e| {
                        eprintln!(
                            "obs: cannot stream to {p}: {e}; falling back to end-of-run write"
                        )
                    })
                    .is_ok();
                collector::record_event(info.to_event());
                streamed
            }
            None => false,
        };
        #[cfg(not(feature = "telemetry"))]
        let streamed = {
            let _ = info;
            if obs.is_some() {
                eprintln!(
                    "warning: --obs ignored: telemetry instrumentation not compiled in \
                     (rebuild with `--features telemetry`)"
                );
            }
            false
        };
        TraceSession { path: obs.map(str::to_string), streamed }
    }

    /// Whether this session is actually recording.
    pub fn active(&self) -> bool {
        cfg!(feature = "telemetry") && self.path.is_some()
    }

    /// Append the aggregate tail to the `--obs` file (or write the whole
    /// record when streaming never attached) and name the `fedobs`
    /// views that read it. A no-op for inactive sessions.
    pub fn finish(self) {
        #[cfg(feature = "telemetry")]
        if let Some(path) = self.path {
            match fedprox_telemetry::collector::finish_stream(&path, self.streamed) {
                Ok(()) => println!(
                    "obs: run written to {path} (inspect with `fedobs \
                     summary|health|prof|timeline|critpath|postmortem|ledger {path}`)"
                ),
                Err(e) => eprintln!("obs: failed to write {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; serialize the tests that arm it.
    #[cfg(feature = "telemetry")]
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "telemetry")]
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[cfg(feature = "telemetry")]
    fn temp_path(dir: &str, file: &str) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file).to_str().unwrap().to_string()
    }

    #[cfg(feature = "telemetry")]
    fn read_events(path: &str) -> Vec<fedprox_telemetry::event::Event> {
        let text = std::fs::read_to_string(path).unwrap();
        fedprox_telemetry::jsonl::parse(&text).unwrap()
    }

    #[test]
    fn inactive_without_path() {
        let t = TraceSession::start(None, &RunInfo::new("test", 1));
        assert!(!t.active());
        t.finish(); // must be a no-op either way
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn active_roundtrip_writes_jsonl() {
        let _serial = guard();
        let path = temp_path("fedprox_trace_test", "t.jsonl");
        let t = TraceSession::start(Some(&path), &RunInfo::new("roundtrip", 1));
        assert!(t.active());
        fedprox_telemetry::counter!("bench.test_marker", 3u32);
        t.finish();
        let events = read_events(&path);
        assert!(events.iter().any(|e| matches!(
            e,
            fedprox_telemetry::event::Event::Counter { name, value: 3 } if name == "bench.test_marker"
        )));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn obs_file_carries_ledger_header_and_sim_events() {
        let _serial = guard();
        use fedprox_telemetry::event::Event;
        let path = temp_path("fedprox_obs_trace_test", "o.jsonl");
        let info = RunInfo::new("test config=1", 7).with_faults("crash 1:3");
        let t = TraceSession::start(Some(&path), &info);
        assert!(t.active());
        fedprox_telemetry::counter!("bench.noise_marker", 1u32);
        fedprox_telemetry::collector::record_event(Event::RoundEnd {
            round: 0,
            sim_time_s: 0.5,
        });
        fedprox_telemetry::collector::trigger_postmortem("quorum_skip", 1, Some(1));
        t.finish();
        let events = read_events(&path);
        // Header first, then the run events, marker included.
        assert!(
            matches!(&events[0], Event::RunMeta { seed: 7, faults, .. }
                if faults == &fedprox_obs::fnv64("crash 1:3")),
            "ledger header must lead the obs stream: {events:?}"
        );
        assert!(events.iter().any(|e| matches!(e, Event::RoundEnd { .. })));
        assert!(events.iter().any(
            |e| matches!(e, Event::Postmortem { round: 1, device: Some(1), .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn streamed_trace_file_covers_the_whole_run() {
        let _serial = guard();
        use fedprox_telemetry::event::Event;
        let path = temp_path("fedprox_stream_trace_test", "s.jsonl");
        let t = TraceSession::start(Some(&path), &RunInfo::new("streamed", 1));
        assert!(t.active());
        {
            fedprox_telemetry::span!("bench", "streamed_op");
        }
        fedprox_telemetry::collector::record_event(Event::RoundEnd {
            round: 0,
            sim_time_s: 1.0,
        });
        // The round-end flush must have hit the disk mid-run.
        let mid = std::fs::read_to_string(&path).unwrap();
        assert!(!mid.is_empty(), "streaming sink wrote nothing before finish()");
        t.finish();
        let events = read_events(&path);
        assert!(events.iter().any(|e| matches!(e, Event::RoundEnd { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Span { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::PathStat { .. })));
        std::fs::remove_file(&path).ok();
    }

    /// One armed, faulted, resilient run streamed to one file: every
    /// `fedobs` view reads it as is. Three devices on the simulated
    /// network, device 1 crashes at round 3, and the quorum demands all
    /// three, so every round from 3 on is skipped.
    #[cfg(feature = "telemetry")]
    #[test]
    fn one_file_feeds_every_reader() {
        let _serial = guard();
        use fedprox_core::config::NetRunnerOptions;
        use fedprox_core::{Algorithm, FedConfig, FederatedTrainer, RunnerKind};
        use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
        use fedprox_obs::postmortem::{PostmortemBundle, POSTMORTEM_WINDOW};
        use fedprox_obs::Timeline;
        use fedprox_optim::estimator::EstimatorKind;
        use fedprox_telemetry::event::Event;
        use fedprox_telemetry::profile::ProfileReport;
        use fedprox_telemetry::scope::HealthReport;
        use fedprox_telemetry::summary::TelemetryReport;

        let path = temp_path("fedprox_one_file_test", "run.jsonl");
        let plan = FaultPlan::new().crash(1, 3);
        let info = RunInfo::new("one file", 11).with_faults(format!("{:?}", plan.faults));
        let quorum = QuorumPolicy { min_responders: 3, ..QuorumPolicy::default() };
        let fed = crate::synthetic_federation(1.0, 1.0, 3, 40, 120, 11);
        let model = fedprox_models::MultinomialLogistic::new(
            fed.test.dim(),
            fed.test.num_classes(),
        );
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_rounds(6)
            .with_seed(11)
            .with_resilience(Resilience::with_plan(plan).with_quorum(quorum))
            .with_runner(RunnerKind::Network(NetRunnerOptions::default()));

        let t = TraceSession::start(Some(&path), &info);
        FederatedTrainer::new(&model, &fed.devices, &fed.test, cfg).run().unwrap();
        t.finish();
        let events = read_events(&path);

        assert!(matches!(events[0], Event::RunMeta { seed: 11, .. }), "{:?}", events[0]);
        let health = HealthReport::from_events(&events);
        assert_eq!(health.validate(), Vec::<String>::new());
        let profile = ProfileReport::from_events(&events);
        assert!(
            profile.paths.iter().any(|r| r.leaf() == "local_solve"),
            "no local_solve path in the profile"
        );
        let timeline = Timeline::from_events(&events);
        assert_eq!(timeline.rounds.len(), 6);
        assert!(timeline.rounds.iter().all(|r| r.gating.is_some()), "a round lost its gate");
        let bundle = PostmortemBundle::from_events(&events, POSTMORTEM_WINDOW).unwrap();
        assert_eq!(
            (bundle.reason.as_str(), bundle.round, bundle.device),
            ("quorum_skip", 3, Some(1))
        );
        let summary = TelemetryReport::from_events(&events).render(10);
        assert!(summary.contains("6 rounds"), "{summary}");
        std::fs::remove_file(&path).ok();
    }
}
