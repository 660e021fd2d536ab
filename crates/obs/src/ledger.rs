//! The run ledger: one versioned identity record per run.
//!
//! A [`RunLedger`] is the parsed form of the [`Event::RunMeta`] header
//! that leads every `--obs` stream `TraceSession` writes. Its
//! job is *provable joinability*: two files describe the same run
//! exactly when their ledgers match on every identity field, and any
//! cross-file analysis (fedobs timelines, fedperf baselines) can refuse
//! mismatched inputs instead of silently comparing apples to oranges.

use fedprox_telemetry::event::Event;

/// The identity of one run, as recorded in its JSONL headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLedger {
    /// Ledger schema version.
    pub version: u32,
    /// FNV-1a 64 digest of the canonical config description.
    pub config: String,
    /// Master seed.
    pub seed: u64,
    /// Tensor-kernel selector active for the run.
    pub kernel: String,
    /// Digest of the fault-plan description (empty-string digest when
    /// fault-free).
    pub faults: String,
    /// Comma-joined compiled feature set.
    pub features: String,
    /// Comma-joined `crate=version` pairs.
    pub crates: String,
}

impl RunLedger {
    /// Extract the first `run_meta` header from an event stream.
    pub fn from_events(events: &[Event]) -> Option<RunLedger> {
        events.iter().find_map(|e| match e {
            Event::RunMeta { version, config, seed, kernel, faults, features, crates } => {
                Some(RunLedger {
                    version: *version,
                    config: config.clone(),
                    seed: *seed,
                    kernel: kernel.clone(),
                    faults: faults.clone(),
                    features: features.clone(),
                    crates: crates.clone(),
                })
            }
            _ => None,
        })
    }

    /// The ledger as its event form (for re-emission into a sink).
    pub fn to_event(&self) -> Event {
        Event::RunMeta {
            version: self.version,
            config: self.config.clone(),
            seed: self.seed,
            kernel: self.kernel.clone(),
            faults: self.faults.clone(),
            features: self.features.clone(),
            crates: self.crates.clone(),
        }
    }

    /// Field-by-field comparison: `(field, self's value, other's
    /// value)` for every differing field, in a fixed field order.
    /// Empty exactly when the two runs are provably joinable.
    pub fn diff(&self, other: &RunLedger) -> Vec<(&'static str, String, String)> {
        let mut out = Vec::new();
        let mut cmp = |field: &'static str, a: String, b: String| {
            if a != b {
                out.push((field, a, b));
            }
        };
        cmp("version", self.version.to_string(), other.version.to_string());
        cmp("config", self.config.clone(), other.config.clone());
        cmp("seed", self.seed.to_string(), other.seed.to_string());
        cmp("kernel", self.kernel.clone(), other.kernel.clone());
        cmp("faults", self.faults.clone(), other.faults.clone());
        cmp("features", self.features.clone(), other.features.clone());
        cmp("crates", self.crates.clone(), other.crates.clone());
        out
    }

    /// One-line rendering for `fedobs ledger` listings.
    pub fn render_line(&self) -> String {
        format!(
            "v{} config={} seed={} kernel={} faults={} features=[{}] crates=[{}]",
            self.version, self.config, self.seed, self.kernel, self.faults, self.features,
            self.crates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> RunLedger {
        RunLedger {
            version: 1,
            config: "9e3779b97f4a7c15".into(),
            seed: 42,
            kernel: "tiled-par".into(),
            faults: "cbf29ce484222325".into(),
            features: "telemetry".into(),
            crates: "fedprox=0.1.0".into(),
        }
    }

    #[test]
    fn roundtrips_through_its_event() {
        let l = ledger();
        let events = vec![
            Event::RoundEnd { round: 0, sim_time_s: 1.0 },
            l.to_event(),
        ];
        assert_eq!(RunLedger::from_events(&events), Some(l));
    }

    #[test]
    fn absent_header_yields_none() {
        assert_eq!(
            RunLedger::from_events(&[Event::RoundEnd { round: 0, sim_time_s: 1.0 }]),
            None
        );
    }

    #[test]
    fn diff_is_empty_for_identical_runs() {
        assert!(ledger().diff(&ledger()).is_empty());
    }

    #[test]
    fn diff_names_every_differing_field() {
        let mut b = ledger();
        b.seed = 7;
        b.kernel = "reference".into();
        let d = ledger().diff(&b);
        let fields: Vec<&str> = d.iter().map(|(f, _, _)| *f).collect();
        assert_eq!(fields, vec!["seed", "kernel"]);
        assert_eq!(d[0].1, "42");
        assert_eq!(d[0].2, "7");
    }
}
