//! Aggregated per-run summary: the `TelemetryReport`.
//!
//! Built either from a live collector drain or from a parsed JSONL
//! trace; `fedobs summary` renders it with
//! [`TelemetryReport::render`].

use crate::event::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate timing of one instrumented operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStat {
    /// Instrumented layer.
    pub layer: String,
    /// Operation name.
    pub name: String,
    /// Total activations.
    pub count: u64,
    /// Summed wall-clock duration in microseconds.
    pub total_micros: f64,
    /// Longest single activation in microseconds.
    pub max_micros: f64,
    /// Raw span events backing the percentile columns (a capped sample
    /// when the collector hit its buffer limit; can be far smaller than
    /// `count` when `span_stat` records are authoritative).
    pub samples: u64,
    /// Median activation in microseconds, computed from the raw span
    /// sample. `None` when fewer than two raw spans were recorded: a
    /// lone sample would report p50 == p95 == max and says nothing
    /// about the distribution.
    pub p50_micros: Option<f64>,
    /// 95th-percentile activation in microseconds (nearest-rank over
    /// the same raw sample as `p50_micros`; same two-sample guard).
    pub p95_micros: Option<f64>,
}

/// Per-device work and straggler summary (simulated seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStat {
    /// Device id.
    pub device: u32,
    /// Rounds this device participated in.
    pub rounds: u64,
    /// Total local compute time.
    pub compute_s: f64,
    /// Total `download + compute + upload`.
    pub finish_s: f64,
    /// Total straggler lag (finish minus round median; can be negative
    /// for consistently-fast devices).
    pub lag_s: f64,
    /// Worst single-round lag.
    pub max_lag_s: f64,
}

/// Traffic for one `(message kind, direction)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytesStat {
    /// Wire message kind.
    pub kind: String,
    /// `down` or `up`.
    pub direction: String,
    /// Total bytes including retransmissions.
    pub bytes: u64,
    /// Rounds contributing traffic of this kind.
    pub rounds: u64,
}

/// The aggregated per-run summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-op timing, sorted by total time descending.
    pub ops: Vec<OpStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Per-device summaries, sorted by total lag descending.
    pub devices: Vec<DeviceStat>,
    /// Traffic by message kind, sorted by bytes descending.
    pub bytes: Vec<BytesStat>,
    /// Histograms, sorted by name: `(name, bounds, counts)`.
    pub histograms: Vec<(String, Vec<f64>, Vec<u64>)>,
    /// Simulated rounds observed (`round_end` events).
    pub rounds: u64,
    /// Raw span events present in the trace.
    pub span_events: u64,
    /// Events discarded at the buffer cap.
    pub dropped: u64,
    /// Algorithm-health samples present in the trace (see `fedobs health`).
    pub health_samples: u64,
    /// Algorithm-health anomalies present in the trace (see `fedobs health`).
    pub anomalies: u64,
    /// Per-round participation records from resilient (fault-injected)
    /// runs.
    pub participation_rounds: u64,
    /// Rounds skipped for failing quorum.
    pub skipped_rounds: u64,
    /// Span-tree path aggregates present in the trace (see `fedobs prof`).
    pub path_stats: u64,
    /// Raw span records truncated at the buffer cap with no streaming
    /// sink attached (aggregates stay exact; raw percentiles are a
    /// partial sample).
    pub truncated_spans: u64,
    /// Run-ledger headers present in the trace: `(config digest, seed,
    /// kernel selector)` per `run_meta` record (see `fedobs ledger`).
    pub run_headers: Vec<(String, u64, String)>,
    /// Post-mortem markers present in the trace (see `fedobs postmortem`).
    pub postmortems: u64,
}

/// Nearest-rank percentile of a sorted sample; `None` below two
/// samples (a lone observation carries no distributional information).
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len() < 2 {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

impl TelemetryReport {
    /// Aggregate a flat event stream (live drain or parsed trace).
    ///
    /// `span_stat` records are authoritative for op timing when present
    /// (raw span events may have been capped); otherwise raw spans are
    /// aggregated directly.
    pub fn from_events(events: &[Event]) -> Self {
        let mut stats: BTreeMap<(String, String), OpStat> = BTreeMap::new();
        let mut raw: BTreeMap<(String, String), OpStat> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
        let mut devices: BTreeMap<u32, DeviceStat> = BTreeMap::new();
        let mut bytes: BTreeMap<(String, String), BytesStat> = BTreeMap::new();
        let mut histograms: BTreeMap<String, (Vec<f64>, Vec<u64>)> = BTreeMap::new();
        let mut durations: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        let mut rounds = 0u64;
        let mut span_events = 0u64;
        let mut dropped = 0u64;
        let mut health_samples = 0u64;
        let mut anomalies = 0u64;
        let mut participation_rounds = 0u64;
        let mut skipped_rounds = 0u64;
        let mut path_stats = 0u64;
        let mut truncated_spans = 0u64;
        let mut run_headers: Vec<(String, u64, String)> = Vec::new();
        let mut postmortems = 0u64;

        for ev in events {
            match ev {
                Event::Span { layer, name, micros, .. } => {
                    span_events += 1;
                    let key = (layer.clone(), name.clone());
                    durations.entry(key.clone()).or_default().push(*micros);
                    let e = raw.entry(key).or_insert_with(|| OpStat {
                        layer: layer.clone(),
                        name: name.clone(),
                        count: 0,
                        total_micros: 0.0,
                        max_micros: 0.0,
                        samples: 0,
                        p50_micros: None,
                        p95_micros: None,
                    });
                    e.count = e.count.saturating_add(1);
                    e.total_micros += micros;
                    e.max_micros = e.max_micros.max(*micros);
                }
                Event::SpanStat { layer, name, count, total_micros, max_micros } => {
                    let e = stats.entry((layer.clone(), name.clone())).or_insert_with(|| OpStat {
                        layer: layer.clone(),
                        name: name.clone(),
                        count: 0,
                        total_micros: 0.0,
                        max_micros: 0.0,
                        samples: 0,
                        p50_micros: None,
                        p95_micros: None,
                    });
                    e.count = e.count.saturating_add(*count);
                    e.total_micros += total_micros;
                    e.max_micros = e.max_micros.max(*max_micros);
                }
                Event::Counter { name, value } => {
                    let c = counters.entry(name.clone()).or_insert(0);
                    *c = c.saturating_add(*value);
                }
                Event::Gauge { name, value } => {
                    gauges.insert(name.clone(), *value);
                }
                Event::Histogram { name, bounds, counts } => {
                    let (b, c) = histograms
                        .entry(name.clone())
                        .or_insert_with(|| (bounds.clone(), vec![0; counts.len()]));
                    if b == bounds && c.len() == counts.len() {
                        for (acc, v) in c.iter_mut().zip(counts) {
                            *acc = acc.saturating_add(*v);
                        }
                    }
                }
                Event::DeviceRound { round: _, device, download_s: _, compute_s, upload_s: _, finish_s, lag_s } => {
                    let d = devices.entry(*device).or_insert_with(|| DeviceStat {
                        device: *device,
                        rounds: 0,
                        compute_s: 0.0,
                        finish_s: 0.0,
                        lag_s: 0.0,
                        max_lag_s: f64::NEG_INFINITY,
                    });
                    d.rounds = d.rounds.saturating_add(1);
                    d.compute_s += compute_s;
                    d.finish_s += finish_s;
                    d.lag_s += lag_s;
                    d.max_lag_s = d.max_lag_s.max(*lag_s);
                }
                Event::Bytes { round: _, kind, direction, bytes: b } => {
                    let e = bytes
                        .entry((kind.clone(), direction.clone()))
                        .or_insert_with(|| BytesStat {
                            kind: kind.clone(),
                            direction: direction.clone(),
                            bytes: 0,
                            rounds: 0,
                        });
                    e.bytes = e.bytes.saturating_add(*b);
                    e.rounds = e.rounds.saturating_add(1);
                }
                Event::RoundEnd { .. } => rounds = rounds.saturating_add(1),
                Event::Health { .. } => health_samples = health_samples.saturating_add(1),
                Event::Anomaly { .. } => anomalies = anomalies.saturating_add(1),
                Event::Participation { skipped, .. } => {
                    participation_rounds = participation_rounds.saturating_add(1);
                    if *skipped > 0 {
                        skipped_rounds = skipped_rounds.saturating_add(1);
                    }
                }
                Event::PathStat { .. } => path_stats = path_stats.saturating_add(1),
                Event::TraceTruncated { dropped_spans } => {
                    truncated_spans = truncated_spans.saturating_add(*dropped_spans);
                }
                Event::Dropped { count } => dropped = dropped.saturating_add(*count),
                Event::RunMeta { config, seed, kernel, .. } => {
                    run_headers.push((config.clone(), *seed, kernel.clone()));
                }
                Event::Postmortem { .. } => postmortems = postmortems.saturating_add(1),
            }
        }

        let mut ops: Vec<OpStat> =
            if stats.is_empty() { raw } else { stats }.into_values().collect();
        // Percentiles always come from the raw sample (span_stat records
        // carry no distribution), so attach them to whichever map won.
        for op in &mut ops {
            if let Some(sample) = durations.get_mut(&(op.layer.clone(), op.name.clone())) {
                sample.sort_by(f64::total_cmp);
                op.samples = sample.len() as u64;
                op.p50_micros = percentile(sample, 0.50);
                op.p95_micros = percentile(sample, 0.95);
            }
        }
        ops.sort_by(|a, b| {
            b.total_micros
                .total_cmp(&a.total_micros)
                .then_with(|| a.layer.cmp(&b.layer))
                .then_with(|| a.name.cmp(&b.name))
        });
        let mut devices: Vec<DeviceStat> = devices.into_values().collect();
        devices.sort_by(|a, b| b.lag_s.total_cmp(&a.lag_s).then_with(|| a.device.cmp(&b.device)));
        let mut bytes: Vec<BytesStat> = bytes.into_values().collect();
        bytes.sort_by(|a, b| {
            b.bytes.cmp(&a.bytes).then_with(|| (&a.kind, &a.direction).cmp(&(&b.kind, &b.direction)))
        });

        TelemetryReport {
            ops,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            devices,
            bytes,
            histograms: histograms.into_iter().map(|(n, (b, c))| (n, b, c)).collect(),
            rounds,
            span_events,
            dropped,
            health_samples,
            anomalies,
            participation_rounds,
            skipped_rounds,
            path_stats,
            truncated_spans,
            run_headers,
            postmortems,
        }
    }

    /// Render the top-`top_n` tables as plain text.
    pub fn render(&self, top_n: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fedtrace summary: {} rounds, {} raw span events, {} dropped",
            self.rounds, self.span_events, self.dropped
        );
        for (config, seed, kernel) in &self.run_headers {
            let _ = writeln!(s, "run: config={config} seed={seed} kernel={kernel}");
        }
        if self.postmortems > 0 {
            let _ = writeln!(
                s,
                "post-mortem: {} trigger(s) in trace (see `fedobs postmortem`)",
                self.postmortems
            );
        }
        if self.health_samples > 0 || self.anomalies > 0 {
            let _ = writeln!(
                s,
                "health: {} samples, {} anomalies (see `fedobs health` for the full report)",
                self.health_samples, self.anomalies
            );
        }
        if self.participation_rounds > 0 {
            let _ = writeln!(
                s,
                "participation: {} resilient rounds, {} skipped below quorum",
                self.participation_rounds, self.skipped_rounds
            );
        }
        if self.path_stats > 0 {
            let _ = writeln!(
                s,
                "profile: {} span-tree paths (see `fedobs prof report` for the tree)",
                self.path_stats
            );
        }
        if self.truncated_spans > 0 {
            let _ = writeln!(
                s,
                "warning: {} raw span records truncated at the buffer cap \
                 (aggregates are exact; percentiles are a partial sample)",
                self.truncated_spans
            );
        }

        if !self.ops.is_empty() {
            let _ = writeln!(s, "\n== slowest ops (top {top_n} by total time) ==");
            let _ = writeln!(
                s,
                "{:<8} {:<16} {:>10} {:>12} {:>10} {:>8} {:>10} {:>10} {:>10}",
                "layer", "op", "count", "total_ms", "mean_us", "n", "p50_us", "p95_us", "max_us"
            );
            let fmt_pct = |p: Option<f64>| match p {
                Some(v) => format!("{v:>10.2}"),
                None => format!("{:>10}", "-"),
            };
            for op in self.ops.iter().take(top_n) {
                let mean = if op.count > 0 { op.total_micros / op.count as f64 } else { 0.0 };
                let _ = writeln!(
                    s,
                    "{:<8} {:<16} {:>10} {:>12.3} {:>10.2} {:>8} {} {} {:>10.2}",
                    op.layer,
                    op.name,
                    op.count,
                    op.total_micros / 1000.0,
                    mean,
                    op.samples,
                    fmt_pct(op.p50_micros),
                    fmt_pct(op.p95_micros),
                    op.max_micros
                );
            }
        }

        if !self.devices.is_empty() {
            let _ = writeln!(s, "\n== busiest devices (top {top_n} by straggler lag) ==");
            let _ = writeln!(
                s,
                "{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "device", "rounds", "compute_s", "finish_s", "lag_s", "max_lag_s"
            );
            for d in self.devices.iter().take(top_n) {
                let _ = writeln!(
                    s,
                    "{:<8} {:>8} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                    d.device, d.rounds, d.compute_s, d.finish_s, d.lag_s, d.max_lag_s
                );
            }
        }

        if !self.bytes.is_empty() {
            let _ = writeln!(s, "\n== bytes by message kind ==");
            let _ = writeln!(s, "{:<16} {:<6} {:>14} {:>8}", "kind", "dir", "bytes", "rounds");
            for b in &self.bytes {
                let _ = writeln!(
                    s,
                    "{:<16} {:<6} {:>14} {:>8}",
                    b.kind, b.direction, b.bytes, b.rounds
                );
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(s, "\n== counters ==");
            for (name, value) in &self.counters {
                let _ = writeln!(s, "{name:<32} {value:>14}");
            }
        }

        if !self.gauges.is_empty() {
            let _ = writeln!(s, "\n== gauges ==");
            for (name, value) in &self.gauges {
                let _ = writeln!(s, "{name:<32} {value:>14}");
            }
        }

        if !self.histograms.is_empty() {
            let _ = writeln!(s, "\n== histograms ==");
            for (name, bounds, counts) in &self.histograms {
                let _ = writeln!(s, "{name}:");
                let mut lo = f64::NEG_INFINITY;
                for (i, c) in counts.iter().enumerate() {
                    let hi = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                    if *c > 0 {
                        let _ = writeln!(s, "  ({lo:>9.3e}, {hi:>9.3e}] {c:>10}");
                    }
                    lo = hi;
                }
            }
        }

        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Event> {
        vec![
            Event::Span {
                layer: "tensor".into(),
                name: "softmax".into(),
                micros: 5.0,
                attrs: vec![],
            },
            Event::SpanStat {
                layer: "tensor".into(),
                name: "softmax".into(),
                count: 10,
                total_micros: 55.0,
                max_micros: 9.0,
            },
            Event::SpanStat {
                layer: "core".into(),
                name: "round".into(),
                count: 2,
                total_micros: 900.0,
                max_micros: 600.0,
            },
            Event::Counter { name: "optim.inner_step".into(), value: 40 },
            Event::DeviceRound {
                round: 0,
                device: 0,
                download_s: 0.05,
                compute_s: 0.2,
                upload_s: 0.05,
                finish_s: 0.3,
                lag_s: -0.1,
            },
            Event::DeviceRound {
                round: 0,
                device: 1,
                download_s: 0.05,
                compute_s: 0.5,
                upload_s: 0.05,
                finish_s: 0.6,
                lag_s: 0.2,
            },
            Event::Bytes { round: 0, kind: "global_model".into(), direction: "down".into(), bytes: 100 },
            Event::Bytes { round: 0, kind: "local_model".into(), direction: "up".into(), bytes: 140 },
            Event::RoundEnd { round: 0, sim_time_s: 0.7 },
            Event::Dropped { count: 3 },
        ]
    }

    #[test]
    fn span_stats_override_raw_spans() {
        let r = TelemetryReport::from_events(&trace());
        // `span_stat` present → raw span ignored for op totals.
        let softmax = r.ops.iter().find(|o| o.name == "softmax").unwrap();
        assert_eq!(softmax.count, 10);
        assert_eq!(r.span_events, 1);
        // Sorted by total time descending: core.round first.
        assert_eq!(r.ops[0].name, "round");
    }

    #[test]
    fn raw_spans_used_when_no_stats() {
        let events = vec![
            Event::Span { layer: "t".into(), name: "a".into(), micros: 3.0, attrs: vec![] },
            Event::Span { layer: "t".into(), name: "a".into(), micros: 7.0, attrs: vec![] },
        ];
        let r = TelemetryReport::from_events(&events);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.ops[0].count, 2);
        assert!((r.ops[0].total_micros - 10.0).abs() < 1e-12);
        // Two samples clear the count guard.
        assert_eq!(r.ops[0].samples, 2);
        assert_eq!(r.ops[0].p50_micros, Some(3.0));
    }

    #[test]
    fn percentiles_from_raw_spans() {
        // 1..=100 µs: nearest-rank p50 = 50, p95 = 95.
        let events: Vec<Event> = (1..=100)
            .map(|i| Event::Span {
                layer: "t".into(),
                name: "a".into(),
                micros: i as f64,
                attrs: vec![],
            })
            .collect();
        let r = TelemetryReport::from_events(&events);
        assert_eq!(r.ops[0].samples, 100);
        assert_eq!(r.ops[0].p50_micros, Some(50.0));
        assert_eq!(r.ops[0].p95_micros, Some(95.0));
    }

    #[test]
    fn percentiles_attach_to_span_stats_when_raw_present() {
        let r = TelemetryReport::from_events(&trace());
        // softmax has one raw span (5.0 µs) plus an authoritative stat:
        // totals come from the stat; a lone raw sample is below the
        // percentile count guard, so the columns stay empty rather than
        // reporting p50 == p95 from one observation.
        let softmax = r.ops.iter().find(|o| o.name == "softmax").unwrap();
        assert_eq!(softmax.count, 10);
        assert_eq!(softmax.samples, 1);
        assert_eq!(softmax.p50_micros, None);
        assert_eq!(softmax.p95_micros, None);
        // core.round has no raw spans at all → no percentiles.
        let round = r.ops.iter().find(|o| o.name == "round").unwrap();
        assert_eq!(round.samples, 0);
        assert_eq!(round.p50_micros, None);
    }

    #[test]
    fn single_sample_has_no_percentiles_but_reports_n() {
        let events =
            vec![Event::Span { layer: "t".into(), name: "solo".into(), micros: 5.0, attrs: vec![] }];
        let r = TelemetryReport::from_events(&events);
        assert_eq!(r.ops[0].samples, 1);
        assert_eq!(r.ops[0].p50_micros, None);
        assert_eq!(r.ops[0].p95_micros, None);
        // The table carries an explicit sample-size column and renders
        // the guarded percentiles as "-".
        let text = r.render(5);
        let header = text.lines().find(|l| l.contains("p50_us")).expect("ops header");
        assert!(header.contains(" n "), "missing n column in {header:?}");
        let row = text.lines().find(|l| l.contains("solo")).expect("ops row");
        assert!(row.contains('-'), "guarded percentile must render as '-': {row:?}");
    }

    #[test]
    fn run_headers_and_postmortems_surface() {
        let events = vec![
            Event::RunMeta {
                version: 1,
                config: "9e3779b97f4a7c15".into(),
                seed: 7,
                kernel: "tiled-par".into(),
                faults: "0".into(),
                features: "telemetry".into(),
                crates: "fedprox=0.1.0".into(),
            },
            Event::Postmortem { round: 3, reason: "quorum_skip".into(), device: Some(1) },
        ];
        let r = TelemetryReport::from_events(&events);
        assert_eq!(r.run_headers, vec![("9e3779b97f4a7c15".to_string(), 7, "tiled-par".to_string())]);
        assert_eq!(r.postmortems, 1);
        let text = r.render(5);
        assert!(text.contains("config=9e3779b97f4a7c15"));
        assert!(text.contains("fedobs postmortem"));
    }

    #[test]
    fn health_events_counted() {
        let mut events = trace();
        events.push(Event::Health {
            round: 1,
            train_loss: 0.5,
            loss_delta: 0.0,
            grad_norm_sq: 0.1,
            theta: None,
            theta_lo: None,
            theta_hi: None,
            bound: None,
            dir_mean_sq: 0.0,
            dir_m2: 0.0,
            dir_anchor_sq: 0.0,
            dir_steps: 0,
            skew: None,
        });
        events.push(Event::Anomaly {
            round: 1,
            rule: crate::event::AnomalyRule::LossGuard,
            device: None,
            value: 2.0,
            limit: 1.0,
        });
        let r = TelemetryReport::from_events(&events);
        assert_eq!(r.health_samples, 1);
        assert_eq!(r.anomalies, 1);
        assert!(r.render(5).contains("1 anomalies"));
    }

    #[test]
    fn devices_sorted_by_lag() {
        let r = TelemetryReport::from_events(&trace());
        assert_eq!(r.devices[0].device, 1);
        assert!((r.devices[0].lag_s - 0.2).abs() < 1e-12);
        assert_eq!(r.devices[0].rounds, 1);
    }

    #[test]
    fn bytes_and_counters_aggregate() {
        let r = TelemetryReport::from_events(&trace());
        assert_eq!(r.bytes[0].kind, "local_model");
        assert_eq!(r.bytes[0].bytes, 140);
        assert_eq!(r.counters, vec![("optim.inner_step".to_string(), 40)]);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.dropped, 3);
    }

    #[test]
    fn render_contains_all_tables() {
        let text = TelemetryReport::from_events(&trace()).render(5);
        for needle in
            ["slowest ops", "busiest devices", "bytes by message kind", "counters", "global_model"]
        {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let text = TelemetryReport::from_events(&[]).render(5);
        assert!(text.contains("0 rounds"));
        assert!(!text.contains("slowest ops"));
    }
}
