//! The global in-process collector (compiled only with the `enabled`
//! feature).
//!
//! Recording is a two-stage gate: the `telemetry` cargo feature compiles
//! the instrumentation in, and the runtime **armed** flag turns it on for
//! a particular run (`--obs` arms it; tests arm it explicitly).
//! While disarmed, every hook is a single relaxed atomic load.
//!
//! Raw events are buffered up to a cap; with a streaming sink attached
//! (see [`stream_to`]) the buffers spill to disk instead of dropping, so
//! memory stays bounded for arbitrarily long runs. Aggregates (span
//! stats, span-tree path stats, counters, gauges, histograms) are
//! updated for every activation and are therefore exact regardless of
//! the caps.
//!
//! # Span trees
//!
//! Every armed [`SpanGuard`] pushes a frame onto a thread-local scope
//! stack, giving `span!` scopes parent/child identity without any
//! cross-thread coordination. When a span closes, its **path** (the
//! `/`-joined chain of span names from the outermost open scope down)
//! is credited with the activation: total time, *self* time (total
//! minus time spent in child spans), and — when an allocation probe is
//! installed (see [`install_alloc_probe`]) — bytes and allocator calls
//! attributed the same way. Telemetry's own allocations are measured
//! and subtracted via a thread-local excluded-bytes ledger, so the
//! allocator columns describe the instrumented program, not the
//! instrumentation, and stay bitwise-reproducible for single-threaded
//! runs.
//!
//! This module is the only place outside `crates/net/src/clock.rs` where
//! wall-clock time may be read (fedlint rule `no-wall-clock`): wall
//! durations are observations about the host, never inputs to training.

use crate::event::Event;
use crate::jsonl;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Raw span events kept verbatim before capping (or spilling to the
/// streaming sink, when one is attached). Public so integration tests
/// can overflow the buffer deliberately and check the truncation
/// accounting end to end.
pub const SPAN_EVENT_CAP: usize = 65_536;
/// Structured run events (device rounds, bytes, round ends) kept before
/// capping; sized for thousands of rounds over hundreds of devices.
const RUN_EVENT_CAP: usize = 1 << 20;
/// Flight-recorder depth: the most recent K structured run events are
/// kept in a bounded ring regardless of the caps above, so a post-mortem
/// window survives even when the raw buffers spill or drop. Events in
/// the ring are simulation observations (virtual clock, fault plan), so
/// the ring contents are bitwise-reproducible across same-seed runs.
pub const FLIGHT_RING_CAP: usize = 256;

/// Upper bucket bounds shared by every histogram (seconds-scale at the
/// low end through kilo-units at the top; the unit is the metric's).
pub const HISTOGRAM_BOUNDS: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

// ---------------------------------------------------------------------------
// Allocation probe
// ---------------------------------------------------------------------------

/// The installed `fn() -> (bytes, calls)` probe, stored as a raw fn
/// pointer (`0` = none installed).
static ALLOC_PROBE: AtomicUsize = AtomicUsize::new(0);

/// Install a cumulative-allocation probe: a function returning the
/// process-wide `(bytes_requested, allocator_calls)` totals so far —
/// typically `fedprox-perfbench`'s counting global allocator. Spans
/// closed afterwards attribute allocation deltas to their tree path.
/// Install **before** arming; spans opened across an install observe a
/// bogus first delta.
pub fn install_alloc_probe(probe: fn() -> (u64, u64)) {
    ALLOC_PROBE.store(probe as usize, Ordering::SeqCst);
}

/// Whether an allocation probe is installed.
pub fn alloc_probe_installed() -> bool {
    ALLOC_PROBE.load(Ordering::Relaxed) != 0
}

/// Current probe reading; `(0, 0)` when no probe is installed.
fn alloc_now() -> (u64, u64) {
    let raw = ALLOC_PROBE.load(Ordering::Relaxed);
    if raw == 0 {
        return (0, 0);
    }
    // The only non-zero store is `install_alloc_probe`.
    // SAFETY: `raw` was written as a valid `fn() -> (u64, u64)` pointer.
    let probe: fn() -> (u64, u64) = unsafe { std::mem::transmute(raw) };
    probe()
}

// ---------------------------------------------------------------------------
// Thread-local scope stack + excluded-allocation ledger
// ---------------------------------------------------------------------------

/// One open span on this thread's scope stack.
struct Frame {
    /// Span name (the path segment).
    name: &'static str,
    /// Wall time accumulated by already-closed child spans, in µs.
    child_micros: f64,
    /// Probe reading when the span opened.
    probe_bytes: u64,
    probe_calls: u64,
    /// Excluded-ledger reading when the span opened.
    excl_bytes: u64,
    excl_calls: u64,
    /// Measured (probe − excluded) allocation of closed child spans.
    child_bytes: u64,
    child_calls: u64,
}

/// Telemetry-internal allocation ledger: cumulative bytes/calls the
/// collector itself allocated on this thread, subtracted from every
/// span's probe delta so the alloc columns describe the program. The
/// depth cell guards re-entrant [`excluded`] scopes against
/// double-counting.
struct ExclLedger {
    depth: Cell<u32>,
    bytes: Cell<u64>,
    calls: Cell<u64>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static EXCLUDED: ExclLedger =
        const { ExclLedger { depth: Cell::new(0), bytes: Cell::new(0), calls: Cell::new(0) } };
}

/// Run `f`, crediting any allocation it performs (as seen by the probe)
/// to the excluded ledger. Only the outermost nested scope measures.
fn excluded<R>(f: impl FnOnce() -> R) -> R {
    let outer = EXCLUDED.with(|e| {
        let d = e.depth.get();
        e.depth.set(d + 1);
        d == 0
    });
    let before = if outer { alloc_now() } else { (0, 0) };
    let r = f();
    EXCLUDED.with(|e| {
        e.depth.set(e.depth.get().saturating_sub(1));
        if outer {
            let after = alloc_now();
            e.bytes.set(e.bytes.get().saturating_add(after.0.saturating_sub(before.0)));
            e.calls.set(e.calls.get().saturating_add(after.1.saturating_sub(before.1)));
        }
    });
    r
}

/// Current excluded-ledger totals for this thread.
fn excluded_totals() -> (u64, u64) {
    EXCLUDED.with(|e| (e.bytes.get(), e.calls.get()))
}

// ---------------------------------------------------------------------------
// Collector state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_micros: f64,
    max_micros: f64,
}

/// Exact aggregate of one span-tree path.
#[derive(Clone, Copy, Default)]
struct PathAgg {
    count: u64,
    total_micros: f64,
    self_micros: f64,
    max_micros: f64,
    total_bytes: u64,
    self_bytes: u64,
    total_allocs: u64,
    self_allocs: u64,
}

struct SpanRec {
    layer: &'static str,
    name: &'static str,
    micros: f64,
    attrs: Vec<(&'static str, f64)>,
}

impl SpanRec {
    fn to_event(&self) -> Event {
        Event::Span {
            layer: self.layer.to_string(),
            name: self.name.to_string(),
            micros: self.micros,
            attrs: self.attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

struct Inner {
    span_recs: Vec<SpanRec>,
    run_events: Vec<Event>,
    dropped: u64,
    /// Raw span records discarded at the cap with no sink attached.
    truncated_spans: u64,
    spans: BTreeMap<(&'static str, &'static str), SpanAgg>,
    paths: BTreeMap<String, PathAgg>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, [u64; HISTOGRAM_BOUNDS.len() + 1]>,
    /// Incremental JSONL sink; buffered raw/run events flush here on
    /// every `RoundEnd` and whenever a buffer cap is hit.
    stream: Option<std::io::BufWriter<std::fs::File>>,
    /// Flight recorder: the most recent [`FLIGHT_RING_CAP`] structured
    /// run events, kept even after spills/drops so a post-mortem window
    /// always exists.
    flight: VecDeque<Event>,
    /// Ring snapshot captured at the *first* post-mortem trigger of the
    /// run (divergence or quorum skip); later triggers don't overwrite
    /// it, so the bundle describes the original failure.
    postmortem: Option<Vec<Event>>,
}

impl Inner {
    const fn new() -> Self {
        Inner {
            span_recs: Vec::new(),
            run_events: Vec::new(),
            dropped: 0,
            truncated_spans: 0,
            spans: BTreeMap::new(),
            paths: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            stream: None,
            flight: VecDeque::new(),
            postmortem: None,
        }
    }

    /// Write every buffered raw/run event to the streaming sink and
    /// clear the buffers. On any I/O error the sink is detached and
    /// buffering falls back to the in-memory caps (telemetry must never
    /// panic or print from library code).
    fn flush_stream(&mut self) {
        let Some(mut w) = self.stream.take() else { return };
        let mut ok = true;
        for e in self.run_events.drain(..) {
            let mut line = jsonl::write_line(&e);
            line.push('\n');
            if w.write_all(line.as_bytes()).is_err() {
                ok = false;
                break;
            }
        }
        if ok {
            for r in self.span_recs.drain(..) {
                let mut line = jsonl::write_line(&r.to_event());
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() {
                    ok = false;
                    break;
                }
            }
        }
        if ok && w.flush().is_ok() {
            self.stream = Some(w);
        }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INNER: Mutex<Inner> = Mutex::new(Inner::new());

fn lock() -> MutexGuard<'static, Inner> {
    // A panic while holding the lock (e.g. an instrumented worker dying)
    // must not wedge telemetry for the rest of the process.
    INNER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clear all recorded state and start recording. Detaches any streaming
/// sink — attach one with [`stream_to`] *after* arming.
pub fn arm() {
    reset();
    ARMED.store(true, Ordering::SeqCst);
}

/// Stop recording (recorded state is kept until [`reset`] or [`drain`]).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether the collector is currently recording.
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Discard all recorded state (and detach any streaming sink).
pub fn reset() {
    *lock() = Inner::new();
}

/// Attach an incremental JSONL sink: buffered raw span and run events
/// are appended to `path` on every `RoundEnd` and whenever a buffer cap
/// would otherwise drop records, keeping collector memory bounded for
/// long runs. Call after [`arm`] (arming resets the sink). The trailing
/// aggregate records come from [`drain`] at the end of the run; a
/// complete trace file is the streamed lines plus the drained tail
/// (see [`finish_stream`]).
pub fn stream_to(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    lock().stream = Some(std::io::BufWriter::new(file));
    Ok(())
}

/// Whether a streaming sink is currently attached.
pub fn streaming() -> bool {
    lock().stream.is_some()
}

/// Take everything recorded so far as a flat event stream: structured
/// run events first (in arrival order), then raw spans, then the exact
/// aggregates (flat span stats, span-tree path stats, counters, gauges,
/// histograms), then trailing `TraceTruncated` / `Dropped` markers if
/// any cap was hit. Leaves the collector empty; the armed flag is
/// untouched.
///
/// With a streaming sink attached, buffered raw/run events are flushed
/// to the sink (which is then closed) instead of being returned: the
/// returned events are exactly the aggregate tail the caller should
/// append to the streamed file.
pub fn drain() -> Vec<Event> {
    let mut inner = {
        let mut g = lock();
        std::mem::replace(&mut *g, Inner::new())
    };
    if inner.stream.is_some() {
        inner.flush_stream();
        // Drop (close) the sink; remaining events go to the caller.
        inner.stream = None;
    }
    let mut out = Vec::with_capacity(
        inner.run_events.len() + inner.span_recs.len() + inner.spans.len() + inner.paths.len() + 8,
    );
    out.extend(inner.run_events);
    for r in inner.span_recs {
        out.push(r.to_event());
    }
    for ((layer, name), agg) in inner.spans {
        out.push(Event::SpanStat {
            layer: layer.to_string(),
            name: name.to_string(),
            count: agg.count,
            total_micros: agg.total_micros,
            max_micros: agg.max_micros,
        });
    }
    for (path, agg) in inner.paths {
        out.push(Event::PathStat {
            path,
            count: agg.count,
            total_micros: agg.total_micros,
            self_micros: agg.self_micros,
            max_micros: agg.max_micros,
            total_bytes: agg.total_bytes,
            self_bytes: agg.self_bytes,
            total_allocs: agg.total_allocs,
            self_allocs: agg.self_allocs,
        });
    }
    for (name, value) in inner.counters {
        out.push(Event::Counter { name: name.to_string(), value });
    }
    for (name, value) in inner.gauges {
        out.push(Event::Gauge { name: name.to_string(), value });
    }
    for (name, counts) in inner.hists {
        out.push(Event::Histogram {
            name: name.to_string(),
            bounds: HISTOGRAM_BOUNDS.to_vec(),
            counts: counts.to_vec(),
        });
    }
    if inner.truncated_spans > 0 {
        out.push(Event::TraceTruncated { dropped_spans: inner.truncated_spans });
    }
    if inner.dropped > 0 {
        out.push(Event::Dropped { count: inner.dropped });
    }
    out
}

/// Complete the observability file at `path`: drain and disarm the
/// collector, then append the aggregate tail when `streamed` (the raw
/// events are already on disk through [`stream_to`]) or write the whole
/// drained record when the sink never attached. Every `--obs` writer
/// ends its run here, so they all produce the same stream.
pub fn finish_stream(path: &str, streamed: bool) -> std::io::Result<()> {
    let events = drain();
    disarm();
    let text = jsonl::to_jsonl(&events);
    if streamed {
        std::fs::OpenOptions::new().append(true).open(path)?.write_all(text.as_bytes())
    } else {
        std::fs::write(path, text)
    }
}

/// Add `delta` to a named counter (saturating). No-op while disarmed.
pub fn add_counter(name: &'static str, delta: u64) {
    if !is_armed() {
        return;
    }
    excluded(|| {
        let mut g = lock();
        let c = g.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    });
}

/// Set a named gauge (last write wins). No-op while disarmed.
pub fn set_gauge(name: &'static str, value: f64) {
    if !is_armed() {
        return;
    }
    excluded(|| {
        lock().gauges.insert(name, value);
    });
}

/// Record one sample into a named fixed-bucket histogram.
pub fn record_histogram(name: &'static str, value: f64) {
    if !is_armed() {
        return;
    }
    let bucket = HISTOGRAM_BOUNDS
        .iter()
        .position(|b| value <= *b)
        .unwrap_or(HISTOGRAM_BOUNDS.len());
    excluded(|| {
        let mut g = lock();
        let counts = g.hists.entry(name).or_insert([0; HISTOGRAM_BOUNDS.len() + 1]);
        counts[bucket] = counts[bucket].saturating_add(1);
    });
}

/// Push a structured run event (device round, bytes, round end). No-op
/// while disarmed. A `RoundEnd` flushes the streaming sink, giving live
/// consumers a round-granular tail to follow; past the buffer cap,
/// events spill to the sink or are counted as dropped.
pub fn record_event(event: Event) {
    if !is_armed() {
        return;
    }
    let round_end = matches!(event, Event::RoundEnd { .. });
    excluded(|| {
        let mut g = lock();
        // The flight ring sees every armed event, including ones the
        // main buffer is about to drop: the ring *is* the record of
        // last resort.
        if g.flight.len() >= FLIGHT_RING_CAP {
            g.flight.pop_front();
        }
        g.flight.push_back(event.clone());
        if g.run_events.len() >= RUN_EVENT_CAP {
            if g.stream.is_some() {
                g.flush_stream();
            } else {
                g.dropped = g.dropped.saturating_add(1);
                return;
            }
        }
        g.run_events.push(event);
        if round_end && g.stream.is_some() {
            g.flush_stream();
        }
    });
}

/// Snapshot of the flight-recorder ring: the most recent (up to
/// [`FLIGHT_RING_CAP`]) structured run events in arrival order. Empty
/// while disarmed or before any event.
pub fn flight_snapshot() -> Vec<Event> {
    excluded(|| lock().flight.iter().cloned().collect())
}

/// Fire the flight recorder: snapshot the ring (first trigger wins) and
/// record an in-stream [`Event::Postmortem`] marker so offline tooling
/// can locate the failure window inside the JSONL file. `round` is
/// 1-based; `reason` is one of `non_finite` / `loss_guard` /
/// `quorum_skip`; `device` names the attributed device when one exists.
/// No-op while disarmed.
pub fn trigger_postmortem(reason: &str, round: u32, device: Option<u32>) {
    if !is_armed() {
        return;
    }
    excluded(|| {
        let mut g = lock();
        if g.postmortem.is_none() {
            let snap: Vec<Event> = g.flight.iter().cloned().collect();
            g.postmortem = Some(snap);
        }
    });
    record_event(Event::Postmortem { round, reason: reason.to_string(), device });
}

/// The ring snapshot captured at the first post-mortem trigger, if any
/// fired this run. Non-consuming; cleared by [`reset`]/[`arm`]/[`drain`].
pub fn postmortem_snapshot() -> Option<Vec<Event>> {
    excluded(|| lock().postmortem.clone())
}

/// Current value of a counter (0 if never touched). Test helper: lets
/// exact-count assertions read totals without draining.
pub fn counter_value(name: &str) -> u64 {
    lock().counters.get(name).copied().unwrap_or(0)
}

/// Exact activation count of a `(layer, name)` span so far.
pub fn span_count(layer: &str, name: &str) -> u64 {
    lock()
        .spans
        .iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map(|(_, agg)| agg.count)
        .unwrap_or(0)
}

/// Exact activation count of a span-tree path so far. Test helper.
pub fn path_count(path: &str) -> u64 {
    lock().paths.get(path).map(|agg| agg.count).unwrap_or(0)
}

/// Everything measured about one closed span, recorded under one lock.
struct ClosedSpan {
    layer: &'static str,
    name: &'static str,
    attrs: Vec<(&'static str, f64)>,
    path: String,
    micros: f64,
    self_micros: f64,
    bytes: u64,
    self_bytes: u64,
    calls: u64,
    self_calls: u64,
}

fn record_closed_span(c: ClosedSpan) {
    if !is_armed() {
        return;
    }
    let mut g = lock();
    let agg = g.spans.entry((c.layer, c.name)).or_default();
    agg.count = agg.count.saturating_add(1);
    agg.total_micros += c.micros;
    agg.max_micros = agg.max_micros.max(c.micros);
    let pa = g.paths.entry(c.path).or_default();
    pa.count = pa.count.saturating_add(1);
    pa.total_micros += c.micros;
    pa.self_micros += c.self_micros;
    pa.max_micros = pa.max_micros.max(c.micros);
    pa.total_bytes = pa.total_bytes.saturating_add(c.bytes);
    pa.self_bytes = pa.self_bytes.saturating_add(c.self_bytes);
    pa.total_allocs = pa.total_allocs.saturating_add(c.calls);
    pa.self_allocs = pa.self_allocs.saturating_add(c.self_calls);
    if g.span_recs.len() >= SPAN_EVENT_CAP {
        if g.stream.is_some() {
            g.flush_stream();
        } else {
            // No sink: the raw sample is truncated (aggregates above
            // stay exact); a TraceTruncated marker surfaces it.
            g.truncated_spans = g.truncated_spans.saturating_add(1);
            return;
        }
    }
    g.span_recs.push(SpanRec { layer: c.layer, name: c.name, micros: c.micros, attrs: c.attrs });
}

/// RAII guard recording a wall-clock span from construction to drop.
/// Use through the `span!` macro, which binds it to a scope-local.
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    layer: &'static str,
    name: &'static str,
    attrs: Vec<(&'static str, f64)>,
    start: Instant,
}

impl SpanGuard {
    /// Start a span; returns an inert guard while disarmed. Armed
    /// guards push a frame onto this thread's scope stack, parenting
    /// any span opened before this one drops.
    pub fn begin(layer: &'static str, name: &'static str, attrs: &[(&'static str, f64)]) -> Self {
        if !is_armed() {
            return SpanGuard(None);
        }
        let attrs = excluded(|| attrs.to_vec());
        // Snapshot the probe and ledger, then push the frame inside an
        // excluded scope: the push's own allocation lands in the ledger
        // after the snapshot, so the frame's window nets it out.
        let (probe_bytes, probe_calls) = alloc_now();
        let (excl_bytes, excl_calls) = excluded_totals();
        excluded(|| {
            STACK.with(|s| {
                s.borrow_mut().push(Frame {
                    name,
                    child_micros: 0.0,
                    probe_bytes,
                    probe_calls,
                    excl_bytes,
                    excl_calls,
                    child_bytes: 0,
                    child_calls: 0,
                })
            })
        });
        SpanGuard(Some(ActiveSpan { layer, name, attrs, start: Instant::now() }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let micros = a.start.elapsed().as_secs_f64() * 1e6;
        let (probe_bytes, probe_calls) = alloc_now();
        let (excl_bytes, excl_calls) = excluded_totals();
        // The stack is strictly LIFO per thread (RAII scopes), so the
        // top frame is ours. Pop unconditionally to stay balanced even
        // if the collector was disarmed or reset mid-span.
        let frame = STACK.with(|s| s.borrow_mut().pop());
        let Some(f) = frame else { return };
        let bytes = probe_bytes
            .saturating_sub(f.probe_bytes)
            .saturating_sub(excl_bytes.saturating_sub(f.excl_bytes));
        let calls = probe_calls
            .saturating_sub(f.probe_calls)
            .saturating_sub(excl_calls.saturating_sub(f.excl_calls));
        excluded(|| {
            // Credit totals to the parent's child accumulators, then
            // record under the full path.
            STACK.with(|s| {
                if let Some(p) = s.borrow_mut().last_mut() {
                    p.child_micros += micros;
                    p.child_bytes = p.child_bytes.saturating_add(bytes);
                    p.child_calls = p.child_calls.saturating_add(calls);
                }
            });
            let path = STACK.with(|s| {
                let stack = s.borrow();
                let mut path = String::with_capacity(
                    stack.iter().map(|fr| fr.name.len() + 1).sum::<usize>() + a.name.len(),
                );
                for fr in stack.iter() {
                    path.push_str(fr.name);
                    path.push('/');
                }
                path.push_str(a.name);
                path
            });
            record_closed_span(ClosedSpan {
                layer: a.layer,
                name: a.name,
                attrs: a.attrs,
                path,
                micros,
                self_micros: (micros - f.child_micros).max(0.0),
                bytes,
                self_bytes: bytes.saturating_sub(f.child_bytes),
                calls,
                self_calls: calls.saturating_sub(f.child_calls),
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; serialize the tests that own it.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_records_nothing() {
        let _g = guard();
        reset();
        disarm();
        add_counter("x", 5);
        record_event(Event::RoundEnd { round: 0, sim_time_s: 1.0 });
        {
            let _s = SpanGuard::begin("t", "op", &[]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn armed_counts_are_exact() {
        let _g = guard();
        arm();
        for _ in 0..7 {
            add_counter("c", 2);
        }
        {
            let _s = SpanGuard::begin("t", "op", &[("k", 1.0)]);
        }
        {
            let _s = SpanGuard::begin("t", "op", &[]);
        }
        assert_eq!(counter_value("c"), 14);
        assert_eq!(span_count("t", "op"), 2);
        let events = drain();
        disarm();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::Span { .. }))
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SpanStat { count: 2, .. }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Counter { value: 14, .. }
        )));
        // Nothing dropped, so no Dropped record.
        assert!(!events.iter().any(|e| matches!(e, Event::Dropped { .. })));
    }

    #[test]
    fn counter_saturates() {
        let _g = guard();
        arm();
        add_counter("sat", u64::MAX - 1);
        add_counter("sat", 10);
        assert_eq!(counter_value("sat"), u64::MAX);
        reset();
        disarm();
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let _g = guard();
        arm();
        record_histogram("h", 5e-7); // bucket 0
        record_histogram("h", 0.5); // <= 1.0 → bucket 6
        record_histogram("h", 1e9); // overflow bucket
        let events = drain();
        disarm();
        let hist = events
            .iter()
            .find_map(|e| match e {
                Event::Histogram { counts, .. } => Some(counts.clone()),
                _ => None,
            })
            .expect("histogram present");
        assert_eq!(hist[0], 1);
        assert_eq!(hist[6], 1);
        assert_eq!(hist[HISTOGRAM_BOUNDS.len()], 1);
    }

    #[test]
    fn arm_resets_previous_state() {
        let _g = guard();
        arm();
        add_counter("stale", 1);
        arm();
        assert_eq!(counter_value("stale"), 0);
        reset();
        disarm();
    }

    #[test]
    fn nested_spans_record_tree_paths() {
        let _g = guard();
        arm();
        {
            let _outer = SpanGuard::begin("core", "round", &[]);
            {
                let _mid = SpanGuard::begin("core", "device_update", &[]);
                let _leaf = SpanGuard::begin("tensor", "matmul", &[]);
            }
            let _leaf2 = SpanGuard::begin("tensor", "matmul", &[]);
        }
        assert_eq!(path_count("round"), 1);
        assert_eq!(path_count("round/device_update"), 1);
        assert_eq!(path_count("round/device_update/matmul"), 1);
        assert_eq!(path_count("round/matmul"), 1);
        let events = drain();
        disarm();
        let paths: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::PathStat { path, .. } => Some(path.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            paths,
            vec!["round", "round/device_update", "round/device_update/matmul", "round/matmul"],
            "path stats must drain in sorted order"
        );
    }

    #[test]
    fn self_time_excludes_children() {
        let _g = guard();
        arm();
        {
            let _outer = SpanGuard::begin("t", "outer", &[]);
            let inner = SpanGuard::begin("t", "inner", &[]);
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(inner);
        }
        let events = drain();
        disarm();
        let get = |which: &str| {
            events
                .iter()
                .find_map(|e| match e {
                    Event::PathStat { path, total_micros, self_micros, .. } if path == which => {
                        Some((*total_micros, *self_micros))
                    }
                    _ => None,
                })
                .expect("path present")
        };
        let (outer_total, outer_self) = get("outer");
        let (inner_total, inner_self) = get("outer/inner");
        assert!(inner_total >= 2000.0, "inner span must cover the sleep: {inner_total}");
        assert!((inner_total - inner_self).abs() < 1e-9, "leaf self == total");
        assert!(outer_total >= inner_total);
        assert!(
            outer_self <= outer_total - inner_total + 1e-6,
            "outer self time must exclude the inner span ({outer_self} vs {outer_total} - {inner_total})"
        );
    }

    #[test]
    fn streaming_sink_flushes_on_round_end_and_drains_aggregates() {
        let _g = guard();
        let dir = std::env::temp_dir().join("fedprox_collector_stream_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("stream.jsonl");
        let path_str = path.to_str().expect("utf8 path").to_string();
        arm();
        stream_to(&path_str).expect("attach sink");
        assert!(streaming());
        {
            let _s = SpanGuard::begin("t", "op", &[]);
        }
        record_event(Event::RoundEnd { round: 0, sim_time_s: 1.0 });
        // The flush on RoundEnd must have written the span + the event.
        let mid = std::fs::read_to_string(&path).expect("read mid-run");
        let mid_events = jsonl::parse(&mid).expect("parse mid-run");
        assert!(mid_events.iter().any(|e| matches!(e, Event::Span { .. })));
        assert!(mid_events.iter().any(|e| matches!(e, Event::RoundEnd { .. })));
        {
            let _s = SpanGuard::begin("t", "late", &[]);
        }
        let tail = drain();
        disarm();
        // Streamed events are not replayed in the drain; the final flush
        // sends the post-RoundEnd span to the file too.
        assert!(!tail.iter().any(|e| matches!(e, Event::RoundEnd { .. })));
        assert!(!tail.iter().any(|e| matches!(e, Event::Span { .. })));
        let full = std::fs::read_to_string(&path).expect("read final");
        let file_events = jsonl::parse(&full).expect("parse final");
        assert!(file_events.iter().any(
            |e| matches!(e, Event::Span { name, .. } if name == "late")
        ));
        // The tail is exactly the aggregate records to append.
        assert!(tail.iter().any(|e| matches!(e, Event::SpanStat { .. })));
        assert!(tail.iter().any(|e| matches!(e, Event::PathStat { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alloc_probe_attributes_bytes_to_spans() {
        let _g = guard();
        // A deterministic fake probe driven by a test-owned counter.
        static FAKE: AtomicUsize = AtomicUsize::new(0);
        fn probe() -> (u64, u64) {
            let v = FAKE.load(Ordering::Relaxed) as u64;
            (v * 100, v)
        }
        install_alloc_probe(probe);
        arm();
        {
            let _outer = SpanGuard::begin("t", "outer", &[]);
            FAKE.fetch_add(1, Ordering::Relaxed); // 100 B to outer self
            {
                let _inner = SpanGuard::begin("t", "inner", &[]);
                FAKE.fetch_add(3, Ordering::Relaxed); // 300 B to inner
            }
            FAKE.fetch_add(1, Ordering::Relaxed); // 100 B more to outer self
        }
        let events = drain();
        disarm();
        ALLOC_PROBE.store(0, Ordering::SeqCst);
        let get = |which: &str| {
            events
                .iter()
                .find_map(|e| match e {
                    Event::PathStat { path, total_bytes, self_bytes, total_allocs, .. }
                        if path == which =>
                    {
                        Some((*total_bytes, *self_bytes, *total_allocs))
                    }
                    _ => None,
                })
                .expect("path present")
        };
        // The fake probe never moves during telemetry-internal work, so
        // the excluded ledger stays at zero and the split is exact.
        assert_eq!(get("outer/inner"), (300, 300, 3));
        assert_eq!(get("outer"), (500, 200, 5));
    }

    #[test]
    fn flight_ring_keeps_most_recent_events() {
        let _g = guard();
        arm();
        let n = FLIGHT_RING_CAP + 17;
        for i in 0..n {
            record_event(Event::RoundEnd { round: i as u32, sim_time_s: i as f64 });
        }
        let ring = flight_snapshot();
        disarm();
        reset();
        assert_eq!(ring.len(), FLIGHT_RING_CAP, "ring is bounded");
        // Oldest surviving event is exactly the (n - CAP)-th one.
        let first = (n - FLIGHT_RING_CAP) as u32;
        assert!(matches!(ring[0], Event::RoundEnd { round, .. } if round == first));
        assert!(matches!(
            ring[FLIGHT_RING_CAP - 1],
            Event::RoundEnd { round, .. } if round == (n as u32 - 1)
        ));
    }

    #[test]
    fn first_postmortem_trigger_wins_and_marker_streams_in_place() {
        let _g = guard();
        arm();
        record_event(Event::RoundEnd { round: 0, sim_time_s: 1.0 });
        trigger_postmortem("quorum_skip", 1, Some(2));
        record_event(Event::RoundEnd { round: 1, sim_time_s: 2.0 });
        trigger_postmortem("non_finite", 2, None);
        let snap = postmortem_snapshot().expect("first trigger captured");
        // The first trigger fired after one event; the later trigger
        // must not have replaced the snapshot.
        assert_eq!(snap.len(), 1);
        assert!(matches!(snap[0], Event::RoundEnd { round: 0, .. }));
        let events = drain();
        disarm();
        let markers: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Postmortem { round, reason, device } => {
                    Some((*round, reason.as_str(), *device))
                }
                _ => None,
            })
            .collect();
        assert_eq!(markers, vec![(1, "quorum_skip", Some(2)), (2, "non_finite", None)]);
        // Markers sit in arrival order between the round events.
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).take(4).collect();
        assert_eq!(kinds, vec!["round_end", "postmortem", "round_end", "postmortem"]);
        assert!(postmortem_snapshot().is_none(), "drain clears the snapshot");
    }

    #[test]
    fn disarmed_postmortem_trigger_is_inert() {
        let _g = guard();
        reset();
        disarm();
        trigger_postmortem("loss_guard", 3, None);
        assert!(postmortem_snapshot().is_none());
        assert!(flight_snapshot().is_empty());
        assert!(drain().is_empty());
    }

    #[test]
    fn span_cap_without_sink_truncates_with_marker() {
        let _g = guard();
        arm();
        // Fill the raw buffer past the cap with cheap spans.
        for _ in 0..(SPAN_EVENT_CAP + 10) {
            let _s = SpanGuard::begin("t", "tiny", &[]);
        }
        assert_eq!(span_count("t", "tiny"), SPAN_EVENT_CAP as u64 + 10);
        let events = drain();
        disarm();
        let raw = events.iter().filter(|e| matches!(e, Event::Span { .. })).count();
        assert_eq!(raw, SPAN_EVENT_CAP, "raw records stop at the cap");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::TraceTruncated { dropped_spans: 10 })),
            "truncation must be marked: {:?}",
            events.last()
        );
        // Aggregates stay exact regardless.
        assert!(events.iter().any(|e| matches!(
            e,
            Event::PathStat { count, .. } if *count == SPAN_EVENT_CAP as u64 + 10
        )));
    }
}
