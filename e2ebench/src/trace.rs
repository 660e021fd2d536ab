//! The outside-in tracer: spans recorded by the benchmark around its
//! calls into the library's public functions, never inside the library.
//!
//! Spans nest on a thread-local stack (the vendored rayon is sequential,
//! so every library call runs on the calling thread). Closing a span
//! charges its duration to its parent's child time, so a layer's self
//! time is its duration minus the part its child spans cover, and a
//! `models.grad` call is attributed to exactly one parent: the
//! `core.device_update` or `core.eval` span that was open around it.
//! Every span carries the id of the round it ran in; a child whose id
//! differs from its parent's is counted as a violation and fails the
//! run.
//!
//! Allocation traffic comes from the perfbench counting allocator
//! (`fedprox_perfbench::alloc`). The tracer itself does not allocate
//! while spans are open: its stack and round log are reserved up front.

use fedprox_data::Dataset;
use fedprox_models::{GradScratch, LossModel};
use fedprox_perfbench::alloc;
use std::cell::RefCell;
use std::time::Instant;

/// A layer boundary the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One global round.
    Round,
    /// `Device::local_update`.
    DeviceUpdate,
    /// `server::aggregate`.
    Aggregate,
    /// `eval::global_loss` / `test_accuracy` / `stationarity_gap`.
    Eval,
    /// Every gradient entry of `LossModel`.
    Grad,
    /// Every loss/accuracy entry of `LossModel`.
    Loss,
    /// `Sampler::sample`.
    Sample,
    /// `LazyPopulation::device`.
    Population,
}

const LAYERS: usize = 8;

/// Totals of one layer over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStats {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus child-span time.
    pub self_ns: u64,
    /// Bytes requested while a span was open (children included).
    pub alloc_bytes: u64,
    /// Allocator calls while a span was open (children included).
    pub alloc_calls: u64,
    /// Per-sample gradients or losses evaluated (`Grad`, `Loss`).
    pub samples: u64,
    /// Gradient samples outside `core.eval`: the local solves'.
    pub train_samples: u64,
    /// Of `train_samples`, those spent in full-gradient (anchor) calls.
    pub anchor_samples: u64,
}

/// One closed round span.
#[derive(Debug, Clone, Copy)]
pub struct RoundSample {
    /// Wall time.
    pub ns: u64,
    /// Wall time minus child spans.
    pub self_ns: u64,
    /// Bytes requested during the round.
    pub alloc_bytes: u64,
}

struct Frame {
    layer: Layer,
    round: u64,
    start: Instant,
    child_ns: u64,
    alloc0: alloc::AllocStats,
}

/// Everything a traced run recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-layer totals, indexed by `Layer as usize`.
    pub layers: [LayerStats; LAYERS],
    /// Every closed round span, in order.
    pub rounds: Vec<RoundSample>,
    /// Child spans whose round id differed from their parent's.
    pub round_id_violations: u64,
}

impl Trace {
    /// Totals of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }
}

struct Tracer {
    armed: bool,
    round: u64,
    stack: Vec<Frame>,
    trace: Trace,
}

const STACK_CAP: usize = 16;
const ROUND_CAP: usize = 1 << 14;

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        armed: false,
        round: 0,
        stack: Vec::with_capacity(STACK_CAP),
        trace: Trace { rounds: Vec::with_capacity(ROUND_CAP), ..Trace::default() },
    });
}

/// Start recording into an empty trace.
pub fn arm() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.armed = true;
        t.round = 0;
        t.stack.clear();
        t.trace.layers = [LayerStats::default(); LAYERS];
        t.trace.rounds.clear();
        t.trace.round_id_violations = 0;
    });
}

/// Stop recording and hand back what was recorded. Spans still open are
/// dropped unrecorded.
pub fn disarm() -> Trace {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.armed = false;
        t.stack.clear();
        let trace = t.trace.clone();
        t.trace.rounds.clear();
        trace
    })
}

/// Drop every open span unrecorded (a run that ended or failed with a
/// round span still open).
pub fn drop_open() {
    TRACER.with(|t| t.borrow_mut().stack.clear());
}

/// Set the round id that spans opened from now on carry.
pub fn set_round(round: u64) {
    TRACER.with(|t| t.borrow_mut().round = round);
}

/// Open a span of `layer`. No-op while disarmed.
pub fn open(layer: Layer) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.armed || t.stack.len() == STACK_CAP {
            return;
        }
        let round = t.round;
        t.stack.push(Frame {
            layer,
            round,
            start: Instant::now(),
            child_ns: 0,
            alloc0: alloc::stats(),
        });
    });
}

/// Close the innermost span, which must be of `layer`. `samples` and
/// `full` describe a `Grad`/`Loss` call: per-sample evaluations made and
/// whether it was a full-dataset gradient.
pub fn close(layer: Layer, samples: u64, full: bool) {
    let end = Instant::now();
    let a1 = alloc::stats();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.armed || t.stack.last().map(|f| f.layer) != Some(layer) {
            return;
        }
        let Some(f) = t.stack.pop() else { return };
        let ns = end.duration_since(f.start).as_nanos() as u64;
        let self_ns = ns.saturating_sub(f.child_ns);
        let d = a1.since(&f.alloc0);
        let mut under_eval = false;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += ns;
            under_eval = parent.layer == Layer::Eval;
            if parent.round != f.round {
                t.trace.round_id_violations += 1;
            }
        }
        let s = &mut t.trace.layers[layer as usize];
        s.calls += 1;
        s.total_ns += ns;
        s.self_ns += self_ns;
        s.alloc_bytes += d.bytes;
        s.alloc_calls += d.calls;
        s.samples += samples;
        if layer == Layer::Grad && !under_eval {
            s.train_samples += samples;
            if full {
                s.anchor_samples += samples;
            }
        }
        if layer == Layer::Round && t.trace.rounds.len() < ROUND_CAP {
            t.trace.rounds.push(RoundSample {
                ns,
                self_ns,
                alloc_bytes: d.bytes,
            });
        }
    });
}

/// Run `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    open(layer);
    let r = f();
    close(layer, 0, false);
    r
}

fn grad<R>(samples: usize, full: bool, f: impl FnOnce() -> R) -> R {
    open(Layer::Grad);
    let r = f();
    close(Layer::Grad, samples as u64, full);
    r
}

fn loss<R>(samples: usize, f: impl FnOnce() -> R) -> R {
    open(Layer::Loss);
    let r = f();
    close(Layer::Loss, samples as u64, false);
    r
}

/// A [`LossModel`] that forwards every trait method to the wrapped
/// model, inside a `models.grad` or `models.loss` span. Forwarding the
/// provided methods too (`batch_grad_in`, `full_grad_in`, `full_loss`,
/// `accuracy`, …) keeps every override of the wrapped model on its path,
/// so the traced arithmetic is the untraced arithmetic.
#[derive(Debug, Clone)]
pub struct Traced<M>(pub M);

impl<M: LossModel> LossModel for Traced<M> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.0.init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        loss(1, || self.0.sample_loss(w, data, i))
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        grad(1, false, || {
            self.0.sample_grad_accum(w, data, i, scale, out)
        })
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        loss(1, || self.0.predict(w, x))
    }
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        loss(indices.len(), || self.0.batch_loss(w, data, indices))
    }
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        grad(indices.len(), false, || {
            self.0.batch_grad(w, data, indices, out)
        })
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        grad(indices.len(), false, || {
            self.0.batch_grad_in(w, data, indices, out, scratch)
        })
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        grad(data.len(), true, || {
            self.0.full_grad_in(w, data, out, scratch)
        })
    }
    fn full_loss(&self, w: &[f64], data: &Dataset) -> f64 {
        loss(data.len(), || self.0.full_loss(w, data))
    }
    fn full_grad(&self, w: &[f64], data: &Dataset, out: &mut [f64]) {
        grad(data.len(), true, || self.0.full_grad(w, data, out))
    }
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        loss(data.len(), || self.0.accuracy(w, data))
    }
}
