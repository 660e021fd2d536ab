//! Kernel layer: a runtime-selectable dispatch over the scalar
//! cpu-reference kernels and the cache-blocked tiled kernels.
//!
//! Every matmul / matvec / gathered-minibatch / conv call site in the
//! workspace routes through this module's entry points, which check shapes (returning
//! [`ShapeError`] through the `try_*` variants), open the telemetry
//! span, dispatch on the active [`Kernel`], and run the numeric guard
//! on the output. The three kernels are **bitwise interchangeable** —
//! `Tiled` and `TiledParallel` must produce the same bits as
//! `Reference` (see `kernel::reference` for why, and
//! `tests/cpu_reference.rs` for the differential suite enforcing it) —
//! so switching the selector is observationally invisible to training
//! math and the global can be relaxed-atomic without a determinism
//! hazard.

pub mod layout;
pub mod reference;
pub mod tiled;

pub use layout::{Blocking, GemmSource, MatRef, MR, NR};

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation services the tensor entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Naive scalar loops — the cpu-reference oracle.
    Reference,
    /// Cache-blocked register-tiled kernels, sequential.
    Tiled,
    /// Tiled kernels with rayon partitioned dispatch over disjoint
    /// row/column bands (reduction-free, bitwise equal to `Tiled`).
    TiledParallel,
}

impl Kernel {
    /// The selector's stable name — the `--kernel` CLI vocabulary and
    /// the string stamped into run ledgers and fedperf reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Tiled => "tiled",
            Kernel::TiledParallel => "tiled-par",
        }
    }
}

/// Process-global kernel selector (default: [`Kernel::TiledParallel`]).
static ACTIVE: AtomicU8 = AtomicU8::new(2);

/// Select the kernel used by all subsequent tensor entry points.
pub fn set_kernel(k: Kernel) {
    let v = match k {
        Kernel::Reference => 0,
        Kernel::Tiled => 1,
        Kernel::TiledParallel => 2,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The currently selected kernel.
pub fn active() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => Kernel::Reference,
        1 => Kernel::Tiled,
        _ => Kernel::TiledParallel,
    }
}

/// Run `f` with `k` selected, restoring the previous selection after
/// (also on panic). The selector is process-global, so concurrent tests
/// switching kernels should serialize; a race is still *correct* (all
/// kernels produce identical bits) — it only blurs which implementation
/// ran.
pub fn with_kernel<T>(k: Kernel, f: impl FnOnce() -> T) -> T {
    struct Restore(Kernel);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel(self.0);
        }
    }
    let _restore = Restore(active());
    set_kernel(k);
    f()
}

/// Dispatch one GEMM over the active kernel.
fn gemm_dispatch<A: GemmSource, B: GemmSource>(
    a: &A,
    b: &B,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    accumulate: bool,
) {
    match active() {
        Kernel::Reference => reference::gemm_ref(a, b, c, m, n, k, accumulate),
        Kernel::Tiled => tiled::gemm(a, b, c, m, n, k, accumulate, Blocking::for_shape(m, n, k), false),
        Kernel::TiledParallel => {
            tiled::gemm(a, b, c, m, n, k, accumulate, Blocking::for_shape(m, n, k), true)
        }
    }
}

/// `out ← a · b` through the active kernel; [`ShapeError`] when the
/// inner dimensions disagree. `out` must be preallocated to
/// `(a.rows, b.cols)`.
pub fn try_matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError { op: "matmul", lhs: a.shape(), rhs: b.shape() });
    }
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul: out shape mismatch");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    fedprox_telemetry::span!("tensor", "matmul", "m" => m, "k" => k, "n" => n);
    let ar = MatRef::new(a.as_slice(), m, k);
    let br = MatRef::new(b.as_slice(), k, n);
    gemm_dispatch(&ar, &br, out.as_mut_slice(), m, n, k, false);
    crate::guard::check_finite("matmul", out.as_slice());
    Ok(())
}

/// `out ← aᵀ · b` (without materialising `aᵀ`) through the active
/// kernel; [`ShapeError`] when the inner dimensions disagree.
pub fn try_matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.rows() != b.rows() {
        return Err(ShapeError { op: "matmul_tn", lhs: a.shape(), rhs: b.shape() });
    }
    assert_eq!(out.shape(), (a.cols(), b.cols()), "matmul_tn: out shape mismatch");
    let (m, n, k) = (a.cols(), b.cols(), a.rows());
    fedprox_telemetry::span!("tensor", "matmul_tn", "m" => m, "k" => k, "n" => n);
    let ar = MatRef::transposed(a.as_slice(), m, k);
    let br = MatRef::new(b.as_slice(), k, n);
    gemm_dispatch(&ar, &br, out.as_mut_slice(), m, n, k, false);
    crate::guard::check_finite("matmul_tn", out.as_slice());
    Ok(())
}

/// `out ← a · bᵀ` (without materialising `bᵀ`) through the active
/// kernel; [`ShapeError`] when the inner dimensions disagree.
pub fn try_matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.cols() != b.cols() {
        return Err(ShapeError { op: "matmul_nt", lhs: a.shape(), rhs: b.shape() });
    }
    assert_eq!(out.shape(), (a.rows(), b.rows()), "matmul_nt: out shape mismatch");
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    fedprox_telemetry::span!("tensor", "matmul_nt", "m" => m, "k" => k, "n" => n);
    let ar = MatRef::new(a.as_slice(), m, k);
    let br = MatRef::transposed(b.as_slice(), k, n);
    gemm_dispatch(&ar, &br, out.as_mut_slice(), m, n, k, false);
    crate::guard::check_finite("matmul_nt", out.as_slice());
    Ok(())
}

/// `out ← a · x` for a flat row-major `m × k` weight slice;
/// [`ShapeError`] when `x` or `a` disagree with `(m, k)`.
pub fn try_matvec_into(
    a: &[f64],
    m: usize,
    k: usize,
    x: &[f64],
    out: &mut [f64],
) -> TensorResult<()> {
    if a.len() != m * k || x.len() != k {
        return Err(ShapeError { op: "matvec", lhs: (m, k), rhs: (x.len(), 1) });
    }
    assert_eq!(out.len(), m, "matvec: out length mismatch");
    fedprox_telemetry::span!("tensor", "matvec", "m" => m, "k" => k);
    match active() {
        Kernel::Reference => reference::matvec_ref(a, m, k, x, out),
        Kernel::Tiled => tiled::matvec(a, m, k, x, out, false),
        Kernel::TiledParallel => tiled::matvec(a, m, k, x, out, true),
    }
    crate::guard::check_finite("matvec", out);
    Ok(())
}

/// `out ← aᵀ · x` for a flat row-major `m × k` weight slice;
/// [`ShapeError`] when `x` or `a` disagree with `(m, k)`.
pub fn try_matvec_t_into(
    a: &[f64],
    m: usize,
    k: usize,
    x: &[f64],
    out: &mut [f64],
) -> TensorResult<()> {
    if a.len() != m * k || x.len() != m {
        return Err(ShapeError { op: "matvec_t", lhs: (m, k), rhs: (x.len(), 1) });
    }
    assert_eq!(out.len(), k, "matvec_t: out length mismatch");
    fedprox_telemetry::span!("tensor", "matvec_t", "m" => m, "k" => k);
    match active() {
        Kernel::Reference => reference::matvec_t_ref(a, m, k, x, out),
        Kernel::Tiled => tiled::matvec_t(a, m, k, x, out, false),
        Kernel::TiledParallel => tiled::matvec_t(a, m, k, x, out, true),
    }
    crate::guard::check_finite("matvec_t", out);
    Ok(())
}

/// Whether every picked row of a row-major `x` with row length `k`
/// exists.
fn rows_in_bounds(x: &[f64], k: usize, rows: &[usize]) -> bool {
    let end = |r: usize| r.checked_add(1).and_then(|e| e.checked_mul(k));
    rows.iter().all(|&r| end(r).is_some_and(|e| e <= x.len()))
}

/// Gathered matvec `out[i, r] = Σ_j a[r, j] · x[rows[i], j]` for a flat
/// row-major `m × k` weight slice and the rows of the row-major `x`
/// (row length `k`) picked by `rows`, read in place; `out` is
/// `rows.len() × m`. Bitwise one [`try_matvec_into`] per picked row
/// under every kernel; `panel` is the tiled kernel's packing scratch
/// (grown once, then reused). [`ShapeError`] when `a` disagrees with
/// `(m, k)` or a picked row lies outside `x`.
pub fn try_gather_matvec_into(
    a: &[f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    out: &mut [f64],
    panel: &mut Vec<f64>,
) -> TensorResult<()> {
    if a.len() != m * k || !rows_in_bounds(x, k, rows) {
        return Err(ShapeError { op: "gather_matvec", lhs: (m, k), rhs: (x.len(), rows.len()) });
    }
    assert_eq!(out.len(), rows.len() * m, "gather_matvec: out length mismatch");
    fedprox_telemetry::span!("tensor", "gather_matvec", "m" => m, "k" => k, "n" => rows.len());
    match active() {
        Kernel::Reference => reference::gather_matvec_ref(a, m, k, x, rows, out),
        Kernel::Tiled | Kernel::TiledParallel => tiled::gather_matvec(a, m, k, x, rows, out, panel),
    }
    crate::guard::check_finite("gather_matvec", out);
    Ok(())
}

/// Gathered rank-`B` product into the flat row-major `m × k` matrix `d`
/// (overwritten): starting from zero, for each picked row `i` of `x` in
/// order, `d[r, :] += g[i, r] · x[rows[i], :]` for every `r` with
/// `g[i, r] ≠ 0`, then `d += alpha · a` when `decay = Some((alpha, a))`
/// (an L2 term's per-sample share). Bitwise those per-row axpys into a
/// zeroed `d` under every kernel; the tiled kernel stores each block of
/// `d` once per call. [`ShapeError`] when `d`, `g` or `decay` disagree
/// with `(m, k)` and `rows`, or a picked row lies outside `x`.
pub fn try_gather_rank_update(
    d: &mut [f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    g: &[f64],
    decay: Option<(f64, &[f64])>,
) -> TensorResult<()> {
    let decay_ok = decay.is_none_or(|(_, a)| a.len() == m * k);
    if d.len() != m * k || g.len() != rows.len() * m || !decay_ok || !rows_in_bounds(x, k, rows) {
        let rhs = (x.len(), rows.len());
        return Err(ShapeError { op: "gather_rank_update", lhs: (m, k), rhs });
    }
    fedprox_telemetry::span!("tensor", "gather_rank_update", "m" => m, "k" => k, "n" => rows.len());
    match active() {
        Kernel::Reference => reference::gather_rank_update_ref(d, m, k, x, rows, g, decay),
        Kernel::Tiled | Kernel::TiledParallel => {
            tiled::gather_rank_update(d, m, k, x, rows, g, decay)
        }
    }
    Ok(())
}

/// Infallible wrapper over [`try_gather_matvec_into`] for call sites
/// whose shapes are statically correct (model forward passes).
pub fn gather_matvec_into(
    a: &[f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    out: &mut [f64],
    panel: &mut Vec<f64>,
) {
    let r = try_gather_matvec_into(a, m, k, x, rows, out, panel);
    assert!(r.is_ok(), "gather_matvec shape mismatch: {r:?}");
}

/// Infallible wrapper over [`try_gather_rank_update`] for call sites
/// whose shapes are statically correct (model backward passes).
pub fn gather_rank_update(
    d: &mut [f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    g: &[f64],
    decay: Option<(f64, &[f64])>,
) {
    let r = try_gather_rank_update(d, m, k, x, rows, g, decay);
    assert!(r.is_ok(), "gather_rank_update shape mismatch: {r:?}");
}

/// Infallible wrapper over [`try_matvec_into`] for call sites whose
/// shapes are statically correct (model forward passes).
pub fn matvec_into(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    let r = try_matvec_into(a, m, k, x, out);
    assert!(r.is_ok(), "matvec shape mismatch: {r:?}");
}

/// Infallible wrapper over [`try_matvec_t_into`] for call sites whose
/// shapes are statically correct (model backward passes).
pub fn matvec_t_into(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    let r = try_matvec_t_into(a, m, k, x, out);
    assert!(r.is_ok(), "matvec_t shape mismatch: {r:?}");
}

/// Tiled matmul with explicit [`Blocking`] — the probe behind fedperf's
/// tile-size sweep benches. Bypasses the selector (it measures the
/// tiled kernel specifically); results are bitwise identical for every
/// valid blocking, so the sweep isolates pure cache effects.
pub fn matmul_into_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix, bl: Blocking) {
    assert_eq!(a.cols(), b.rows(), "matmul_into_blocked: inner dim mismatch");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul_into_blocked: out shape mismatch");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let ar = MatRef::new(a.as_slice(), m, k);
    let br = MatRef::new(b.as_slice(), k, n);
    tiled::gemm(&ar, &br, out.as_mut_slice(), m, n, k, false, bl, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_roundtrip_and_scoped_restore() {
        let before = active();
        with_kernel(Kernel::Reference, || {
            assert_eq!(active(), Kernel::Reference);
            with_kernel(Kernel::Tiled, || assert_eq!(active(), Kernel::Tiled));
            assert_eq!(active(), Kernel::Reference);
        });
        assert_eq!(active(), before);
    }

    #[test]
    fn try_matvec_reports_shape_errors() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 2];
        let err = try_matvec_into(&a, 2, 2, &[1.0, 2.0, 3.0], &mut out).unwrap_err();
        assert_eq!(err.op, "matvec");
        let err = try_matvec_t_into(&a, 2, 2, &[1.0], &mut out).unwrap_err();
        assert_eq!(err.op, "matvec_t");
    }

    #[test]
    fn blocked_matmul_is_blocking_invariant_bitwise() {
        let a = Matrix::from_vec(5, 7, (0..35).map(|v| (v as f64 * 0.37).sin()).collect());
        let b = Matrix::from_vec(7, 6, (0..42).map(|v| (v as f64 * 0.61).cos()).collect());
        let mut base = Matrix::zeros(5, 6);
        matmul_into_blocked(&a, &b, &mut base, Blocking::default());
        for bl in [Blocking::new(1, 1, 1), Blocking::new(2, 3, 4), Blocking::new(64, 64, 64)] {
            let mut out = Matrix::zeros(5, 6);
            matmul_into_blocked(&a, &b, &mut out, bl);
            let same = out
                .as_slice()
                .iter()
                .zip(base.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "blocking {bl:?} changed bits");
        }
    }
}
