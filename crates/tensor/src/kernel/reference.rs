//! Scalar cpu-reference kernels: the oracles the tiled kernels must
//! match **bitwise**.
//!
//! These are deliberately the simplest possible loops — one scalar
//! accumulator per output element, k strictly increasing, no blocking,
//! no skipping, no parallelism. The determinism contract of the whole
//! kernel layer is stated against them: for every entry point, `Tiled`
//! and `TiledParallel` must produce the same bits as these functions
//! (enforced by `crates/tensor/tests/cpu_reference.rs`). That works
//! because the tiled kernels also accumulate each output element in
//! strictly increasing k order with a single f64 chain, and Rust does
//! not contract `a * b + c` into fma, so the rounding sequence is
//! identical even though the loop nests differ.

use super::layout::GemmSource;

/// Naive i-j-k GEMM: `c[i, j] (+)= Σ_p a[i, p] · b[p, j]` with one
/// scalar accumulator per element. When `accumulate` is false the
/// element starts from 0, otherwise from the existing `c` value.
pub fn gemm_ref<A: GemmSource, B: GemmSource>(
    a: &A,
    b: &B,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    accumulate: bool,
) {
    debug_assert_eq!(a.src_rows(), m);
    debug_assert_eq!(a.src_cols(), k);
    debug_assert_eq!(b.src_rows(), k);
    debug_assert_eq!(b.src_cols(), n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut s = if accumulate { c[i * n + j] } else { 0.0 };
            for p in 0..k {
                s += a.at(i, p) * b.at(p, j);
            }
            c[i * n + j] = s;
        }
    }
}

/// Naive matrix-vector product: `out[r] = Σ_k a[r, k] · x[k]`, one
/// sequential chain per row (the same rounding sequence as
/// `vecops::dot` on the row).
pub fn matvec_ref(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(out.len(), m);
    for (r, o) in out.iter_mut().enumerate() {
        let row = &a[r * k..(r + 1) * k];
        let mut s = 0.0;
        for (av, xv) in row.iter().zip(x) {
            s += av * xv;
        }
        *o = s;
    }
}

/// Naive transposed matrix-vector product: `out[j] = Σ_r a[r, j] · x[r]`
/// without materialising the transpose; the r-sweep keeps each output
/// element's additions in increasing r order.
pub fn matvec_t_ref(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    for (r, &xr) in x.iter().enumerate() {
        let row = &a[r * k..(r + 1) * k];
        for (o, &av) in out.iter_mut().zip(row) {
            *o += xr * av;
        }
    }
}

/// Naive gathered matvec: `out[i, r] = Σ_j a[r, j] · x[rows[i], j]`
/// for the rows of the row-major `x` (row length `k`) picked by `rows`
/// — one [`matvec_ref`] per picked row, in order.
pub fn gather_matvec_ref(
    a: &[f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), rows.len() * m);
    for (&row, o) in rows.iter().zip(out.chunks_exact_mut(m.max(1))) {
        matvec_ref(a, m, k, &x[row * k..(row + 1) * k], o);
    }
}

/// Naive gathered rank-`B` product into the row-major `m × k` matrix
/// `d`: zero it, then for each picked row `i` in order, `d[r, :] +=
/// g[i, r] · x[rows[i], :]` for every `r` whose coefficient is
/// non-zero, then, with `decay = Some((alpha, a))`, `d += alpha · a`
/// over the whole matrix. These are exactly the axpys a per-sample loop
/// would issue into a zeroed gradient, in its order.
pub fn gather_rank_update_ref(
    d: &mut [f64],
    m: usize,
    k: usize,
    x: &[f64],
    rows: &[usize],
    g: &[f64],
    decay: Option<(f64, &[f64])>,
) {
    debug_assert_eq!(d.len(), m * k);
    debug_assert_eq!(g.len(), rows.len() * m);
    d.fill(0.0);
    for (i, &row) in rows.iter().enumerate() {
        let xr = &x[row * k..(row + 1) * k];
        for r in 0..m {
            let gr = g[i * m + r];
            if gr != 0.0 {
                for (o, &xv) in d[r * k..(r + 1) * k].iter_mut().zip(xr) {
                    *o += gr * xv;
                }
            }
        }
        if let Some((alpha, a)) = decay {
            for (o, &av) in d.iter_mut().zip(a) {
                *o += alpha * av;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::layout::MatRef;
    use super::*;

    #[test]
    fn gemm_ref_2x2_by_hand() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_ref(&MatRef::new(&a, 2, 2), &MatRef::new(&b, 2, 2), &mut c, 2, 2, 2, false);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        // accumulate = true adds on top.
        gemm_ref(&MatRef::new(&a, 2, 2), &MatRef::new(&b, 2, 2), &mut c, 2, 2, 2, true);
        assert_eq!(c, [38.0, 44.0, 86.0, 100.0]);
    }

    #[test]
    fn matvec_refs_match_each_other_through_transpose() {
        let a: Vec<f64> = (0..12).map(|v| v as f64 * 0.25 - 1.0).collect();
        let x3 = [1.0, -2.0, 0.5];
        let x4 = [0.5, 1.5, -1.0, 2.0];
        let mut fwd = [0.0; 4];
        matvec_ref(&a, 4, 3, &x3, &mut fwd);
        // aᵀ as an explicit matrix, multiplied the forward way.
        let mut at = vec![0.0; 12];
        for r in 0..4 {
            for c in 0..3 {
                at[c * 4 + r] = a[r * 3 + c];
            }
        }
        let mut t_fwd = [0.0; 3];
        matvec_ref(&at, 3, 4, &x4, &mut t_fwd);
        let mut t = [0.0; 3];
        matvec_t_ref(&a, 4, 3, &x4, &mut t);
        for (g, w) in t.iter().zip(&t_fwd) {
            assert!((g - w).abs() < 1e-12);
        }
        assert!(fwd.iter().all(|v| v.is_finite()));
    }
}
