//! Global evaluation: loss, gradient norm, accuracy, and the empirical
//! heterogeneity σ̄² of Assumption 1.
//!
//! Every figure reduces per-device values in device order through one
//! loss reduction (`Σ_n D_n·F_n / D`) and one gradient reduction
//! (`out += (D_n/D)·∇F_n`, which equals scaling a copy and adding it:
//! rustc never contracts `a + b·c` to a fused multiply-add). The public
//! functions and the round engine's fused evaluation pass therefore agree
//! bitwise.

use crate::device::Device;
use fedprox_data::Dataset;
use fedprox_models::{GradScratch, LossModel};
use fedprox_tensor::vecops;

/// `D = Σ_n D_n`, asserted non-zero.
fn total_samples(devices: &[Device]) -> usize {
    let total: usize = devices.iter().map(Device::samples).sum();
    assert!(total > 0, "eval: empty federation");
    total
}

/// `F̄ = Σ_n D_n·F_n / D` from per-device losses in device order — every
/// training-loss figure reduces through here.
fn weighted_loss(devices: &[Device], total: usize, losses: impl Iterator<Item = f64>) -> f64 {
    let weighted: f64 = devices.iter().zip(losses).map(|(d, l)| d.samples() as f64 * l).sum();
    weighted / total as f64
}

/// `out += (D_n/D)·g`: device `d`'s share of `∇F̄`. Combined in device
/// order into a zeroed `out`, this is the one gradient reduction.
fn add_weighted(d: &Device, total: usize, g: &[f64], out: &mut [f64]) {
    vecops::axpy(d.samples() as f64 / total as f64, g, out);
}

/// Global training loss `F̄(w) = Σ_n (D_n/D) F_n(w)` (eq. (2)).
pub fn global_loss<M: LossModel>(model: &M, devices: &[Device], w: &[f64]) -> f64 {
    let total = total_samples(devices);
    weighted_loss(devices, total, devices.iter().map(|d| model.full_loss(w, &d.data)))
}

/// Global gradient `∇F̄(w)` into `out`: each device's full gradient
/// through one reused buffer, combined in device order.
pub fn global_grad<M: LossModel>(model: &M, devices: &[Device], w: &[f64], out: &mut [f64]) {
    let total = total_samples(devices);
    let mut scratch = GradScratch::new();
    let mut g = vec![0.0; model.dim()];
    out.fill(0.0);
    for d in devices {
        model.full_grad_in(w, &d.data, &mut g, &mut scratch);
        add_weighted(d, total, &g, out);
    }
}

/// `‖∇F̄(w)‖²` — the paper's stationarity gap (eq. (12)).
pub fn stationarity_gap<M: LossModel>(model: &M, devices: &[Device], w: &[f64]) -> f64 {
    let mut g = vec![0.0; model.dim()];
    global_grad(model, devices, w, &mut g);
    vecops::norm_sq(&g)
}

/// Test accuracy of the global model.
pub fn test_accuracy<M: LossModel>(model: &M, test: &Dataset, w: &[f64]) -> f64 {
    model.accuracy(w, test)
}

/// Empirical σ̄² of Assumption 1, eq. (5): with
/// `σ_n = ‖∇F_n(w) − ∇F̄(w)‖ / ‖∇F̄(w)‖`, returns `Σ_n (D_n/D) σ_n²`.
/// Returns `None` when `‖∇F̄(w)‖` is numerically zero (the ratio is
/// undefined at stationary points). One [`fused_pass`] computes each
/// device's gradient once for both `∇F̄(w)` and its own deviation.
pub fn empirical_sigma_bar_sq<M: LossModel>(
    model: &M,
    devices: &[Device],
    w: &[f64],
) -> Option<f64> {
    let pass = fused_pass(model, devices, w, true);
    sigma_bar_sq_of(devices, &pass.grads, &pass.gbar)
}

/// σ̄² (see [`empirical_sigma_bar_sq`]) from per-device gradients
/// `grads[n] = ∇F_n(w)` in device order and their combination
/// `gbar = ∇F̄(w)`.
pub(crate) fn sigma_bar_sq_of(devices: &[Device], grads: &[Vec<f64>], gbar: &[f64]) -> Option<f64> {
    let denom = vecops::norm_sq(gbar);
    if denom < 1e-24 {
        return None;
    }
    let total = total_samples(devices);
    let sum: f64 = devices
        .iter()
        .zip(grads)
        .map(|(d, g)| d.samples() as f64 / total as f64 * vecops::dist_sq(g, gbar))
        .sum();
    Some(sum / denom)
}

/// What one [`fused_pass`] computes at `w`.
pub(crate) struct FusedPass {
    /// `F̄(w)`, bitwise [`global_loss`].
    pub(crate) loss: f64,
    /// `∇F̄(w)`, bitwise [`global_grad`].
    pub(crate) gbar: Vec<f64>,
    /// Each device's unscaled `∇F_n(w)` in device order when kept, else
    /// empty.
    pub(crate) grads: Vec<Vec<f64>>,
}

/// One fused loss-and-gradient pass per device at `w`
/// ([`LossModel::full_loss_and_grad_in`]), combined through the same
/// reductions as [`global_loss`] and [`global_grad`]. With `keep`, each
/// device's gradient gets its own buffer and is returned; without, one
/// buffer serves them all.
pub(crate) fn fused_pass<M: LossModel>(
    model: &M,
    devices: &[Device],
    w: &[f64],
    keep: bool,
) -> FusedPass {
    let total = total_samples(devices);
    let dim = model.dim();
    let mut scratch = GradScratch::new();
    let mut gbar = vec![0.0; dim];
    let mut grads = Vec::with_capacity(if keep { devices.len() } else { 0 });
    let mut spare = vec![0.0; if keep { 0 } else { dim }];
    let mut losses = Vec::with_capacity(devices.len());
    for d in devices {
        let mut g = if keep { vec![0.0; dim] } else { std::mem::take(&mut spare) };
        losses.push(model.full_loss_and_grad_in(w, &d.data, &mut g, &mut scratch));
        add_weighted(d, total, &g, &mut gbar);
        if keep {
            grads.push(g);
        } else {
            spare = g;
        }
    }
    FusedPass { loss: weighted_loss(devices, total, losses.into_iter()), gbar, grads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_models::LinearRegression;
    use fedprox_tensor::Matrix;

    fn device_with(points: &[([f64; 2], f64)], id: usize) -> Device {
        let mut f = Matrix::zeros(points.len(), 2);
        let mut y = Vec::new();
        for (i, (x, t)) in points.iter().enumerate() {
            f.row_mut(i).copy_from_slice(x);
            y.push(*t);
        }
        Device::new(id, Dataset::new(f, y, 0))
    }

    #[test]
    fn global_loss_is_sample_weighted() {
        let m = LinearRegression::new(2);
        // Device A: 1 sample with loss ½(1)² at w = 0; target 1, x = (1,0).
        let a = device_with(&[([1.0, 0.0], 1.0)], 0);
        // Device B: 3 samples, each zero loss at w = 0 (targets 0).
        let b = device_with(&[([1.0, 0.0], 0.0); 3], 1);
        let w = vec![0.0, 0.0];
        let got = global_loss(&m, &[a, b], &w);
        assert!((got - 0.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn global_grad_matches_pooled_dataset() {
        let m = LinearRegression::new(2);
        let a = device_with(&[([1.0, 0.0], 1.0), ([0.0, 1.0], -1.0)], 0);
        let b = device_with(&[([1.0, 1.0], 2.0)], 1);
        let w = vec![0.3, -0.7];
        let mut got = vec![0.0; 2];
        global_grad(&m, &[a.clone(), b.clone()], &w, &mut got);
        let pooled = Dataset::concat(&[&a.data, &b.data]);
        let mut want = vec![0.0; 2];
        m.full_grad(&w, &pooled, &mut want);
        for (g, wv) in got.iter().zip(&want) {
            assert!((g - wv).abs() < 1e-12);
        }
        // Loss agrees too.
        let gl = global_loss(&m, &[a, b], &w);
        assert!((gl - m.full_loss(&w, &pooled)).abs() < 1e-12);
    }

    #[test]
    fn stationarity_gap_zero_at_minimum() {
        let m = LinearRegression::new(2);
        // Single device whose exact solution is w = (2, −1).
        let d = device_with(
            &[([1.0, 0.0], 2.0), ([0.0, 1.0], -1.0), ([1.0, 1.0], 1.0)],
            0,
        );
        assert!(stationarity_gap(&m, &[d], &[2.0, -1.0]) < 1e-20);
    }

    #[test]
    fn sigma_bar_sq_zero_for_identical_devices() {
        let m = LinearRegression::new(2);
        let pts = [([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)];
        let a = device_with(&pts, 0);
        let b = device_with(&pts, 1);
        let s = empirical_sigma_bar_sq(&m, &[a, b], &[0.5, 0.5]).unwrap();
        assert!(s < 1e-20, "sigma {s}");
    }

    #[test]
    fn sigma_bar_sq_grows_with_divergence() {
        let m = LinearRegression::new(2);
        let a = device_with(&[([1.0, 0.0], 5.0)], 0);
        let b = device_with(&[([1.0, 0.0], -5.0)], 1);
        let similar = device_with(&[([1.0, 0.0], 0.9)], 2);
        let similar2 = device_with(&[([1.0, 0.0], 1.1)], 3);
        let w = vec![0.0, 0.0];
        let het = empirical_sigma_bar_sq(&m, &[a, b], &w);
        let hom = empirical_sigma_bar_sq(&m, &[similar, similar2], &w).unwrap();
        // Opposite targets: mean gradient ≈ 0 → σ̄² undefined or huge.
        match het {
            None => {}
            Some(v) => assert!(v > 100.0 * hom),
        }
        assert!(hom < 0.02, "hom {hom}");
    }
}
