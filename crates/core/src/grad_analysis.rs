//! Score ↔ gradient analysis (paper §III-C).
//!
//! The paper argues that a datum's contrast score predicts the magnitude
//! of its contrastive-loss gradient: low-score data produce near-zero
//! gradients (case 1), high-score data produce large gradients (case 2).
//! This module computes the analytic per-sample gradient of Eq. (1) with
//! respect to `zᵢ` (Eq. (5)–(6)) so experiments can verify the claimed
//! monotone relationship on real embeddings.

use sdc_tensor::{Result, Tensor, TensorError};

/// Per-sample gradient magnitudes `‖∂ℓ_{i,i⁺}/∂z_i‖` for `n` positive
/// pairs of *normalized* embeddings `z1[i] ↔ z2[i]`, with all other
/// samples in the combined batch acting as negatives.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches or non-positive temperature.
pub fn per_sample_grad_norms(z1: &Tensor, z2: &Tensor, temperature: f32) -> Result<Vec<f32>> {
    if temperature <= 0.0 {
        return Err(TensorError::InvalidArgument {
            op: "per_sample_grad_norms",
            message: format!("temperature must be positive, got {temperature}"),
        });
    }
    let (n, d) = z1.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
        op: "per_sample_grad_norms",
        expected: 2,
        actual: z1.shape().clone(),
    })?;
    if z1.shape() != z2.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "per_sample_grad_norms",
            lhs: z1.shape().clone(),
            rhs: z2.shape().clone(),
        });
    }
    // Combined batch: rows 0..n are z1, rows n..2n are z2.
    let m = 2 * n;
    let mut all = Vec::with_capacity(m * d);
    all.extend_from_slice(z1.data());
    all.extend_from_slice(z2.data());

    let row = |i: usize| &all[i * d..(i + 1) * d];
    let mut norms = Vec::with_capacity(n);
    for i in 0..n {
        let pos = n + i;
        // Softmax over similarities to every other sample (Eq. (6)).
        let zi = row(i);
        let mut sims = Vec::with_capacity(m - 1);
        let mut idx = Vec::with_capacity(m - 1);
        for j in 0..m {
            if j == i {
                continue;
            }
            let s: f32 = zi.iter().zip(row(j)).map(|(&a, &b)| a * b).sum();
            sims.push(s / temperature);
            idx.push(j);
        }
        let max = sims.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = sims.iter().map(|&s| (s - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        // ∂ℓ/∂z_i = (1/τ) [ Σ_j p_j z_j − z_pos ]  (Eq. (5) rearranged).
        let mut grad = vec![0.0f32; d];
        for (&j, &e) in idx.iter().zip(&exps) {
            let p = e / denom;
            for (g, &zj) in grad.iter_mut().zip(row(j)) {
                *g += p * zj;
            }
        }
        for (g, &zp) in grad.iter_mut().zip(row(pos)) {
            *g -= zp;
        }
        let norm = grad.iter().map(|&g| (g / temperature).powi(2)).sum::<f32>().sqrt();
        norms.push(norm);
    }
    Ok(norms)
}

/// Spearman rank correlation between two equal-length slices.
///
/// Returns 0 for slices shorter than 2.
pub fn spearman_rank_correlation(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "correlation requires equal lengths");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ranks = |xs: &[f32]| -> Vec<f32> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| crate::score::score_cmp(xs[i], xs[j]));
        let mut r = vec![0.0f32; xs.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f32;
        }
        r
    };
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

/// Pearson correlation coefficient.
fn pearson(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len() as f32;
    let ma: f32 = a.iter().sum::<f32>() / n;
    let mb: f32 = b.iter().sum::<f32>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_tensor::ops::norm::l2_normalize_rows_forward;

    /// Builds normalized pair sets where pair `i`'s views have a
    /// controlled angle: small angles → aligned (low score), large →
    /// misaligned (high score).
    fn controlled_pairs(angles: &[f32]) -> (Tensor, Tensor) {
        let n = angles.len();
        let d = 3;
        let mut z1 = Vec::with_capacity(n * d);
        let mut z2 = Vec::with_capacity(n * d);
        for (i, &a) in angles.iter().enumerate() {
            // Base direction differs per pair so negatives are spread.
            let base = i as f32 * 1.3;
            z1.extend_from_slice(&[base.cos(), base.sin(), 0.0]);
            z2.extend_from_slice(&[(base + a).cos(), (base + a).sin(), 0.0]);
        }
        let t1 = Tensor::from_vec([n, d], z1).unwrap();
        let t2 = Tensor::from_vec([n, d], z2).unwrap();
        (
            l2_normalize_rows_forward(&t1, 1e-12).unwrap().0,
            l2_normalize_rows_forward(&t2, 1e-12).unwrap().0,
        )
    }

    #[test]
    fn aligned_pairs_have_small_gradients_case_1() {
        // Case 1 of §III-C: view angle ~0 → near-zero gradient at small τ.
        let (z1, z2) = controlled_pairs(&[0.001, 0.001, 0.001, 0.001]);
        let g = per_sample_grad_norms(&z1, &z2, 0.1).unwrap();
        for &v in &g {
            assert!(v < 1.0, "aligned pair gradient {v} not near zero");
        }
    }

    #[test]
    fn misaligned_pairs_have_larger_gradients_case_2() {
        let (z1, z2) = controlled_pairs(&[0.01, 0.01, 2.5, 0.01]);
        let g = per_sample_grad_norms(&z1, &z2, 0.1).unwrap();
        assert!(g[2] > 3.0 * g[0], "misaligned pair should dominate: {g:?}");
    }

    #[test]
    fn score_and_gradient_are_rank_correlated() {
        // The paper's central claim: contrast score (1 - cos angle)
        // orders samples the same way the gradient magnitude does.
        let angles = [0.05f32, 0.3, 0.6, 1.0, 1.5, 2.0, 2.5, 0.15];
        let (z1, z2) = controlled_pairs(&angles);
        let scores: Vec<f32> = (0..angles.len())
            .map(|i| {
                let a = z1.row(i);
                let b = z2.row(i);
                1.0 - a.iter().zip(b).map(|(&x, &y)| x * y).sum::<f32>()
            })
            .collect();
        let grads = per_sample_grad_norms(&z1, &z2, 0.2).unwrap();
        let rho = spearman_rank_correlation(&scores, &grads);
        assert!(rho > 0.9, "rank correlation {rho} too weak; scores {scores:?} grads {grads:?}");
    }

    #[test]
    fn spearman_detects_monotone_relations() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        assert!((spearman_rank_correlation(&a, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-6);
        assert!((spearman_rank_correlation(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(spearman_rank_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn invalid_temperature_rejected() {
        let (z1, z2) = controlled_pairs(&[0.1, 0.2]);
        assert!(per_sample_grad_norms(&z1, &z2, 0.0).is_err());
    }
}
