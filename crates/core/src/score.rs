//! Contrast scoring (paper §III-B, Eq. (2)–(3)).
//!
//! `S(xᵢ) = 1 − zᵢᵀ zᵢ⁺` where `zᵢ`, `zᵢ⁺` are the ℓ2-normalized
//! projections of `xᵢ` and its *deterministic* horizontal flip. A high
//! score means the encoder has not yet learned a flip-invariant
//! representation of `xᵢ`, so `xᵢ` still carries learning signal
//! (large gradients — see [`crate::grad_analysis`]).

use std::cmp::Ordering;

use sdc_data::augment::flip::hflip;
use sdc_data::{stack_image_tensors, Sample};
use sdc_tensor::{Result, Tensor, TensorError};

use crate::model::ContrastiveModel;

/// Computes contrast scores for a set of samples.
///
/// Both the originals and their horizontal flips pass through the model
/// in evaluation mode (deterministic, no state mutation), matching the
/// paper's design principle that the score must reflect only the datum
/// and the current encoder — never augmentation randomness.
///
/// Scores lie in `[0, 2]`.
///
/// # Errors
///
/// Returns an error if `samples` is empty or image shapes disagree.
pub fn contrast_scores(model: &mut ContrastiveModel, samples: &[Sample]) -> Result<Vec<f32>> {
    contrast_scores_shared(model, samples)
}

/// [`contrast_scores`] through a shared model borrow.
///
/// The `originals ++ flips` batch is split into fixed per-sample chunks
/// executed concurrently on the `sdc-runtime` worker pool (see
/// [`ContrastiveModel::project_shared`]); every eval-mode op is
/// row-independent, so the scores are bit-identical to a single serial
/// forward at any `SDC_THREADS` setting.
///
/// # Errors
///
/// Returns an error if `samples` is empty or image shapes disagree.
pub fn contrast_scores_shared(model: &ContrastiveModel, samples: &[Sample]) -> Result<Vec<f32>> {
    if samples.is_empty() {
        return Err(TensorError::InvalidArgument {
            op: "contrast_scores",
            message: "cannot score an empty set".into(),
        });
    }
    let originals: Vec<Tensor> = samples.iter().map(|s| s.image.clone()).collect();
    let flipped: Vec<Tensor> = samples.iter().map(|s| hflip(&s.image)).collect();
    // One forward over originals ++ flips keeps the two views on the
    // identical (eval-mode) statistics.
    let mut all = originals;
    all.extend(flipped);
    let batch = stack_image_tensors(&all)?;
    let z = model.project_shared(&batch)?;
    Ok(scores_from_projections(&z, samples.len()))
}

/// Computes `1 − zᵢᵀ zᵢ⁺` given the stacked normalized projections of
/// `n` originals followed by their `n` flips.
///
/// # Panics
///
/// Panics if `z` does not have `2n` rows.
pub fn scores_from_projections(z: &Tensor, n: usize) -> Vec<f32> {
    let (rows, d) = z.shape().as_matrix().expect("projections are rank-2");
    assert_eq!(rows, 2 * n, "expected 2n projection rows");
    let zd = z.data();
    (0..n)
        .map(|i| {
            let a = &zd[i * d..(i + 1) * d];
            let b = &zd[(n + i) * d..(n + i + 1) * d];
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            1.0 - dot
        })
        .collect()
}

/// The one ordering every ranking of scores, distances and
/// similarities uses: a total order over all `f32` values.
///
/// On numbers it is `<` (so `-0.0` and `0.0` compare equal); NaN
/// compares below every number and equal to any other NaN. A best-first
/// (descending) ranking therefore picks NaN last, and a maximum never
/// picks NaN over a number. Unlike `partial_cmp(..).unwrap_or(Equal)`,
/// which is not transitive once a NaN is present, it is safe to hand
/// to `sort_by`.
pub fn score_cmp(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
}

/// Returns the indices of the `k` highest-scoring entries (the paper's
/// `topN` in Eq. (4)), breaking ties by lower index for determinism.
/// NaN scores rank below every number (see [`score_cmp`]).
///
/// # Panics
///
/// Panics if `k > scores.len()`.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    assert!(k <= scores.len(), "k={k} exceeds candidate count {}", scores.len());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| score_cmp(scores[b], scores[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdc_nn::models::EncoderConfig;

    fn model() -> ContrastiveModel {
        ContrastiveModel::new(&ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 1,
        })
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect()
    }

    #[test]
    fn scores_are_in_range_and_deterministic() {
        let mut m = model();
        let s = samples(6, 2);
        let a = contrast_scores(&mut m, &s).unwrap();
        let b = contrast_scores(&mut m, &s).unwrap();
        assert_eq!(a, b, "scoring must be deterministic (paper §III-B)");
        for &v in &a {
            assert!((0.0..=2.0).contains(&v), "score {v} out of [0,2]");
        }
    }

    #[test]
    fn symmetric_image_scores_zero() {
        // A left-right symmetric image equals its flip, so z = z⁺ and
        // S(x) = 0 regardless of the encoder.
        let mut m = model();
        let mut img = Tensor::zeros([3, 8, 8]);
        for c in 0..3 {
            for y in 0..8 {
                for x in 0..8 {
                    let v = ((y * 13 + x.min(7 - x) * 7 + c) % 10) as f32 * 0.1;
                    img.set(&[c, y, x], v);
                }
            }
        }
        let s = vec![Sample::new(img, 0, 0)];
        let scores = contrast_scores(&mut m, &s).unwrap();
        assert!(scores[0].abs() < 1e-5, "symmetric image score {}", scores[0]);
    }

    #[test]
    fn empty_set_is_rejected() {
        let mut m = model();
        assert!(contrast_scores(&mut m, &[]).is_err());
    }

    #[test]
    fn top_k_orders_by_score_descending() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.0];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
    }

    #[test]
    fn top_k_ranks_nan_last_and_signed_zeros_as_ties() {
        let scores = [f32::NAN, 0.5, -0.0, f32::NEG_INFINITY, 0.0, -f32::NAN, 2.0];
        assert_eq!(top_k_indices(&scores, 7), vec![6, 1, 2, 4, 3, 0, 5]);
        assert_eq!(score_cmp(-0.0, 0.0), Ordering::Equal);
        assert_eq!(score_cmp(f32::NAN, f32::NEG_INFINITY), Ordering::Less);
        assert_eq!(score_cmp(f32::NAN, -f32::NAN), Ordering::Equal);
    }

    mod top_k_props {
        use super::*;
        use proptest::prelude::*;

        /// `top_k_indices` as it was before [`score_cmp`]: correct only
        /// when no score is NaN.
        fn partial_cmp_top_k(scores: &[f32], k: usize) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| {
                scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal).then(a.cmp(&b))
            });
            idx.truncate(k);
            idx
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn top_k_is_total_over_arbitrary_bit_patterns(
                draws in collection::vec((any::<u32>(), 0u32..6), 0..48),
                k_percent in 0usize..101,
            ) {
                // Arbitrary bits, with about one draw in six forced to
                // a NaN (random payload and sign) so NaN-heavy inputs
                // are common rather than a 1-in-256 accident.
                let scores: Vec<f32> = draws
                    .iter()
                    .map(|&(bits, d)| f32::from_bits(if d == 0 { bits | 0x7f80_0001 } else { bits }))
                    .collect();
                let k = scores.len() * k_percent / 100;
                let top = top_k_indices(&scores, k);
                prop_assert_eq!(top.len(), k);
                let mut seen = vec![false; scores.len()];
                for &i in &top {
                    prop_assert!(!seen[i], "index {} picked twice", i);
                    seen[i] = true;
                }
                // NaN ranks last: no NaN is picked while a number is left.
                let picked_nan = top.iter().any(|&i| scores[i].is_nan());
                let left_number = (0..scores.len()).any(|i| !seen[i] && !scores[i].is_nan());
                prop_assert!(!(picked_nan && left_number), "NaN outranked a number");
                // Identical to the old ordering wherever it was defined.
                let clean: Vec<f32> =
                    scores.iter().map(|&s| if s.is_nan() { 0.25 } else { s }).collect();
                prop_assert_eq!(top_k_indices(&clean, k), partial_cmp_top_k(&clean, k));
            }
        }
    }

    #[test]
    fn scores_from_projections_matches_manual_dot() {
        let z = Tensor::from_vec(
            [4, 2],
            vec![
                1.0, 0.0, // original 0
                0.0, 1.0, // original 1
                1.0, 0.0, // flip 0 (identical -> score 0)
                1.0, 0.0, // flip 1 (orthogonal -> score 1)
            ],
        )
        .unwrap();
        let s = scores_from_projections(&z, 2);
        assert!((s[0] - 0.0).abs() < 1e-6);
        assert!((s[1] - 1.0).abs() < 1e-6);
    }
}
