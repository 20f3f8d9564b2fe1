//! k-nearest-neighbour probe: a cheap, training-free representation
//! quality estimate used for learning-curve checkpoints.

use sdc_core::model::ContrastiveModel;
use sdc_core::score::score_cmp;
use sdc_data::Sample;
use sdc_tensor::{Result, Tensor};

use crate::features::extract_features;
use crate::metrics::accuracy;

/// Classifies each test sample by majority vote among its `k` nearest
/// training features (cosine similarity), returning top-1 accuracy.
///
/// # Errors
///
/// Returns an error if either set is empty.
pub fn knn_probe(
    model: &mut ContrastiveModel,
    train: &[Sample],
    test: &[Sample],
    k: usize,
    batch: usize,
) -> Result<f32> {
    let (train_f, train_labels) = extract_features(model, train, batch)?;
    let (test_f, test_labels) = extract_features(model, test, batch)?;
    let predictions = knn_predict(&train_f, &train_labels, &test_f, k);
    Ok(accuracy(&predictions, &test_labels))
}

/// Pure k-NN prediction over feature matrices (cosine similarity).
///
/// # Panics
///
/// Panics if the feature matrices are not rank-2 or `k == 0`.
pub fn knn_predict(
    train_features: &Tensor,
    train_labels: &[usize],
    test_features: &Tensor,
    k: usize,
) -> Vec<usize> {
    assert!(k > 0, "k must be positive");
    let (n_train, d) = train_features.shape().as_matrix().expect("rank-2 features");
    let (n_test, d2) = test_features.shape().as_matrix().expect("rank-2 features");
    assert_eq!(d, d2, "feature dims differ");
    let norm = |row: &[f32]| -> f32 { row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(1e-9) };
    let train_norms: Vec<f32> = (0..n_train).map(|i| norm(train_features.row(i))).collect();

    (0..n_test)
        .map(|t| {
            let trow = test_features.row(t);
            let tnorm = norm(trow);
            // Cosine similarities to all training points.
            let mut sims: Vec<(f32, usize)> = (0..n_train)
                .map(|i| {
                    let dot: f32 =
                        trow.iter().zip(train_features.row(i)).map(|(&a, &b)| a * b).sum();
                    (dot / (tnorm * train_norms[i]), train_labels[i])
                })
                .collect();
            sims.sort_by(|a, b| score_cmp(b.0, a.0));
            let mut votes: std::collections::HashMap<usize, usize> = Default::default();
            for &(_, label) in sims.iter().take(k.min(n_train)) {
                *votes.entry(label).or_insert(0) += 1;
            }
            votes
                .into_iter()
                .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
                .map(|(label, _)| label)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_separates_clusters() {
        let train = Tensor::from_vec([4, 2], vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]).unwrap();
        let labels = vec![0, 0, 1, 1];
        let test = Tensor::from_vec([2, 2], vec![0.95, 0.05, 0.05, 0.95]).unwrap();
        assert_eq!(knn_predict(&train, &labels, &test, 2), vec![0, 1]);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let train = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let test = Tensor::from_vec([1, 2], vec![1.0, 0.0]).unwrap();
        let pred = knn_predict(&train, &[0, 1], &test, 99);
        assert_eq!(pred.len(), 1);
    }

    #[test]
    fn majority_vote_wins_over_single_nearest() {
        // Nearest neighbour is class 1, but classes 0 dominate the top-3.
        let train =
            Tensor::from_vec([4, 2], vec![1.0, 0.0, 0.94, 0.05, 0.93, 0.05, 0.99, 0.01]).unwrap();
        let labels = vec![1, 0, 0, 0];
        let test = Tensor::from_vec([1, 2], vec![1.0, 0.0]).unwrap();
        assert_eq!(knn_predict(&train, &labels, &test, 3), vec![0]);
    }
}
