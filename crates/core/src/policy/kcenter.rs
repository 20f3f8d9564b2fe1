//! K-Center core-set baseline (Sener & Savarese 2018).
//!
//! Greedy 2-approximation of the k-center problem in the model's
//! projected feature space: repeatedly add the candidate farthest from
//! the current centre set. Selects a maximally *covering* subset — the
//! active-learning notion of representativeness the paper compares
//! against.

use sdc_data::{stack_image_tensors, Sample};
use sdc_tensor::{Result, Tensor};

use super::{ReplacementOutcome, ReplacementPolicy};
use crate::buffer::{BufferEntry, ReplayBuffer};
use crate::model::ContrastiveModel;
use crate::score::score_cmp;

/// Greedy k-center selection over projected features of `B ∪ I`.
#[derive(Debug, Clone, Copy, Default)]
pub struct KCenterPolicy;

impl KCenterPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

/// Greedy farthest-point traversal: returns `k` indices into `points`
/// (rows of a rank-2 tensor), starting from the point farthest from the
/// centroid for determinism.
pub(crate) fn greedy_k_center(points: &Tensor, k: usize) -> Vec<usize> {
    let (n, d) = points.shape().as_matrix().expect("points are rank-2");
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let pd = points.data();
    // Start: farthest point from the centroid.
    let mut centroid = vec![0.0f32; d];
    for i in 0..n {
        for j in 0..d {
            centroid[j] += pd[i * d + j];
        }
    }
    centroid.iter_mut().for_each(|v| *v /= n as f32);
    let dist2 =
        |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum() };
    let first = (0..n)
        .max_by(|&a, &b| {
            score_cmp(
                dist2(&pd[a * d..(a + 1) * d], &centroid),
                dist2(&pd[b * d..(b + 1) * d], &centroid),
            )
        })
        .expect("n > 0");
    let mut selected = vec![first];
    // min_dist[i] = distance from point i to its nearest selected centre.
    let mut min_dist: Vec<f32> =
        (0..n).map(|i| dist2(&pd[i * d..(i + 1) * d], &pd[first * d..(first + 1) * d])).collect();
    while selected.len() < k {
        let next = (0..n).max_by(|&a, &b| score_cmp(min_dist[a], min_dist[b])).expect("n > 0");
        selected.push(next);
        for i in 0..n {
            let dd = dist2(&pd[i * d..(i + 1) * d], &pd[next * d..(next + 1) * d]);
            if dd < min_dist[i] {
                min_dist[i] = dd;
            }
        }
    }
    selected
}

impl ReplacementPolicy for KCenterPolicy {
    fn name(&self) -> &'static str {
        "K-Center"
    }

    fn replace(
        &mut self,
        model: &mut ContrastiveModel,
        buffer: &mut ReplayBuffer,
        incoming: Vec<Sample>,
    ) -> Result<ReplacementOutcome> {
        let buffer_len_before = buffer.len();
        buffer.tick_ages();
        let mut candidates: Vec<BufferEntry> = buffer.drain();
        let boundary = candidates.len();
        candidates.extend(incoming.into_iter().map(|s| BufferEntry::new(s, 0.0)));
        let total = candidates.len();

        let images: Vec<Tensor> = candidates.iter().map(|e| e.sample.image.clone()).collect();
        let z = model.project(&stack_image_tensors(&images)?)?;
        let keep = greedy_k_center(&z, buffer.capacity().min(total));
        let retained_from_buffer = keep.iter().filter(|&&i| i < boundary).count();
        let mut slots: Vec<Option<BufferEntry>> = candidates.into_iter().map(Some).collect();
        let selected: Vec<BufferEntry> =
            keep.iter().map(|&i| slots[i].take().expect("unique indices")).collect();
        buffer.replace_all(selected);

        Ok(ReplacementOutcome {
            candidates: total,
            rescored_buffer: boundary,
            buffer_len_before,
            retained_from_buffer,
            scoring_forward_samples: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::check_policy_invariants;

    #[test]
    fn upholds_policy_invariants() {
        check_policy_invariants(&mut KCenterPolicy::new());
    }

    #[test]
    fn k_center_spreads_over_clusters() {
        // Three tight clusters; selecting 3 centers must hit all three.
        let mut data = Vec::new();
        let clusters = [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)];
        for &(cx, cy) in &clusters {
            for i in 0..5 {
                data.push(cx + 0.01 * i as f32);
                data.push(cy - 0.01 * i as f32);
            }
        }
        let points = Tensor::from_vec([15, 2], data).unwrap();
        let sel = greedy_k_center(&points, 3);
        let cluster_of = |i: usize| i / 5;
        let mut hit: Vec<usize> = sel.iter().map(|&i| cluster_of(i)).collect();
        hit.sort_unstable();
        hit.dedup();
        assert_eq!(hit.len(), 3, "selected {sel:?}");
    }

    #[test]
    fn k_center_handles_degenerate_cases() {
        let points = Tensor::zeros([4, 2]);
        assert_eq!(greedy_k_center(&points, 0).len(), 0);
        assert_eq!(greedy_k_center(&points, 2).len(), 2);
        assert_eq!(greedy_k_center(&points, 10).len(), 4);
    }

    #[test]
    fn selection_indices_are_unique() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let points = Tensor::randn([20, 4], 1.0, &mut rng);
        let sel = greedy_k_center(&points, 10);
        let mut uniq = sel.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), sel.len());
    }
}
