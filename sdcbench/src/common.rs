//! Pieces every workload shares: the model, the synthetic world, the
//! fixed kNN evaluation set, and the result a workload hands back.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc::core::{ContrastiveModel, ModelConfig, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{DatasetPreset, SynthDataset};
use sdc::data::Sample;

use crate::stats::{episode_medians, median, peak_rss_mib, ratio};

/// Strength of temporal correlation of every stream (samples per class
/// run).
const STC: usize = 32;
/// Replay-buffer capacity, which is also the training mini-batch size.
pub const BUFFER: usize = 16;
/// Neighbours consulted by the kNN probe.
const KNN_K: usize = 5;
/// Labelled samples per class in the kNN reference and query sets.
const KNN_PER_CLASS: usize = 50;
/// Stream variants the episodes of a training run cycle through;
/// `knn_acc` is the mean over one episode of each, which narrows its
/// spread across seeds.
const VARIANTS: usize = 3;

/// The small encoder (width 16, stages [1, 1], projection 64→32). Its
/// initialisation is fixed; the workload seed only reaches the streams
/// and the augmentation randomness.
pub fn model_config() -> ModelConfig {
    ModelConfig::default()
}

/// Trainer settings shared by `train-stc32` and `fleet-standby`.
pub fn trainer_config(seed: u64) -> TrainerConfig {
    TrainerConfig { buffer_size: BUFFER, model: model_config(), seed, ..TrainerConfig::default() }
}

/// The CIFAR-10-like synthetic world. Its class prototypes are fixed, so
/// every stream and the kNN set share one world whatever the seed.
fn world() -> SynthDataset {
    SynthDataset::new(DatasetPreset::Cifar10Like.config(0))
}

/// A temporally correlated stream over [`world`] at [`STC`].
pub fn stream(seed: u64) -> TemporalStream {
    TemporalStream::new(world(), STC, seed)
}

/// Derives an independent seed for the `k`-th use of the workload seed
/// (SplitMix64 finaliser).
pub fn derive(seed: u64, k: u64) -> u64 {
    sdc::obs::SplitMix64::new(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// The fixed, balanced labelled reference and query sets of the kNN
/// probe (independent of the workload seed).
pub struct KnnSets {
    train: Vec<Sample>,
    test: Vec<Sample>,
}

impl KnnSets {
    pub fn new() -> Self {
        let ds = world();
        let mut rng = StdRng::seed_from_u64(0x6b6e_6e00);
        let train = ds.balanced_set(KNN_PER_CLASS, &mut rng).expect("synthesis cannot fail");
        let test = ds.balanced_set(KNN_PER_CLASS, &mut rng).expect("synthesis cannot fail");
        Self { train, test }
    }

    /// kNN top-1 accuracy of `model`'s encoder.
    pub fn accuracy(&self, model: &mut ContrastiveModel) -> sdc::tensor::Result<f64> {
        sdc::eval::knn_probe(model, &self.train, &self.test, KNN_K, 64).map(f64::from)
    }
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The variant of episode `i`. Traced runs alternate untraced and
/// traced episodes, so each pair shares a variant.
fn variant(i: usize, traced_run: bool) -> u64 {
    ((if traced_run { i / 2 } else { i }) % VARIANTS) as u64
}

/// Checks that every episode reproduced the kNN accuracy of the first
/// episode of its variant, and returns the mean over the variants seen.
pub fn knn_summary(out: &mut Outcome, knn: &[(u64, Option<f64>)]) -> f64 {
    let mut first: Vec<(u64, Option<f64>)> = Vec::new();
    for (i, &(v, acc)) in knn.iter().enumerate() {
        match first.iter().find(|(fv, _)| *fv == v) {
            Some(&(_, expected)) => out.check(acc.is_some() && acc == expected, || {
                format!("episode {i} (variant {v}) knn_acc {acc:?} != {expected:?}")
            }),
            None => {
                out.check(acc.is_some(), || format!("episode {i}: kNN probe failed"));
                first.push((v, acc));
            }
        }
    }
    first.iter().filter_map(|(_, a)| *a).sum::<f64>() / first.len().max(1) as f64
}

/// Runs episodes until the run's time is used up, at least one per
/// variant (one untraced/traced pair in a traced run), stopping when the
/// next episode would end more than half an episode past `--seconds`.
/// Traced runs alternate untraced and traced episodes, so tracing
/// overhead is measured within one process. `episode` gets
/// `(traced, variant)`.
pub fn run_episodes<E>(args: &crate::RunArgs, mut episode: impl FnMut(bool, u64) -> E) -> Vec<E> {
    let start = Instant::now();
    let min_episodes = if args.trace { 2 } else { VARIANTS };
    let mut episodes = Vec::new();
    loop {
        let i = episodes.len();
        episodes.push(episode(args.trace && i % 2 == 1, variant(i, args.trace)));
        let elapsed = start.elapsed().as_secs_f64();
        let per_episode = elapsed / episodes.len() as f64;
        if episodes.len() >= min_episodes && elapsed + per_episode / 2.0 > args.seconds {
            return episodes;
        }
    }
}

/// The end-to-end metrics of a closed-loop workload: medians over the
/// untraced episodes of each one's op-time p50, tail and throughput
/// (`per_episode` holds op times in ms), plus set-up time, memory,
/// failures and kNN accuracy.
pub fn closed_loop_metrics(
    out: &mut Outcome,
    setups: &[f64],
    per_episode: &[Vec<f64>],
    samples_per_op: f64,
    knn_acc: f64,
) {
    let p50s: Vec<f64> = per_episode.iter().map(|e| median(e)).collect();
    out.detail("episode_p50_ms", format!("{p50s:?}"));
    let (p50, tail_ms, ops_per_s) = episode_medians(per_episode);
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    out.metric("ok_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64), "frac");
    out.metric("op_ms_p50", p50, "ms");
    out.metric("op_ms_tail", tail_ms, "ms");
    out.metric("samples_per_s", ops_per_s * samples_per_op, "samples/s");
    out.metric("knn_acc", knn_acc, "frac");
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (steps, requests on the named rungs, rounds,
    /// plus one per output check).
    pub attempted: u64,
    /// Operations that failed, checks included.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Further facts for the human reader, one JSON object body per
    /// entry (`"key": value` pairs).
    pub detail: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records one output check; a failed one also prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.push(format!("\"{key}\": {value}"));
    }
}
