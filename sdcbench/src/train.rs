//! `train-stc32`: one device trains as fast as it can (closed loop).
//!
//! A run is a sequence of episodes. Each episode sets up a fresh
//! `StreamTrainer` with contrast scoring on a seeded STC-32 stream,
//! warms it up with one step, times a fixed number of steps (each step
//! draws one 16-sample segment and trains on the refreshed buffer), and
//! ends with the kNN probe. Fixed work per episode keeps `knn_acc`
//! exactly repeatable; repeating episodes fills the run's time and gives
//! several set-up samples.

use std::time::Instant;

use sdc::core::{ContrastScoringPolicy, StepReport, StreamTrainer};

use crate::common::{
    closed_loop_metrics, derive, knn_summary, nanos_since, run_episodes, stream, trainer_config,
    KnnSets, Outcome, BUFFER,
};
use crate::stats::{median, ratio, summary_json, SpanTree};
use crate::{child_span, layer_zeros, pack_counters, RunArgs};

/// Timed steps per episode.
const EPISODE_STEPS: usize = 100;

struct Episode {
    traced: bool,
    variant: u64,
    setup_s: f64,
    step_ns: Vec<u64>,
    segment_ns: Vec<u64>,
    reports: Vec<StepReport>,
    failed_steps: u64,
    knn: Option<f64>,
    pack: (u64, u64),
    spans: u64,
    /// Self time of each `bench.step` span: the step minus the layer
    /// calls it timed.
    harness_ns: Vec<u64>,
}

fn episode(args: &RunArgs, knn: &KnnSets, traced: bool, variant: u64) -> Episode {
    sdc::obs::set_trace_enabled(traced);
    let t0 = Instant::now();
    let mut source = stream(derive(args.seed, 1 + 16 * variant));
    let mut trainer = StreamTrainer::new(
        trainer_config(derive(args.seed, 2 + 16 * variant)),
        Box::new(ContrastScoringPolicy::new()),
    );
    let warm = source.next_segment(BUFFER).and_then(|s| trainer.step(s));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut ep = Episode {
        traced,
        variant,
        setup_s,
        step_ns: Vec::new(),
        segment_ns: Vec::new(),
        reports: Vec::new(),
        failed_steps: u64::from(warm.is_err()),
        knn: None,
        pack: (0, 0),
        spans: 0,
        harness_ns: Vec::new(),
    };
    let pack_before = pack_counters();
    let spans_before = sdc::obs::trace_collector().recorded();
    for _ in 0..args.steps.unwrap_or(EPISODE_STEPS) {
        let op = sdc::obs::Span::root("bench.step");
        let t = Instant::now();
        let segment = {
            let _s = child_span(&op, "bench.data.next_segment");
            source.next_segment(BUFFER)
        };
        ep.segment_ns.push(nanos_since(t));
        let report = {
            let _s = child_span(&op, "bench.core.step");
            segment.and_then(|s| trainer.step(s))
        };
        ep.step_ns.push(nanos_since(t));
        drop(op);
        match report {
            Ok(r) if r.loss.is_finite() => ep.reports.push(r),
            Ok(r) => {
                eprintln!("non-finite loss {}", r.loss);
                ep.failed_steps += 1;
            }
            Err(e) => {
                eprintln!("step failed: {e}");
                ep.failed_steps += 1;
            }
        }
    }
    let pack_after = pack_counters();
    ep.pack = (pack_after.0 - pack_before.0, pack_after.1 - pack_before.1);
    ep.spans = sdc::obs::trace_collector().recorded() - spans_before;
    sdc::obs::set_trace_enabled(false);
    if traced {
        let tree = SpanTree::drain();
        ep.harness_ns = tree.named("bench.step").map(|s| tree.self_nanos(s)).collect();
    }
    ep.knn = knn.accuracy(trainer.model_mut()).ok();
    ep
}

pub fn run(args: &RunArgs) -> Outcome {
    let knn = KnnSets::new();
    let episodes = run_episodes(args, |traced, v| episode(args, &knn, traced, v));

    let mut out = Outcome { correct: true, ..Outcome::default() };
    for ep in &episodes {
        out.attempted += ep.step_ns.len() as u64 + 1;
        out.failed += ep.failed_steps;
    }
    let knn_pairs: Vec<(u64, Option<f64>)> = episodes.iter().map(|e| (e.variant, e.knn)).collect();
    let knn_acc = knn_summary(&mut out, &knn_pairs);
    if out.failed > 0 {
        out.correct = false;
    }

    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let step_ms = |eps: &[&Episode]| -> Vec<f64> {
        eps.iter().flat_map(|e| e.step_ns.iter().map(|&n| n as f64 / 1e6)).collect()
    };
    let base_ms = step_ms(&untraced);
    out.detail("episodes", episodes.len());
    out.detail("steps_per_episode", args.steps.unwrap_or(EPISODE_STEPS));
    out.detail("step", summary_json(&base_ms));
    out.detail("knn_acc", knn_acc);

    if !args.trace {
        let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
        let per_episode: Vec<Vec<f64>> = untraced.iter().map(|e| step_ms(&[*e])).collect();
        closed_loop_metrics(&mut out, &setups, &per_episode, BUFFER as f64, knn_acc);
        return out;
    }

    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let traced_ms = step_ms(&traced);
    let reports: Vec<&StepReport> = traced.iter().flat_map(|e| &e.reports).collect();
    let sum = |f: &dyn Fn(&StepReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let step_total: f64 = traced.iter().flat_map(|e| &e.step_ns).map(|&n| n as f64).sum();
    let replace = sum(&|r| r.replace_nanos);
    let forward = sum(&|r| r.forward_nanos);
    let backward = sum(&|r| r.backward_nanos);
    let update = sum(&|r| r.update_nanos);
    let before = sum(&|r| r.outcome.buffer_len_before as u64);
    let (hits, misses) = traced.iter().fold((0, 0), |a, e| (a.0 + e.pack.0, a.1 + e.pack.1));
    let segment_ms: Vec<f64> =
        traced.iter().flat_map(|e| e.segment_ns.iter().map(|&n| n as f64 / 1e6)).collect();
    let per_step_ms = |f: &dyn Fn(&StepReport) -> u64| -> Vec<f64> {
        reports.iter().map(|r| f(r) as f64 / 1e6).collect()
    };
    out.detail("core.replace_ms", summary_json(&per_step_ms(&|r| r.replace_nanos)));
    out.detail("tensor.forward_ms", summary_json(&per_step_ms(&|r| r.forward_nanos)));
    out.detail("tensor.backward_ms", summary_json(&per_step_ms(&|r| r.backward_nanos)));
    out.detail(
        "nn.update_other_ms",
        summary_json(&per_step_ms(&|r| r.update_nanos - r.forward_nanos - r.backward_nanos)),
    );
    out.detail("traced_step", summary_json(&traced_ms));
    let harness: Vec<f64> =
        traced.iter().flat_map(|e| e.harness_ns.iter().map(|&n| n as f64 / 1e6)).collect();
    out.detail("bench.step_self_ms", summary_json(&harness));

    let mut layers = layer_zeros();
    layers.set("data.segment_ms", median(&segment_ms));
    layers.set(
        "core.score_ms_per_sample",
        ratio(replace, sum(&|r| r.outcome.scoring_forward_samples as u64)) / 1e6,
    );
    layers.set("core.replace_frac", ratio(replace, step_total));
    layers
        .set("core.retention_frac", ratio(sum(&|r| r.outcome.retained_from_buffer as u64), before));
    layers.set("core.rescore_frac", ratio(sum(&|r| r.outcome.rescored_buffer as u64), before));
    layers.set("tensor.forward_frac", ratio(forward, step_total));
    layers.set("tensor.backward_frac", ratio(backward, step_total));
    layers.set("tensor.pack_cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    layers.set("tensor.pack_cache_lookups", ratio((hits + misses) as f64, reports.len() as f64));
    layers.set("nn.update_frac", ratio(update, step_total));
    layers.set("nn.update_other_frac", ratio(update - forward - backward, step_total));
    layers.set("obs.trace_overhead", median(&traced_ms) / median(&base_ms) - 1.0);
    layers.set("obs.spans_overwritten", sdc::obs::trace_collector().overwritten() as f64);
    layers.set(
        "obs.spans_per_op",
        ratio(traced.iter().map(|e| e.spans as f64).sum(), traced_ms.len() as f64),
    );
    layers.emit(&mut out);
    out
}
