//! `fleet-standby`: rounds of multi-stream training with a hot standby
//! (closed loop of rounds).
//!
//! Each round draws one 16-sample segment per stream, runs
//! `MultiStreamTrainer::run_round` (concurrent replacement through the
//! coalescing service, then serial updates and a model swap), takes a
//! snapshot and ships it to a standby `NodeServer` on loopback (full
//! once, deltas after). Like `train-stc32`, a run repeats fixed-size
//! episodes so that `knn_acc` is exactly repeatable.

use std::sync::Arc;
use std::time::Instant;

use sdc::core::{ContrastScoringPolicy, ContrastiveModel, ReplacementOutcome};
use sdc::data::stream::TemporalStream;
use sdc::data::StreamId;
use sdc::node::{NodeClient, NodeServer, ShipReport, SnapshotShipper};
use sdc::serve::{MultiStreamTrainer, ReplicaSet, ServeConfig, ServeStats};

use crate::common::{
    closed_loop_metrics, derive, knn_summary, model_config, nanos_since, run_episodes, stream,
    trainer_config, KnnSets, Outcome, BUFFER,
};
use crate::stats::{dur, median, ratio, summary_json, tail, SpanTree};
use crate::{child_span, layer_zeros, pack_counters, RunArgs};

/// Timed rounds per episode.
const EPISODE_ROUNDS: usize = 40;
/// Concurrent training streams.
const STREAMS: u64 = 2;

/// The primary trainer and its standby. Fields drop in declaration
/// order: the ship connection closes before the standby server stops.
struct Fleet {
    lane: NodeClient,
    standby: NodeServer,
    primary: MultiStreamTrainer,
    shipper: SnapshotShipper,
    sources: Vec<TemporalStream>,
    last_snapshot: Vec<u8>,
}

struct RoundTimes {
    total: u64,
    segment: Vec<u64>,
    run_round: u64,
    snapshot: u64,
    ship: u64,
}

#[derive(Default)]
struct Episode {
    traced: bool,
    variant: u64,
    setup_s: f64,
    rounds: Vec<RoundTimes>,
    outcomes: Vec<ReplacementOutcome>,
    ships: Vec<ShipReport>,
    snapshot_bytes: Vec<usize>,
    failed_rounds: u64,
    standby_matches: bool,
    knn: Option<f64>,
    pack: (u64, u64),
    serve_before: Option<ServeStats>,
    serve_after: Option<ServeStats>,
    hist: Option<sdc::obs::HistogramSnapshot>,
    spans: Option<SpanTree>,
}

type RoundResult = Result<(RoundTimes, Vec<f32>, Vec<ReplacementOutcome>, ShipReport), String>;

impl Fleet {
    fn start(seed: u64, variant: u64) -> Result<Self, String> {
        let primary = MultiStreamTrainer::new(
            trainer_config(derive(seed, 3 + 16 * variant)),
            ContrastScoringPolicy::new(),
            ServeConfig::default(),
        );
        let standby_set = Arc::new(ReplicaSet::start(
            ContrastiveModel::new(&model_config()),
            ServeConfig::default(),
        ));
        let standby = NodeServer::start(standby_set).map_err(|e| e.to_string())?;
        let lane = NodeClient::connect(standby.addr()).map_err(|e| e.to_string())?;
        let sources = (0..STREAMS).map(|i| stream(derive(seed, 4 + i + 16 * variant))).collect();
        let mut fleet = Self {
            lane,
            standby,
            primary,
            shipper: SnapshotShipper::new(),
            sources,
            last_snapshot: Vec::new(),
        };
        // Warm-up round, which also makes the one full ship.
        fleet.round(None)?;
        Ok(fleet)
    }

    fn round(&mut self, op: Option<&sdc::obs::Span>) -> RoundResult {
        let t = Instant::now();
        let mut segments = Vec::new();
        let mut segment_ns = Vec::new();
        for (i, source) in self.sources.iter_mut().enumerate() {
            let s = Instant::now();
            let segment = {
                let _s = op.map(|op| child_span(op, "bench.data.next_segment"));
                source.next_segment(BUFFER).map_err(|e| e.to_string())?
            };
            segment_ns.push(nanos_since(s));
            segments.push((i as StreamId, segment));
        }
        let s = Instant::now();
        let reports = {
            let _s = op.map(|op| child_span(op, "bench.serve.run_round"));
            self.primary.run_round(segments).map_err(|e| e.to_string())?
        };
        let run_round = nanos_since(s);
        let s = Instant::now();
        let snapshot = {
            let _s = op.map(|op| child_span(op, "bench.persist.snapshot"));
            self.primary.snapshot().map_err(|e| e.to_string())?
        };
        let snapshot_ns = nanos_since(s);
        let s = Instant::now();
        let ship = {
            let _s = op.map(|op| child_span(op, "bench.node.ship"));
            self.shipper.ship(&self.lane, &snapshot, &[]).map_err(|e| e.to_string())?
        };
        let ship_ns = nanos_since(s);
        self.last_snapshot = snapshot.into_bytes();
        let times = RoundTimes {
            total: nanos_since(t),
            segment: segment_ns,
            run_round,
            snapshot: snapshot_ns,
            ship: ship_ns,
        };
        let losses = reports.iter().map(|r| r.loss).collect();
        let outcomes = reports.iter().map(|r| r.outcome).collect();
        Ok((times, losses, outcomes, ship))
    }
}

fn episode(args: &RunArgs, knn: &KnnSets, traced: bool, variant: u64) -> Episode {
    let mut ep = Episode { traced, variant, ..Episode::default() };
    let t0 = Instant::now();
    let mut fleet = match Fleet::start(args.seed, variant) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fleet set-up failed: {e}");
            ep.failed_rounds += 1;
            return ep;
        }
    };
    ep.setup_s = t0.elapsed().as_secs_f64();

    ep.serve_before = Some(fleet.primary.serve_stats());
    let hist_before = fleet.primary.service().latency_histogram();
    let pack_before = pack_counters();
    sdc::obs::trace_collector().clear();
    sdc::obs::set_trace_enabled(traced);
    for _ in 0..args.steps.unwrap_or(EPISODE_ROUNDS) {
        let op = sdc::obs::Span::root("bench.round");
        let result = fleet.round(Some(&op));
        drop(op);
        match result {
            Ok((times, losses, outcomes, ship)) => {
                if losses.iter().all(|l| l.is_finite()) {
                    ep.rounds.push(times);
                    ep.outcomes.extend(outcomes);
                    ep.ships.push(ship);
                    ep.snapshot_bytes.push(fleet.last_snapshot.len());
                } else {
                    eprintln!("non-finite loss in {losses:?}");
                    ep.failed_rounds += 1;
                }
            }
            Err(e) => {
                eprintln!("round failed: {e}");
                ep.failed_rounds += 1;
            }
        }
    }
    // Ship replies arrive after the standby installed the snapshot, so
    // the store is current here.
    ep.standby_matches = fleet
        .standby
        .standby_state()
        .is_some_and(|s| s.snapshot.as_bytes() == fleet.last_snapshot.as_slice());
    // Quiesce so every span of the last round is recorded.
    let _ = fleet.primary.replica_set().quiesce();
    sdc::obs::set_trace_enabled(false);
    let pack_after = pack_counters();
    ep.pack = (pack_after.0 - pack_before.0, pack_after.1 - pack_before.1);
    ep.serve_after = Some(fleet.primary.serve_stats());
    ep.hist = Some(fleet.primary.service().latency_histogram().delta(&hist_before));
    if traced {
        ep.spans = Some(SpanTree::drain());
    }
    ep.knn = knn.accuracy(fleet.primary.model_mut()).ok();
    ep
}

pub fn run(args: &RunArgs) -> Outcome {
    let knn = KnnSets::new();
    let episodes = run_episodes(args, |traced, v| episode(args, &knn, traced, v));

    let mut out = Outcome { correct: true, ..Outcome::default() };
    for ep in &episodes {
        out.attempted += (ep.rounds.len() as u64 + ep.failed_rounds).max(1);
        out.failed += ep.failed_rounds;
    }
    for (i, ep) in episodes.iter().enumerate() {
        out.check(ep.standby_matches, || {
            format!("episode {i}: standby snapshot differs from the primary's last snapshot")
        });
    }
    let knn_pairs: Vec<(u64, Option<f64>)> = episodes.iter().map(|e| (e.variant, e.knn)).collect();
    let knn_acc = knn_summary(&mut out, &knn_pairs);
    if out.failed > 0 {
        out.correct = false;
    }

    let round_ms = |eps: &[&Episode]| -> Vec<f64> {
        eps.iter().flat_map(|e| e.rounds.iter().map(|r| r.total as f64 / 1e6)).collect()
    };
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let base_ms = round_ms(&untraced);
    out.detail("episodes", episodes.len());
    out.detail("rounds_per_episode", args.steps.unwrap_or(EPISODE_ROUNDS));
    out.detail("round", summary_json(&base_ms));
    out.detail("knn_acc", knn_acc);
    let snapshot_bytes: Vec<f64> =
        episodes.iter().flat_map(|e| e.snapshot_bytes.iter().map(|&b| b as f64)).collect();
    out.detail("snapshot_bytes", median(&snapshot_bytes));

    if !args.trace {
        let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
        let per_episode: Vec<Vec<f64>> = untraced.iter().map(|e| round_ms(&[*e])).collect();
        let samples_per_round = (BUFFER as u64 * STREAMS) as f64;
        closed_loop_metrics(&mut out, &setups, &per_episode, samples_per_round, knn_acc);
        return out;
    }

    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let traced_ms = round_ms(&traced);
    let rounds: Vec<&RoundTimes> = traced.iter().flat_map(|e| &e.rounds).collect();
    let round_total: f64 = rounds.iter().map(|r| r.total as f64).sum();
    let sum_rounds =
        |f: &dyn Fn(&RoundTimes) -> u64| rounds.iter().map(|r| f(r) as f64).sum::<f64>();
    let per_round_ms = |f: &dyn Fn(&RoundTimes) -> u64| -> Vec<f64> {
        rounds.iter().map(|r| f(r) as f64 / 1e6).collect()
    };
    let outcomes: Vec<&ReplacementOutcome> = traced.iter().flat_map(|e| &e.outcomes).collect();
    let sum_outcomes = |f: &dyn Fn(&ReplacementOutcome) -> usize| {
        outcomes.iter().map(|o| f(o) as f64).sum::<f64>()
    };
    let before = sum_outcomes(&|o| o.buffer_len_before);
    let ships: Vec<&ShipReport> = traced.iter().flat_map(|e| &e.ships).collect();
    let serve_delta = |f: &dyn Fn(&ServeStats) -> u64| -> f64 {
        traced
            .iter()
            .map(|e| {
                let (a, b) = (e.serve_after.as_ref(), e.serve_before.as_ref());
                a.zip(b).map_or(0.0, |(a, b)| (f(a) - f(b)) as f64)
            })
            .sum()
    };

    // From the span trees: the replacement phase of a round runs from the
    // start of `run_round` to the last scoring reply inside it; the rest
    // of `run_round` is the serial update and the model swap.
    let (mut replace_total, mut update_total) = (0.0, 0.0);
    let mut replace_ms = Vec::new();
    let (mut serve_total, mut queue_total, mut assembly_total) = (0.0, 0.0, 0.0);
    let mut batches: std::collections::BTreeSet<(u64, u64)> = Default::default();
    let mut harness = Vec::new();
    let mut spans = 0usize;
    for tree in traced.iter().filter_map(|e| e.spans.as_ref()) {
        spans += tree.spans.len();
        harness.extend(tree.named("bench.round").map(|r| tree.self_nanos(r) as f64 / 1e6));
        let requests: Vec<_> = tree.named("serve.request").collect();
        for rr in tree.named("bench.serve.run_round") {
            let replies_end = requests
                .iter()
                .filter(|q| q.start_nanos >= rr.start_nanos && q.start_nanos <= rr.end_nanos)
                .map(|q| q.end_nanos)
                .max()
                .unwrap_or(rr.start_nanos)
                .min(rr.end_nanos);
            let replace = (replies_end - rr.start_nanos) as f64;
            replace_total += replace;
            replace_ms.push(replace / 1e6);
            update_total += (rr.end_nanos - replies_end) as f64;
        }
        for req in &requests {
            serve_total += dur(req) as f64;
            if let Some(p) = tree.child_named(req.span, "serve.phase.enqueue") {
                queue_total += tree.self_nanos(p) as f64;
            }
            if let Some(p) = tree.child_named(req.span, "serve.phase.batch_assembly") {
                assembly_total += tree.self_nanos(p) as f64;
            }
            if let Some(p) = tree.child_named(req.span, "serve.phase.score") {
                batches.insert((p.start_nanos, p.end_nanos));
            }
        }
    }
    let score_nanos: u64 = batches.iter().map(|(a, b)| b - a).sum();
    let (hits, misses) = traced.iter().fold((0, 0), |a, e| (a.0 + e.pack.0, a.1 + e.pack.1));
    let delta_ships: Vec<&&ShipReport> = ships.iter().filter(|s| !s.full).collect();
    let ship_bytes: Vec<f64> = delta_ships.iter().map(|s| s.wire_bytes as f64).collect();
    let segment_ms: Vec<f64> =
        rounds.iter().flat_map(|r| r.segment.iter().map(|&n| n as f64 / 1e6)).collect();
    let snapshot_bytes: Vec<f64> =
        traced.iter().flat_map(|e| e.snapshot_bytes.iter().map(|&b| b as f64)).collect();
    let hist = traced.iter().find_map(|e| e.hist.as_ref()).expect("traced episode ran");
    let (q, _) = tail(&traced_ms);

    out.detail("core.replace_ms", summary_json(&replace_ms));
    out.detail("serve.run_round_ms", summary_json(&per_round_ms(&|r| r.run_round)));
    out.detail("persist.snapshot_ms", summary_json(&per_round_ms(&|r| r.snapshot)));
    out.detail("node.ship_ms", summary_json(&per_round_ms(&|r| r.ship)));
    out.detail(
        "serve.latency_ms",
        format!(
            "{{\"p50_ms\": {}, \"tail_ms\": {}}}",
            hist.percentile(0.5) as f64 / 1e6,
            hist.percentile(q) as f64 / 1e6
        ),
    );
    out.detail(
        "serve.flushes",
        format!(
            "{{\"batches\": {}, \"deadline\": {}, \"size\": {}, \"round\": {}}}",
            serve_delta(&|s| s.batches),
            serve_delta(&|s| s.deadline_flushes),
            serve_delta(&|s| s.size_flushes),
            serve_delta(&|s| s.round_flushes)
        ),
    );
    out.detail("traced_round", summary_json(&traced_ms));
    out.detail("bench.round_self_ms", summary_json(&harness));

    let mut layers = layer_zeros();
    layers.set("data.segment_ms", median(&segment_ms));
    layers.set(
        "core.score_ms_per_sample",
        ratio(score_nanos as f64, serve_delta(&|s| s.samples)) / 1e6,
    );
    layers.set("core.replace_frac", ratio(replace_total, round_total));
    layers.set("core.retention_frac", ratio(sum_outcomes(&|o| o.retained_from_buffer), before));
    layers.set("core.rescore_frac", ratio(sum_outcomes(&|o| o.rescored_buffer), before));
    layers.set("tensor.pack_cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    layers.set("tensor.pack_cache_lookups", ratio((hits + misses) as f64, rounds.len() as f64));
    layers.set("nn.update_frac", ratio(update_total, round_total));
    layers.set("serve.queue_wait_frac", ratio(queue_total, serve_total));
    layers.set("serve.batch_assembly_frac", ratio(assembly_total, serve_total));
    layers.set(
        "serve.deadline_flush_frac",
        ratio(serve_delta(&|s| s.deadline_flushes), serve_delta(&|s| s.batches)),
    );
    layers.set(
        "serve.batch_samples_mean",
        ratio(serve_delta(&|s| s.samples), serve_delta(&|s| s.batches)),
    );
    layers.set(
        "serve.shed_frac",
        ratio(serve_delta(&|s| s.shed_backlog + s.shed_queue_full), serve_delta(&|s| s.requests)),
    );
    layers.set("serve.run_round_frac", ratio(sum_rounds(&|r| r.run_round), round_total));
    layers.set("persist.snapshot_frac", ratio(sum_rounds(&|r| r.snapshot), round_total));
    layers.set("persist.snapshot_bytes", median(&snapshot_bytes));
    layers.set("node.ship_frac", ratio(sum_rounds(&|r| r.ship), round_total));
    layers.set("node.ship_bytes", median(&ship_bytes));
    layers.set(
        "node.ship_reuse_frac",
        ratio(
            delta_ships.iter().map(|s| s.reused as f64).sum(),
            delta_ships.iter().map(|s| s.sections as f64).sum(),
        ),
    );
    layers.set("obs.trace_overhead", median(&traced_ms) / median(&base_ms) - 1.0);
    layers.set("obs.spans_overwritten", sdc::obs::trace_collector().overwritten() as f64);
    layers.set("obs.spans_per_op", ratio(spans as f64, rounds.len() as f64));
    layers.emit(&mut out);
    out
}
