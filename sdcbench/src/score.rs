//! `score-open`: independent devices send scoring requests on a seeded
//! Poisson schedule (open loop) to a networked node.
//!
//! One generator thread issues droppable 8-sample requests round-robin
//! over four stream ids through one `NodeClient` connection; one reaper
//! thread collects the replies in order. The offered rate climbs a fixed
//! ladder; every request is timed from its *due* time, so a stall also
//! delays the requests queued behind it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdc::core::ContrastiveModel;
use sdc::data::stream::TemporalStream;
use sdc::data::Sample;
use sdc::node::{NodeClient, NodeServer, RemoteOutcome, RemoteTicket};
use sdc::obs::ArrivalProcess;
use sdc::serve::{ReplicaSet, ServeConfig, ServeStats};

use crate::common::{derive, model_config, stream, KnnSets, Outcome};
use crate::stats::{covered_within, dur, median, quantile, ratio, summary_json, tail, SpanTree};
use crate::{layer_zeros, pack_counters, RunArgs};

/// Offered rate of `light`, requests per second. The open-loop capacity
/// within the latency limit measured when the benchmark was written was
/// ≈50 req/s on its worst runs (2-core x86-64 host, AVX2); `light` and
/// `heavy` sit at 0.3× and 0.6× of it.
const LIGHT_RPS: f64 = 15.0;
/// `light` runs as five blocks spread through the run, and its latency is
/// that of the best block (lowest p50, lowest tail). A request at light
/// load crosses about seven thread wake-ups, so a burst of CPU steal on
/// the host inflates whichever blocks it hits; it cannot make a block
/// faster, so the best block is the steadiest estimate of the node.
/// Share of the run each `light` block takes.
const LIGHT_BLOCK_SHARE: f64 = 0.09;
/// The rest of the offered-rate ladder, ascending above `light`:
/// `(rung, requests per second, share of the run)`. The top rungs climb
/// well past capacity so that a speed-up shows in `score_max_rps`.
const LADDER: [(&str, f64, f64); 11] = [
    ("20", 20.0, 0.03),
    ("heavy", 30.0, 0.1),
    ("40", 40.0, 0.03),
    ("50", 50.0, 0.03),
    ("60", 60.0, 0.03),
    ("70", 70.0, 0.03),
    ("85", 85.0, 0.03),
    ("100", 100.0, 0.03),
    ("125", 125.0, 0.03),
    ("150", 150.0, 0.03),
    ("200", 200.0, 0.03),
];
/// The saturation rung, run as three blocks spread through the run: far
/// above capacity, so the batcher never idles and sheds the excess. The
/// best block's goodput is the node's scoring capacity (`samples_per_s`),
/// for the same reason `light` reports its best block.
const SATURATE: (&str, f64, f64) = ("saturate", 200.0, 0.08);
/// Latency limit on a rung's SLO percentile.
const LIMIT_MS: f64 = 100.0;
/// The percentile a rung must hold within [`LIMIT_MS`].
const SLO_QUANTILE: f64 = 0.9;
/// Share of a rung's requests that may be shed or fail.
const MAX_SHED_FRAC: f64 = 0.01;
/// Latency charged to a shed or failed request, and to every request of
/// a rung whose backlog grew, when testing a rung against the limit.
const MISS_PENALTY_MS: f64 = 10.0 * LIMIT_MS;
/// Samples per request.
const SEGMENT: usize = 8;
/// Stream ids the generator cycles through.
const STREAMS: u64 = 4;
/// Every `CHECK_EVERY`-th scored reply is compared with direct scoring.
const CHECK_EVERY: u64 = 16;
/// A rung whose generator-lag tail exceeds this share of the light p50
/// is flagged: it measured the generator as much as the node.
const LAG_SHARE: f64 = 0.25;
/// Name of the untraced `light` block a traced run starts with.
const BASELINE: &str = "light-untraced";

/// A started node: replica set, TCP front-end and one client connection.
/// Fields drop in declaration order: client, then server, then replicas.
struct Node {
    client: NodeClient,
    _server: NodeServer,
    replicas: Arc<ReplicaSet>,
}

fn start_node(sources: &mut [TemporalStream]) -> Result<Node, String> {
    let replicas =
        Arc::new(ReplicaSet::start(ContrastiveModel::new(&model_config()), ServeConfig::default()));
    let server = NodeServer::start(Arc::clone(&replicas)).map_err(|e| e.to_string())?;
    let client = NodeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    // Warm-up: two closed-loop requests per stream id registers every
    // stream with the replica and faults in the scoring path.
    for i in 0..2 * STREAMS {
        let id = i % STREAMS;
        let segment = sources[id as usize].next_segment(SEGMENT).map_err(|e| e.to_string())?;
        client.score(id, segment).map_err(|e| e.to_string())?;
    }
    Ok(Node { client, _server: server, replicas })
}

struct Sent {
    due: Instant,
    ticket: RemoteTicket,
    check: Option<Vec<Sample>>,
}

#[derive(Default)]
struct Rung {
    name: String,
    rate: f64,
    traced: bool,
    issued: u64,
    /// Due → reply of every scored request, ms.
    latency_ms: Vec<f64>,
    shed: u64,
    errors: u64,
    lag_ms: Vec<f64>,
    segment_ms: Vec<f64>,
    /// First due time to last reply, seconds.
    span_s: f64,
    /// Requests submitted but not yet answered, sampled at each submit.
    outstanding: Vec<u64>,
    schedule_fingerprint: u64,
    checks: Vec<(Vec<Sample>, Vec<f32>)>,
    serve: Option<ServeDelta>,
    pack: (u64, u64),
    spans: Option<SpanTree>,
}

/// The replica's stats bracketing a rung.
struct ServeDelta {
    before: ServeStats,
    after: ServeStats,
    latency_p50_ms: f64,
    latency_tail_ms: f64,
}

impl ServeDelta {
    fn get(&self, f: &dyn Fn(&ServeStats) -> u64) -> f64 {
        (f(&self.after) - f(&self.before)) as f64
    }
}

impl Rung {
    /// The rung's latency at the SLO percentile, with sheds and failures
    /// counted as [`MISS_PENALTY_MS`]; the whole rung is charged the
    /// penalty when more than [`MAX_SHED_FRAC`] were shed or failed, or
    /// its backlog grew.
    fn slo_ms(&self) -> f64 {
        let missed = self.shed + self.errors;
        if self.backlog_grew() || missed as f64 > MAX_SHED_FRAC * self.issued as f64 {
            return MISS_PENALTY_MS;
        }
        let mut all = self.latency_ms.clone();
        all.extend((0..missed).map(|_| MISS_PENALTY_MS));
        quantile(&all, SLO_QUANTILE)
    }

    /// Mean outstanding requests over the first and the last quarter of
    /// the rung's submissions.
    fn backlog(&self) -> (f64, f64) {
        let q = (self.outstanding.len() / 4).max(1);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let n = self.outstanding.len();
        (mean(&self.outstanding[..q.min(n)]), mean(&self.outstanding[n.saturating_sub(q)..]))
    }

    /// Whether the backlog grew over the rung by more requests than the
    /// node can answer within the limit at this rate.
    fn backlog_grew(&self) -> bool {
        let (start, end) = self.backlog();
        end - start > self.rate * LIMIT_MS / 1e3
    }

    fn late(&self) -> u64 {
        self.latency_ms.iter().filter(|&&l| l > LIMIT_MS).count() as u64
    }

    fn json(&self) -> String {
        let (q, t) = tail(&self.latency_ms);
        format!(
            "{{\"rung\": \"{}\", \"rps\": {}, \"traced\": {}, \"issued\": {}, \"scored\": {}, \
             \"shed\": {}, \"errors\": {}, \"late\": {}, \"p50_ms\": {}, \"tail_ms\": {}, \
             \"tail\": \"{}\", \"slo_ms\": {}, \"outstanding_start\": {}, \
             \"outstanding_end\": {}, \"backlog_grew\": {}, \"lag_tail_ms\": {}, \"schedule_fingerprint\": \"{:#018x}\"}}",
            self.name,
            self.rate,
            self.traced,
            self.issued,
            self.latency_ms.len(),
            self.shed,
            self.errors,
            self.late(),
            median(&self.latency_ms),
            t,
            crate::stats::label(q),
            self.slo_ms(),
            self.backlog().0,
            self.backlog().1,
            self.backlog_grew(),
            tail(&self.lag_ms).1,
            self.schedule_fingerprint
        )
    }
}

/// The arrival offsets (ns from the rung start) of one rung.
fn schedule(seed: u64, rung: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds).ceil().max(1.0) as usize;
    ArrivalProcess::Poisson { mean_gap_nanos: (1e9 / rate) as u64 }
        .schedule(derive(seed, 100 + rung), n)
}

/// FNV-1a over an arrival schedule.
fn fingerprint(offsets: &[u64]) -> u64 {
    offsets.iter().fold(0xcbf2_9ce4_8422_2325, |h, &o| (h ^ o).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Offers `rate` req/s to the node on the arrival schedule `offsets`.
fn run_rung(
    node: &Node,
    sources: &mut [TemporalStream],
    name: &str,
    rate: f64,
    offsets: &[u64],
    traced: bool,
) -> Rung {
    let mut rung = Rung {
        name: name.into(),
        rate,
        traced,
        issued: offsets.len() as u64,
        schedule_fingerprint: fingerprint(offsets),
        ..Rung::default()
    };
    let replica = node.replicas.replica(0);
    let stats_before = replica.stats_snapshot();
    let hist_before = replica.latency_histogram();
    let pack_before = pack_counters();
    sdc::obs::trace_collector().clear();
    sdc::obs::set_trace_enabled(traced);

    let replied = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let epoch = Instant::now();
    let epoch_trace = sdc::obs::now_nanos();
    let to_trace = |t: Instant| epoch_trace + t.saturating_duration_since(epoch).as_nanos() as u64;
    let start = epoch + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let replied = &replied;
        let reaper = scope.spawn(move || {
            let mut latency_ms = Vec::new();
            let (mut shed, mut errors) = (0u64, 0u64);
            let mut checks = Vec::new();
            let mut last = start;
            for sent in rx {
                let outcome = sent.ticket.wait_outcome();
                let done = Instant::now();
                last = done;
                replied.fetch_add(1, Ordering::SeqCst);
                if traced {
                    sdc::obs::record_span(
                        "bench.request",
                        sdc::obs::new_trace_id(),
                        None,
                        to_trace(sent.due),
                        to_trace(done),
                    );
                }
                match outcome {
                    Ok(RemoteOutcome::Scored(scores)) => {
                        latency_ms
                            .push(done.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
                        if let Some(samples) = sent.check {
                            checks.push((samples, scores));
                        }
                    }
                    Ok(RemoteOutcome::Shed(_)) => shed += 1,
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        errors += 1;
                    }
                }
            }
            (latency_ms, shed, errors, checks, last)
        });

        for (i, &offset) in offsets.iter().enumerate() {
            let id = i as u64 % STREAMS;
            let t = Instant::now();
            let segment = sources[id as usize].next_segment(SEGMENT);
            rung.segment_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let due = start + Duration::from_nanos(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            rung.lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let segment = match segment {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("synthesis failed: {e}");
                    rung.errors += 1;
                    continue;
                }
            };
            let check = (i as u64).is_multiple_of(CHECK_EVERY).then(|| segment.clone());
            let submitted = i as u64 + 1 - rung.errors;
            rung.outstanding.push(submitted - replied.load(Ordering::SeqCst));
            match node.client.try_submit(id, segment) {
                Ok(ticket) => tx.send(Sent { due, ticket, check }).expect("reaper is alive"),
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    rung.errors += 1;
                }
            }
        }
        drop(tx);
        let (latency_ms, shed, errors, checks, last) = reaper.join().expect("reaper panicked");
        rung.span_s = last.saturating_duration_since(start).as_secs_f64();
        rung.latency_ms = latency_ms;
        rung.shed = shed;
        rung.errors += errors;
        rung.checks = checks;
    });

    // The batcher records a request's spans just after sending its reply;
    // a queue barrier orders this read after every one of them.
    let quiesced = node.replicas.quiesce();
    sdc::obs::set_trace_enabled(false);
    if quiesced.is_err() {
        rung.errors += 1;
    }
    let hist = replica.latency_histogram().delta(&hist_before);
    let (q, _) = tail(&rung.latency_ms);
    rung.serve = Some(ServeDelta {
        before: stats_before,
        after: replica.stats_snapshot(),
        latency_p50_ms: hist.percentile(0.5) as f64 / 1e6,
        latency_tail_ms: hist.percentile(q) as f64 / 1e6,
    });
    let pack_after = pack_counters();
    rung.pack = (pack_after.0 - pack_before.0, pack_after.1 - pack_before.1);
    if traced {
        rung.spans = Some(SpanTree::drain());
    }
    rung
}

/// `score_max_rps`: the offered rate at which the SLO latency first
/// crosses the limit, interpolated linearly between the last rung under
/// it and the first rung over it (from 0 req/s if the first rung fails);
/// the top rate if no rung fails. Takes `(rate, SLO latency)` ascending.
fn max_rps(ladder: &[(f64, f64)]) -> (f64, bool) {
    let mut prev = (0.0, 0.0);
    for &(rate, slo) in ladder {
        if slo > LIMIT_MS {
            let f = ((LIMIT_MS - prev.1) / (slo - prev.1)).clamp(0.0, 1.0);
            return (prev.0 + f * (rate - prev.0), false);
        }
        prev = (rate, slo);
    }
    (prev.0, true)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut sources: Vec<TemporalStream> =
        (0..STREAMS).map(|id| stream(derive(args.seed, 10 + id))).collect();

    // Set up three times and keep the last node, so the set-up time is a
    // median.
    let mut setups = Vec::new();
    let mut node = None;
    for _ in 0..3 {
        drop(node.take());
        let t0 = Instant::now();
        match start_node(&mut sources) {
            Ok(n) => node = Some(n),
            Err(e) => {
                eprintln!("node set-up failed: {e}");
                out.attempted += 1;
                out.failed += 1;
                out.correct = false;
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let node = node.expect("set up above");

    // Schedules are keyed by rung, so runs of one seed see the same
    // arrivals whether traced or not. Order: light, 20, light, saturate,
    // heavy, light, saturate, the rungs above heavy, light, saturate,
    // light. A
    // traced run starts with an untraced light block as the
    // tracing-overhead baseline.
    let scale = if args.trace { 0.9 } else { 1.0 };
    let seconds = |share: f64| scale * share * args.seconds;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut run = |rungs: &mut Vec<Rung>, name: &str, key: u64, rate: f64, secs: f64, traced| {
        let offsets = schedule(args.seed, key, rate, secs);
        rungs.push(run_rung(&node, &mut sources, name, rate, &offsets, traced));
    };
    if args.trace {
        run(&mut rungs, BASELINE, 100, LIGHT_RPS, LIGHT_BLOCK_SHARE * args.seconds, false);
    }
    let light_block = |k: u64| ("light", 100 + k, LIGHT_RPS, LIGHT_BLOCK_SHARE);
    let saturate_block = |k: u64| (SATURATE.0, 90 + k, SATURATE.1, SATURATE.2);
    let ladder = |i: usize| (LADDER[i].0, i as u64, LADDER[i].1, LADDER[i].2);
    let head = [
        light_block(0),
        ladder(0),
        light_block(1),
        saturate_block(0),
        ladder(1),
        light_block(2),
        saturate_block(1),
    ];
    for (name, key, rate, share) in head {
        run(&mut rungs, name, key, rate, seconds(share), args.trace);
    }
    // Past `heavy`, the ladder stops at the first rung over the limit.
    let heavy_over = rungs.iter().any(|r| r.name == "heavy" && r.slo_ms() > LIMIT_MS);
    if !heavy_over {
        for i in 2..LADDER.len() {
            let (name, key, rate, share) = ladder(i);
            run(&mut rungs, name, key, rate, seconds(share), args.trace);
            if rungs.last().expect("just ran").slo_ms() > LIMIT_MS {
                break;
            }
        }
    }
    for (name, key, rate, share) in [light_block(3), saturate_block(2), light_block(4)] {
        run(&mut rungs, name, key, rate, seconds(share), args.trace);
    }
    let saturation: Vec<f64> = rungs
        .iter()
        .filter(|r| r.name == SATURATE.0)
        .map(|r| ratio((r.latency_ms.len() * SEGMENT) as f64, r.span_s))
        .collect();
    let capacity = saturation.iter().copied().fold(0.0, f64::max);

    let light: Vec<&Rung> = rungs.iter().filter(|r| r.name == "light").collect();
    let heavy = rungs.iter().find(|r| r.name == "heavy").expect("heavy rung");
    let block_median =
        |f: &dyn Fn(&Rung) -> f64| median(&light.iter().map(|r| f(r)).collect::<Vec<_>>());
    let blocks: Vec<Vec<f64>> = light.iter().map(|r| r.latency_ms.clone()).collect();
    let best = |f: &dyn Fn(&Vec<f64>) -> f64| blocks.iter().map(f).fold(f64::INFINITY, f64::min);
    let light_p50 = best(&|b| median(b));
    let light_tail = best(&|b| tail(b).1);
    let light_lag: Vec<f64> = light.iter().flat_map(|r| r.lag_ms.iter().copied()).collect();

    // Failures: sheds and errors on the named rungs. Sheds on the other
    // rungs, and limit misses anywhere, feed `score_max_rps` instead.
    for r in rungs.iter() {
        if r.name == "light" || r.name == "heavy" {
            out.attempted += r.issued;
            out.failed += r.shed;
        }
        out.failed += r.errors;
    }
    if out.failed > 0 {
        out.correct = false;
    }

    // Output check: the sampled replies equal direct scoring on the
    // served model, bit for bit.
    let reference = ContrastiveModel::new(&model_config());
    for (samples, scores) in rungs.iter().flat_map(|r| &r.checks) {
        let direct = sdc::core::contrast_scores_shared(&reference, samples);
        let same = direct.as_ref().is_ok_and(|d| {
            d.len() == scores.len() && d.iter().zip(scores).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        out.check(same, || format!("remote scores {scores:?} != direct {direct:?}"));
    }
    let mut served = reference;
    let knn = KnnSets::new().accuracy(&mut served);
    out.check(knn.is_ok(), || format!("kNN probe failed: {knn:?}"));

    // Generator hygiene: a rung whose lag tail is comparable to the light
    // p50 measured the generator, not the node.
    let invalid: Vec<String> = rungs
        .iter()
        .filter(|r| tail(&r.lag_ms).1 > LAG_SHARE * light_p50)
        .map(|r| format!("\"{}\"", r.name))
        .collect();
    let mut ladder = vec![(LIGHT_RPS, block_median(&Rung::slo_ms))];
    ladder.extend(
        rungs.iter().filter(|r| LADDER.iter().any(|l| l.0 == r.name)).map(|r| (r.rate, r.slo_ms())),
    );
    let (max_rate, exhausted) = max_rps(&ladder);
    out.detail(
        "rungs",
        format!("[{}]", rungs.iter().map(Rung::json).collect::<Vec<_>>().join(", ")),
    );
    out.detail("score_max_rps", max_rate);
    out.detail("saturation_samples_per_s", format!("{saturation:?}"));
    out.detail("ladder_exhausted", exhausted);
    out.detail("lag_invalid_rungs", format!("[{}]", invalid.join(", ")));
    out.detail(
        "light",
        format!(
            "{{\"p50_ms\": {light_p50}, \"tail_ms\": {light_tail}, \"blocks\": {}}}",
            light.len()
        ),
    );
    out.detail("heavy", summary_json(&heavy.latency_ms));
    out.detail("checked_replies", rungs.iter().map(|r| r.checks.len()).sum::<usize>());
    out.detail("knn_acc", knn.as_ref().map_or(0.0, |&a| a));

    if !args.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mib", crate::stats::peak_rss_mib(), "MiB");
        out.metric("ok_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64), "frac");
        out.metric("op_ms_p50", light_p50, "ms");
        out.metric("op_ms_tail", light_tail, "ms");
        out.metric("samples_per_s", capacity, "samples/s");
        out.metric("knn_acc", knn.unwrap_or(0.0), "frac");
        return out;
    }

    // Per-layer numbers over the named rungs, from the span trees.
    let mut named = light.clone();
    named.push(heavy);
    let mut queue_wait = Vec::new();
    let mut assembly = Vec::new();
    let mut rtt = Vec::new();
    let mut wire = Vec::new();
    let (mut serve_total, mut queue_total, mut assembly_total) = (0.0, 0.0, 0.0);
    let (mut rtt_total, mut wire_total) = (0.0, 0.0);
    let mut batches: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    let mut harness = Vec::new();
    let mut spans = 0usize;
    for r in &named {
        let tree = r.spans.as_ref().expect("named rungs are traced");
        spans += tree.spans.len();
        // One generator submits in schedule order, so the k-th
        // `bench.request` (due → reply) caused the k-th client span; its
        // self time is generator lag plus reaper pickup.
        let clients = tree.named("node.client.request");
        for (b, c) in tree.named("bench.request").zip(clients) {
            let covered =
                covered_within(b.start_nanos, b.end_nanos, vec![(c.start_nanos, c.end_nanos)]);
            harness.push((dur(b) - covered) as f64 / 1e6);
        }
        for req in tree.named("serve.request") {
            let d = dur(req) as f64;
            serve_total += d;
            if let Some(p) = tree.child_named(req.span, "serve.phase.enqueue") {
                let n = tree.self_nanos(p) as f64;
                queue_total += n;
                queue_wait.push(n / 1e6);
            }
            if let Some(p) = tree.child_named(req.span, "serve.phase.batch_assembly") {
                let n = tree.self_nanos(p) as f64;
                assembly_total += n;
                assembly.push(n / 1e6);
            }
            if let Some(p) = tree.child_named(req.span, "serve.phase.score") {
                *batches.entry((p.start_nanos, p.end_nanos)).or_default() += SEGMENT as u64;
            }
        }
        // client → server → serve.request: wire time is the round trip
        // minus the replica's enqueue → reply.
        for c in tree.named("node.client.request") {
            let Some(server) = tree.child_named(c.span, "node.server.request") else { continue };
            let Some(req) = tree.child_named(server.span, "serve.request") else { continue };
            let (t, s) = (dur(c) as f64, dur(req) as f64);
            rtt.push(t / 1e6);
            wire.push((t - s) / 1e6);
            rtt_total += t;
            wire_total += t - s;
        }
    }
    let score_nanos: u64 = batches.keys().map(|(a, b)| b - a).sum();
    let score_samples: u64 = batches.values().sum();
    let serve = |f: &dyn Fn(&ServeStats) -> u64| -> f64 {
        named.iter().map(|r| r.serve.as_ref().expect("measured").get(f)).sum()
    };
    let issued: f64 = named.iter().map(|r| r.issued as f64).sum();
    let (hits, misses) = named.iter().fold((0, 0), |a, r| (a.0 + r.pack.0, a.1 + r.pack.1));
    let baseline = rungs.iter().find(|r| r.name == BASELINE).expect("baseline rung");

    out.detail(
        "serve.latency_ms",
        format!(
            "{{\"p50_ms\": {}, \"tail_ms\": {}, \"rung\": \"light\"}}",
            block_median(&|r| r.serve.as_ref().expect("measured").latency_p50_ms),
            block_median(&|r| r.serve.as_ref().expect("measured").latency_tail_ms)
        ),
    );
    out.detail("serve.queue_wait_ms", summary_json(&queue_wait));
    out.detail("serve.batch_assembly_ms", summary_json(&assembly));
    out.detail("node.rtt_ms", summary_json(&rtt));
    out.detail("node.wire_ms", summary_json(&wire));
    out.detail("gen.lag_ms", summary_json(&light_lag));
    out.detail("bench.request_self_ms", summary_json(&harness));
    out.detail(
        "serve.flushes",
        format!(
            "{{\"batches\": {}, \"deadline\": {}, \"size\": {}, \"round\": {}}}",
            serve(&|s| s.batches),
            serve(&|s| s.deadline_flushes),
            serve(&|s| s.size_flushes),
            serve(&|s| s.round_flushes)
        ),
    );

    let segment_ms: Vec<f64> = named.iter().flat_map(|r| r.segment_ms.iter().copied()).collect();
    let mut layers = layer_zeros();
    layers.set("data.segment_ms", median(&segment_ms));
    layers.set("core.score_ms_per_sample", ratio(score_nanos as f64, score_samples as f64) / 1e6);
    layers.set("tensor.pack_cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    layers.set("tensor.pack_cache_lookups", ratio((hits + misses) as f64, issued));
    layers.set("serve.queue_wait_frac", ratio(queue_total, serve_total));
    layers.set("serve.batch_assembly_frac", ratio(assembly_total, serve_total));
    layers.set(
        "serve.deadline_flush_frac",
        ratio(serve(&|s| s.deadline_flushes), serve(&|s| s.batches)),
    );
    layers.set("serve.batch_samples_mean", ratio(serve(&|s| s.samples), serve(&|s| s.batches)));
    layers.set("serve.shed_frac", ratio(serve(&|s| s.shed_backlog + s.shed_queue_full), issued));
    layers.set("node.wire_frac", ratio(wire_total, rtt_total));
    layers.set("gen.lag_ratio", ratio(tail(&light_lag).1, light_p50));
    layers.set(
        "obs.trace_overhead",
        block_median(&|r| median(&r.latency_ms)) / median(&baseline.latency_ms) - 1.0,
    );
    layers.set("obs.spans_overwritten", sdc::obs::trace_collector().overwritten() as f64);
    layers.set("obs.spans_per_op", ratio(spans as f64, issued));
    layers.emit(&mut out);
    out
}
