//! The repository benchmark: three workloads of the SDC stack, measured
//! end to end (untraced runs) or per layer (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path sdcbench/Cargo.toml -- \
//!     --workload <train-stc32|score-open|fleet-standby> --seed <n> \
//!     --seconds <s> --trace <0|1> [--steps <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give the host facts and a detail object. `--steps` shrinks an episode
//! (steps or rounds) for the self-test. The process exits non-zero when
//! an output check fails. `DESIGN.md` explains every metric.

mod common;
mod fleet;
mod score;
mod stats;
mod train;

use common::Outcome;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Episode size override (steps or rounds).
    pub steps: Option<usize>,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args =
        RunArgs { workload: String::new(), seed: 0, seconds: 10.0, trace: false, steps: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--steps" => args.steps = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A child span of `op` for one timed layer call (inert when untraced).
pub fn child_span(op: &sdc::obs::Span, name: &'static str) -> sdc::obs::Span {
    op.context().map_or_else(sdc::obs::Span::inert, |ctx| sdc::obs::Span::child(name, ctx))
}

/// The GEMM operand-panel cache's `(hit, miss)` counters.
pub fn pack_counters() -> (u64, u64) {
    let registry = sdc::obs::global();
    (
        registry.counter("tensor.gemm.pack_cache.hit").get(),
        registry.counter("tensor.gemm.pack_cache.miss").get(),
    )
}

/// Every per-layer metric with its unit, in output order (the
/// `per_layer` list of `BENCHMARK.json`).
const LAYER_METRICS: [(&str, &str); 27] = [
    ("data.segment_ms", "ms"),
    ("core.score_ms_per_sample", "ms"),
    ("core.replace_frac", "frac"),
    ("core.retention_frac", "frac"),
    ("core.rescore_frac", "frac"),
    ("tensor.forward_frac", "frac"),
    ("tensor.backward_frac", "frac"),
    ("tensor.pack_cache_hit_rate", "frac"),
    ("tensor.pack_cache_lookups", "count"),
    ("nn.update_frac", "frac"),
    ("nn.update_other_frac", "frac"),
    ("serve.queue_wait_frac", "frac"),
    ("serve.batch_assembly_frac", "frac"),
    ("serve.deadline_flush_frac", "frac"),
    ("serve.batch_samples_mean", "count"),
    ("serve.shed_frac", "frac"),
    ("serve.run_round_frac", "frac"),
    ("node.wire_frac", "frac"),
    ("node.ship_frac", "frac"),
    ("node.ship_bytes", "bytes"),
    ("node.ship_reuse_frac", "frac"),
    ("persist.snapshot_frac", "frac"),
    ("persist.snapshot_bytes", "bytes"),
    ("gen.lag_ratio", "frac"),
    ("obs.trace_overhead", "frac"),
    ("obs.spans_overwritten", "count"),
    ("obs.spans_per_op", "count"),
];

/// Per-layer values of one traced run. A layer the workload never calls
/// keeps 0: no share of its time, no bytes, no events.
pub struct Layers([f64; LAYER_METRICS.len()]);

pub fn layer_zeros() -> Layers {
    Layers([0.0; LAYER_METRICS.len()])
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    pub fn emit(self, out: &mut Outcome) {
        for ((name, unit), value) in LAYER_METRICS.iter().zip(self.0) {
            out.metric(name, value, unit);
        }
    }
}

/// A finite number as JSON (`null` otherwise, which marks the result invalid).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdcbench: {e}");
            std::process::exit(2);
        }
    };
    // Tracing is on by default unless `SDC_TRACE` says otherwise; the
    // workloads switch it on exactly where they measure per-layer spans.
    sdc::obs::set_trace_enabled(false);
    let ticks_before = stats::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "train-stc32" => train::run(&args),
        "score-open" => score::run(&args),
        "fleet-standby" => fleet::run(&args),
        other => {
            eprintln!("sdcbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let ticks_after = stats::cpu_ticks();
    println!(
        "host {{\"nproc\": {}, \"sdc_threads\": {}, \"active_isa\": \"{:?}\", \
         \"profile\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \"seconds\": {}, \"trace\": {}, \
         \"cpu_steal_frac\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sdc::runtime::current_threads(),
        sdc::simd::active_isa(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        stats::ratio(
            (ticks_after.0 - ticks_before.0) as f64,
            (ticks_after.1 - ticks_before.1) as f64
        )
    );
    println!("detail {{{}}}", outcome.detail.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
