//! The repository benchmark: end-to-end and per-layer metrics of the
//! logical bytecode reducer on three workloads.
//!
//! ```text
//! perfbench --workload cf-greedy|svm-guided|svc-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.json`. Every output is checked
//! (`check_report`, pass-to-pass determinism, and at the default seed
//! the pins in `workloads.json`); any mismatch exits with status 1.

mod inproc;
mod service;
mod stats;
mod trace;

use lbr_service::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Workload descriptions, the default and held-out seeds, the pins, and
/// the layer-to-metric map.
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Where run artifacts (spans, service state) go, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Every end-to-end metric, in report order, with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_ref", "ref"),
    ("predicate_calls", "count"),
    ("final_bytes_pct", "%"),
    ("final_units_pct", "%"),
    ("jobs_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload bypasses reports 0, so every time here is one that all
/// workloads measure; layer times that only some workloads have are
/// printed in the report instead.
const PER_LAYER: [(&str, &str); 22] = [
    ("workload.gen_s", "s"),
    ("oracle.baseline_s", "s"),
    ("frontend.model_s", "s"),
    ("frontend.items", "count"),
    ("frontend.clauses", "count"),
    ("run.busy_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.busy_frac", "fraction"),
    ("oracle.preserve_frac", "fraction"),
    ("reducer.memo_hits", "count"),
    ("service.queue_wait_frac", "fraction"),
    ("service.overhead_frac", "fraction"),
    ("service.worker_utilization", "fraction"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_frac", "fraction"),
    ("service.repeat_lookups", "count"),
    ("service.fresh_lookups", "count"),
    ("service.frames_in", "count"),
    ("service.frames_out", "count"),
    ("service.shed", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run fail.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Figures printed in the report but not in the JSON line: latency
    /// percentiles, whose spread across seeds is wider than any bound
    /// would allow, and layer times of layers only some workloads have.
    pub report_only: Vec<Metric>,
    /// Sample counts and other notes for the human-readable report.
    pub samples: Vec<String>,
    /// Checked against the pins at the default seed.
    pub predicate_calls: u64,
    pub final_bytes_pct: f64,
    /// Predicate calls over the instances that form the `eval` suite,
    /// for workloads that contain it.
    pub eval_calls: Option<u64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a number")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Compares the run against the pins recorded for the default seed.
fn check_pins(meta: &Json, args: &Args, m: &mut Measured) {
    let default_seed = meta.u64_field("default_seed").expect("default_seed");
    if args.seed != default_seed {
        return;
    }
    let Some(pins) = meta
        .get("workloads")
        .and_then(|w| w.get(&args.workload))
        .and_then(|w| w.get("pins"))
    else {
        m.errors
            .push(format!("no pins recorded for {}", args.workload));
        return;
    };
    let calls = pins.u64_field("predicate_calls").expect("pinned calls");
    if m.predicate_calls != calls {
        m.errors.push(format!(
            "predicate_calls {} != pinned {calls} at seed {default_seed}",
            m.predicate_calls
        ));
    }
    if let Some(calls) = pins.u64_field("eval_predicate_calls") {
        if m.eval_calls != Some(calls) {
            m.errors.push(format!(
                "predicate_calls over the eval suite {:?} != pinned {calls} at seed {default_seed}",
                m.eval_calls
            ));
        }
    }
    let pct = pins.f64_field("final_bytes_pct").expect("pinned bytes");
    if (m.final_bytes_pct - pct).abs() > 1e-9 * pct.abs().max(1.0) {
        m.errors.push(format!(
            "final_bytes_pct {} != pinned {pct} at seed {default_seed}",
            m.final_bytes_pct
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cf-greedy|svm-guided|svc-mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let meta = Json::parse(WORKLOADS_JSON).expect("workloads.json parses");
    let tracer = Tracer::new(args.trace);
    let mut m = match args.workload.as_str() {
        "cf-greedy" => inproc::run(
            |t| inproc::cf_setup(args.seed, t),
            "logical",
            args.seconds,
            &tracer,
        ),
        "svm-guided" => inproc::run(
            |t| inproc::svm_setup(args.seed, t),
            "logical/trace-guided",
            args.seconds,
            &tracer,
        ),
        "svc-mixed" => service::run(args.seed, args.seconds, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    check_pins(&meta, &args, &mut m);

    let (wanted, got): (&[(&str, &str)], &[Metric]) = if args.trace {
        (&PER_LAYER, &m.per_layer)
    } else {
        (&END_TO_END, &m.end_to_end)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match got.iter().find(|x| x.name == name) {
            Some(x) => x.value,
            // A per-layer metric of a layer this workload bypasses.
            None if args.trace => 0.0,
            None => {
                m.errors.push(format!("{name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            m.errors.push(format!("{name} is not a finite number"));
            continue;
        }
        metrics.push(Metric::new(name, value, unit));
    }

    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for x in &metrics {
        println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    for x in &m.report_only {
        println!(
            "  {:<28} {:>16.6} {} (report only)",
            x.name, x.value, x.unit
        );
    }
    println!(
        "  {:<28} {:>16.6} fraction ({} of {})",
        "failed_frac",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    for note in &m.samples {
        println!("  # {note}");
    }
    if args.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.json", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(n) => println!("  # wrote {n} spans to {}", path.display()),
            Err(e) => m.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    for e in &m.errors {
        println!("  ! {e}");
    }
    let correct = m.errors.is_empty() && m.failed == 0 && m.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
