//! The in-process workloads: `cf-greedy` (classfile suite, greedy GBR)
//! and `svm-guided` (large stackvm modules, trace-guided GBR).
//!
//! Each pass reduces every instance once through `ReductionSession::run`
//! and checks every report with `check_report`. Plain passes hand the
//! session the bare oracle; traced passes hand it a `TimedOracle`.
//!
//! The reference workload is timed between sessions, and each session is
//! measured in multiples of the reference times around it (`wall_ref`):
//! on a shared host the speed of memory-bound code drifts by a quarter or
//! more from one minute to the next, and the reference drifts with it.

use crate::stats::{
    beyond, geo_mean, median, peak_rss_mb, percentile, reference_work, warm_reference, SetupTimes,
};
use crate::trace::{OracleTally, TimedOracle, Tracer};
use crate::{Measured, Metric};
use lbr_core::{Input, InputOracle};
use lbr_decompiler::{BugKind, BugSet, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionSession};
use lbr_stackvm::{StackBugKind, StackBugSet, StackOracle};
use lbr_workload::{generate, generate_stack, StackShape, StackWorkloadConfig, WorkloadConfig};
use std::time::{Duration, Instant};

/// Set-ups repeated after each pass; `setup_s` is the median of all of
/// them, spread over the run like the passes themselves.
const SETUP_REPS_PER_PASS: usize = 3;

/// `cf-greedy`: programs in the classfile suite, and their size scale.
/// The first `CF_EVAL_PROGRAMS` programs are the `eval --programs 4
/// --scale 3` suite; the rest average out how much work one seed's
/// programs take.
const CF_PROGRAMS: usize = 6;
const CF_EVAL_PROGRAMS: usize = 4;
const CF_SCALE: f64 = 3.0;

/// `svm-guided`: failing modules per pass and functions per module.
const SVM_MODULES: usize = 24;
const SVM_FUNCTIONS: usize = 400;

/// One failing (input, oracle) instance.
pub struct Instance<I, O> {
    pub name: String,
    pub input: I,
    pub oracle: O,
}

/// The instance set plus what building it cost.
pub struct Setup<I, O> {
    pub instances: Vec<Instance<I, O>>,
    /// How many leading instances form the `eval` suite whose predicate
    /// calls are pinned; 0 when the workload has none.
    pub eval_instances: usize,
    pub gen: Duration,
    pub baseline: Duration,
}

/// The classfile suite, built the way `lbr_workload::suite` builds it
/// (program `k` from seed `seed + k`, all bug patterns planted, kept
/// per decompiler when it fails) so generation and oracle baselines can
/// be timed apart.
pub fn cf_setup(seed: u64, tracer: &Tracer) -> Setup<lbr_classfile::Program, DecompilerOracle> {
    let decompilers = [
        ("a", BugSet::decompiler_a()),
        ("b", BugSet::decompiler_b()),
        ("c", BugSet::decompiler_c()),
    ];
    let mut setup = Setup {
        instances: Vec::new(),
        eval_instances: 0,
        gen: Duration::ZERO,
        baseline: Duration::ZERO,
    };
    for k in 0..CF_PROGRAMS {
        if k == CF_EVAL_PROGRAMS {
            setup.eval_instances = setup.instances.len();
        }
        let config = WorkloadConfig {
            seed: seed.wrapping_add(k as u64),
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }
        .scaled(CF_SCALE);
        let (program, took) = tracer.span("workload.generate", 0, k as u64, || generate(&config));
        setup.gen += took;
        for (suffix, bugs) in &decompilers {
            let (oracle, took) = tracer.span("oracle.baseline", 0, k as u64, || {
                DecompilerOracle::new(&program, bugs.clone())
            });
            setup.baseline += took;
            if oracle.is_failing() {
                setup.instances.push(Instance {
                    name: format!("njr{k}-{suffix}"),
                    input: program.clone(),
                    oracle,
                });
            }
        }
    }
    setup
}

/// `SVM_MODULES` failing stackvm modules of `SVM_FUNCTIONS` functions,
/// module `k` from seed `seed + k`, rotating through the shapes.
pub fn svm_setup(seed: u64, tracer: &Tracer) -> Setup<lbr_stackvm::Module, StackOracle> {
    let mut setup = Setup {
        instances: Vec::new(),
        eval_instances: 0,
        gen: Duration::ZERO,
        baseline: Duration::ZERO,
    };
    let mut k = 0usize;
    while setup.instances.len() < SVM_MODULES && k < 4 * SVM_MODULES {
        let config = StackWorkloadConfig {
            seed: seed.wrapping_add(k as u64),
            functions: SVM_FUNCTIONS,
            shape: StackShape::ALL[k % StackShape::ALL.len()],
            plant: StackBugKind::ALL.to_vec(),
            ..StackWorkloadConfig::default()
        };
        let (module, took) =
            tracer.span("workload.generate", 0, k as u64, || generate_stack(&config));
        setup.gen += took;
        let (oracle, took) = tracer.span("oracle.baseline", 0, k as u64, || {
            StackOracle::new(&module, StackBugSet::all())
        });
        setup.baseline += took;
        if oracle.is_failing() {
            setup.instances.push(Instance {
                name: format!("svm{k}"),
                input: module,
                oracle,
            });
        }
        k += 1;
    }
    setup
}

/// What one pass over the instance set produced.
struct Pass {
    /// Sum of `ReductionSession::run` wall time over the instances.
    wall: f64,
    per_instance: Vec<f64>,
    /// Each session's wall time over the mean of the reference workload's
    /// times measured just before and just after it.
    per_instance_ref: Vec<f64>,
    calls: u64,
    /// Predicate calls the run's own memo answered.
    memo_hits: u64,
    /// (predicate calls, final bytes, final units) per instance: must be
    /// identical on every pass.
    outcome: Vec<(u64, usize, usize)>,
    bytes_pct: f64,
    units_pct: f64,
    oracle: OracleTally,
    failed: u64,
}

fn run_pass<I: Input, O: InputOracle<I>>(
    instances: &[Instance<I, O>],
    strategy: &str,
    tracer: Option<&Tracer>,
    errors: &mut Vec<String>,
) -> Pass {
    let mut pass = Pass {
        wall: 0.0,
        per_instance: Vec::with_capacity(instances.len()),
        per_instance_ref: Vec::with_capacity(instances.len()),
        calls: 0,
        memo_hits: 0,
        outcome: Vec::with_capacity(instances.len()),
        bytes_pct: 0.0,
        units_pct: 0.0,
        oracle: OracleTally::default(),
        failed: 0,
    };
    let mut bytes = Vec::new();
    let mut units = Vec::new();
    let mut before = reference_work().as_secs_f64();
    for (i, inst) in instances.iter().enumerate() {
        let (result, took) = match tracer {
            None => {
                let start = Instant::now();
                let result = ReductionSession::new(&inst.input, &inst.oracle)
                    .strategy(strategy)
                    .run();
                (result, start.elapsed())
            }
            Some(tracer) => {
                let id = tracer.open();
                let timed = TimedOracle::new(&inst.oracle, tracer, id, i as u64);
                let start = Instant::now();
                let result = ReductionSession::new(&inst.input, &timed)
                    .strategy(strategy)
                    .run();
                let took = tracer.close("session.run", id, 0, i as u64, start);
                let tally = timed.tally();
                pass.oracle.calls += tally.calls;
                pass.oracle.busy += tally.busy;
                pass.oracle.preserving += tally.preserving;
                (result, took)
            }
        };
        let after = reference_work().as_secs_f64();
        let secs = took.as_secs_f64();
        pass.wall += secs;
        pass.per_instance.push(secs);
        pass.per_instance_ref.push(secs / ((before + after) / 2.0));
        before = after;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                errors.push(format!("{}: {e}", inst.name));
                pass.failed += 1;
                pass.outcome.push((0, 0, 0));
                continue;
            }
        };
        if let Err(e) = check_report(&report) {
            errors.push(format!("{}: {e}", inst.name));
            pass.failed += 1;
        }
        pass.calls += report.predicate_calls;
        pass.memo_hits += report.probe_stats.memo_hits;
        pass.outcome.push((
            report.predicate_calls,
            report.final_metrics.bytes,
            report.final_metrics.classes,
        ));
        bytes.push(report.relative_bytes());
        units.push(report.relative_classes());
    }
    if !bytes.is_empty() {
        pass.bytes_pct = 100.0 * geo_mean(&bytes);
        pass.units_pct = 100.0 * geo_mean(&units);
    }
    pass
}

/// Each instance's `time` (wall seconds or reference multiples), median
/// over `passes`.
fn per_instance_medians(passes: &[Pass], time: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    (0..time(&passes[0]).len())
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| time(p)[i]).collect();
            median(&times)
        })
        .collect()
}

fn wall_s(p: &Pass) -> &[f64] {
    &p.per_instance
}

fn wall_ref(p: &Pass) -> &[f64] {
    &p.per_instance_ref
}

/// Builds the instance set, then reduces it pass after pass until
/// `seconds` have gone by, timing `SETUP_REPS_PER_PASS` more set-ups
/// after each pass. With `traced`, plain and traced passes alternate,
/// and the per-layer metrics come from the traced ones.
pub fn run<I: Input, O: InputOracle<I>>(
    setup: impl Fn(&Tracer) -> Setup<I, O>,
    strategy: &str,
    seconds: f64,
    tracer: &Tracer,
) -> Measured {
    warm_reference();
    let mut setup_times = SetupTimes::default();
    let set_up = |times: &mut SetupTimes| {
        let s = times.time(|| setup(tracer));
        times.record_layers(s.gen, s.baseline);
        s
    };
    let Setup {
        instances,
        eval_instances,
        ..
    } = set_up(&mut setup_times);
    let mut m = Measured::default();
    if instances.is_empty() {
        m.errors
            .push("the workload produced no failing instances".to_owned());
        return m;
    }

    let traced = tracer.enabled();
    let (mut model_s, mut items, mut clauses) = (0.0, 0usize, 0usize);
    if traced {
        for (i, inst) in instances.iter().enumerate() {
            let (model, took) = tracer.span("frontend.model", 0, i as u64, || inst.input.model());
            model_s += took.as_secs_f64();
            match model {
                Ok(model) => {
                    items += model.stats.items;
                    clauses += model.stats.clauses;
                }
                Err(e) => m.errors.push(format!("{}: model: {e}", inst.name)),
            }
        }
    }

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut timed: Vec<Pass> = Vec::new();
    while plain.is_empty()
        || (traced && timed.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let use_tracer = traced && timed.len() < plain.len();
        let pass = run_pass(
            &instances,
            strategy,
            use_tracer.then_some(tracer),
            &mut m.errors,
        );
        m.attempted += instances.len() as u64;
        m.failed += pass.failed;
        if use_tracer {
            timed.push(pass);
        } else {
            plain.push(pass);
        }
        for _ in 0..SETUP_REPS_PER_PASS {
            set_up(&mut setup_times);
        }
    }

    let first = &plain[0];
    for pass in plain.iter().chain(&timed) {
        if pass.outcome != first.outcome {
            m.errors
                .push("a pass reduced differently from the first pass".to_owned());
            break;
        }
    }
    // Each instance's time is its median over the passes, so a burst of
    // machine noise during one pass does not move the sum.
    let wall: f64 = per_instance_medians(&plain, wall_s).iter().sum();
    let in_refs: f64 = per_instance_medians(&plain, wall_ref).iter().sum();
    let references: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.per_instance.iter().zip(&p.per_instance_ref))
        .map(|(secs, refs)| secs / refs)
        .collect();
    let latencies: Vec<f64> = per_instance_medians(&plain, wall_s)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.predicate_calls = first.calls;
    m.eval_calls =
        (eval_instances > 0).then(|| first.outcome[..eval_instances].iter().map(|o| o.0).sum());
    m.final_bytes_pct = first.bytes_pct;
    m.end_to_end = vec![
        Metric::new("wall_ref", in_refs, "ref"),
        Metric::new("predicate_calls", first.calls as f64, "count"),
        Metric::new("final_bytes_pct", first.bytes_pct, "%"),
        Metric::new("final_units_pct", first.units_pct, "%"),
        Metric::new("jobs_per_ref", instances.len() as f64 / in_refs, "1/ref"),
        Metric::new("setup_s", median(&setup_times.at_ref), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    m.report_only = vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("jobs_per_s", instances.len() as f64 / wall, "1/s"),
        Metric::new("setup_wall_s", median(&setup_times.wall), "s"),
        Metric::new("ref_ms", 1e3 * median(&references), "ms"),
        Metric::new("job_p50_ms", percentile(&latencies, 0.5), "ms"),
        Metric::new("job_p90_ms", percentile(&latencies, 0.9), "ms"),
    ];
    m.samples = vec![
        format!(
            "wall_ref, wall_s: sum over {} instances of each one's median over {} passes \
             (pass sums in s: {})",
            instances.len(),
            plain.len(),
            plain
                .iter()
                .map(|p| format!("{:.3}", p.wall))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "job_p50_ms, job_p90_ms: one job per instance, over {} instances ({} beyond p90)",
            latencies.len(),
            beyond(latencies.len(), 0.9)
        ),
        format!(
            "setup_s: median of {} set-ups spread over the run",
            setup_times.wall.len()
        ),
        "peak_rss_mb: peak of the whole run".to_owned(),
    ];

    if traced {
        let traced_refs: f64 = per_instance_medians(&timed, wall_ref).iter().sum();
        let busy: Vec<f64> = timed.iter().map(|p| p.oracle.busy.as_secs_f64()).collect();
        let selfs: Vec<f64> = timed
            .iter()
            .map(|p| p.wall - p.oracle.busy.as_secs_f64())
            .collect();
        let oracle = timed[0].oracle;
        let run_s = median(&timed.iter().map(|p| p.wall).collect::<Vec<_>>());
        let busy_s = median(&busy);
        let self_s = median(&selfs);
        m.per_layer = vec![
            Metric::new("workload.gen_s", median(&setup_times.gen), "s"),
            Metric::new("oracle.baseline_s", median(&setup_times.baseline), "s"),
            Metric::new("frontend.model_s", model_s, "s"),
            Metric::new("frontend.items", items as f64, "count"),
            Metric::new("frontend.clauses", clauses as f64, "count"),
            Metric::new("run.busy_s", run_s, "s"),
            Metric::new("oracle.calls", oracle.calls as f64, "count"),
            Metric::new("oracle.busy_frac", busy_s / run_s, "fraction"),
            Metric::new(
                "oracle.preserve_frac",
                oracle.preserving as f64 / oracle.calls.max(1) as f64,
                "fraction",
            ),
            Metric::new("reducer.memo_hits", first.memo_hits as f64, "count"),
            Metric::new(
                "trace.overhead_frac",
                traced_refs / in_refs - 1.0,
                "fraction",
            ),
        ];
        m.report_only.extend([
            Metric::new("oracle.busy_s", busy_s, "s"),
            Metric::new(
                "oracle.mean_us",
                busy_s * 1e6 / oracle.calls.max(1) as f64,
                "us",
            ),
            Metric::new("reducer.self_s", self_s, "s"),
            Metric::new(
                "reducer.self_us_per_call",
                self_s * 1e6 / first.calls.max(1) as f64,
                "us",
            ),
        ]);
        m.samples.push(format!(
            "reducer.memo_hits from the reports' probe stats; predicate_calls - oracle.calls = {} \
             (oracle.calls also counts each run's final preservation check)",
            first.calls as i64 - oracle.calls as i64
        ));
        m.samples.push(format!(
            "per-layer: {} traced passes against {} plain passes; run.busy_s and the oracle and \
             reducer times are medians over the traced passes",
            timed.len(),
            plain.len()
        ));
    }
    m
}
