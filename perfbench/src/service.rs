//! The `svc-mixed` workload: an in-process daemon with 2 workers and
//! default config, driven by 2 binary-framed connections in a closed
//! loop over a seeded job stream.
//!
//! Each connection's stream holds `FRESH` inputs of its own plus `FRESH`
//! repeats of inputs it has already completed, so the fresh half writes
//! the persistent oracle cache and the repeat half reads it. A round
//! runs the whole stream against a fresh daemon and state directory, so
//! every round has the same cache behaviour; rounds repeat until the
//! run's time is up. The reference workload is timed before and after
//! every round, while no daemon is up, and the round is measured in
//! multiples of it (`wall_ref`).

use crate::stats::{
    beyond, geo_mean, median, peak_rss_mb, percentile, reference_work, reset_peak_rss,
    warm_reference, SetupTimes,
};
use crate::trace::Tracer;
use crate::{Measured, Metric, OUT_DIR};
use lbr_classfile::{read_program, write_program, Program};
use lbr_core::{Input, ProbeStats, ReductionTrace};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionReport, SizeMetrics};
use lbr_prng::SplitMix64;
use lbr_service::{Client, Connection, Daemon, DaemonConfig, Json, Submitted};
use lbr_workload::{generate, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop connections, and daemon workers.
const CONNS: usize = 2;
const WORKERS: usize = 2;
/// Fresh inputs per connection; the stream repeats as many.
const FRESH: usize = 8;
/// Classes per generated input: enough that reduction, not the daemon's
/// fsync'd state writes (spec, checkpoints, result, output), takes most
/// of a job, so a host's disk latency moves the round time little.
const CLASSES: usize = 36;
/// Reference workload runs timed before and again after each round.
const REF_SAMPLES: usize = 4;
/// A job that sends no event for this long fails the run instead of
/// hanging it.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One generated input on disk with the oracle the daemon will rebuild.
struct SvcInput {
    path: PathBuf,
    oracle: DecompilerOracle,
}

struct SvcSetup {
    inputs: Vec<SvcInput>,
    gen: Duration,
    baseline: Duration,
}

fn start_daemon(state: &Path) -> std::io::Result<(String, JoinHandle<std::io::Result<()>>)> {
    let daemon = Daemon::start(DaemonConfig::new(state, WORKERS))?;
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run());
    if !Client::connect(addr.clone()).wait_ready(Duration::from_secs(10)) {
        return Err(std::io::Error::other("daemon did not come up"));
    }
    Ok((addr, handle))
}

fn stop_daemon(addr: &str, handle: JoinHandle<std::io::Result<()>>) -> Result<(), String> {
    Client::connect(addr)
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?
        .map_err(|e| format!("daemon: {e}"))
}

/// Generates the `CONNS * FRESH` failing inputs (input `j` from seed
/// `seed + j`, skipping seeds whose program does not fail decompiler
/// `a`), writes them as containers, and starts and stops a daemon.
fn setup(seed: u64, dir: &Path, tracer: &Tracer) -> Result<SvcSetup, String> {
    let inputs_dir = dir.join("inputs");
    std::fs::create_dir_all(&inputs_dir).map_err(|e| format!("{}: {e}", inputs_dir.display()))?;
    let mut s = SvcSetup {
        inputs: Vec::new(),
        gen: Duration::ZERO,
        baseline: Duration::ZERO,
    };
    let mut k = 0u64;
    while s.inputs.len() < CONNS * FRESH {
        if k >= 8 * (CONNS * FRESH) as u64 {
            return Err("too few generated inputs fail decompiler a".to_owned());
        }
        let config = WorkloadConfig {
            seed: seed.wrapping_add(k),
            classes: CLASSES,
            interfaces: (CLASSES / 3).max(2),
            plant: BugSet::decompiler_a().kinds().to_vec(),
            ..WorkloadConfig::default()
        };
        let (program, took) = tracer.span("workload.generate", 0, k, || generate(&config));
        s.gen += took;
        let (oracle, took) = tracer.span("oracle.baseline", 0, k, || {
            DecompilerOracle::new(&program, BugSet::decompiler_a())
        });
        s.baseline += took;
        k += 1;
        if !oracle.is_failing() {
            continue;
        }
        let path = inputs_dir.join(format!("in-{}.lbrc", s.inputs.len()));
        std::fs::write(&path, write_program(&program))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        s.inputs.push(SvcInput { path, oracle });
    }
    let state = dir.join("state-setup");
    let (addr, handle) = start_daemon(&state).map_err(|e| format!("start daemon: {e}"))?;
    stop_daemon(&addr, handle)?;
    let _ = std::fs::remove_dir_all(&state);
    Ok(s)
}

/// Each connection's job stream, as input indices: its own `FRESH`
/// inputs in order, with `FRESH` repeats of already-completed ones
/// shuffled in after the first.
fn streams(seed: u64) -> Vec<Vec<(usize, bool)>> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EC0_57EA_4D1C_E5ED);
    (0..CONNS)
        .map(|c| {
            let mut kinds: Vec<bool> = std::iter::repeat_n(false, FRESH - 1)
                .chain(std::iter::repeat_n(true, FRESH))
                .collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.gen_range(0..=i as u64) as usize);
            }
            let mut next_fresh = 0;
            let mut stream = Vec::with_capacity(2 * FRESH);
            for repeat in std::iter::once(false).chain(kinds) {
                if repeat {
                    let done = rng.gen_range(0..next_fresh as u64) as usize;
                    stream.push((c * FRESH + done, true));
                } else {
                    stream.push((c * FRESH + next_fresh, false));
                    next_fresh += 1;
                }
            }
            stream
        })
        .collect()
}

/// One job as the client saw it.
struct JobSeen {
    input: usize,
    repeat: bool,
    latency_ms: f64,
    /// The terminal event's result document; `None` when shed.
    result: Option<Json>,
    output: PathBuf,
}

/// One connection's closed loop: submit, wait for the terminal event,
/// submit the next.
fn drive_connection(
    addr: &str,
    stream: &[(usize, bool)],
    inputs: &[SvcInput],
    out_dir: &Path,
    conn_no: usize,
    start: &Barrier,
    tracer: Option<(&Tracer, u64)>,
) -> std::io::Result<Vec<JobSeen>> {
    let conn = Connection::negotiate(addr, true);
    start.wait();
    let mut conn = conn?;
    let mut seen = Vec::with_capacity(stream.len());
    for (k, &(input, repeat)) in stream.iter().enumerate() {
        let output = out_dir.join(format!("out-{conn_no}-{k}.lbrc"));
        let spec = Json::obj([
            ("input", Json::str(inputs[input].path.display().to_string())),
            ("decompiler", Json::str("a")),
            ("output", Json::str(output.display().to_string())),
        ]);
        let span = tracer.map(|(t, _)| t.open());
        let submitted = Instant::now();
        let id = match conn.try_submit(&spec, true)? {
            Submitted::Accepted(id) => id,
            Submitted::Shed { .. } => {
                seen.push(JobSeen {
                    input,
                    repeat,
                    latency_ms: 0.0,
                    result: None,
                    output,
                });
                continue;
            }
        };
        let result = loop {
            let event = conn.poll_event(EVENT_TIMEOUT)?.ok_or_else(|| {
                std::io::Error::other(format!("no event for job {id} within {EVENT_TIMEOUT:?}"))
            })?;
            match event.str_field("event") {
                Some("terminal") if event.u64_field("id") == Some(id) => {
                    break event.get("result").cloned().unwrap_or(Json::Null);
                }
                Some("error") => {
                    return Err(std::io::Error::other(format!(
                        "daemon error: {}",
                        event.render()
                    )))
                }
                _ => {}
            }
        };
        let took = match (tracer, span) {
            (Some((t, parent)), Some(span)) => t.close("service.job", span, parent, id, submitted),
            _ => submitted.elapsed(),
        };
        seen.push(JobSeen {
            input,
            repeat,
            latency_ms: took.as_secs_f64() * 1e3,
            result: Some(result),
            output,
        });
    }
    Ok(seen)
}

/// What one round measured.
struct Round {
    wall: f64,
    /// Median time of the reference workload around the round.
    reference: f64,
    /// Peak resident set size from daemon start to daemon stop.
    peak_rss_mb: f64,
    jobs: Vec<JobSeen>,
    stats: Json,
}

fn run_round(
    dir: &Path,
    inputs: &[SvcInput],
    streams: &[Vec<(usize, bool)>],
    tracer: Option<&Tracer>,
) -> Result<Round, String> {
    let state = dir.join("state");
    let _ = std::fs::remove_dir_all(&state);
    let out_dir = dir.join("out");
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // The reference runs while no daemon is up, so nothing of the
    // daemon's shares the cores with it.
    let mut references: Vec<f64> = (0..REF_SAMPLES)
        .map(|_| reference_work().as_secs_f64())
        .collect();
    reset_peak_rss();
    let (addr, handle) = start_daemon(&state).map_err(|e| format!("start daemon: {e}"))?;
    let round_span = tracer.map(|t| t.open());
    let barrier = Barrier::new(CONNS + 1);
    let (start, outcomes) = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (addr, out_dir, barrier) = (&addr, &out_dir, &barrier);
                let traced = tracer.zip(round_span);
                scope.spawn(move || {
                    drive_connection(addr, stream, inputs, out_dir, c, barrier, traced)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("connection thread"))
            .collect();
        (start, outcomes)
    });
    let wall = match (tracer, round_span) {
        (Some(t), Some(span)) => t.close("service.round", span, 0, 0, start),
        _ => start.elapsed(),
    }
    .as_secs_f64();
    let stats = Client::connect(addr.clone()).stats();
    stop_daemon(&addr, handle)?;
    let peak_rss_mb = peak_rss_mb();
    references.extend((0..REF_SAMPLES).map(|_| reference_work().as_secs_f64()));
    let mut jobs = Vec::new();
    for outcome in outcomes {
        jobs.extend(outcome.map_err(|e| format!("connection: {e}"))?);
    }
    let stats = stats.map_err(|e| format!("stats: {e}"))?;
    Ok(Round {
        wall,
        reference: median(&references),
        peak_rss_mb,
        jobs,
        stats,
    })
}

/// Checks one finished job and returns its (predicate calls, reduced
/// bytes) for the determinism check, or why it failed.
fn check_job(job: &JobSeen, inputs: &[SvcInput]) -> Result<(u64, Vec<u8>), String> {
    let doc = job.result.as_ref().ok_or("shed")?;
    if doc.str_field("status") != Some("done") {
        return Err(format!("job ended {}", doc.render()));
    }
    if doc.bool_field("replayed") == Some(true) {
        return Err("job was replayed from the result store".to_owned());
    }
    let bytes = std::fs::read(&job.output).map_err(|e| format!("{}: {e}", job.output.display()))?;
    let reduced: Program = read_program(&bytes).map_err(|e| format!("reduced container: {e}"))?;
    let field = |k: &str| doc.u64_field(k).ok_or(format!("result without {k}"));
    let oracle = &inputs[job.input].oracle;
    let report = ReductionReport {
        strategy: doc.str_field("strategy").unwrap_or("?").to_owned(),
        initial: SizeMetrics {
            classes: field("initial_classes")? as usize,
            bytes: field("initial_bytes")? as usize,
        },
        final_metrics: SizeMetrics {
            classes: field("final_classes")? as usize,
            bytes: field("final_bytes")? as usize,
        },
        predicate_calls: field("predicate_calls")?,
        probe_stats: ProbeStats::default(),
        wall_secs: doc.f64_field("wall_secs").unwrap_or(0.0),
        modeled_secs: 0.0,
        trace: ReductionTrace::new(),
        model_stats: None,
        errors_preserved: oracle.preserves_failure(&reduced),
        still_valid: reduced.validate().is_empty(),
        reduced,
    };
    if SizeMetrics::of(&report.reduced) != report.final_metrics {
        return Err("reported final size differs from the reduced container".to_owned());
    }
    check_report(&report)?;
    Ok((report.predicate_calls, bytes))
}

/// What every round must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RoundOutcome {
    calls: u64,
    bytes_pct: f64,
    units_pct: f64,
    /// Probes each half sent down to the persistent cache (the memo
    /// misses in its job results).
    fresh_lookups: u64,
    repeat_lookups: u64,
}

fn lookups(round: &Round, repeat: bool) -> u64 {
    round
        .jobs
        .iter()
        .filter(|j| j.repeat == repeat)
        .filter_map(|j| j.result.as_ref()?.u64_field("cache_misses"))
        .sum()
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut at = doc;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return f64::NAN,
        }
    }
    at.as_f64().unwrap_or(f64::NAN)
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let dir = PathBuf::from(OUT_DIR).join(format!("svc-{}", std::process::id()));
    let dir = match std::fs::create_dir_all(&dir).and_then(|()| dir.canonicalize()) {
        Ok(dir) => dir,
        Err(e) => {
            m.errors.push(format!("{}: {e}", dir.display()));
            return m;
        }
    };
    let result = run_in(seed, seconds, tracer, &dir, &mut m);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        m.errors.push(e);
    }
    m
}

fn run_in(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    dir: &Path,
    m: &mut Measured,
) -> Result<(), String> {
    warm_reference();
    let mut setup_times = SetupTimes::default();
    let set_up = |times: &mut SetupTimes, rep_dir: &Path| -> Result<SvcSetup, String> {
        let s = times.time(|| setup(seed, rep_dir, tracer))?;
        times.record_layers(s.gen, s.baseline);
        Ok(s)
    };
    let inputs = set_up(&mut setup_times, &dir.join("setup"))?.inputs;
    let streams = streams(seed);

    let traced = tracer.enabled();
    let mut model_s = 0.0;
    let (mut items, mut clauses) = (0usize, 0usize);
    if traced {
        for (i, input) in inputs.iter().enumerate() {
            let bytes = std::fs::read(&input.path).map_err(|e| e.to_string())?;
            let program = read_program(&bytes).map_err(|e| e.to_string())?;
            let (model, took) = tracer.span("frontend.model", 0, i as u64, || program.model());
            model_s += took.as_secs_f64();
            let model = model.map_err(|e| format!("input {i}: model: {e}"))?;
            items += model.stats.items;
            clauses += model.stats.clauses;
        }
    }

    let start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut timed: Vec<Round> = Vec::new();
    while plain.is_empty()
        || (traced && timed.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let use_tracer = traced && timed.len() < plain.len();
        let round = run_round(dir, &inputs, &streams, use_tracer.then_some(tracer))?;
        if use_tracer {
            timed.push(round);
        } else {
            plain.push(round);
        }
        let rep_dir = dir.join("setup-again");
        set_up(&mut setup_times, &rep_dir)?;
        let _ = std::fs::remove_dir_all(&rep_dir);
    }

    // Check every job; a repeat must reduce exactly like the first run of
    // its input, cache cold or warm, in every round.
    let mut first_seen: Vec<Option<(u64, Vec<u8>)>> = vec![None; inputs.len()];
    let mut per_round: Vec<RoundOutcome> = Vec::new();
    for round in plain.iter().chain(&timed) {
        let mut calls = 0u64;
        let (mut bytes, mut units) = (Vec::new(), Vec::new());
        for job in &round.jobs {
            m.attempted += 1;
            match check_job(job, &inputs) {
                Ok(outcome) => {
                    let doc = job.result.as_ref().expect("checked job");
                    calls += outcome.0;
                    let ratio = |a: &str, b: &str| {
                        doc.u64_field(a).unwrap_or(0) as f64
                            / doc.u64_field(b).unwrap_or(1).max(1) as f64
                    };
                    bytes.push(ratio("final_bytes", "initial_bytes"));
                    units.push(ratio("final_classes", "initial_classes"));
                    match &first_seen[job.input] {
                        None => first_seen[job.input] = Some(outcome),
                        Some(first) if *first != outcome => m.errors.push(format!(
                            "input {}: a {} job reduced differently from its first run",
                            job.input,
                            if job.repeat { "repeat" } else { "fresh" }
                        )),
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    m.failed += 1;
                    m.errors.push(format!("input {}: {e}", job.input));
                }
            }
        }
        if bytes.is_empty() {
            continue;
        }
        // Fresh inputs have cache namespaces of their own, so every hit
        // belongs to the repeat half and every miss to the fresh half.
        let outcome = RoundOutcome {
            calls,
            bytes_pct: 100.0 * geo_mean(&bytes),
            units_pct: 100.0 * geo_mean(&units),
            fresh_lookups: lookups(round, false),
            repeat_lookups: lookups(round, true),
        };
        let hits = num(&round.stats, &["cache", "hits"]);
        let misses = num(&round.stats, &["cache", "misses"]);
        if hits != outcome.repeat_lookups as f64 || misses != outcome.fresh_lookups as f64 {
            m.errors.push(format!(
                "cache hits {hits} / misses {misses} do not match the repeat half's {} / fresh half's {} lookups",
                outcome.repeat_lookups, outcome.fresh_lookups
            ));
        }
        per_round.push(outcome);
    }
    if per_round.is_empty() {
        return Err("no job finished".to_owned());
    }
    if per_round.iter().any(|r| *r != per_round[0]) {
        m.errors
            .push("rounds disagree on calls, sizes or cache lookups".to_owned());
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let in_refs: Vec<f64> = plain.iter().map(|r| r.wall / r.reference).collect();
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|r| {
            r.jobs
                .iter()
                .filter(|j| j.result.is_some())
                .map(|j| j.latency_ms)
        })
        .collect();
    // Throughput of the median round, like wall_ref, so one slow round
    // does not move it.
    let wall = median(&walls);
    let wall_ref = median(&in_refs);
    let jobs_per_round: usize = streams.iter().map(Vec::len).sum();
    let RoundOutcome {
        calls,
        bytes_pct,
        units_pct,
        fresh_lookups,
        repeat_lookups,
    } = per_round[0];
    m.predicate_calls = calls;
    m.final_bytes_pct = bytes_pct;
    m.end_to_end = vec![
        Metric::new("wall_ref", wall_ref, "ref"),
        Metric::new("predicate_calls", calls as f64, "count"),
        Metric::new("final_bytes_pct", bytes_pct, "%"),
        Metric::new("final_units_pct", units_pct, "%"),
        Metric::new("jobs_per_ref", jobs_per_round as f64 / wall_ref, "1/ref"),
        Metric::new("setup_s", median(&setup_times.at_ref), "s"),
        Metric::new(
            "peak_rss_mb",
            median(&plain.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
        ),
    ];
    m.report_only = vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("jobs_per_s", jobs_per_round as f64 / wall, "1/s"),
        Metric::new("setup_wall_s", median(&setup_times.wall), "s"),
        Metric::new(
            "ref_ms",
            1e3 * median(&plain.iter().map(|r| r.reference).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new("job_p50_ms", percentile(&latencies, 0.5), "ms"),
        Metric::new("job_p90_ms", percentile(&latencies, 0.9), "ms"),
    ];
    m.samples = vec![
        format!(
            "wall_ref, wall_s: median of {} rounds of {} jobs ({CONNS} closed-loop connections, \
             {WORKERS} workers; rounds in s / ref: {})",
            walls.len(),
            jobs_per_round,
            plain
                .iter()
                .map(|r| format!("{:.3}/{:.1}", r.wall, r.wall / r.reference))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "job_p50_ms, job_p90_ms: submit to terminal event, over {} jobs ({} beyond p90)",
            latencies.len(),
            beyond(latencies.len(), 0.9)
        ),
        format!(
            "setup_s: median of {} set-ups, one before the rounds and one after each",
            setup_times.wall.len()
        ),
        format!(
            "peak_rss_mb: median over {} rounds of the peak during each",
            plain.len()
        ),
    ];

    if traced {
        let rounds = &timed;
        let traced_refs: Vec<f64> = rounds.iter().map(|r| r.wall / r.reference).collect();
        let stat =
            |path: &[&str]| -> Vec<f64> { rounds.iter().map(|r| num(&r.stats, path)).collect() };
        let run_s: Vec<f64> = rounds
            .iter()
            .map(|r| {
                r.jobs
                    .iter()
                    .filter_map(|j| j.result.as_ref()?.f64_field("wall_secs"))
                    .sum()
            })
            .collect();
        // Latency not spent queued or reducing: wire, reactor,
        // checkpoints and delivery.
        let overheads: Vec<f64> = rounds
            .iter()
            .flat_map(|r| {
                let wait = num(&r.stats, &["queue", "avg_wait_ms"]);
                r.jobs.iter().filter_map(move |j| {
                    let wall = j.result.as_ref()?.f64_field("wall_secs")?;
                    Some(j.latency_ms - wait - wall * 1e3)
                })
            })
            .collect();
        let shed = stat(&["queue", "shed_queue_full"])
            .iter()
            .zip(stat(&["queue", "shed_client_cap"]))
            .map(|(a, b)| a + b)
            .sum::<f64>();
        let run_s = median(&run_s);
        let p50_ms = percentile(&latencies, 0.5);
        let wait_ms = median(&stat(&["queue", "avg_wait_ms"]));
        let overhead_ms = median(&overheads);
        m.per_layer = vec![
            Metric::new("workload.gen_s", median(&setup_times.gen), "s"),
            Metric::new("oracle.baseline_s", median(&setup_times.baseline), "s"),
            Metric::new("frontend.model_s", model_s, "s"),
            Metric::new("frontend.items", items as f64, "count"),
            Metric::new("frontend.clauses", clauses as f64, "count"),
            Metric::new("run.busy_s", run_s, "s"),
            Metric::new("service.queue_wait_frac", wait_ms / p50_ms, "fraction"),
            Metric::new("service.overhead_frac", overhead_ms / p50_ms, "fraction"),
            Metric::new(
                "service.worker_utilization",
                median(&stat(&["worker_utilization"])),
                "fraction",
            ),
            Metric::new("service.cache_hits", repeat_lookups as f64, "count"),
            Metric::new("service.cache_misses", fresh_lookups as f64, "count"),
            Metric::new(
                "service.cache_hit_frac",
                repeat_lookups as f64 / (repeat_lookups + fresh_lookups).max(1) as f64,
                "fraction",
            ),
            Metric::new("service.repeat_lookups", repeat_lookups as f64, "count"),
            Metric::new("service.fresh_lookups", fresh_lookups as f64, "count"),
            Metric::new(
                "service.frames_in",
                median(&stat(&["net", "frames_in"])),
                "count",
            ),
            Metric::new(
                "service.frames_out",
                median(&stat(&["net", "frames_out"])),
                "count",
            ),
            Metric::new("service.shed", shed, "count"),
            Metric::new(
                "trace.overhead_frac",
                median(&traced_refs) / wall_ref - 1.0,
                "fraction",
            ),
        ];
        m.report_only.extend([
            Metric::new("service.queue_wait_avg_ms", wait_ms, "ms"),
            Metric::new(
                "service.queue_wait_max_ms",
                stat(&["queue", "max_wait_ms"])
                    .into_iter()
                    .fold(0.0, f64::max),
                "ms",
            ),
            Metric::new("service.overhead_ms", overhead_ms, "ms"),
        ]);
        m.samples.push(
            "per-layer: run.busy_s sums the jobs' wall_secs per round; the queue wait and \
             overhead fractions are of job_p50_ms"
                .to_owned(),
        );
        m.samples.push(format!(
            "per-layer: {} traced rounds against {} plain rounds",
            rounds.len(),
            plain.len()
        ));
    }
    Ok(())
}
