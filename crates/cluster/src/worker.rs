//! The worker node: connects to a coordinator, rebuilds the exact
//! pipeline predicate per job, and evaluates pulled probe batches.
//!
//! A worker is stateless by design — everything it needs arrives in the
//! job descriptor (the container bytes, the oracle id, the modeled probe
//! latency), and everything it produces goes back as keyed verdicts. Its
//! oracle stack mirrors the single-host pipeline's exactly:
//!
//! ```text
//! probe → local memo → coordinator cache tier → latency → CandidateProbe
//! ```
//!
//! The coordinator-hosted tier is queried over the same connection
//! (`cache_get`/`cache_put`); a [`FaultPlan`] can partition it, in which
//! case the layer degrades to a local miss — the probe still runs, the
//! answer is still exact, only the sharing is lost.

use crate::wire::{from_hex, keep_from_json, keep_to_json, probe_fields, recv_doc, send_doc};
use lbr_classfile::read_program;
use lbr_core::{
    CacheLayer, ConcurrentPredicate, FaultInjector, FaultPlan, Input, InputOracle, LatencyLayer,
    MemoryCache, OracleStack, Probe, ProbeCache,
};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::CandidateProbe;
use lbr_logic::VarSet;
use lbr_service::Json;
use lbr_stackvm::{Module as StackModule, StackBugSet, StackOracle};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a worker node runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator cluster address, `host:port`.
    pub coordinator: String,
    /// Display name sent in `hello` (diagnostics only).
    pub name: String,
    /// Probes per pulled batch; `None` accepts the coordinator's value.
    pub batch: Option<usize>,
    /// Simulated cache-tier faults: each fired operation behaves as a
    /// partition (lookup → miss, store → dropped).
    pub cache_faults: Option<FaultPlan>,
    /// Reconnect (with backoff) when the coordinator drops, instead of
    /// returning the error. What `lbr-workerd` wants; in-process test
    /// workers usually don't.
    pub reconnect: bool,
    /// Cooperative stop for in-process workers; checked between
    /// requests. `None` runs until the connection dies.
    pub stop: Option<Arc<AtomicBool>>,
}

impl WorkerOptions {
    /// Options for a worker named `name` against `coordinator`.
    pub fn new(coordinator: impl Into<String>, name: impl Into<String>) -> Self {
        WorkerOptions {
            coordinator: coordinator.into(),
            name: name.into(),
            batch: None,
            cache_faults: None,
            reconnect: false,
            stop: None,
        }
    }

    fn stopped(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|stop| stop.load(Ordering::SeqCst))
    }
}

/// One strict request/response cluster connection, shareable between the
/// pull loop and the cache tier (which issues RPCs from inside probes).
struct ClusterConn {
    stream: Mutex<TcpStream>,
}

impl ClusterConn {
    fn request(&self, doc: &Json) -> io::Result<Json> {
        let mut stream = self.stream.lock().expect("conn lock");
        send_doc(&mut *stream as &mut dyn Write, doc)?;
        recv_doc(&mut *stream as &mut dyn Read)
    }
}

/// What the job-serving loop decided.
enum ServeNext {
    /// The stop flag fired; exit cleanly.
    Stop,
    /// The coordinator redirected us to another job.
    Switch(u64, Json),
}

/// Runs a worker until its stop flag fires (never, for `lbr-workerd`)
/// or — with `reconnect` off — the coordinator connection fails.
pub fn run_worker(options: &WorkerOptions) -> io::Result<()> {
    loop {
        if options.stopped() {
            return Ok(());
        }
        match serve_coordinator(options) {
            Ok(()) => return Ok(()),
            Err(e) if !options.reconnect => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// One connection's lifetime: hello, then pull/evaluate until stopped or
/// disconnected.
fn serve_coordinator(options: &WorkerOptions) -> io::Result<()> {
    let stream = TcpStream::connect(&options.coordinator)?;
    let _ = stream.set_nodelay(true);
    let conn = ClusterConn {
        stream: Mutex::new(stream),
    };
    let hello = conn.request(&Json::obj([
        ("op", Json::str("hello")),
        ("name", Json::str(options.name.clone())),
    ]))?;
    let worker = hello
        .u64_field("worker")
        .ok_or_else(|| protocol("hello reply lacks a worker id"))?;
    let batch = options
        .batch
        .unwrap_or_else(|| hello.u64_field("batch").unwrap_or(8) as usize)
        .max(1);
    let mut current: Option<(u64, Json)> = None;
    loop {
        if options.stopped() {
            return Ok(());
        }
        match current.take() {
            Some((job, descriptor)) => {
                match serve_job(&conn, options, worker, batch, job, &descriptor)? {
                    ServeNext::Stop => return Ok(()),
                    ServeNext::Switch(next_job, next_descriptor) => {
                        current = Some((next_job, next_descriptor));
                    }
                }
            }
            None => {
                let reply = conn.request(&pull_request(worker, None, batch))?;
                match reply.str_field("kind") {
                    Some("job") => current = Some(take_descriptor(&reply)?),
                    Some("idle") | None => {
                        let wait = reply.u64_field("wait_ms").unwrap_or(5).min(100);
                        std::thread::sleep(Duration::from_millis(wait));
                    }
                    Some(other) => {
                        return Err(protocol(&format!(
                            "unexpected pull kind {other:?} with no job loaded"
                        )))
                    }
                }
            }
        }
    }
}

fn pull_request(worker: u64, job: Option<u64>, max: usize) -> Json {
    let mut fields = vec![
        ("op", Json::str("pull")),
        ("worker", Json::count(worker)),
        ("max", Json::count(max as u64)),
    ];
    if let Some(job) = job {
        fields.push(("job", Json::count(job)));
    }
    Json::obj_from(fields)
}

fn take_descriptor(reply: &Json) -> io::Result<(u64, Json)> {
    let job = reply
        .u64_field("job")
        .ok_or_else(|| protocol("job reply lacks an id"))?;
    let descriptor = reply
        .get("descriptor")
        .cloned()
        .ok_or_else(|| protocol("job reply lacks a descriptor"))?;
    Ok((job, descriptor))
}

fn protocol(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Loads one job from its descriptor and serves its batches until the
/// coordinator redirects or the stop flag fires. The predicate built
/// here is byte-for-byte the pipeline's own: same container parse, same
/// oracle, same model, same materialization.
fn serve_job(
    conn: &ClusterConn,
    options: &WorkerOptions,
    worker: u64,
    batch: usize,
    job: u64,
    descriptor: &Json,
) -> io::Result<ServeNext> {
    let bytes = from_hex(
        descriptor
            .str_field("input")
            .ok_or_else(|| protocol("descriptor lacks input"))?,
    )
    .map_err(|e| protocol(&e))?;
    match descriptor.str_field("format") {
        Some("stackvm") => {
            let module = <StackModule as Input>::from_bytes(&bytes)
                .map_err(|e| protocol(&format!("bad container: {e}")))?;
            let bugs = match descriptor.str_field("decompiler") {
                Some("a") => StackBugSet::lowering_a(),
                Some("b") => StackBugSet::lowering_b(),
                Some("c") => StackBugSet::lowering_c(),
                _ => StackBugSet::all(),
            };
            let oracle = StackOracle::new(&module, bugs);
            serve_batches(
                conn, options, worker, batch, job, descriptor, &module, &oracle,
            )
        }
        _ => {
            let program =
                read_program(&bytes).map_err(|e| protocol(&format!("bad container: {e}")))?;
            let bugs = match descriptor.str_field("decompiler") {
                Some("a") => BugSet::decompiler_a(),
                Some("b") => BugSet::decompiler_b(),
                Some("c") => BugSet::decompiler_c(),
                _ => BugSet::all(),
            };
            let oracle = DecompilerOracle::new(&program, bugs);
            serve_batches(
                conn, options, worker, batch, job, descriptor, &program, &oracle,
            )
        }
    }
}

/// The format-generic half of [`serve_job`]: builds the input's logical
/// model (the pipeline's own materializer), stacks the cache tiers over
/// the job's predicate and answers pulled batches until redirected.
#[allow(clippy::too_many_arguments)]
fn serve_batches<I: Input, O: InputOracle<I>>(
    conn: &ClusterConn,
    options: &WorkerOptions,
    worker: u64,
    batch: usize,
    job: u64,
    descriptor: &Json,
    input: &I,
    oracle: &O,
) -> io::Result<ServeNext> {
    let model = input
        .model()
        .map_err(|e| protocol(&format!("bad model: {e}")))?;
    let universe = model.cnf.num_vars();
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let local_memo = MemoryCache::new();
    let memo_layer = CacheLayer::new(&local_memo);
    let remote_tier = RemoteCacheTier::new(conn, worker, job, universe, options.cache_faults);
    let remote_layer = CacheLayer::new(&remote_tier);
    let latency = LatencyLayer::new(descriptor.u64_field("latency_micros").unwrap_or(0));
    let mut stack = OracleStack::new(&base);
    stack.push(&memo_layer);
    stack.push(&remote_layer);
    stack.push(&latency);
    loop {
        if options.stopped() {
            return Ok(ServeNext::Stop);
        }
        let reply = conn.request(&pull_request(worker, Some(job), batch))?;
        match reply.str_field("kind") {
            Some("batch") => {
                let batch_universe = reply
                    .u64_field("universe")
                    .ok_or_else(|| protocol("batch lacks a universe"))?
                    as usize;
                if batch_universe != universe {
                    return Err(protocol(&format!(
                        "batch universe {batch_universe} != model universe {universe}"
                    )));
                }
                let probes = reply
                    .get("probes")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| protocol("batch lacks probes"))?;
                let mut results = Vec::with_capacity(probes.len());
                for keep_doc in probes {
                    let keep = keep_from_json(keep_doc, universe).map_err(|e| protocol(&e))?;
                    let probe = stack.probe(&keep);
                    let [outcome, size] = probe_fields(probe);
                    results.push(Json::obj([("keep", keep_to_json(&keep)), outcome, size]));
                    if options.stopped() {
                        break;
                    }
                }
                let ack = conn.request(&Json::obj([
                    ("op", Json::str("verdicts")),
                    ("worker", Json::count(worker)),
                    ("job", Json::count(job)),
                    ("universe", Json::count(universe as u64)),
                    ("results", Json::Arr(results)),
                ]))?;
                if ack.bool_field("ok") != Some(true) {
                    return Err(protocol("verdicts rejected"));
                }
            }
            Some("idle") => {
                let wait = reply.u64_field("wait_ms").unwrap_or(5).min(100);
                std::thread::sleep(Duration::from_millis(wait));
            }
            Some("job") => {
                let (next_job, next_descriptor) = take_descriptor(&reply)?;
                return Ok(ServeNext::Switch(next_job, next_descriptor));
            }
            _ => return Err(protocol("unexpected pull reply")),
        }
    }
}

/// The coordinator-hosted cache tier as a [`ProbeCache`] layer. Every
/// fault (simulated via [`FaultPlan`]) or transport error degrades the
/// operation to a local miss / dropped store — the stack beneath still
/// answers exactly, only the cross-worker sharing is lost.
struct RemoteCacheTier<'c> {
    conn: &'c ClusterConn,
    worker: u64,
    job: u64,
    universe: usize,
    faults: FaultInjector,
    /// Set after a transport error: stop issuing RPCs, run local-miss.
    degraded: AtomicBool,
}

impl<'c> RemoteCacheTier<'c> {
    fn new(
        conn: &'c ClusterConn,
        worker: u64,
        job: u64,
        universe: usize,
        plan: Option<FaultPlan>,
    ) -> Self {
        let faults = FaultInjector::new();
        if let Some(plan) = plan {
            faults.arm(plan);
        }
        RemoteCacheTier {
            conn,
            worker,
            job,
            universe,
            faults,
            degraded: AtomicBool::new(false),
        }
    }

    fn keyed(&self, op: &str, key: &VarSet) -> Vec<(&'static str, Json)> {
        let _ = op;
        vec![
            ("worker", Json::count(self.worker)),
            ("job", Json::count(self.job)),
            ("universe", Json::count(self.universe as u64)),
            ("keep", keep_to_json(key)),
        ]
    }
}

impl ProbeCache for RemoteCacheTier<'_> {
    fn lookup(&self, key: &VarSet) -> Option<Probe> {
        if self.degraded.load(Ordering::Relaxed) || self.faults.fire() {
            return None;
        }
        let mut fields = vec![("op", Json::str("cache_get"))];
        fields.extend(self.keyed("cache_get", key));
        match self.conn.request(&Json::obj_from(fields)) {
            Ok(reply) if reply.bool_field("hit") == Some(true) => Some(Probe {
                outcome: reply.bool_field("outcome")?,
                size: reply.u64_field("size")?,
            }),
            Ok(_) => None,
            Err(_) => {
                self.degraded.store(true, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, key: &VarSet, probe: Probe) {
        if self.degraded.load(Ordering::Relaxed) || self.faults.fire() {
            return;
        }
        let mut fields = vec![("op", Json::str("cache_put"))];
        fields.extend(self.keyed("cache_put", key));
        let [outcome, size] = probe_fields(probe);
        fields.push(outcome);
        fields.push(size);
        if self.conn.request(&Json::obj_from(fields)).is_err() {
            self.degraded.store(true, Ordering::Relaxed);
        }
    }
}
