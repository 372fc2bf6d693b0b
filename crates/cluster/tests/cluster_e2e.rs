//! End-to-end and property tests for the reduction cluster.
//!
//! The claims under test are the subsystem's whole point:
//!
//! * the ordered-verdict merge is a **permutation-invariant** function of
//!   the verdict set — worker reply order can never move the result;
//! * a clustered daemon produces **byte-identical** reduced output and
//!   trace digest to the single-host daemon at 1, 2, and 4 workers;
//! * a worker dying mid-run and a partitioned cache tier are both
//!   invisible to the result;
//! * a warm shared cache tier yields cross-worker hits visible in the
//!   coordinator's stats.

use lbr_classfile::write_program;
use lbr_cluster::{run_worker, ClusterServer, RemoteFrontier, SharedFrontier, WorkerOptions};
use lbr_core::{ConcurrentPredicate, FaultPlan, Input, Probe, ProbeDistributor, VerdictSource};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{
    run_logical_resumable, CandidateProbe, ReductionReport, RunOptions, ServiceHooks,
};
use lbr_logic::{MsaStrategy, VarSet};
use lbr_prng::{SliceChoose, SplitMix64};
use lbr_service::{Client, Daemon, DaemonConfig, Json, PersistentOracleCache};
use lbr_workload::{generate, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A failing benchmark program for decompiler `a`, written as a container.
fn make_container(dir: &Path, seed: u64, classes: usize) -> (PathBuf, Vec<u8>) {
    let config = WorkloadConfig {
        seed,
        classes,
        interfaces: (classes / 3).max(2),
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    };
    let program = generate(&config);
    let bytes = write_program(&program);
    let path = dir.join(format!("bench-{seed}.lbrc"));
    std::fs::write(&path, &bytes).expect("write container");
    (path, bytes)
}

/// The in-process single-host reference every cluster run must reproduce.
fn baseline(bytes: &[u8]) -> ReductionReport {
    let program = lbr_classfile::read_program(bytes).expect("read container");
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    assert!(oracle.is_failing(), "fixture must trigger decompiler a");
    run_logical_resumable(
        &program,
        &oracle,
        MsaStrategy::GreedyClosure,
        33.0,
        &RunOptions::default(),
        ServiceHooks::default(),
    )
    .expect("baseline reduction")
}

// ----------------------------------------------------------------------
// Satellite: the permutation-invariance property test (no TCP — the
// frontier itself is the unit under test).
// ----------------------------------------------------------------------

/// A distributor over one pre-built [`SharedFrontier`], for in-process
/// fake workers.
struct TestDistributor {
    frontier: Arc<SharedFrontier>,
}

impl ProbeDistributor for TestDistributor {
    fn open_frontier<'a>(
        &'a self,
        local: &'a dyn ConcurrentPredicate,
    ) -> Box<dyn VerdictSource + 'a> {
        Box::new(RemoteFrontier::new(Arc::clone(&self.frontier), local))
    }

    fn frontier_width(&self) -> usize {
        8
    }
}

/// A fake worker: pulls slices, evaluates them with its own rebuilt
/// pipeline predicate (exactly like a real worker node), then submits
/// the verdicts in a seed-shuffled order.
fn shuffling_worker(
    frontier: &SharedFrontier,
    program: &lbr_classfile::Program,
    worker: u64,
    seed: u64,
    stop: &AtomicBool,
) {
    let oracle = DecompilerOracle::new(program, BugSet::decompiler_a());
    let model = program.model().expect("worker model");
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle: &oracle,
    };
    let mut rng = SplitMix64::seed_from_u64(seed);
    while !stop.load(Ordering::SeqCst) {
        let batch = frontier.pull(worker, 4);
        if batch.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let results: Vec<(VarSet, Probe)> = batch
            .into_iter()
            .map(|keep| {
                let probe = base.probe(&keep);
                (keep, probe)
            })
            .collect();
        // The shuffle under test: reply order is a seeded permutation.
        for (keep, probe) in results.shuffled(&mut rng) {
            frontier.verdict(worker, keep, *probe);
        }
    }
}

/// Shuffles worker reply order across 100 seeds: the GBR trace digest,
/// reduced bytes, and call counts must never move. This is the
/// permutation-invariance of the coordinator's ordered-verdict merge —
/// verdicts are consumed by key in demand order, never by arrival order.
#[test]
fn verdict_merge_is_permutation_invariant_over_100_seeds() {
    let dir = scratch("permutation");
    let (_, bytes) = make_container(&dir, 3, 10);
    let program = lbr_classfile::read_program(&bytes).unwrap();
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    let reference = baseline(&bytes);
    for seed in 0..100u64 {
        let frontier = Arc::new(SharedFrontier::new());
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            for worker in 0..2u64 {
                let frontier = Arc::clone(&frontier);
                let (program, stop) = (&program, &stop);
                scope.spawn(move || {
                    shuffling_worker(&frontier, program, worker + 1, seed ^ (worker + 1), stop)
                });
            }
            let distributor = TestDistributor {
                frontier: Arc::clone(&frontier),
            };
            let report = run_logical_resumable(
                &program,
                &oracle,
                MsaStrategy::GreedyClosure,
                33.0,
                &RunOptions::default(),
                ServiceHooks {
                    distributor: Some(&distributor),
                    ..ServiceHooks::default()
                },
            )
            .expect("clustered reduction");
            stop.store(true, Ordering::SeqCst);
            report
        });
        assert_eq!(
            report.trace.digest(),
            reference.trace.digest(),
            "seed {seed}: shuffled reply order moved the trace digest"
        );
        assert_eq!(
            write_program(&report.reduced),
            write_program(&reference.reduced),
            "seed {seed}: shuffled reply order changed the reduced bytes"
        );
        assert_eq!(
            report.predicate_calls, reference.predicate_calls,
            "seed {seed}: shuffled reply order changed the call count"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Full-stack TCP end-to-end.
// ----------------------------------------------------------------------

struct Cluster {
    client: Client,
    /// The authoritative oracle-cache tier this coordinator serves.
    tier: Arc<PersistentOracleCache>,
    server: Arc<ClusterServer>,
    daemon: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Cluster {
    /// Starts a clustered coordinator plus `workers` in-process worker
    /// nodes over real TCP.
    fn start(dir: &Path, workers: usize, faults: Option<FaultPlan>) -> Cluster {
        Cluster::start_with_tier(dir, workers, faults, None)
    }

    /// Like [`Cluster::start`], but with an externally supplied
    /// authoritative cache tier (models a coordinator restart that keeps
    /// the warm tier while the daemon's own state starts cold).
    fn start_with_tier(
        dir: &Path,
        workers: usize,
        faults: Option<FaultPlan>,
        tier: Option<Arc<PersistentOracleCache>>,
    ) -> Cluster {
        std::fs::create_dir_all(dir).expect("state dir");
        let cache =
            Arc::new(PersistentOracleCache::open(dir.join("oracle.cache")).expect("open cache"));
        let tier = tier.unwrap_or_else(|| Arc::clone(&cache));
        let server = ClusterServer::start(dir, Arc::clone(&tier), 4).expect("cluster server");
        let daemon = Daemon::start_clustered(
            DaemonConfig::new(dir, 2),
            cache,
            Arc::clone(&server) as Arc<dyn lbr_service::ClusterDispatch>,
        )
        .expect("start daemon");
        let addr = daemon.local_addr().to_string();
        let handle = std::thread::spawn(move || daemon.run());
        let client = Client::connect(addr);
        assert!(
            client.wait_ready(Duration::from_secs(5)),
            "daemon never came up"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let coordinator = server.local_addr().to_string();
        let workers = (0..workers)
            .map(|i| {
                let mut options = WorkerOptions::new(&coordinator, format!("test-worker-{i}"));
                options.stop = Some(Arc::clone(&stop));
                options.cache_faults = faults;
                std::thread::spawn(move || run_worker(&options))
            })
            .collect();
        Cluster {
            client,
            tier,
            server,
            daemon: Some(handle),
            stop,
            workers,
        }
    }

    fn submit_and_wait(&self, input: &Path, output: &Path) -> Json {
        let spec = Json::obj([
            ("input", Json::str(input.display().to_string())),
            ("decompiler", Json::str("a")),
            ("output", Json::str(output.display().to_string())),
            // Modeled probe latency: gives workers time to win batches
            // (with zero latency the driver computes everything inline
            // before anyone can pull).
            ("probe_latency_micros", Json::count(2_000)),
        ]);
        let id = self.client.submit(&spec).expect("submit");
        self.client.wait_result(id).expect("result")
    }

    fn finish(mut self) -> Json {
        let stats = self.client.stats().expect("stats");
        self.stop.store(true, Ordering::SeqCst);
        self.client.shutdown().expect("shutdown");
        for worker in self.workers.drain(..) {
            let _ = worker.join().expect("worker thread");
        }
        self.server.shutdown();
        self.daemon
            .take()
            .unwrap()
            .join()
            .expect("daemon thread")
            .expect("daemon run");
        stats
    }
}

fn assert_matches_reference(result: &Json, reference: &ReductionReport, output: &Path, tag: &str) {
    assert_eq!(
        result.str_field("status"),
        Some("done"),
        "{tag}: {result:?}"
    );
    assert_eq!(
        result.u64_field("predicate_calls"),
        Some(reference.predicate_calls),
        "{tag}: call count"
    );
    assert_eq!(
        result.str_field("trace_digest"),
        Some(format!("{:016x}", reference.trace.digest()).as_str()),
        "{tag}: trace digest"
    );
    assert_eq!(
        std::fs::read(output).expect("reduced output"),
        write_program(&reference.reduced),
        "{tag}: reduced bytes"
    );
}

/// The headline acceptance test: 1, 2, and 4 workers all reproduce the
/// single-host reduction byte-for-byte, and the workers demonstrably
/// participated.
#[test]
fn cluster_matches_single_host_at_1_2_4_workers() {
    let dir = scratch("e2e");
    let (input, bytes) = make_container(&dir, 21, 16);
    let reference = baseline(&bytes);
    for workers in [1usize, 2, 4] {
        let state = dir.join(format!("state-{workers}"));
        let cluster = Cluster::start(&state, workers, None);
        let output = dir.join(format!("out-{workers}.lbrc"));
        let result = cluster.submit_and_wait(&input, &output);
        let stats = cluster.finish();
        assert_matches_reference(&result, &reference, &output, &format!("{workers} workers"));
        let cluster_stats = stats.get("cluster").expect("stats.cluster");
        assert_eq!(
            cluster_stats.u64_field("workers_seen"),
            Some(workers as u64),
            "{workers} workers: stats"
        );
        assert!(
            cluster_stats.u64_field("verdicts").unwrap_or(0) > 0,
            "{workers} workers: workers never answered a probe: {cluster_stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm shared cache tier yields cross-worker hits. The shape is a
/// coordinator hand-off: cluster A's run populates the authoritative
/// tier; cluster B inherits the warm tier but a cold daemon-side cache,
/// so B's (brand new) workers answer their probes from entries stored
/// by somebody else — visible as `cross_worker_hits` in B's stats.
#[test]
fn warm_shared_tier_yields_cross_worker_hits() {
    let dir = scratch("tier");
    let (input, bytes) = make_container(&dir, 33, 14);
    let reference = baseline(&bytes);
    let first = Cluster::start(&dir.join("state-a"), 2, None);
    let out1 = dir.join("out1.lbrc");
    cluster_check(&first, &input, &out1, &reference, "first coordinator");
    let tier = Arc::clone(&first.tier);
    let _ = first.finish();
    let second = Cluster::start_with_tier(&dir.join("state-b"), 2, None, Some(tier));
    let out2 = dir.join("out2.lbrc");
    let result2 = second.submit_and_wait(&input, &out2);
    let stats = second.finish();
    assert_matches_reference(&result2, &reference, &out2, "warm-tier coordinator");
    let cluster_stats = stats.get("cluster").expect("stats.cluster");
    assert!(
        cluster_stats.u64_field("cache_hits").unwrap_or(0) > 0,
        "warm tier must answer worker lookups: {cluster_stats:?}"
    );
    assert!(
        cluster_stats.u64_field("cross_worker_hits").unwrap_or(0) > 0,
        "warm tier hits must cross workers: {cluster_stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn cluster_check(
    cluster: &Cluster,
    input: &Path,
    output: &Path,
    reference: &ReductionReport,
    tag: &str,
) {
    let result = cluster.submit_and_wait(input, output);
    assert_matches_reference(&result, reference, output, tag);
}

/// A worker dying mid-run is invisible: its slice requeues, the driver
/// takes demanded probes over, and the result is still bit-identical.
#[test]
fn worker_death_mid_run_is_transparent() {
    let dir = scratch("death");
    let (input, bytes) = make_container(&dir, 44, 16);
    let reference = baseline(&bytes);
    let cluster = Cluster::start(&dir.join("state"), 2, None);
    // Kill one worker shortly after the job starts probing.
    let stop = Arc::clone(&cluster.stop);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);
    });
    let output = dir.join("out.lbrc");
    let result = cluster.submit_and_wait(&input, &output);
    killer.join().unwrap();
    let _ = cluster.finish();
    assert_matches_reference(&result, &reference, &output, "after worker death");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fully partitioned cache tier (every operation faulted) degrades to
/// local misses: no sharing, identical result.
#[test]
fn partitioned_cache_tier_degrades_to_local_miss() {
    let dir = scratch("partition");
    let (input, bytes) = make_container(&dir, 55, 14);
    let reference = baseline(&bytes);
    let cluster = Cluster::start(
        &dir.join("state"),
        2,
        Some(FaultPlan { rate: 1.0, seed: 7 }),
    );
    let output = dir.join("out.lbrc");
    let result = cluster.submit_and_wait(&input, &output);
    let stats = cluster.finish();
    assert_matches_reference(&result, &reference, &output, "partitioned tier");
    let cluster_stats = stats.get("cluster").expect("stats.cluster");
    assert_eq!(
        cluster_stats.u64_field("cache_gets"),
        Some(0),
        "a fully partitioned tier must never reach the coordinator: {cluster_stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
