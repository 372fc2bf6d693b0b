//! The baseline zoo's new members: hierarchical delta debugging over the
//! item containment tree, ReduKtor-style transformation passes before
//! logical reduction, and the trace-guided GBR mode fed by the
//! [`TraceLayer`]'s coverage recorder.
//!
//! All three run over the same fine logical model as the paper's
//! reducer, differing only in *which candidates* they probe:
//!
//! * **HDD** sweeps the containment tree level by level
//!   ([`InputModel::levels`]), running validity-filtered ddmin over each
//!   level's items with deeper items pruned to their dependencies,
//! * **transform** first tries bulk simplifying rewrites (drop a whole
//!   containment level at once, deepest first — the "replace bodies with
//!   stubs" pass of the ReduKtor lineage), then hands the shrunken
//!   search space to GBR as a synthetic resume checkpoint,
//! * **trace-guided** runs a cheap coverage sweep of deletion probes
//!   *under a trace recorder*, then seeds GBR's search space with the
//!   covered set (the intersection of the failure-preserving probes'
//!   keep-sets) and orders its progression by per-item trace frequency
//!   ([`history_order`]).

use crate::pipeline::probe::{wrap_oracle, CandidateProbe};
use crate::pipeline::{PipelineError, RunOptions, ServiceHooks};
use lbr_core::{
    closure_size_order, ddmin, generalized_binary_reduction_controlled, history_order,
    BoundarySearch, ConcurrentPredicate, DepGraph, GbrCheckpoint, GbrConfig, GbrControl, Input,
    InputOracle, Instance, LatencyLayer, OracleStack, ProbeStats, ReductionTrace, StrategyOutput,
    TestOutcome, TraceLayer,
};
use lbr_logic::{ClauseShape, Cnf, Var, VarOrder, VarSet};
use std::cell::Cell;
use std::time::Instant;

/// Per-variable dependency closures over the edge-shaped clauses of the
/// model (the same edges [`closure_size_order`] ranks by). Used to prune
/// hierarchical candidates: removing an item also removes everything
/// whose edge-dependencies it breaks.
fn edge_closures(cnf: &Cnf) -> Vec<VarSet> {
    let n = cnf.num_vars();
    let mut graph = DepGraph::new(n);
    for c in cnf.clauses() {
        if let ClauseShape::Edge { from, to } = c.shape() {
            graph.add_edge(from, to);
        }
    }
    (0..n)
        .map(|i| graph.closure_of([Var::new(i as u32)]))
        .collect()
}

/// The largest subset of `candidate` whose edge-dependencies are all
/// inside `candidate`. One pass suffices: closures are transitive, so a
/// variable whose full closure fits survives together with that closure.
fn prune_to_deps(candidate: &VarSet, closures: &[VarSet]) -> VarSet {
    let mut pruned = VarSet::empty(closures.len());
    for v in candidate.iter() {
        if closures[v.index()].is_subset(candidate) {
            pruned.insert(v);
        }
    }
    pruned
}

/// The per-variable containment levels, padded defensively to the model's
/// variable count (a frontend reporting no hierarchy gets one flat level).
fn model_levels(levels: &[u8], n: usize) -> Vec<u8> {
    if levels.len() == n {
        levels.to_vec()
    } else {
        vec![0; n]
    }
}

/// Hierarchical delta debugging over the item containment tree: ddmin at
/// each containment level, coarsest first, with candidates pruned to
/// their edge-dependencies and validity-filtered against the full model
/// (invalid candidates answer "don't know" without a tool run, exactly
/// like the flat ddmin baseline).
pub(crate) fn run_hdd<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let levels = model_levels(&model.levels, n);
    let closures = edge_closures(cnf);
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let mut trace = ReductionTrace::new();
    let mut calls = 0u64;
    let start = Instant::now();
    let mut keep = VarSet::full(n);
    let max_level = levels.iter().copied().max().unwrap_or(0);
    for level in 0..=max_level {
        let level_vars: Vec<Var> = keep.iter().filter(|v| levels[v.index()] == level).collect();
        if level_vars.is_empty() {
            continue;
        }
        let atoms: Vec<VarSet> = level_vars
            .iter()
            .map(|&v| VarSet::from_iter_with_universe(n, [v]))
            .collect();
        let mut fixed = keep.clone();
        for &v in &level_vars {
            fixed.remove(v);
        }
        let (solution, _stats) = ddmin(&atoms, n, |selected| {
            let candidate = prune_to_deps(&fixed.union(selected), &closures);
            if !cnf.eval(&candidate) {
                return TestOutcome::Unresolved; // invalid — "don't know"
            }
            calls += 1;
            let probe = stack.probe(&candidate);
            trace.record(
                calls,
                start.elapsed().as_secs_f64(),
                calls as f64 * cost,
                probe.size,
                probe.outcome,
            );
            if probe.outcome {
                TestOutcome::Fail
            } else {
                TestOutcome::Pass
            }
        });
        keep = prune_to_deps(&fixed.union(&solution), &closures);
    }
    let reduced = (model.materialize)(&keep).0;
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(calls, 0, 0),
        solution: Some(keep),
    })
}

/// The GBR pass `transform` and `trace-guided` end with: one call into
/// the core loop over the full model, started from `search_space` (a
/// valid failing input) as a synthetic resume checkpoint. Probes run
/// through `stack` and are appended to `trace`. Returns the solution and
/// the pass's predicate calls, memo hits and memo misses.
#[allow(clippy::too_many_arguments)]
fn gbr_pass(
    stack: &dyn ConcurrentPredicate,
    cnf: Cnf,
    order: &VarOrder,
    search_space: VarSet,
    boundary_search: BoundarySearch,
    cancel: Option<&(dyn Fn() -> bool + Sync)>,
    cost: f64,
    options: &RunOptions,
    trace: &mut ReductionTrace,
) -> Result<(VarSet, u64, u64, u64), PipelineError> {
    let config = GbrConfig {
        propagation: options.propagation,
        boundary_search,
        ..GbrConfig::default()
    };
    let mut control = GbrControl {
        cancel,
        resume: Some(GbrCheckpoint {
            iterations: 0,
            learned: Vec::new(),
            search_space,
            best: None,
        }),
        ..GbrControl::default()
    };
    let last_bytes = Cell::new(0u64);
    let mut predicate = |k: &VarSet| {
        let probe = stack.probe(k);
        last_bytes.set(probe.size);
        probe.outcome
    };
    let mut wrapped = wrap_oracle(&mut predicate, cost, |_| last_bytes.get(), options);
    let outcome = generalized_binary_reduction_controlled(
        &Instance::over_all_vars(cnf),
        order,
        &mut wrapped,
        &config,
        &mut control,
    )?;
    let (calls, hits, misses) = (
        wrapped.calls(),
        wrapped.cache_hits(),
        wrapped.cache_misses(),
    );
    trace.append_sequential(&wrapped.into_trace());
    Ok((outcome.solution, calls, hits, misses))
}

/// Transformation passes before logical reduction: try dropping each
/// whole containment level (deepest first — "stub every body" before
/// "drop every member"), keep the rewrites that preserve the failure,
/// then run GBR with the transformed input as a synthetic resume
/// checkpoint so the search starts from the already-shrunken space.
pub(crate) fn run_transform<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let levels = model_levels(&model.levels, n);
    let closures = edge_closures(cnf);
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let mut trace = ReductionTrace::new();
    let mut calls = 0u64;
    let start = Instant::now();
    let mut keep = VarSet::full(n);
    let max_level = levels.iter().copied().max().unwrap_or(0);
    for level in (1..=max_level).rev() {
        let mut candidate = keep.clone();
        for v in keep.iter() {
            if levels[v.index()] == level {
                candidate.remove(v);
            }
        }
        let candidate = prune_to_deps(&candidate, &closures);
        if candidate == keep || !cnf.eval(&candidate) {
            continue;
        }
        calls += 1;
        let probe = stack.probe(&candidate);
        trace.record(
            calls,
            start.elapsed().as_secs_f64(),
            calls as f64 * cost,
            probe.size,
            probe.outcome,
        );
        if probe.outcome {
            keep = candidate;
        }
    }
    // The logical pass, resumed from the transformed keep-set (a valid
    // failing input by construction — every adopted rewrite was probed).
    let order = closure_size_order(cnf);
    let (solution, gbr_calls, cache_hits, cache_misses) = gbr_pass(
        &stack,
        model.cnf,
        &order,
        keep,
        BoundarySearch::Bisect,
        None,
        cost,
        options,
        &mut trace,
    )?;
    let total = calls + gbr_calls;
    let reduced = (model.materialize)(&solution).0;
    Ok(StrategyOutput {
        reduced,
        calls: total,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(total, cache_hits, cache_misses),
        solution: Some(solution),
    })
}

/// The trace-guided GBR mode. Phase A runs a coverage sweep of
/// slice-deletion probes under a [`TraceLayer`] recording per-probe
/// coverage (optionally backed by the service cache as a cross-run trace
/// store). Phase B runs GBR with its
/// search space seeded from the covered set and its progression ordered
/// by trace frequency: items that most failing probes kept are probably
/// required, so they surface in early progression entries and the
/// boundary search localizes the rest in fewer probes. Phase B is one
/// call into the core GBR loop (incremental engine, honoring
/// `options.propagation`); only its configuration — search space, order,
/// [`BoundarySearch::Gallop`] — is trace-specific.
pub(crate) fn run_trace_guided<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
    hooks: ServiceHooks<'_>,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let trace_layer = match hooks.cache {
        Some(store) => TraceLayer::with_store(n, store),
        None => TraceLayer::new(n),
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let mut stack = OracleStack::new(&base);
    stack.push(&trace_layer);
    stack.push(&latency);
    // Phase A: a coverage sweep of deletion probes. Slice the remaining
    // items into contiguous index runs (frontends number items unit by
    // unit, so a slice is roughly a run of whole classes or functions),
    // probe the dep-pruned complement of each slice, and intersect the
    // failing complements: the items every failure-preserving probe kept
    // are the covered set — coverage-based debloating's prior, recast
    // over keep-sets — and become Phase B's search space. A handful of
    // probes localizes the failure to a fraction of the items, so GBR's
    // progressions and binary searches run over a far shorter list than
    // a cold start's.
    let closures = edge_closures(cnf);
    let mut trace = ReductionTrace::new();
    let start = Instant::now();
    let mut calls_a = 0u64;
    let cancelled = || hooks.cancel.is_some_and(|c| c());
    {
        const SLICES: usize = 6;
        const ROUNDS: usize = 2;
        let mut survivor = VarSet::full(n);
        'sweep: for _round in 0..ROUNDS {
            let vars: Vec<Var> = survivor.iter().collect();
            if vars.len() < 2 * SLICES {
                break;
            }
            let mut intersection = survivor.clone();
            let mut smallest_failing: Option<VarSet> = None;
            for slice in vars.chunks(vars.len().div_ceil(SLICES)) {
                if cancelled() {
                    break 'sweep;
                }
                let mut candidate = survivor.clone();
                for &v in slice {
                    candidate.remove(v);
                }
                let candidate = prune_to_deps(&candidate, &closures);
                if candidate == survivor || candidate.is_empty() || !cnf.eval(&candidate) {
                    continue;
                }
                calls_a += 1;
                let probe = stack.probe(&candidate);
                trace.record(
                    calls_a,
                    start.elapsed().as_secs_f64(),
                    calls_a as f64 * cost,
                    probe.size,
                    probe.outcome,
                );
                if probe.outcome {
                    intersection.intersect_with(&candidate);
                    if smallest_failing
                        .as_ref()
                        .is_none_or(|s| candidate.len() < s.len())
                    {
                        smallest_failing = Some(candidate);
                    }
                }
            }
            let Some(smallest) = smallest_failing else {
                break; // every complement passed — no localization signal
            };
            let candidate = prune_to_deps(&intersection, &closures);
            if candidate == survivor || !cnf.eval(&candidate) {
                break;
            }
            if candidate == smallest {
                survivor = candidate; // already probed failing this round
                continue;
            }
            // Distinct failing complements may each hold a different
            // instance of the error, so verify the intersection still
            // fails before recursing into it.
            if cancelled() {
                break;
            }
            calls_a += 1;
            let probe = stack.probe(&candidate);
            trace.record(
                calls_a,
                start.elapsed().as_secs_f64(),
                calls_a as f64 * cost,
                probe.size,
                probe.outcome,
            );
            if !probe.outcome {
                break;
            }
            survivor = candidate;
        }
    }
    // Phase B: the core GBR loop, configured by the trace. The covered set
    // seeds the search space, trace frequencies order the progression, and
    // the boundary search gallops backward from the progression's end:
    // leaves-first orders put the minimal failing prefix a handful of
    // entries from the end.
    let coverage = trace_layer.snapshot();
    let seed = match coverage.covered() {
        Some(covered) if cnf.eval(covered) => covered.clone(),
        _ => VarSet::full(n),
    };
    let order = history_order(cnf, coverage.frequencies());
    let (solution, calls_b, hits, misses) = gbr_pass(
        &stack,
        model.cnf,
        &order,
        seed,
        BoundarySearch::Gallop,
        hooks.cancel,
        cost,
        options,
        &mut trace,
    )?;
    let total = calls_a + calls_b;
    let reduced = (model.materialize)(&solution).0;
    Ok(StrategyOutput {
        reduced,
        calls: total,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(total, hits, calls_a + misses),
        solution: Some(solution),
    })
}
