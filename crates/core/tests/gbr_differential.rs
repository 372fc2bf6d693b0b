//! Differential tests: GBR with the incremental watched-literal engine
//! (`PropagationMode::Incremental`, the default) must be *bit-identical*
//! to the scan-based baseline (`PropagationMode::LegacyScan`) — same
//! solution, same iteration count, same learned sets, same progression
//! lengths, and exactly the same number of predicate calls. The speedup
//! must be free.
//!
//! The same holds across boundary-search policies: under a monotone
//! predicate `BoundarySearch::Gallop` learns exactly what `Bisect` learns,
//! and a gallop probes the identical sequence under either propagation
//! mode.

use lbr_core::{
    build_progression, closure_size_order, generalized_binary_reduction, BoundarySearch, GbrConfig,
    Instance, Oracle, PropagationMode,
};
use lbr_logic::{Clause, Cnf, MsaStrategy, Var, VarOrder, VarSet};
use lbr_prng::SplitMix64;

/// A random mixed model: mostly edges, some general implications, a few
/// positive disjunctions — the clause mix of real bytecode models.
fn random_model(rng: &mut SplitMix64, n: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    let v = |i: usize| Var::new(i as u32);
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            cnf.add_clause(Clause::edge(v(a.max(b)), v(a.min(b))));
        }
    }
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        cnf.add_clause(Clause::implication([v(a), v(b)], [v(c), v(d)]));
    }
    for _ in 0..n / 8 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        cnf.add_clause(Clause::implication([], [v(a), v(b)]));
    }
    cnf
}

/// Everything observable about a GBR run: solution, iteration count,
/// learned sets and progression lengths (or the error).
type GbrRun = Result<(VarSet, usize, Vec<VarSet>, Vec<usize>), lbr_core::GbrError>;

fn run_both(
    instance: &Instance,
    order: &VarOrder,
    strategy: MsaStrategy,
    needed: &[Var],
) -> (GbrRun, u64, GbrRun, u64) {
    let mut results = Vec::new();
    let mut calls = Vec::new();
    for mode in [PropagationMode::Incremental, PropagationMode::LegacyScan] {
        let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
        let mut oracle = Oracle::new(&mut bug, 0.0);
        let config = GbrConfig {
            msa_strategy: strategy,
            propagation: mode,
            ..GbrConfig::default()
        };
        let out = generalized_binary_reduction(instance, order, &mut oracle, &config)
            .map(|o| (o.solution, o.iterations, o.learned, o.progression_lengths));
        calls.push(oracle.calls());
        results.push(out);
    }
    let legacy = results.pop().expect("two runs");
    let incremental = results.pop().expect("two runs");
    (incremental, calls[0], legacy, calls[1])
}

#[test]
fn incremental_gbr_is_bit_identical_to_legacy_scan() {
    let mut checked = 0;
    for seed in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(7000 + seed);
        let n = rng.gen_range(8..40usize);
        let cnf = random_model(&mut rng, n);
        if !cnf.eval(&VarSet::full(n)) {
            continue;
        }
        let needed: Vec<Var> = (0..rng.gen_range(1..=3))
            .map(|_| Var::new(rng.gen_range(0..n as u32)))
            .collect();
        let order = closure_size_order(&cnf);
        let instance = Instance::over_all_vars(cnf);
        for strategy in MsaStrategy::ALL {
            let (inc, inc_calls, legacy, legacy_calls) =
                run_both(&instance, &order, strategy, &needed);
            assert_eq!(inc, legacy, "seed {seed} {strategy:?}: outcomes diverge");
            assert_eq!(
                inc_calls, legacy_calls,
                "seed {seed} {strategy:?}: predicate call counts diverge"
            );
            checked += 1;
        }
    }
    assert!(checked >= 60, "too few non-degenerate draws: {checked}");
}

#[test]
fn incremental_matches_legacy_on_orders_that_defeat_the_greedy_pick() {
    // The natural order on a chain makes the first progression [∅, all]
    // and exercises the remainder fallback; reversed orders exercise the
    // dead-end DPLL fallback. Both modes must still agree exactly.
    for n in [6usize, 12, 20] {
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause(Clause::edge(Var::new(i as u32), Var::new(i as u32 + 1)));
        }
        let instance = Instance::over_all_vars(cnf);
        let natural = VarOrder::natural(n);
        let reversed =
            VarOrder::from_permutation((0..n as u32).rev().map(Var::new).collect::<Vec<_>>());
        for order in [&natural, &reversed] {
            for strategy in MsaStrategy::ALL {
                let needed = [Var::new(n as u32 / 2)];
                let (inc, inc_calls, legacy, legacy_calls) =
                    run_both(&instance, order, strategy, &needed);
                assert_eq!(inc, legacy, "n {n} {strategy:?}");
                assert_eq!(inc_calls, legacy_calls, "n {n} {strategy:?}");
            }
        }
    }
}

#[test]
fn legacy_build_progression_still_matches_paper_shape() {
    // The public scan-based subroutine stays available and agrees with
    // what the engine-backed reduction learns internally.
    let mut cnf = Cnf::new(6);
    for i in 0..5 {
        cnf.add_clause(Clause::edge(Var::new(i), Var::new(i + 1)));
    }
    let inst = Instance::over_all_vars(cnf);
    let order = closure_size_order(&inst.cnf);
    let prog = build_progression(
        &inst.cnf,
        &order,
        MsaStrategy::GreedyClosure,
        &[],
        &inst.vars,
    )
    .expect("progression");
    let mut acc = VarSet::empty(6);
    for d in &prog {
        assert!(acc.is_disjoint(d));
        acc.union_with(d);
        assert!(inst.cnf.eval(&acc));
    }
    assert_eq!(acc, inst.vars);
}

/// A run's observable outcome plus every probed subset, in order.
fn run_recorded(
    instance: &Instance,
    order: &VarOrder,
    config: &GbrConfig,
    needed: &[Var],
) -> (GbrRun, Vec<VarSet>) {
    let mut probes = Vec::new();
    let mut bug = |s: &VarSet| {
        probes.push(s.clone());
        needed.iter().all(|v| s.contains(*v))
    };
    let out = generalized_binary_reduction(instance, order, &mut bug, config)
        .map(|o| (o.solution, o.iterations, o.learned, o.progression_lengths));
    (out, probes)
}

#[test]
fn gallop_learns_what_bisect_learns_and_replays_under_legacy_scan() {
    let mut checked = 0;
    let mut gallop_calls = 0usize;
    let mut bisect_calls = 0usize;
    for seed in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(9100 + seed);
        let n = rng.gen_range(8..48usize);
        let cnf = random_model(&mut rng, n);
        if !cnf.eval(&VarSet::full(n)) {
            continue;
        }
        let needed: Vec<Var> = (0..rng.gen_range(1..=4))
            .map(|_| Var::new(rng.gen_range(0..n as u32)))
            .collect();
        let order = closure_size_order(&cnf);
        let instance = Instance::over_all_vars(cnf);
        for strategy in MsaStrategy::ALL {
            let config = |boundary_search, propagation| GbrConfig {
                msa_strategy: strategy,
                boundary_search,
                propagation,
                ..GbrConfig::default()
            };
            let (bisect, bisect_probes) = run_recorded(
                &instance,
                &order,
                &config(BoundarySearch::Bisect, PropagationMode::Incremental),
                &needed,
            );
            let (gallop, gallop_probes) = run_recorded(
                &instance,
                &order,
                &config(BoundarySearch::Gallop, PropagationMode::Incremental),
                &needed,
            );
            let (legacy, legacy_probes) = run_recorded(
                &instance,
                &order,
                &config(BoundarySearch::Gallop, PropagationMode::LegacyScan),
                &needed,
            );
            assert_eq!(gallop, bisect, "seed {seed} {strategy:?}: gallop vs bisect");
            assert_eq!(legacy, gallop, "seed {seed} {strategy:?}: legacy gallop");
            assert_eq!(
                legacy_probes, gallop_probes,
                "seed {seed} {strategy:?}: gallop probe sequences diverge"
            );
            gallop_calls += gallop_probes.len();
            bisect_calls += bisect_probes.len();
            checked += 1;
        }
    }
    assert!(checked >= 60, "too few non-degenerate draws: {checked}");
    // The policies must actually differ somewhere, or the comparison
    // above proves nothing about the gallop.
    assert_ne!(gallop_calls, bisect_calls, "gallop never changed a probe");
}

#[test]
fn gallop_probes_backward_from_the_end() {
    // No constraints, natural order: the progression is [∅, {0}, …, {31}],
    // and a bug needing variable 30 puts the boundary at the second-to-last
    // prefix — one gallop step away.
    let instance = Instance::over_all_vars(Cnf::new(32));
    let order = VarOrder::natural(32);
    let needed = [Var::new(30)];
    let config = |boundary_search| GbrConfig {
        boundary_search,
        ..GbrConfig::default()
    };
    let (gallop, gallop_probes) =
        run_recorded(&instance, &order, &config(BoundarySearch::Gallop), &needed);
    let (bisect, bisect_probes) =
        run_recorded(&instance, &order, &config(BoundarySearch::Bisect), &needed);
    assert_eq!(gallop, bisect);
    // D₀, then prefixes 31 and 30 (offsets 1 and 2), then the second
    // iteration's D₀ = {30}.
    let sizes: Vec<usize> = gallop_probes.iter().map(VarSet::len).collect();
    assert_eq!(sizes, vec![0, 31, 30, 1]);
    assert!(gallop_probes.len() < bisect_probes.len());
}
