//! Incremental propagation engine vs the scan baseline.
//!
//! Four levels: raw MSA (engine-backed `msa` vs the preserved
//! `msa_scan`), repeated DPLL assumption probes, one full GBR reduction
//! (`PropagationMode::Incremental` vs `LegacyScan`), and the end-to-end
//! pipeline (`RunOptions::default()` vs `RunOptions::legacy()`). The
//! speedup ratios back the numbers quoted in `EXPERIMENTS.md`.

use lbr_bench::microbench::{bench, fmt_duration};
use lbr_core::{
    closure_size_order, generalized_binary_reduction, GbrConfig, Input, Instance, Oracle,
    PropagationMode,
};
use lbr_jreduce::{build_model, run_reduction_with, RunOptions};
use lbr_logic::{dpll, msa, msa_scan, Lit, MsaStrategy, VarSet};
use lbr_workload::{generate, WorkloadConfig};

fn main() {
    let program = generate(&WorkloadConfig {
        seed: 5,
        classes: 36,
        interfaces: 9,
        plant: lbr_decompiler::BugKind::ALL.to_vec(),
        ..WorkloadConfig::default()
    });
    let model = build_model(&program).expect("valid input");
    let order = closure_size_order(&model.cnf);

    let engine = bench("msa/engine", || {
        msa(&model.cnf, &order, MsaStrategy::GreedyClosure)
            .expect("satisfiable")
            .len()
    });
    let scan = bench("msa/scan", || {
        msa_scan(&model.cnf, &order, MsaStrategy::GreedyClosure)
            .expect("satisfiable")
            .len()
    });
    println!(
        "  -> msa speedup: {:.1}x ({} vs {})",
        scan.as_secs_f64() / engine.as_secs_f64().max(1e-12),
        fmt_duration(scan),
        fmt_duration(engine)
    );

    // Repeated assumption probes — the solver workload of a reduction
    // run, with DPLL restarting from scratch on every probe.
    let probe_vars: Vec<Lit> = (0..model.cnf.num_vars())
        .map(|i| Lit::pos(lbr_logic::Var::new(i as u32)))
        .step_by(3)
        .collect();
    bench("solve/dpll-probes", || {
        let mut models = 0usize;
        for &l in &probe_vars {
            if dpll::solve_with_assumptions(&model.cnf, &order, &[l]).is_some() {
                models += 1;
            }
        }
        models
    });

    // One GBR search against a fixed (cheap) predicate: incremental
    // propagation vs the legacy scan baseline.
    let instance = Instance::new(VarSet::full(model.cnf.num_vars()), model.cnf.clone());
    let needed = instance.vars.iter().take(3).collect::<Vec<_>>();
    let mut gbr_times = Vec::new();
    for (name, mode) in [
        ("incremental", PropagationMode::Incremental),
        ("legacy-scan", PropagationMode::LegacyScan),
    ] {
        let t = bench(&format!("gbr/{name}"), || {
            let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
            let mut oracle = Oracle::new(&mut bug, 0.0);
            let config = GbrConfig {
                propagation: mode,
                ..GbrConfig::default()
            };
            generalized_binary_reduction(&instance, &order, &mut oracle, &config)
                .expect("reduces")
                .solution
                .len()
        });
        gbr_times.push(t);
    }
    println!(
        "  -> gbr speedup vs scan: {:.1}x",
        gbr_times[1].as_secs_f64() / gbr_times[0].as_secs_f64().max(1e-12)
    );

    // Probe-cost breakdown: what one oracle probe is made of — the
    // candidate with its fused byte size, then the tool run on it.
    let input_model = program.model().expect("valid input");
    let keep = VarSet::full(model.cnf.num_vars());
    let probe_oracle =
        lbr_decompiler::DecompilerOracle::new(&program, lbr_decompiler::BugSet::decompiler_a());
    bench("probe/materialize", || (input_model.materialize)(&keep).1);
    let (candidate, _) = (input_model.materialize)(&keep);
    bench("probe/decompile-errors", || {
        probe_oracle.errors(&candidate).len()
    });

    // End-to-end pipeline: real decompiler predicate, memo on vs off.
    let oracle =
        lbr_decompiler::DecompilerOracle::new(&program, lbr_decompiler::BugSet::decompiler_a());
    let mut pipeline_times = Vec::new();
    for (name, options) in [
        ("default", RunOptions::default()),
        ("legacy", RunOptions::legacy()),
    ] {
        let t = bench(&format!("pipeline/logical-greedy/{name}"), || {
            run_reduction_with(&program, &oracle, "logical/greedy", 0.0, &options)
                .expect("reduces")
                .final_metrics
                .bytes
        });
        pipeline_times.push(t);
    }
    println!(
        "  -> end-to-end speedup vs legacy: {:.1}x",
        pipeline_times[1].as_secs_f64() / pipeline_times[0].as_secs_f64().max(1e-12)
    );
}
