//! From failing benchmark to bug report: reduce per error and emit, for
//! the smallest witness, everything a decompiler maintainer needs —
//! the surviving class files (disassembled), the decompiler's broken
//! output, and the compiler error it causes.
//!
//! ```sh
//! cargo run --release --example bug_report
//! ```

use lbr::classfile::disassemble_program;
use lbr::core::Input;
use lbr::decompiler::{decompile_program, BugSet, DecompilerOracle};
use lbr::logic::VarSet;
use lbr::workload::{generate, WorkloadConfig};

fn main() {
    let program = generate(&WorkloadConfig {
        seed: 404,
        classes: 36,
        interfaces: 9,
        plant: BugSet::decompiler_c().kinds().to_vec(),
        ..WorkloadConfig::default()
    });
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_c());
    assert!(oracle.is_failing());
    println!(
        "decompiler C fails on this {}-class input with {} errors; reducing each …\n",
        program.len(),
        oracle.error_count()
    );

    let report =
        lbr::jreduce::run_per_error(&program, &oracle, 33.0).expect("per-error reduction succeeds");
    let (error, size) = report
        .errors
        .iter()
        .min_by_key(|(_, s)| s.bytes)
        .expect("at least one error");
    println!(
        "smallest witness: {} classes, {} bytes, for:",
        size.classes, size.bytes
    );
    println!("  {error}\n");

    // Re-derive that witness to render the report.
    let model = program.model().expect("valid input");
    let order = lbr::core::closure_size_order(&model.cnf);
    let instance = lbr::core::Instance::over_all_vars(model.cnf.clone());
    let mut predicate = |keep: &VarSet| oracle.errors(&(model.materialize)(keep).0).contains(error);
    let outcome = lbr::core::generalized_binary_reduction(
        &instance,
        &order,
        &mut predicate,
        &lbr::core::GbrConfig::default(),
    )
    .expect("reduces");
    let (witness, _) = (model.materialize)(&outcome.solution);

    println!("=== attached input (disassembled) ===");
    print!("{}", disassemble_program(&witness));
    println!("=== decompiler C's output on it ===");
    let broken = decompile_program(&witness, &BugSet::decompiler_c());
    print!("{}", broken.render());
    println!("=== compiler says ===");
    for e in lbr::decompiler::compile(&broken) {
        println!("  {e}");
    }
}
