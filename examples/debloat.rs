//! Debloating with the reducer (Section 6 of the paper):
//!
//! > "Given a test suite, we define the black-box predicate … to be true
//! > if all tests pass. This guarantees that the application preserves the
//! > behavior described by the test-suite."
//!
//! ```sh
//! cargo run --release --example debloat
//! ```
//!
//! The "test suite" here checks that a handful of entry-point methods
//! still exist with their real bodies and that the program decompiles to
//! compiling source — everything unreachable from those entry points is
//! bloat and gets removed.

use lbr::classfile::program_byte_size;
use lbr::core::{
    closure_size_order, generalized_binary_reduction, GbrConfig, Input, Instance, Oracle,
};
use lbr::decompiler::{compile, decompile_program, BugSet};
use lbr::jreduce::{build_model, Item};
use lbr::logic::VarSet;
use lbr::workload::{generate, WorkloadConfig};

fn main() {
    let program = generate(&WorkloadConfig {
        seed: 77,
        classes: 36,
        interfaces: 9,
        plant: vec![], // a healthy application this time
        ..WorkloadConfig::default()
    });
    println!(
        "application: {} classes, {} bytes",
        program.len(),
        program_byte_size(&program)
    );

    let model = build_model(&program).expect("application verifies");
    let registry = model.registry.clone();
    let input_model = program.model().expect("application verifies");

    // The "test suite": three entry points whose behavior must survive.
    let entry_points = ["Cls0", "Cls1", "Cls2"];
    let mut required = Vec::new();
    for class in program.classes() {
        if entry_points.contains(&class.name.as_str()) {
            for m in &class.methods {
                if !m.is_init() && m.code.is_some() && !m.flags.is_static() {
                    required.push(
                        registry
                            .var(&Item::MethodCode(
                                class.name.clone(),
                                m.name.clone(),
                                m.desc.descriptor(),
                            ))
                            .expect("registered"),
                    );
                }
            }
        }
    }
    println!("test suite pins {} method bodies", required.len());

    let mut tests_pass = |keep: &VarSet| {
        if !required.iter().all(|v| keep.contains(*v)) {
            return false; // a pinned behavior was removed
        }
        // The whole (reduced) application must still build: decompile with
        // a *correct* decompiler and recompile.
        let (candidate, _) = (input_model.materialize)(keep);
        let source = decompile_program(&candidate, &BugSet::none());
        compile(&source).is_empty()
    };
    let mut oracle = Oracle::new(&mut tests_pass, 0.0);

    let order = closure_size_order(&model.cnf);
    let instance = Instance::over_all_vars(model.cnf.clone());
    let outcome =
        generalized_binary_reduction(&instance, &order, &mut oracle, &GbrConfig::default())
            .expect("debloating succeeds");

    let (debloated, _) = (input_model.materialize)(&outcome.solution);
    println!(
        "debloated: {} classes, {} bytes ({:.1}% of the input), {} tool runs",
        debloated.len(),
        program_byte_size(&debloated),
        100.0 * program_byte_size(&debloated) as f64 / program_byte_size(&program) as f64,
        oracle.calls(),
    );
    assert!(lbr::classfile::verify_program(&debloated).is_empty());
    for entry in entry_points {
        assert!(debloated.get(entry).is_some(), "{entry} must survive");
    }
}
