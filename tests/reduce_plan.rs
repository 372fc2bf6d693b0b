//! The classfile reduce plan against the per-item reducer it replaced.
//!
//! `Program::model()` materializes a keep-set through a plan built once
//! per program and returns the candidate together with its byte size.
//! This suite pins both halves on generated programs (several seeds and
//! scales, plus every adversarial shape) under full, empty, random
//! (model-satisfying or not) and single-item-drop keep-sets (the first
//! few items of every kind in every program):
//!
//! * the candidate equals [`reference_reduce`], a copy of the original
//!   item-keyed reducer kept here as the reference;
//! * the size equals `program_byte_size` and the summed `write_class`
//!   lengths of the candidate.

use lbr::classfile::{
    program_byte_size, write_class, ClassFile, Code, MethodInfo, Program, OBJECT,
};
use lbr::core::Input;
use lbr::jreduce::{build_model, reduce_program, Item, ItemRegistry};
use lbr::logic::{dpll, Lit, Var, VarOrder, VarSet};
use lbr::workload::{generate, AdversarialShape, WorkloadConfig};
use lbr_prng::SplitMix64;
use std::collections::BTreeSet;

/// The item-keyed reducer the plan replaced: clones each kept class, then
/// filters its members through registry lookups.
fn reference_reduce(program: &Program, reg: &ItemRegistry, keep: &VarSet) -> Program {
    let mut out = Program::new();
    for class in program.classes() {
        let class_item = if class.is_interface() {
            Item::Interface(class.name.clone())
        } else {
            Item::Class(class.name.clone())
        };
        if reg.kept(&class_item, keep) {
            out.insert(reference_reduce_class(class, reg, keep));
        }
    }
    out
}

fn reference_reduce_class(class: &ClassFile, reg: &ItemRegistry, keep: &VarSet) -> ClassFile {
    let name = &class.name;
    let mut reduced = class.clone();
    if !class.is_interface() {
        if let Some(sup) = &class.superclass {
            if sup != OBJECT && !reg.kept(&Item::SuperClass(name.clone(), sup.clone()), keep) {
                reduced.superclass = Some(OBJECT.to_owned());
            }
        }
    }
    reduced.interfaces.retain(|iface| {
        let item = if class.is_interface() {
            Item::InterfaceExtends(name.clone(), iface.clone())
        } else {
            Item::Implements(name.clone(), iface.clone())
        };
        reg.kept(&item, keep)
    });
    reduced
        .fields
        .retain(|f| reg.kept(&Item::Field(name.clone(), f.name.clone()), keep));
    let mut methods = Vec::new();
    for m in &class.methods {
        let desc = m.desc.descriptor();
        let (decl, body) = if m.is_init() {
            (
                Item::Constructor(name.clone(), desc.clone()),
                Some(Item::ConstructorCode(name.clone(), desc)),
            )
        } else if m.code.is_some() {
            (
                Item::Method(name.clone(), m.name.clone(), desc.clone()),
                Some(Item::MethodCode(name.clone(), m.name.clone(), desc)),
            )
        } else {
            (Item::Signature(name.clone(), m.name.clone(), desc), None)
        };
        if !reg.kept(&decl, keep) {
            continue;
        }
        let mut kept_method = m.clone();
        if body.is_some_and(|b| !reg.kept(&b, keep)) {
            kept_method.code = Some(Code::trivial(locals_for(m)));
        }
        methods.push(kept_method);
    }
    reduced.methods = methods;
    reduced
}

fn locals_for(m: &MethodInfo) -> u16 {
    u16::from(!m.flags.is_static()) + m.desc.params.len() as u16
}

/// The generated programs under test: default-profile programs at three
/// seeds and three scales, plus every adversarial shape.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 42] {
        for scale in [0.3, 0.6, 1.0] {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            }
            .scaled(scale);
            out.push((format!("seed {seed} scale {scale}"), generate(&config)));
        }
    }
    for shape in AdversarialShape::ALL {
        let config = WorkloadConfig::adversarial(shape, 7);
        out.push((format!("{shape:?}"), generate(&config)));
    }
    out
}

/// Materializes `keep` through the model and checks the candidate and its
/// size against the reference reducer and both byte-size functions.
fn check(
    label: &str,
    program: &Program,
    materialize: &dyn Fn(&VarSet) -> (Program, usize),
    reg: &ItemRegistry,
    keep: &VarSet,
) -> Program {
    let (candidate, bytes) = materialize(keep);
    assert_eq!(
        candidate,
        reference_reduce(program, reg, keep),
        "{label}: plan candidate differs from the per-item reducer"
    );
    assert_eq!(
        bytes,
        program_byte_size(&candidate),
        "{label}: fused size differs from program_byte_size"
    );
    let written: usize = candidate.classes().map(|c| write_class(c).len()).sum();
    assert_eq!(
        bytes, written,
        "{label}: fused size differs from write_class"
    );
    candidate
}

#[test]
fn plan_matches_the_per_item_reducer_on_full_empty_and_random_keep_sets() {
    for (name, program) in programs() {
        let model = program.model().expect("generated programs verify");
        let reg = build_model(&program)
            .expect("generated programs verify")
            .registry;
        let n = reg.len();
        let materialize = &*model.materialize;

        let full = check(&name, &program, materialize, &reg, &VarSet::full(n));
        assert_eq!(full, program, "{name}: keeping every item is the identity");
        let empty = check(&name, &program, materialize, &reg, &VarSet::empty(n));
        assert!(
            empty.is_empty(),
            "{name}: keeping nothing drops every class"
        );
        assert_eq!(
            reduce_program(&program, &reg, &VarSet::full(n)),
            program,
            "{name}: reduce_program wraps the same plan"
        );

        let mut rng = SplitMix64::seed_from_u64(n as u64);
        for density in [0.2, 0.5, 0.8, 0.95] {
            for _ in 0..4 {
                let mut keep = VarSet::empty(n);
                for i in 0..n {
                    if rng.gen_bool(density) {
                        keep.insert(Var::new(i as u32));
                    }
                }
                check(
                    &format!("{name} random {density}"),
                    &program,
                    materialize,
                    &reg,
                    &keep,
                );
            }
        }

        // Models of the dependency constraints: the keep-sets GBR probes.
        for probe in 0..4u32 {
            let rotation = (probe as usize * 7) % n;
            let order = VarOrder::from_permutation(
                (0..n as u32)
                    .map(|i| Var::new((i + rotation as u32) % n as u32))
                    .collect(),
            );
            let forced = Lit::pos(Var::new((probe as usize * 13 % n) as u32));
            let (solution, _) = dpll::solve_with_assumptions(&model.cnf, &order, &[forced])
                .expect("the forced item has a model");
            check(
                &format!("{name} model {probe}"),
                &program,
                materialize,
                &reg,
                &solution,
            );
        }
    }
}

/// Drops per item kind and program; the reference reducer is quadratic
/// over a whole sweep, so the sweep samples each kind instead of taking
/// every item.
const DROPS_PER_KIND: usize = 6;

#[test]
fn plan_matches_the_per_item_reducer_on_single_item_drops_of_every_kind() {
    let mut kinds = BTreeSet::new();
    let (mut rewired, mut stubbed_ctors) = (0, 0);
    for (name, program) in programs() {
        let model = program.model().expect("generated programs verify");
        let reg = build_model(&program)
            .expect("generated programs verify")
            .registry;
        let n = reg.len();
        let mut per_kind = std::collections::HashMap::new();
        for i in 0..n {
            let v = Var::new(i as u32);
            let item = reg.item(v);
            let dropped = per_kind.entry(item.kind()).or_insert(0);
            if *dropped == DROPS_PER_KIND {
                continue;
            }
            *dropped += 1;
            let mut keep = VarSet::full(n);
            keep.remove(v);
            let label = format!("{name} drop {item}");
            let candidate = check(&label, &program, &*model.materialize, &reg, &keep);
            kinds.insert(item.kind());
            match item {
                Item::SuperClass(c, _) => {
                    let class = candidate.get(c).expect("the class stays");
                    assert_eq!(class.superclass.as_deref(), Some(OBJECT), "{label}");
                    rewired += 1;
                }
                Item::ConstructorCode(c, d) => {
                    let ctor = candidate
                        .get(c)
                        .expect("the class stays")
                        .constructors()
                        .find(|m| m.desc.descriptor() == *d)
                        .expect("the constructor stays");
                    assert_eq!(ctor.code, Some(Code::trivial(locals_for(ctor))), "{label}");
                    stubbed_ctors += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        kinds.len(),
        11,
        "every item kind is dropped somewhere: {kinds:?}"
    );
    assert!(rewired > 0 && stubbed_ctors > 0);
}
