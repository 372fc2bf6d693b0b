//! The item-level program reducer (the bytecode analog of Figure 5).
//!
//! A [`ReducePlan`] resolves a program against its [`ItemRegistry`] once:
//! each class's items become variables, and each member becomes the
//! sorted list of constant-pool entries it pulls in. Applying a keep-set
//! is then one walk over the plan that clones only the kept members and
//! sums the candidate's serialized size on the way, with no item keys,
//! no string hashing and no constant-pool rebuild.

use crate::item::{Item, ItemRegistry};
use crate::write::{class_file_len, code_attribute_len, constant_size, intern_code_refs};
use crate::{ClassFile, Code, Constant, ConstantPool, MethodInfo, Program, OBJECT};
use lbr_logic::{Var, VarSet};

/// Applies a solution: keeps exactly the items in `keep` (plus built-ins),
/// rewiring removed relations and stubbing removed bodies.
///
/// If `keep` satisfies the dependency model of
/// [`LogicalModel`](crate::LogicalModel), the result verifies — the
/// bytecode analog of Theorem 3.1, property-tested in this crate.
///
/// Builds the reduce plan per call; callers applying many keep-sets to
/// one program go through [`Input::model`](lbr_core::Input::model),
/// which builds it once.
pub fn reduce_program(program: &Program, reg: &ItemRegistry, keep: &VarSet) -> Program {
    ReducePlan::new(program, reg).materialize(keep).0
}

/// The `Code` attribute of a stubbed body (`aconst_null; athrow`).
const STUB_CODE_ATTRIBUTE: usize = 20;

/// A program resolved against its item registry for repeated reduction.
///
/// Every gate is the `Option<Var>` of the item that decides whether a
/// construct survives; `None` means the item is not registered and is
/// always kept, exactly as [`ItemRegistry::kept`] treats it.
pub(crate) struct ReducePlan<'p> {
    classes: Vec<ClassPlan<'p>>,
    /// Bitset words for the largest class pool.
    max_pool_words: usize,
}

struct ClassPlan<'p> {
    class: &'p ClassFile,
    var: Option<Var>,
    /// The superclass relation whose removal rewires the class to
    /// `Object`; `None` for interfaces and classes extending `Object`.
    superclass_var: Option<Var>,
    /// Serialized size of each entry of the class's full pool (0-based).
    entry_sizes: Vec<u32>,
    /// Entries every candidate holds: the class's own name and `"Code"`.
    header_refs: Box<[u16]>,
    /// Entries of the declared superclass, and of `Object` for a rewired
    /// one.
    superclass_refs: Box<[u16]>,
    object_refs: Box<[u16]>,
    interfaces: Vec<(Option<Var>, Box<[u16]>)>,
    fields: Vec<(Option<Var>, Box<[u16]>)>,
    methods: Vec<MethodPlan>,
}

struct MethodPlan {
    /// The declaration item (method, constructor or signature).
    var: Option<Var>,
    /// The body item whose removal stubs the body; `None` for abstract
    /// signatures, which have no body item.
    code_var: Option<Var>,
    /// Name and descriptor entries.
    refs: Box<[u16]>,
    /// Entries the original body references.
    code_refs: Box<[u16]>,
    /// The original body's `Code` attribute length (0 without a body).
    code_attribute: usize,
}

fn kept(var: Option<Var>, keep: &VarSet) -> bool {
    var.is_none_or(|v| keep.contains(v))
}

impl<'p> ReducePlan<'p> {
    /// Resolves every class of `program` against `reg`.
    pub(crate) fn new(program: &'p Program, reg: &ItemRegistry) -> Self {
        let classes: Vec<ClassPlan<'p>> =
            program.classes().map(|c| ClassPlan::new(c, reg)).collect();
        let max_pool_words = classes
            .iter()
            .map(|c| c.entry_sizes.len().div_ceil(64))
            .max()
            .unwrap_or(0);
        ReducePlan {
            classes,
            max_pool_words,
        }
    }

    /// The reduced program for `keep` and its
    /// [`program_byte_size`](crate::program_byte_size).
    pub(crate) fn materialize(&self, keep: &VarSet) -> (Program, usize) {
        let mut seen = vec![0u64; self.max_pool_words];
        let mut bytes = 0;
        let program = self
            .classes
            .iter()
            .filter_map(|plan| {
                let (class, size) = plan.materialize(keep, &mut seen)?;
                bytes += size;
                Some(class)
            })
            .collect();
        (program, bytes)
    }
}

impl<'p> ClassPlan<'p> {
    fn new(class: &'p ClassFile, reg: &ItemRegistry) -> Self {
        let name = &class.name;
        let is_interface = class.is_interface();
        let mut pool = ConstantPool::new();
        let class_ref = |pool: &mut ConstantPool, n: &str| {
            let index = pool.class(n);
            closure(pool, [index])
        };

        let this_index = pool.class(name);
        let code_index = pool.utf8("Code");
        let header_refs = closure(&pool, [this_index, code_index]);
        let superclass_refs = match &class.superclass {
            Some(sup) => class_ref(&mut pool, sup),
            None => Box::default(),
        };
        let superclass_var = match &class.superclass {
            Some(sup) if !is_interface && sup != OBJECT => {
                reg.var(&Item::SuperClass(name.clone(), sup.clone()))
            }
            _ => None,
        };
        let object_refs = if superclass_var.is_some() {
            class_ref(&mut pool, OBJECT)
        } else {
            Box::default()
        };
        let interfaces = class
            .interfaces
            .iter()
            .map(|iface| {
                let item = if is_interface {
                    Item::InterfaceExtends(name.clone(), iface.clone())
                } else {
                    Item::Implements(name.clone(), iface.clone())
                };
                (reg.var(&item), class_ref(&mut pool, iface))
            })
            .collect();
        let fields = class
            .fields
            .iter()
            .map(|f| {
                let indices = [pool.utf8(&f.name), pool.utf8(&f.ty.descriptor())];
                (
                    reg.var(&Item::Field(name.clone(), f.name.clone())),
                    closure(&pool, indices),
                )
            })
            .collect();
        let methods = class
            .methods
            .iter()
            .map(|m| {
                let desc = m.desc.descriptor();
                let indices = [pool.utf8(&m.name), pool.utf8(&desc)];
                let refs = closure(&pool, indices);
                let (var, code_var) = if m.is_init() {
                    (
                        reg.var(&Item::Constructor(name.clone(), desc.clone())),
                        reg.var(&Item::ConstructorCode(name.clone(), desc)),
                    )
                } else if m.code.is_some() {
                    (
                        reg.var(&Item::Method(name.clone(), m.name.clone(), desc.clone())),
                        reg.var(&Item::MethodCode(name.clone(), m.name.clone(), desc)),
                    )
                } else {
                    (
                        reg.var(&Item::Signature(name.clone(), m.name.clone(), desc)),
                        None,
                    )
                };
                let mut code_indices = Vec::new();
                let mut code_attribute = 0;
                if let Some(code) = &m.code {
                    intern_code_refs(code, &mut pool, |i| code_indices.push(i));
                    code_attribute = code_attribute_len(code);
                }
                MethodPlan {
                    var,
                    code_var,
                    refs,
                    code_refs: closure(&pool, code_indices),
                    code_attribute,
                }
            })
            .collect();
        let entry_sizes = pool
            .entries()
            .iter()
            .map(|e| constant_size(e) as u32)
            .collect();
        ClassPlan {
            class,
            var: reg.var(&if is_interface {
                Item::Interface(name.clone())
            } else {
                Item::Class(name.clone())
            }),
            superclass_var,
            entry_sizes,
            header_refs,
            superclass_refs,
            object_refs,
            interfaces,
            fields,
            methods,
        }
    }

    /// The reduced class (`None` when the class itself is dropped) and its
    /// [`class_byte_size`](crate::class_byte_size). `seen` is scratch with
    /// room for this class's pool.
    fn materialize(&self, keep: &VarSet, seen: &mut [u64]) -> Option<(ClassFile, usize)> {
        if !kept(self.var, keep) {
            return None;
        }
        let class = self.class;
        // The pool's size depends only on which entries it holds, so each
        // distinct entry a kept member uses is counted once.
        let seen = &mut seen[..self.entry_sizes.len().div_ceil(64)];
        seen.fill(0);
        let mut pool_bytes = 0;
        let mut use_refs = |refs: &[u16]| {
            for &r in refs {
                let (word, bit) = (usize::from(r) / 64, 1u64 << (r % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    pool_bytes += self.entry_sizes[usize::from(r)] as usize;
                }
            }
        };

        use_refs(&self.header_refs);
        let superclass = if kept(self.superclass_var, keep) {
            use_refs(&self.superclass_refs);
            class.superclass.clone()
        } else {
            use_refs(&self.object_refs);
            Some(OBJECT.to_owned())
        };
        let mut interfaces = Vec::with_capacity(class.interfaces.len());
        for (iface, (var, refs)) in class.interfaces.iter().zip(&self.interfaces) {
            if kept(*var, keep) {
                use_refs(refs);
                interfaces.push(iface.clone());
            }
        }
        let mut fields = Vec::with_capacity(class.fields.len());
        for (field, (var, refs)) in class.fields.iter().zip(&self.fields) {
            if kept(*var, keep) {
                use_refs(refs);
                fields.push(field.clone());
            }
        }
        let mut methods = Vec::with_capacity(class.methods.len());
        let mut code_attributes = 0;
        for (m, plan) in class.methods.iter().zip(&self.methods) {
            if !kept(plan.var, keep) {
                continue;
            }
            use_refs(&plan.refs);
            let code = if kept(plan.code_var, keep) {
                use_refs(&plan.code_refs);
                code_attributes += plan.code_attribute;
                m.code.clone()
            } else {
                code_attributes += STUB_CODE_ATTRIBUTE;
                Some(Code::trivial(locals_for(m)))
            };
            methods.push(MethodInfo {
                flags: m.flags,
                name: m.name.clone(),
                desc: m.desc.clone(),
                code,
            });
        }

        let size = class_file_len(
            pool_bytes,
            interfaces.len(),
            fields.len(),
            methods.len(),
            code_attributes,
        );
        let reduced = ClassFile {
            name: class.name.clone(),
            flags: class.flags,
            superclass,
            interfaces,
            fields,
            methods,
        };
        Some((reduced, size))
    }
}

/// The 0-based indices of `roots` and every entry they reference,
/// sorted and deduplicated.
fn closure(pool: &ConstantPool, roots: impl IntoIterator<Item = u16>) -> Box<[u16]> {
    let mut out = Vec::new();
    let mut stack: Vec<u16> = roots.into_iter().collect();
    while let Some(index) = stack.pop() {
        out.push(index - 1);
        match pool.get(index) {
            Some(Constant::Class(n)) => stack.push(*n),
            Some(
                Constant::Fieldref(a, b)
                | Constant::Methodref(a, b)
                | Constant::InterfaceMethodref(a, b)
                | Constant::NameAndType(a, b),
            ) => stack.extend([*a, *b]),
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out.into_boxed_slice()
}

fn locals_for(m: &MethodInfo) -> u16 {
    let this = u16::from(!m.flags.is_static());
    this + m.desc.params.len() as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldInfo, Insn, MethodDescriptor, MethodInfo, Type};

    fn sample() -> (Program, ItemRegistry) {
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        b.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let p: Program = [i, a, b].into_iter().collect();
        let reg = ItemRegistry::from_program(&p);
        (p, reg)
    }

    fn keep_all_except(reg: &ItemRegistry, drop: &[Item]) -> VarSet {
        let mut s = VarSet::full(reg.len());
        for d in drop {
            s.remove(reg.var(d).expect("registered item"));
        }
        s
    }

    #[test]
    fn keep_all_is_identity() {
        let (p, reg) = sample();
        let r = reduce_program(&p, &reg, &VarSet::full(reg.len()));
        assert_eq!(r, p);
    }

    #[test]
    fn drop_class_removes_it() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Class("B".into()),
                Item::SuperClass("B".into(), "A".into()),
                Item::Constructor("B".into(), "()V".into()),
                Item::ConstructorCode("B".into(), "()V".into()),
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("B").is_none());
        assert!(r.get("A").is_some());
    }

    #[test]
    fn drop_superclass_rewires_to_object() {
        let (p, reg) = sample();
        let keep = keep_all_except(&reg, &[Item::SuperClass("B".into(), "A".into())]);
        let r = reduce_program(&p, &reg, &keep);
        assert_eq!(r.get("B").unwrap().superclass.as_deref(), Some(OBJECT));
    }

    #[test]
    fn drop_implements_removes_relation() {
        let (p, reg) = sample();
        let keep = keep_all_except(&reg, &[Item::Implements("A".into(), "I".into())]);
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("A").unwrap().interfaces.is_empty());
        assert!(r.get("I").is_some());
    }

    #[test]
    fn drop_method_code_stubs_body() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[Item::MethodCode("A".into(), "m".into(), "()V".into())],
        );
        let r = reduce_program(&p, &reg, &keep);
        let m = r
            .get("A")
            .unwrap()
            .method("m", &MethodDescriptor::void())
            .unwrap();
        assert_eq!(
            m.code.as_ref().unwrap().insns,
            vec![Insn::AConstNull, Insn::AThrow]
        );
    }

    #[test]
    fn drop_method_removes_it() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Method("A".into(), "m".into(), "()V".into()),
                Item::MethodCode("A".into(), "m".into(), "()V".into()),
                Item::Implements("A".into(), "I".into()), // keep valid
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r
            .get("A")
            .unwrap()
            .method("m", &MethodDescriptor::void())
            .is_none());
    }

    #[test]
    fn drop_field_and_signature() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Field("A".into(), "f".into()),
                Item::Signature("I".into(), "m".into(), "()V".into()),
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("A").unwrap().fields.is_empty());
        assert!(r.get("I").unwrap().methods.is_empty());
    }

    #[test]
    fn ctor_code_stub_preserves_arity() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::new(vec![Type::Int, Type::Int], None),
            Code::new(1, 3, vec![Insn::Return]),
        ));
        let p: Program = [a].into_iter().collect();
        let reg = ItemRegistry::from_program(&p);
        let keep = keep_all_except(&reg, &[Item::ConstructorCode("A".into(), "(II)V".into())]);
        let r = reduce_program(&p, &reg, &keep);
        let ctor = &r.get("A").unwrap().methods[0];
        assert_eq!(ctor.desc.params.len(), 2);
        assert_eq!(ctor.code.as_ref().unwrap().max_locals, 3);
    }

    #[test]
    fn stub_attribute_is_the_trivial_body() {
        for locals in [0, 1, 5] {
            assert_eq!(
                STUB_CODE_ATTRIBUTE,
                code_attribute_len(&Code::trivial(locals))
            );
        }
    }

    #[test]
    fn fused_size_matches_program_byte_size() {
        let (p, reg) = sample();
        let plan = ReducePlan::new(&p, &reg);
        for drop in [
            vec![],
            vec![Item::SuperClass("B".into(), "A".into())],
            vec![Item::MethodCode("A".into(), "m".into(), "()V".into())],
            vec![
                Item::Implements("A".into(), "I".into()),
                Item::Field("A".into(), "f".into()),
            ],
        ] {
            let (r, bytes) = plan.materialize(&keep_all_except(&reg, &drop));
            assert_eq!(bytes, crate::program_byte_size(&r), "dropping {drop:?}");
        }
    }
}
