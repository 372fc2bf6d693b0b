//! Binary writer for the class-file format.
//!
//! The layout follows the JVM class-file format: magic `0xCAFEBABE`,
//! version, constant pool, access flags, this/super class, interfaces,
//! fields, methods with a `Code` attribute, and class attributes. Two
//! simplifications are documented deviations: integer constants are
//! encoded inline after opcode `0x12` (instead of via `CONSTANT_Integer`
//! pool entries), and local-slot operands are always 2 bytes (the `wide`
//! form).

use crate::{ClassFile, Code, Constant, ConstantPool, Insn, Program};

/// Serializes a class to its binary form.
///
/// # Examples
///
/// ```
/// use lbr_classfile::{write_class, read_class, ClassFile};
/// let c = ClassFile::new_class("A");
/// let bytes = write_class(&c);
/// assert_eq!(&bytes[..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
/// assert_eq!(read_class(&bytes).unwrap(), c);
/// ```
pub fn write_class(class: &ClassFile) -> Vec<u8> {
    let mut pool = ConstantPool::new();
    // Pre-intern structural entries.
    let this_idx = pool.class(&class.name);
    let super_idx = class.superclass.as_ref().map(|s| pool.class(s));
    let iface_idxs: Vec<u16> = class.interfaces.iter().map(|i| pool.class(i)).collect();
    let code_attr_name = pool.utf8("Code");

    struct FieldEnc {
        flags: u16,
        name: u16,
        desc: u16,
    }
    let fields: Vec<FieldEnc> = class
        .fields
        .iter()
        .map(|f| FieldEnc {
            flags: f.flags.bits(),
            name: pool.utf8(&f.name),
            desc: pool.utf8(&f.ty.descriptor()),
        })
        .collect();

    struct MethodEnc {
        flags: u16,
        name: u16,
        desc: u16,
        code: Option<(u16, u16, Vec<u8>)>,
    }
    let methods: Vec<MethodEnc> = class
        .methods
        .iter()
        .map(|m| MethodEnc {
            flags: m.flags.bits(),
            name: pool.utf8(&m.name),
            desc: pool.utf8(&m.desc.descriptor()),
            code: m
                .code
                .as_ref()
                .map(|c| (c.max_stack, c.max_locals, encode_code(c, &mut pool))),
        })
        .collect();

    // Assemble.
    let mut out = Vec::new();
    put_u32(&mut out, 0xCAFE_BABE);
    put_u16(&mut out, 0); // minor
    put_u16(&mut out, 52); // major (Java 8)
    put_u16(&mut out, (pool.len() + 1) as u16);
    for e in pool.entries() {
        out.push(e.tag());
        match e {
            Constant::Utf8(s) => {
                put_u16(&mut out, s.len() as u16);
                out.extend_from_slice(s.as_bytes());
            }
            Constant::Integer(i) => put_u32(&mut out, *i as u32),
            Constant::Class(n) => put_u16(&mut out, *n),
            Constant::Fieldref(c, n)
            | Constant::Methodref(c, n)
            | Constant::InterfaceMethodref(c, n)
            | Constant::NameAndType(c, n) => {
                put_u16(&mut out, *c);
                put_u16(&mut out, *n);
            }
        }
    }
    put_u16(&mut out, class.flags.bits());
    put_u16(&mut out, this_idx);
    put_u16(&mut out, super_idx.unwrap_or(0));
    put_u16(&mut out, iface_idxs.len() as u16);
    for i in &iface_idxs {
        put_u16(&mut out, *i);
    }
    put_u16(&mut out, fields.len() as u16);
    for f in &fields {
        put_u16(&mut out, f.flags);
        put_u16(&mut out, f.name);
        put_u16(&mut out, f.desc);
        put_u16(&mut out, 0); // attributes
    }
    put_u16(&mut out, methods.len() as u16);
    for m in &methods {
        put_u16(&mut out, m.flags);
        put_u16(&mut out, m.name);
        put_u16(&mut out, m.desc);
        match &m.code {
            None => put_u16(&mut out, 0),
            Some((max_stack, max_locals, bytecode)) => {
                put_u16(&mut out, 1);
                put_u16(&mut out, code_attr_name);
                // attribute length: 2 + 2 + 4 + code + 2 (exceptions) + 2 (attrs)
                put_u32(&mut out, (2 + 2 + 4 + bytecode.len() + 2 + 2) as u32);
                put_u16(&mut out, *max_stack);
                put_u16(&mut out, *max_locals);
                put_u32(&mut out, bytecode.len() as u32);
                out.extend_from_slice(bytecode);
                put_u16(&mut out, 0); // exception table
                put_u16(&mut out, 0); // code attributes
            }
        }
    }
    put_u16(&mut out, 0); // class attributes
    out
}

/// Lowers instructions to bytes, resolving symbolic references through the
/// pool and branch targets to relative byte offsets.
fn encode_code(code: &Code, pool: &mut ConstantPool) -> Vec<u8> {
    // First pass: byte offset of each instruction.
    let mut offsets = Vec::with_capacity(code.insns.len());
    let mut at = 0usize;
    for insn in &code.insns {
        offsets.push(at);
        at += insn.encoded_len();
    }
    let mut out = Vec::with_capacity(at);
    for (i, insn) in code.insns.iter().enumerate() {
        let here = offsets[i];
        out.push(insn.opcode());
        match insn {
            Insn::IConst(v) => put_u32(&mut out, *v as u32),
            Insn::ILoad(s) | Insn::IStore(s) | Insn::ALoad(s) | Insn::AStore(s) => {
                put_u16(&mut out, *s)
            }
            Insn::LdcClass(c) | Insn::New(c) | Insn::CheckCast(c) | Insn::InstanceOf(c) => {
                let idx = pool.class(c);
                put_u16(&mut out, idx);
            }
            Insn::GetField(f) | Insn::PutField(f) => {
                let idx = pool.fieldref(&f.class, &f.name, &f.ty.descriptor());
                put_u16(&mut out, idx);
            }
            Insn::InvokeVirtual(m) | Insn::InvokeSpecial(m) | Insn::InvokeStatic(m) => {
                let idx = pool.methodref(&m.class, &m.name, &m.desc.descriptor());
                put_u16(&mut out, idx);
            }
            Insn::InvokeInterface(m) => {
                let idx = pool.interface_methodref(&m.class, &m.name, &m.desc.descriptor());
                put_u16(&mut out, idx);
                out.push((m.desc.params.len() + 1) as u8); // count
                out.push(0);
            }
            Insn::Goto(target) | Insn::IfEq(target) => {
                let target_off = offsets[*target as usize] as i64;
                let delta = target_off - here as i64;
                put_u16(&mut out, delta as i16 as u16);
            }
            _ => {}
        }
    }
    out
}

/// Serializes a whole program as a container: magic `LBRC`, class count,
/// then length-prefixed class files.
pub fn write_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"LBRC");
    put_u32(&mut out, program.len() as u32);
    for class in program.classes() {
        let bytes = write_class(class);
        put_u32(&mut out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
    out
}

/// The serialized size of a program in bytes — the paper's primary size
/// metric ("Final Relative Size (Bytes)").
///
/// Computed without materializing the bytes ([`class_byte_size`]): the
/// reduction pipeline measures every oracle probe, so this is hot.
pub fn program_byte_size(program: &Program) -> usize {
    program.classes().map(class_byte_size).sum()
}

/// Computes `write_class(class).len()` without producing the bytes.
///
/// Replicates the writer's constant-pool interning (the pool's *contents*
/// determine its size; entry order does not) and sums fixed field widths
/// plus [`Insn::encoded_len`] for code, skipping all byte emission.
pub fn class_byte_size(class: &ClassFile) -> usize {
    let mut pool = ConstantPool::new();
    pool.class(&class.name);
    if let Some(s) = &class.superclass {
        pool.class(s);
    }
    for i in &class.interfaces {
        pool.class(i);
    }
    pool.utf8("Code");

    for f in &class.fields {
        pool.utf8(&f.name);
        pool.utf8(&f.ty.descriptor());
    }
    let mut code_attributes = 0;
    for m in &class.methods {
        pool.utf8(&m.name);
        pool.utf8(&m.desc.descriptor());
        if let Some(code) = &m.code {
            intern_code_refs(code, &mut pool, |_| {});
            code_attributes += code_attribute_len(code);
        }
    }

    let pool_bytes: usize = pool.entries().iter().map(constant_size).sum();
    class_file_len(
        pool_bytes,
        class.interfaces.len(),
        class.fields.len(),
        class.methods.len(),
        code_attributes,
    )
}

/// The length of a serialized class from its parts: the constant pool's
/// entry bytes, the member counts, and the summed `Code` attribute
/// lengths of the methods that have a body.
pub(crate) fn class_file_len(
    pool_bytes: usize,
    interfaces: usize,
    fields: usize,
    methods: usize,
    code_attributes: usize,
) -> usize {
    // magic + version + pool count + pool + flags + this + super.
    let header = 4 + 4 + 2 + pool_bytes + 2 + 2 + 2;
    // Each table is a count plus fixed-width rows: interface indices,
    // fields (flags/name/desc/attrs), methods (flags/name/desc/attrs).
    let tables = (2 + 2 * interfaces) + (2 + 8 * fields) + (2 + 8 * methods);
    header + tables + code_attributes + 2 // class attributes
}

/// The bytes a method's `Code` attribute adds to its method row.
pub(crate) fn code_attribute_len(code: &Code) -> usize {
    let code_len: usize = code.insns.iter().map(Insn::encoded_len).sum();
    // attribute name + length + (stack/locals/len + code + exc + attrs)
    2 + 4 + (2 + 2 + 4 + code_len + 2 + 2)
}

/// Interns exactly the pool entries [`encode_code`] would, handing each
/// top-level index to `each`.
pub(crate) fn intern_code_refs(code: &Code, pool: &mut ConstantPool, mut each: impl FnMut(u16)) {
    for insn in &code.insns {
        let index = match insn {
            Insn::LdcClass(c) | Insn::New(c) | Insn::CheckCast(c) | Insn::InstanceOf(c) => {
                pool.class(c)
            }
            Insn::GetField(f) | Insn::PutField(f) => {
                pool.fieldref(&f.class, &f.name, &f.ty.descriptor())
            }
            Insn::InvokeVirtual(m) | Insn::InvokeSpecial(m) | Insn::InvokeStatic(m) => {
                pool.methodref(&m.class, &m.name, &m.desc.descriptor())
            }
            Insn::InvokeInterface(m) => {
                pool.interface_methodref(&m.class, &m.name, &m.desc.descriptor())
            }
            _ => continue,
        };
        each(index);
    }
}

/// Serialized size of one constant-pool entry (tag byte included).
pub(crate) fn constant_size(c: &Constant) -> usize {
    1 + match c {
        Constant::Utf8(s) => 2 + s.len(),
        Constant::Integer(_) => 4,
        Constant::Class(_) => 2,
        Constant::Fieldref(..)
        | Constant::Methodref(..)
        | Constant::InterfaceMethodref(..)
        | Constant::NameAndType(..) => 4,
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldInfo, MethodDescriptor, MethodInfo, MethodRef, Type};

    #[test]
    fn magic_and_version() {
        let bytes = write_class(&ClassFile::new_class("A"));
        assert_eq!(&bytes[..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
        assert_eq!(&bytes[4..8], &[0, 0, 0, 52]);
    }

    #[test]
    fn size_grows_with_members() {
        let empty = write_class(&ClassFile::new_class("A")).len();
        let mut c = ClassFile::new_class("A");
        c.fields.push(FieldInfo::new("f", Type::Int));
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(2, 1, vec![Insn::Return]),
        ));
        assert!(write_class(&c).len() > empty);
    }

    #[test]
    fn program_container_layout() {
        let mut p = Program::new();
        p.insert(ClassFile::new_class("A"));
        p.insert(ClassFile::new_class("B"));
        let bytes = write_program(&p);
        assert_eq!(&bytes[..4], b"LBRC");
        assert_eq!(u32::from_be_bytes(bytes[4..8].try_into().unwrap()), 2);
        assert!(program_byte_size(&p) < bytes.len());
    }

    #[test]
    fn branch_offsets_relative() {
        // goto forward over a nop: delta = 1 (nop) ... encoded relative to
        // the goto's own offset.
        let code = Code::new(1, 1, vec![Insn::Goto(2), Insn::Nop, Insn::Return]);
        let mut pool = ConstantPool::new();
        let bytes = encode_code(&code, &mut pool);
        assert_eq!(bytes[0], 0xa7);
        let delta = i16::from_be_bytes([bytes[1], bytes[2]]);
        assert_eq!(delta, 4); // goto is 3 bytes + 1 nop byte
    }

    #[test]
    fn class_byte_size_is_exact() {
        use crate::FieldRef;
        // A class exercising every pool-touching instruction plus repeated
        // references (so interning dedup matters).
        let mut c = ClassFile::new_class("A");
        c.superclass = Some("Base".into());
        c.interfaces.push("I".into());
        c.interfaces.push("J".into());
        c.fields.push(FieldInfo::new("f", Type::Int));
        c.fields.push(FieldInfo::new("g", Type::reference("B")));
        c.methods
            .push(MethodInfo::new_abstract("abs", MethodDescriptor::void()));
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::new(vec![Type::Int], Some(Type::Int)),
            Code::new(
                3,
                2,
                vec![
                    Insn::ALoad(0),
                    Insn::IConst(7),
                    Insn::GetField(FieldRef::new("A", "f", Type::Int)),
                    Insn::PutField(FieldRef::new("A", "f", Type::Int)),
                    Insn::New("B".into()),
                    Insn::CheckCast("B".into()),
                    Insn::InstanceOf("I".into()),
                    Insn::LdcClass("J".into()),
                    Insn::InvokeVirtual(MethodRef::new("A", "m", MethodDescriptor::void())),
                    Insn::InvokeSpecial(MethodRef::new("Base", "<init>", MethodDescriptor::void())),
                    Insn::InvokeStatic(MethodRef::new("B", "s", MethodDescriptor::void())),
                    Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                    Insn::Goto(14),
                    Insn::Nop,
                    Insn::IReturn,
                ],
            ),
        ));
        assert_eq!(class_byte_size(&c), write_class(&c).len());
        // And on the trivial shapes.
        let plain = ClassFile::new_class("P");
        assert_eq!(class_byte_size(&plain), write_class(&plain).len());
        let iface = ClassFile::new_interface("Q");
        assert_eq!(class_byte_size(&iface), write_class(&iface).len());
    }

    #[test]
    fn invokeinterface_count_byte() {
        let code = Code::new(
            1,
            1,
            vec![Insn::InvokeInterface(MethodRef::new(
                "I",
                "m",
                MethodDescriptor::new(vec![Type::Int, Type::Int], None),
            ))],
        );
        let mut pool = ConstantPool::new();
        let bytes = encode_code(&code, &mut pool);
        assert_eq!(bytes[0], 0xb9);
        assert_eq!(bytes[3], 3); // this + 2 int args
        assert_eq!(bytes[4], 0);
    }
}
