//! Content-addressed structural digests for methods and programs.
//!
//! JoNM mutants differ from their seed in exactly one method body, so a
//! campaign re-compiles thousands of methods that are byte-for-byte
//! unchanged — they merely live in a different [`BProgram`].
//! This module assigns every method a *stable structural digest* that is
//! identical whenever the method would behave identically, letting the
//! JIT code cache upstream share compiled code across program boundaries.
//!
//! # The two layers
//!
//! Each method gets a [`MethodDigest`] with two components:
//!
//! * **`content`** — the semantic shape: opcodes, constants, the exception
//!   table, local layout, loop headers, and every *referenced entity by
//!   name and structure* (string literal bytes, callee qualified names and
//!   signatures, class/field names and types). No numeric table index
//!   enters this hash, so it is independent of method/string/class
//!   *ordering*: an unmutated method hashes identically in the seed and in
//!   every mutant, and `content` equality implies disassembly equality
//!   (the disassembler renders exactly these names).
//! * **`linkage`** — the id binding: the method's own index plus every
//!   numeric `MethodId`/`ClassId`/`StrId`/field-slot operand in occurrence
//!   order. Compiled IR embeds these raw ids and resolves them against the
//!   *executing* program at run time, so sharing compiled artifacts is
//!   only sound between programs that agree on the binding. (Counter-
//!   example: inserting one string literal shifts every later `StrId`;
//!   `content` still matches — the literals are equal — but reusing IR
//!   compiled against the old ids would print the wrong strings.)
//!
//! Caches key on [`MethodDigest::key`], which folds both layers. The
//! split is kept (rather than hashing one combined value) so tests and
//! diagnostics can distinguish "same shape, different binding" from
//! "different shape".
//!
//! # Compilation units
//!
//! The JIT inlines callees, so a compiled artifact depends on more than
//! the root method body. [`ProgramDigests::units`] digests the *static
//! call closure* to [`INLINE_CLOSURE_DEPTH`] edges — a superset of
//! everything the compiler can read while translating the root. The JIT
//! reads no profile but the root's, so its code cache keys on a unit
//! digest and the root method's profile fingerprint alone.
//!
//! # All at once, or on first use
//!
//! [`ProgramDigests::compute`] digests every method and unit of a
//! program. A VM run needs the keys of the few methods it compiles, so
//! the VM reads [`LazyDigests`], which computes each value the first time
//! it is asked for, through the same per-method functions.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use cse_lang::Ty;

use crate::insn::Insn;
use crate::program::{BMethod, BProgram};

/// Maximum call-edge depth the JIT's inliner can reach from a compilation
/// root (the inline chain is bounded at four frames, and rejected
/// candidates one level deeper still have their code length inspected).
/// The unit digest conservatively covers this whole closure.
pub const INLINE_CLOSURE_DEPTH: usize = 4;

/// The workspace's one 64-bit FNV-1a accumulator, for every
/// deterministic digest and fingerprint (the workspace has no registry
/// dependencies). Each writer feeds a fixed byte stream: [`Fnv::raw`]
/// the bytes as given, [`Fnv::u64`] eight little-endian bytes, and
/// [`Fnv::str`] a `u64` length prefix and then the bytes.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds `v` as eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Feeds `s`'s bytes after their length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds a type's structure (tag, then element type or class name).
fn hash_ty(h: &mut Fnv, ty: &Ty) {
    match ty {
        Ty::Int => h.u64(1),
        Ty::Long => h.u64(2),
        Ty::Byte => h.u64(3),
        Ty::Bool => h.u64(4),
        Ty::Str => h.u64(5),
        Ty::Void => h.u64(6),
        Ty::Array(elem) => {
            h.u64(7);
            hash_ty(h, elem);
        }
        Ty::Class(name) => {
            h.u64(8);
            h.str(name);
        }
    }
}

/// The two-layer digest of one method; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodDigest {
    /// Order-independent structural digest (names, not indices).
    pub content: u64,
    /// Id-binding digest (own index + numeric operand ids in order).
    pub linkage: u64,
}

impl MethodDigest {
    /// The cache key: a method may share cached artifacts with another
    /// occurrence of itself exactly when both layers agree.
    pub fn key(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.content);
        h.u64(self.linkage);
        h.finish()
    }
}

/// All digests of one [`BProgram`] at once. [`LazyDigests`] computes the
/// same values one method at a time, through the same functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDigests {
    /// Per-method digests, indexed by `MethodId`.
    pub methods: Vec<MethodDigest>,
    /// Per-method *compilation unit* digests: the method's own key folded
    /// with every member of its static call closure (to
    /// [`INLINE_CLOSURE_DEPTH`] edges). Two equal unit digests mean the
    /// JIT, starting from either root, can only ever read identical code.
    pub units: Vec<u64>,
}

impl ProgramDigests {
    /// Computes every digest for `program`.
    pub fn compute(program: &BProgram) -> ProgramDigests {
        let methods: Vec<MethodDigest> =
            (0..program.methods.len()).map(|idx| method_digest(program, idx)).collect();
        let units: Vec<u64> = (0..program.methods.len())
            .map(|idx| unit_digest(program, idx, |member| methods[member].key()))
            .collect();
        ProgramDigests { methods, units }
    }
}

/// The digests of one [`BProgram`], each computed the first time it is
/// asked for and kept. A run reads the method keys and unit digests of
/// the few methods it compiles, not of the whole program; every value
/// equals the one [`ProgramDigests::compute`] gives. Every query must
/// pass the program the digests were made for.
#[derive(Debug)]
pub struct LazyDigests {
    /// `MethodDigest::key` per method.
    keys: Vec<OnceCell<u64>>,
    /// `ProgramDigests::units` per method.
    units: Vec<OnceCell<u64>>,
}

impl LazyDigests {
    /// Digests of `program`, none computed yet.
    pub fn new(program: &BProgram) -> LazyDigests {
        let n = program.methods.len();
        LazyDigests {
            keys: std::iter::repeat_with(OnceCell::new).take(n).collect(),
            units: std::iter::repeat_with(OnceCell::new).take(n).collect(),
        }
    }

    /// `ProgramDigests::compute(program).methods[idx].key()`.
    pub fn method_key(&self, program: &BProgram, idx: usize) -> u64 {
        debug_assert_eq!(self.keys.len(), program.methods.len(), "digests of another program");
        *self.keys[idx].get_or_init(|| method_digest(program, idx).key())
    }

    /// `ProgramDigests::compute(program).units[idx]`.
    pub fn unit(&self, program: &BProgram, idx: usize) -> u64 {
        *self.units[idx]
            .get_or_init(|| unit_digest(program, idx, |member| self.method_key(program, member)))
    }
}

/// The two-layer digest of method `idx`.
fn method_digest(program: &BProgram, idx: usize) -> MethodDigest {
    MethodDigest { content: method_content(program, idx), linkage: method_linkage(program, idx) }
}

/// The compilation-unit digest of `root`: its key, then each member of
/// its call closure with that member's key (`key_of`).
fn unit_digest(program: &BProgram, root: usize, key_of: impl Fn(usize) -> u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(key_of(root));
    for member in call_closure(program, root) {
        h.u64(u64::from(member));
        h.u64(key_of(member as usize));
    }
    h.finish()
}

/// The sorted static call closure of `root`, to [`INLINE_CLOSURE_DEPTH`]
/// call edges (breadth-first over `InvokeStatic`/`InvokeInstance` edges).
fn call_closure(program: &BProgram, root: usize) -> Vec<u32> {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    seen.insert(root as u32);
    let mut frontier: Vec<u32> = vec![root as u32];
    let mut next: Vec<u32> = Vec::new();
    for _ in 0..INLINE_CLOSURE_DEPTH {
        if frontier.is_empty() {
            break;
        }
        for &m in &frontier {
            for insn in &program.methods[m as usize].code {
                if let Insn::InvokeStatic(callee) | Insn::InvokeInstance(callee) = insn {
                    if seen.insert(callee.0) {
                        next.push(callee.0);
                    }
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    seen.into_iter().collect()
}

/// Hashes a method signature by name and structure (no indices): the
/// everything a *caller* can observe statically about the callee.
fn hash_signature(h: &mut Fnv, program: &BProgram, method: &BMethod) {
    h.str(&program.classes[method.class.0 as usize].name);
    h.str(&method.name);
    h.u64(u64::from(method.is_static));
    h.u64(method.params.len() as u64);
    for ty in &method.params {
        hash_ty(h, ty);
    }
    hash_ty(h, &method.ret);
}

fn method_content(program: &BProgram, idx: usize) -> u64 {
    let method = &program.methods[idx];
    let mut h = Fnv::new();
    hash_signature(&mut h, program, method);
    h.u64(u64::from(method.num_locals));
    h.u64(method.local_types.len() as u64);
    for slot in &method.local_types {
        match slot {
            None => h.u64(0),
            Some(ty) => {
                h.u64(1);
                hash_ty(&mut h, ty);
            }
        }
    }
    h.u64(method.handlers.len() as u64);
    for handler in &method.handlers {
        h.u64(u64::from(handler.start));
        h.u64(u64::from(handler.end));
        h.u64(u64::from(handler.target));
        h.u64(handler.save_slot.map_or(u64::MAX, u64::from));
    }
    h.u64(method.loop_headers.len() as u64);
    for &pc in &method.loop_headers {
        h.u64(u64::from(pc));
    }
    h.u64(method.code.len() as u64);
    for insn in &method.code {
        hash_insn_content(&mut h, program, insn);
    }
    h.finish()
}

/// Hashes one instruction by opcode tag and *resolved* operands: numeric
/// ids are replaced by what they name (string bytes, class/field names and
/// types, callee signatures). Tags are explicit so the hash is stable
/// under enum reordering.
fn hash_insn_content(h: &mut Fnv, program: &BProgram, insn: &Insn) {
    match insn {
        Insn::IConst(v) => {
            h.u64(1);
            h.u64(*v as u32 as u64);
        }
        Insn::LConst(v) => {
            h.u64(2);
            h.u64(*v as u64);
        }
        Insn::SConst(s) => {
            h.u64(3);
            h.str(&program.strings[s.0 as usize]);
        }
        Insn::NullConst => h.u64(4),
        Insn::Load(slot) => {
            h.u64(5);
            h.u64(u64::from(*slot));
        }
        Insn::Store(slot) => {
            h.u64(6);
            h.u64(u64::from(*slot));
        }
        Insn::Pop => h.u64(7),
        Insn::Dup => h.u64(8),
        Insn::Dup2 => h.u64(9),
        Insn::GetStatic { class, field } | Insn::PutStatic { class, field } => {
            h.u64(if matches!(insn, Insn::GetStatic { .. }) { 10 } else { 11 });
            let c = &program.classes[class.0 as usize];
            h.str(&c.name);
            let f = &c.static_fields[*field as usize];
            h.str(&f.name);
            hash_ty(h, &f.ty);
        }
        Insn::GetField { field } => {
            h.u64(12);
            h.u64(u64::from(*field));
        }
        Insn::PutField { field } => {
            h.u64(13);
            h.u64(u64::from(*field));
        }
        Insn::NewObject(class) => {
            h.u64(14);
            let c = &program.classes[class.0 as usize];
            h.str(&c.name);
            h.u64(c.inst_fields.len() as u64);
            for f in &c.inst_fields {
                h.str(&f.name);
                hash_ty(h, &f.ty);
            }
        }
        Insn::NewArray(kind) => {
            h.u64(15);
            h.u64(*kind as u64);
        }
        Insn::NewMultiArray { kind, dims } => {
            h.u64(16);
            h.u64(*kind as u64);
            h.u64(u64::from(*dims));
        }
        Insn::ArrLoad(kind) => {
            h.u64(17);
            h.u64(*kind as u64);
        }
        Insn::ArrStore(kind) => {
            h.u64(18);
            h.u64(*kind as u64);
        }
        Insn::ArrLen => h.u64(19),
        Insn::IAdd => h.u64(20),
        Insn::ISub => h.u64(21),
        Insn::IMul => h.u64(22),
        Insn::IDiv => h.u64(23),
        Insn::IRem => h.u64(24),
        Insn::INeg => h.u64(25),
        Insn::IShl => h.u64(26),
        Insn::IShr => h.u64(27),
        Insn::IUshr => h.u64(28),
        Insn::IAnd => h.u64(29),
        Insn::IOr => h.u64(30),
        Insn::IXor => h.u64(31),
        Insn::LAdd => h.u64(32),
        Insn::LSub => h.u64(33),
        Insn::LMul => h.u64(34),
        Insn::LDiv => h.u64(35),
        Insn::LRem => h.u64(36),
        Insn::LNeg => h.u64(37),
        Insn::LShl => h.u64(38),
        Insn::LShr => h.u64(39),
        Insn::LUshr => h.u64(40),
        Insn::LAnd => h.u64(41),
        Insn::LOr => h.u64(42),
        Insn::LXor => h.u64(43),
        Insn::I2L => h.u64(44),
        Insn::L2I => h.u64(45),
        Insn::I2B => h.u64(46),
        Insn::I2S => h.u64(47),
        Insn::L2S => h.u64(48),
        Insn::Bool2S => h.u64(49),
        Insn::ICmp(op) => {
            h.u64(50);
            h.u64(*op as u64);
        }
        Insn::LCmp(op) => {
            h.u64(51);
            h.u64(*op as u64);
        }
        Insn::RefEq => h.u64(52),
        Insn::RefNe => h.u64(53),
        Insn::SConcat => h.u64(54),
        Insn::Jump(t) => {
            h.u64(55);
            h.u64(u64::from(*t));
        }
        Insn::JumpIfTrue(t) => {
            h.u64(56);
            h.u64(u64::from(*t));
        }
        Insn::JumpIfFalse(t) => {
            h.u64(57);
            h.u64(u64::from(*t));
        }
        Insn::TableSwitch { cases, default } => {
            h.u64(58);
            h.u64(cases.len() as u64);
            for &(val, target) in cases.iter() {
                h.u64(val as u32 as u64);
                h.u64(u64::from(target));
            }
            h.u64(u64::from(*default));
        }
        Insn::InvokeStatic(callee) => {
            h.u64(59);
            hash_signature(h, program, program.method(*callee));
        }
        Insn::InvokeInstance(callee) => {
            h.u64(60);
            hash_signature(h, program, program.method(*callee));
        }
        Insn::Return => h.u64(61),
        Insn::ReturnVal => h.u64(62),
        Insn::ThrowUser => h.u64(63),
        Insn::Rethrow(slot) => {
            h.u64(64);
            h.u64(u64::from(*slot));
        }
        Insn::Println(kind) => {
            h.u64(65);
            h.u64(*kind as u64);
        }
        Insn::Mute => h.u64(66),
        Insn::Unmute => h.u64(67),
    }
}

/// The id-binding layer: the method's own index and every numeric id
/// operand in occurrence order.
fn method_linkage(program: &BProgram, idx: usize) -> u64 {
    let method = &program.methods[idx];
    let mut h = Fnv::new();
    h.u64(idx as u64);
    h.u64(u64::from(method.class.0));
    for insn in &method.code {
        match insn {
            Insn::SConst(s) => h.u64(u64::from(s.0)),
            Insn::GetStatic { class, field } | Insn::PutStatic { class, field } => {
                h.u64(u64::from(class.0));
                h.u64(u64::from(*field));
            }
            Insn::NewObject(class) => h.u64(u64::from(class.0)),
            Insn::InvokeStatic(callee) | Insn::InvokeInstance(callee) => {
                h.u64(u64::from(callee.0));
            }
            _ => {}
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::disasm::disasm_method;
    use crate::program::MethodId;

    fn compiled(src: &str) -> BProgram {
        compile(&cse_lang::parse_and_check(src).unwrap()).unwrap()
    }

    const BASE: &str = r#"
        class T {
            static int s = 7;
            static int helper(int x) { try { return 100 / x; } catch { return -1; } }
            static void main() { println(helper(4) + T.s + "tail"); }
        }
    "#;

    #[test]
    fn digest_is_deterministic() {
        let a = ProgramDigests::compute(&compiled(BASE));
        let b = ProgramDigests::compute(&compiled(BASE));
        assert_eq!(a, b);
    }

    #[test]
    fn one_constant_changes_the_digest() {
        let a = ProgramDigests::compute(&compiled(BASE));
        let b = ProgramDigests::compute(&compiled(&BASE.replace("100 / x", "101 / x")));
        let helper_a = compiled(BASE);
        let id = helper_a.find_method("T", "helper").unwrap().0 as usize;
        assert_ne!(a.methods[id].content, b.methods[id].content);
        assert_ne!(a.units[id], b.units[id]);
        // main inlines helper, so its *unit* moves while its body digest
        // stays put.
        let main = helper_a.find_method("T", "main").unwrap().0 as usize;
        assert_eq!(a.methods[main].content, b.methods[main].content);
        assert_ne!(a.units[main], b.units[main]);
    }

    #[test]
    fn one_opcode_changes_the_digest() {
        let a = ProgramDigests::compute(&compiled(BASE));
        let b = ProgramDigests::compute(&compiled(&BASE.replace("100 / x", "100 * x")));
        let p = compiled(BASE);
        let id = p.find_method("T", "helper").unwrap().0 as usize;
        assert_ne!(a.methods[id].content, b.methods[id].content);
    }

    #[test]
    fn exception_range_changes_the_digest() {
        // Identical code; only one handler's guarded range differs.
        let p = compiled(BASE);
        let id = p.find_method("T", "helper").unwrap().0 as usize;
        assert!(!p.methods[id].handlers.is_empty(), "helper must have a handler");
        let a = ProgramDigests::compute(&p);
        let mut widened = p.clone();
        widened.methods[id].handlers[0].start += 1;
        let b = ProgramDigests::compute(&widened);
        assert_ne!(a.methods[id].content, b.methods[id].content);
    }

    #[test]
    fn permuted_declaration_order_preserves_content() {
        // Declaring the methods in a different order permutes MethodIds;
        // content digests must not move, linkage must.
        let permuted = r#"
            class T {
                static int s = 7;
                static void main() { println(helper(4) + T.s + "tail"); }
                static int helper(int x) { try { return 100 / x; } catch { return -1; } }
            }
        "#;
        let a_prog = compiled(BASE);
        let b_prog = compiled(permuted);
        let a = ProgramDigests::compute(&a_prog);
        let b = ProgramDigests::compute(&b_prog);
        for name in ["main", "helper"] {
            let ia = a_prog.find_method("T", name).unwrap();
            let ib = b_prog.find_method("T", name).unwrap();
            assert_eq!(
                a.methods[ia.0 as usize].content, b.methods[ib.0 as usize].content,
                "{name}: content must survive reordering"
            );
        }
        let ia = a_prog.find_method("T", "helper").unwrap();
        let ib = b_prog.find_method("T", "helper").unwrap();
        if ia != ib {
            assert_ne!(
                a.methods[ia.0 as usize].linkage, b.methods[ib.0 as usize].linkage,
                "linkage must bind the index"
            );
        }
    }

    #[test]
    fn string_table_shift_changes_linkage_not_content() {
        // An extra literal *before* the shared one shifts StrIds: the
        // tail method's content must hold, its linkage must move —
        // this is exactly the case where sharing compiled IR would be
        // unsound.
        let shifted = BASE.replace("println(", "println(\"pre\"); println(");
        let a_prog = compiled(BASE);
        let b_prog = compiled(&shifted);
        let a = ProgramDigests::compute(&a_prog);
        let b = ProgramDigests::compute(&b_prog);
        let ha = a_prog.find_method("T", "helper").unwrap().0 as usize;
        let hb = b_prog.find_method("T", "helper").unwrap().0 as usize;
        // helper has no string operands, so both layers hold for it...
        assert_eq!(a.methods[ha].content, b.methods[hb].content);
        // ...but main gained a literal: both layers move there.
        let ma = a_prog.find_method("T", "main").unwrap().0 as usize;
        let mb = b_prog.find_method("T", "main").unwrap().0 as usize;
        assert_ne!(a.methods[ma].content, b.methods[mb].content);
        assert_ne!(a.methods[ma].linkage, b.methods[mb].linkage);
    }

    #[test]
    fn digest_equality_implies_disassembly_equality() {
        // The adversarial pairs above plus identical twins: wherever the
        // *content* digests agree, the disassembly (modulo the numeric
        // header name, which content covers via the qualified name) must
        // agree byte for byte.
        let sources = [
            BASE.to_string(),
            BASE.replace("100 / x", "101 / x"),
            BASE.replace("100 / x", "100 * x"),
            BASE.replace("return -1;", "return -2;"),
            BASE.to_string(),
        ];
        let programs: Vec<BProgram> = sources.iter().map(|s| compiled(s)).collect();
        let digests: Vec<ProgramDigests> = programs.iter().map(ProgramDigests::compute).collect();
        let mut compared = 0usize;
        for (pi, pa) in programs.iter().enumerate() {
            for (qi, pb) in programs.iter().enumerate() {
                for (ia, da) in digests[pi].methods.iter().enumerate() {
                    for (ib, db) in digests[qi].methods.iter().enumerate() {
                        if da.content == db.content {
                            compared += 1;
                            assert_eq!(
                                disasm_method(pa, MethodId(ia as u32), &pa.methods[ia]),
                                disasm_method(pb, MethodId(ib as u32), &pb.methods[ib]),
                                "content collision with differing disassembly"
                            );
                        }
                    }
                }
            }
        }
        assert!(compared > programs.len(), "expected cross-program matches");
    }

    #[test]
    fn closure_reaches_transitive_callees() {
        let src = r#"
            class T {
                static int d(int x) { return x + 1; }
                static int c(int x) { return d(x); }
                static int b(int x) { return c(x); }
                static int a(int x) { return b(x); }
                static void main() { println(a(1)); }
            }
        "#;
        let p = compiled(src);
        let main = p.find_method("T", "main").unwrap().0 as usize;
        let closure = call_closure(&p, main);
        for name in ["a", "b", "c", "d"] {
            let id = p.find_method("T", name).unwrap().0;
            assert!(
                closure.contains(&id),
                "main's closure must contain {name} (depth {INLINE_CLOSURE_DEPTH})"
            );
        }
    }
}
