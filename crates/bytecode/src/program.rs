//! The compiled program representation consumed by the VM.

use cse_lang::Ty;

use crate::insn::Insn;

/// Index of a class in [`BProgram::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Index of a method in [`BProgram::methods`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index of a string in [`BProgram::strings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

/// Index of a field within its class (static and instance fields are
/// numbered separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId(pub u32);

/// Exception kinds. MiniJava has a single flat exception "hierarchy": the
/// built-in runtime exceptions plus user exceptions carrying an `int` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExcKind {
    Arithmetic,
    IndexOutOfBounds,
    NegativeArraySize,
    NullPointer,
    StackOverflow,
    User,
}

impl ExcKind {
    /// The message printed for an uncaught exception of this kind.
    pub fn describe(self, code: i32) -> String {
        match self {
            ExcKind::Arithmetic => "ArithmeticException: / by zero".to_string(),
            ExcKind::IndexOutOfBounds => format!("ArrayIndexOutOfBoundsException: {code}"),
            ExcKind::NegativeArraySize => format!("NegativeArraySizeException: {code}"),
            ExcKind::NullPointer => "NullPointerException".to_string(),
            ExcKind::StackOverflow => "StackOverflowError".to_string(),
            ExcKind::User => format!("UserException: {code}"),
        }
    }

    /// Packs the kind and code into an `i64` so an in-flight exception can
    /// be parked in a local slot by `finally` lowering.
    pub fn pack(self, code: i32) -> i64 {
        let tag = match self {
            ExcKind::Arithmetic => 0i64,
            ExcKind::IndexOutOfBounds => 1,
            ExcKind::NegativeArraySize => 2,
            ExcKind::NullPointer => 3,
            ExcKind::StackOverflow => 4,
            ExcKind::User => 5,
        };
        (tag << 32) | (code as u32 as i64)
    }

    /// Inverse of [`ExcKind::pack`].
    pub fn unpack(packed: i64) -> (ExcKind, i32) {
        let kind = match packed >> 32 {
            0 => ExcKind::Arithmetic,
            1 => ExcKind::IndexOutOfBounds,
            2 => ExcKind::NegativeArraySize,
            3 => ExcKind::NullPointer,
            4 => ExcKind::StackOverflow,
            _ => ExcKind::User,
        };
        (kind, packed as u32 as i32)
    }
}

/// An exception-table entry: if an exception is raised at
/// `start <= pc < end`, control transfers to `target` with an empty operand
/// stack. Entries are searched in order; the compiler emits inner regions
/// before outer ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    pub start: u32,
    pub end: u32,
    pub target: u32,
    /// When set, the dispatched exception is packed (see [`ExcKind::pack`])
    /// into this local before control transfers — used by `finally` regions
    /// that must re-raise via [`Insn::Rethrow`].
    pub save_slot: Option<u16>,
}

/// A field of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BField {
    pub name: String,
    pub ty: Ty,
}

/// A compiled class.
#[derive(Debug, Clone, PartialEq)]
pub struct BClass {
    pub name: String,
    pub static_fields: Vec<BField>,
    pub inst_fields: Vec<BField>,
    /// Synthetic `$init` instance method running field initializers, if any.
    pub init: Option<MethodId>,
    /// All method ids declared by this class (including synthetic ones).
    pub methods: Vec<MethodId>,
}

/// A compiled method.
#[derive(Debug, Clone, PartialEq)]
pub struct BMethod {
    pub name: String,
    pub class: ClassId,
    pub is_static: bool,
    /// Parameter types, excluding the implicit `this`.
    pub params: Vec<Ty>,
    pub ret: Ty,
    /// Total local slots (params — plus `this` for instance methods — first).
    pub num_locals: u16,
    /// Static type of each local slot where known (`None` for the internal
    /// exception-save slots introduced by `finally` lowering).
    pub local_types: Vec<Option<Ty>>,
    pub code: Vec<Insn>,
    pub handlers: Vec<Handler>,
    /// Unique back-edge target pcs (loop headers), in ascending order.
    /// The position in this vector is the loop's back-edge counter index —
    /// the `c_1 .. c_M` of the paper's Definition 3.2.
    pub loop_headers: Vec<u32>,
}

impl BMethod {
    /// The back-edge counter index for a branch from `from` to `to`, or
    /// `None` when the branch is not a back-edge.
    pub fn back_edge_index(&self, from: u32, to: u32) -> Option<usize> {
        if to <= from {
            self.loop_headers.binary_search(&to).ok()
        } else {
            None
        }
    }

    /// Number of argument slots including the implicit receiver.
    pub fn arg_slots(&self) -> usize {
        self.params.len() + usize::from(!self.is_static)
    }

    /// Computes and stores [`BMethod::loop_headers`] from the code.
    pub fn compute_loop_headers(&mut self) {
        let mut headers: Vec<u32> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        for (pc, insn) in self.code.iter().enumerate() {
            targets.clear();
            insn.collect_targets(&mut targets);
            headers.extend(targets.iter().filter(|&&target| target <= pc as u32));
        }
        headers.sort_unstable();
        headers.dedup();
        self.loop_headers = headers;
    }
}

/// A compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct BProgram {
    pub classes: Vec<BClass>,
    pub methods: Vec<BMethod>,
    /// String literal pool.
    pub strings: Vec<String>,
    /// `static void main()`.
    pub entry: MethodId,
    /// Synthetic static-initializer method run before `main`, if any
    /// class declares static field initializers.
    pub clinit: Option<MethodId>,
}

impl BProgram {
    /// Looks up a method.
    pub fn method(&self, id: MethodId) -> &BMethod {
        &self.methods[id.0 as usize]
    }

    /// Looks up a class.
    pub fn class(&self, id: ClassId) -> &BClass {
        &self.classes[id.0 as usize]
    }

    /// Finds a method id by class and method name.
    pub fn find_method(&self, class: &str, method: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.name == method && self.classes[m.class.0 as usize].name == class)
            .map(|i| MethodId(i as u32))
    }

    /// A human-readable method name `Class.method`.
    pub fn qualified_name(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!("{}.{}", self.class(m.class).name, m.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exc_pack_round_trip() {
        for kind in [
            ExcKind::Arithmetic,
            ExcKind::IndexOutOfBounds,
            ExcKind::NegativeArraySize,
            ExcKind::NullPointer,
            ExcKind::StackOverflow,
            ExcKind::User,
        ] {
            for code in [0, 1, -1, i32::MAX, i32::MIN] {
                assert_eq!(ExcKind::unpack(kind.pack(code)), (kind, code));
            }
        }
    }

    #[test]
    fn loop_headers_from_back_edges() {
        let mut method = BMethod {
            name: "m".into(),
            class: ClassId(0),
            is_static: true,
            params: vec![],
            ret: Ty::Void,
            num_locals: 0,
            local_types: vec![],
            code: vec![
                Insn::IConst(0),     // 0
                Insn::Jump(3),       // 1 (forward)
                Insn::Jump(0),       // 2 (back to 0)
                Insn::JumpIfTrue(2), // 3 (back to 2)
                Insn::Return,        // 4
            ],
            handlers: vec![],
            loop_headers: vec![],
        };
        method.compute_loop_headers();
        assert_eq!(method.loop_headers, vec![0, 2]);
        assert_eq!(method.back_edge_index(2, 0), Some(0));
        assert_eq!(method.back_edge_index(3, 2), Some(1));
        assert_eq!(method.back_edge_index(1, 3), None);
    }
}
