//! Stack bytecode for the MiniJava virtual machine.
//!
//! This crate plays `javac`'s role: it lowers a checked
//! [`cse_lang::Program`] into a compact stack-machine bytecode
//! ([`BProgram`]) that the VM interprets, profiles, and JIT-compiles.
//! Field initializers become synthetic `$clinit`/`$init` methods that are
//! profiled and JIT-compiled like ordinary code, and `try`/`finally` is
//! lowered by duplicating the finally block on every exit edge (with
//! front-end restrictions that forbid jumps escaping a `finally` region).
//!
//! # Examples
//!
//! ```
//! let program = cse_lang::parse_and_check(
//!     "class T { static void main() { println(2 + 3); } }",
//! ).unwrap();
//! let compiled = cse_bytecode::compile(&program).unwrap();
//! assert!(compiled.methods.len() >= 1);
//! cse_bytecode::verify::verify_program(&compiled).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod arith;
pub mod compile;
pub mod decoded;
pub mod digest;
pub mod disasm;
pub mod insn;
pub mod program;
pub mod verify;

pub use arith::BinKind;
pub use compile::compile;
pub use decoded::{DInsn, DecodedMethod, DecodedProgram};
pub use digest::{Fnv, LazyDigests, MethodDigest, ProgramDigests};
pub use insn::{ArrKind, CmpOp, Insn, PrintKind};
pub use program::{BClass, BMethod, BProgram, ClassId, ExcKind, FieldId, Handler, MethodId, StrId};
