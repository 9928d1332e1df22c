//! The verifier must reject malformed bytecode the compiler would never
//! emit — the safety net under the JIT's IR builder.

use cse_bytecode::verify::verify_method;
use cse_bytecode::{BMethod, BProgram, ClassId, Handler, Insn, PrintKind};
use cse_lang::Ty;

fn base_program() -> BProgram {
    let p = cse_lang::parse_and_check("class T { static void main() { } }").unwrap();
    cse_bytecode::compile(&p).unwrap()
}

fn method(code: Vec<Insn>, num_locals: u16, ret: Ty) -> BMethod {
    let mut m = BMethod {
        name: "bad".into(),
        class: ClassId(0),
        is_static: true,
        params: vec![],
        ret,
        num_locals,
        local_types: vec![None; num_locals as usize],
        code,
        handlers: vec![],
        loop_headers: vec![],
    };
    m.compute_loop_headers();
    m
}

#[test]
fn rejects_stack_underflow() {
    let program = base_program();
    let m = method(vec![Insn::Pop, Insn::Return], 0, Ty::Void);
    let err = verify_method(&program, &m).unwrap_err();
    assert!(err.message.contains("underflow"), "{err}");
}

#[test]
fn rejects_type_confusion() {
    let program = base_program();
    let m = method(vec![Insn::IConst(1), Insn::LConst(2), Insn::IAdd, Insn::Return], 0, Ty::Void);
    let err = verify_method(&program, &m).unwrap_err();
    assert!(err.message.contains("expected"), "{err}");
}

#[test]
fn rejects_out_of_range_slot_and_target() {
    let program = base_program();
    let m = method(vec![Insn::Load(3), Insn::Pop, Insn::Return], 1, Ty::Void);
    assert!(verify_method(&program, &m).is_err());
    let m = method(vec![Insn::Jump(99)], 0, Ty::Void);
    assert!(verify_method(&program, &m).is_err());
}

#[test]
fn rejects_fallthrough_and_bad_merges() {
    let program = base_program();
    // Code not ending in a terminator.
    let m = method(vec![Insn::IConst(1), Insn::Pop], 0, Ty::Void);
    assert!(verify_method(&program, &m).is_err());
    // Inconsistent stack heights at a join: path A pushes, path B doesn't.
    let m = method(
        vec![
            Insn::IConst(1),     // 0: cond
            Insn::JumpIfTrue(3), // 1
            Insn::IConst(7),     // 2: push on fallthrough only
            Insn::Return,        // 3: join with differing heights
        ],
        0,
        Ty::Void,
    );
    assert!(verify_method(&program, &m).is_err());
}

#[test]
fn rejects_wrong_return_arity() {
    let program = base_program();
    let m = method(vec![Insn::Return], 0, Ty::Int);
    assert!(verify_method(&program, &m).is_err());
    let m = method(vec![Insn::IConst(1), Insn::IConst(2), Insn::ReturnVal], 0, Ty::Int);
    assert!(verify_method(&program, &m).is_err(), "extra stack values at return");
}

/// Two paths into pc 6, the first (explored first by the LIFO worklist)
/// pushing `null` and the second `second`; pcs 6-7 pass the value on to
/// a string print at pc 8.
fn null_join(second: Insn) -> Vec<Insn> {
    vec![
        Insn::IConst(1),               // 0: cond
        Insn::JumpIfTrue(4),           // 1
        Insn::NullConst,               // 2: explored first
        Insn::Jump(6),                 // 3
        second,                        // 4: explored second
        Insn::Jump(6),                 // 5
        Insn::Dup,                     // 6: the join
        Insn::Pop,                     // 7
        Insn::Println(PrintKind::Str), // 8: the join's successor's successor
        Insn::Return,                  // 9
    ]
}

#[test]
fn widened_joins_are_repropagated_to_successors() {
    let program = base_program();
    // `null` joined with a string stays printable.
    let m = method(null_join(Insn::SConst(cse_bytecode::StrId(0))), 0, Ty::Void);
    let mut with_string = program.clone();
    with_string.strings.push("s".into());
    verify_method(&with_string, &m).unwrap();
    // Joined with an object it widens to a reference, and the print two
    // instructions later, verified with `null` before the second path
    // arrived, must be checked again with the widened state.
    let m = method(null_join(Insn::NewObject(ClassId(0))), 0, Ty::Void);
    let err = verify_method(&program, &m).unwrap_err();
    assert_eq!((err.pc, err.message.as_str()), (8, "expected S, found R"), "{err}");
}

#[test]
fn rejects_int_long_join() {
    let program = base_program();
    let m = method(
        vec![
            Insn::IConst(1),     // 0: cond
            Insn::JumpIfTrue(4), // 1
            Insn::IConst(7),     // 2: an int on one path
            Insn::Jump(5),       // 3
            Insn::LConst(7),     // 4: a long on the other
            Insn::Pop,           // 5: the join
            Insn::Return,        // 6
        ],
        0,
        Ty::Void,
    );
    let err = verify_method(&program, &m).unwrap_err();
    assert_eq!((err.pc, err.message.as_str()), (4, "stack type mismatch at 5: I vs L"), "{err}");
}

#[test]
fn rejects_handler_target_reached_with_a_stack() {
    let program = base_program();
    let mut m = method(
        vec![
            Insn::IConst(1), // 0
            Insn::Jump(3),   // 1: reaches the handler with one value
            Insn::Return,    // 2
            Insn::Return,    // 3: the handler, entered with an empty stack
        ],
        0,
        Ty::Void,
    );
    m.handlers.push(Handler { start: 0, end: 2, target: 3, save_slot: None });
    let err = verify_method(&program, &m).unwrap_err();
    assert_eq!((err.pc, err.message.as_str()), (1, "stack height mismatch at 3: 0 vs 1"), "{err}");
}
