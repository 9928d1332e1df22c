//! A tiered language virtual machine for MiniJava bytecode.
//!
//! The VM substrate the CSE/Artemis reproduction validates: a bytecode
//! interpreter with profiling counters, multi-level JIT compilation with
//! real optimization passes, on-stack replacement, speculation with
//! uncommon traps and de-optimization, a mark-sweep GC — and a catalog of
//! injected JIT bugs modeled on the paper's reported bug classes, so that
//! campaigns have ground truth.
//!
//! # Examples
//!
//! ```
//! use cse_vm::{Vm, VmConfig, VmKind};
//!
//! let program = cse_lang::parse_and_check(
//!     "class T { static void main() { println(40 + 2); } }",
//! ).unwrap();
//! let compiled = cse_bytecode::compile(&program).unwrap();
//! let result = Vm::run_program(&compiled, VmConfig::correct(VmKind::HotSpotLike));
//! assert_eq!(result.output, "42\n");
//! assert!(result.outcome.is_completed());
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod coverage;
pub mod events;
pub mod exec;
pub mod faults;
pub mod heap;
mod interp;
pub mod jit;
pub mod plan;
pub mod profile;
pub mod settings;
pub mod supervise;
pub mod value;

use std::rc::Rc;

use cse_bytecode::{ArrKind, BProgram, ClassId, ExcKind, MethodId, PrintKind};

pub use config::{Tier, TierThresholds, TvMode, VerifyMode, VmConfig, VmKind};
pub use coverage::{CoverageMap, CoveragePolicy};
pub use events::{CompileReason, DeoptReason, TraceEvent};
pub use exec::{CrashInfo, CrashKind, CrashPhase, ExecStats, ExecutionResult, Outcome, Resource};
pub use faults::{BugId, Component, FaultInjector, Symptom};
pub use jit::{ProgramArtifacts, SharedArtifactCache};
pub use plan::{ExecMode, ForcedPlan};
pub use settings::Settings;
pub use supervise::{contain_panics, supervised_run, VmPanic};
pub use value::{Str, Value};

use heap::{ArrData, Heap, HeapError, HeapObj};
use jit::hash::FastMap;
use jit::ir::IrFunc;
use jit::IrOutcome;
use profile::MethodProfile;

/// Non-local exits threaded through interpretation and compiled-code
/// execution.
#[derive(Debug, Clone)]
pub(crate) enum Exit {
    /// A MiniJava exception looking for a handler.
    Exception { kind: ExcKind, code: i32 },
    /// A VM crash (injected bug fired).
    Crash(CrashInfo),
    /// Step budget exhausted.
    OutOfFuel,
    /// Heap budget exhausted.
    OutOfMemory,
    /// A deterministic resource budget exhausted (heap bytes, stack
    /// depth); graceful, not catchable by the guest.
    BudgetExceeded(exec::Resource),
}

/// One interpreter frame, owned by the VM so the GC can see its roots.
#[derive(Debug)]
pub(crate) struct Frame {
    pub locals: Vec<Value>,
    pub stack: Vec<Value>,
}

/// Cache key for compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CodeKey {
    method: MethodId,
    tier: Tier,
    osr: Option<u32>,
}

/// The virtual machine.
pub struct Vm<'p> {
    pub(crate) program: &'p BProgram,
    pub(crate) config: VmConfig,
    pub(crate) heap: Heap,
    /// Static fields per class.
    pub(crate) statics: Vec<Vec<Value>>,
    pub(crate) out: String,
    pub(crate) mute_depth: u32,
    pub(crate) profiles: Vec<MethodProfile>,
    /// Lifetime invocation counts (never reset; drives plans and events).
    pub(crate) invocations: Vec<u64>,
    compiled: FastMap<CodeKey, Rc<IrFunc>>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) stats: ExecStats,
    pub(crate) fuel: u64,
    pub(crate) depth: usize,
    pub(crate) frames: Vec<Frame>,
    pub(crate) reg_frames: Vec<Vec<Value>>,
    /// Set when an injected bug corrupted the heap, so the GC crash can be
    /// attributed to the right bug.
    pub(crate) pending_gc_bug: Option<BugId>,
    /// Recycled `Vec<Value>` buffers for frame locals, operand stacks,
    /// and call arguments. A campaign performs hundreds of thousands of
    /// guest calls; reusing the two vectors behind every [`Frame`] keeps
    /// the call hot path allocation-free. Entries are always cleared
    /// before they are returned here (so they hold no GC roots).
    pub(crate) vec_pool: Vec<Vec<Value>>,
    /// Wall-clock watchdog deadline (`config.wall_clock_limit`, armed at
    /// construction time).
    wall_deadline: Option<std::time::Instant>,
    /// Burned-ops mark at which [`Vm::burn`] next leaves its fast path:
    /// the `min` of the watchdog's next clock sample and the chaos
    /// threshold, so the hot path pays one compare for both.
    next_side_check: u64,
    /// Burned-ops threshold for the chaos panic knob (`u64::MAX` = off).
    chaos_panic_at: u64,
    /// Content-addressed artifact cache shared with other VMs — across
    /// runs *and* across near-identical programs (see
    /// [`jit::SharedArtifactCache`]); `None` compiles everything per-run
    /// as before.
    code_cache: Option<Rc<jit::SharedArtifactCache>>,
    /// Per-method facts of `program` (digests, stack depths), each
    /// computed on first use: the attached [`ProgramArtifacts`]' facts,
    /// shared with every run of the program, or this run's own, made when
    /// first asked for.
    facts: Option<Rc<jit::cache::ProgramFacts>>,
    /// Compilation-relevant configuration fingerprint, precomputed for
    /// cache keys.
    env_fp: u64,
    /// IR-verifier defect lines, in compilation order (see
    /// [`jit::verify`]).
    ir_verify: Vec<String>,
    /// Translation-validation divergence lines, one entry per failing
    /// check, in compilation order (see [`jit::tv`]).
    tv: Vec<Rc<str>>,
    /// JIT-behavior coverage of this run (see [`coverage`]); stays
    /// all-zero unless `VmConfig::coverage` is on.
    coverage: CoverageMap,
    /// Pre-decoded instruction form of `program` (see
    /// [`cse_bytecode::decoded`]); decoded lazily on first use, or pulled
    /// from the attached [`ProgramArtifacts`], which decoded it once for
    /// every run of the program.
    decoded: Option<Rc<cse_bytecode::DecodedProgram>>,
}

/// How many burned operations pass between wall-clock samples. Keeps
/// `Instant::now` off the per-instruction hot path.
const WATCHDOG_STRIDE: u64 = 1 << 18;

impl<'p> Vm<'p> {
    /// Creates a VM for a program.
    pub fn new(program: &'p BProgram, config: VmConfig) -> Vm<'p> {
        let statics = program
            .classes
            .iter()
            .map(|c| c.static_fields.iter().map(|f| Value::default_of(&f.ty)).collect())
            .collect();
        let profiles = program
            .methods
            .iter()
            .map(|m| MethodProfile {
                backedges: vec![0; m.loop_headers.len()],
                ..MethodProfile::default()
            })
            .collect();
        let fuel = config.fuel;
        let gc_interval = config.gc_interval;
        let max_objects = config.max_objects;
        let max_heap_bytes = config.max_heap_bytes;
        let wall_deadline = config.wall_clock_limit.map(|limit| std::time::Instant::now() + limit);
        let chaos_panic_at = config.chaos_panic_at_ops.unwrap_or(u64::MAX);
        let env_fp = jit::cache::SharedArtifactCache::env_fingerprint(&config);
        Vm {
            program,
            config,
            heap: Heap::new(gc_interval, max_objects).with_max_bytes(max_heap_bytes),
            statics,
            out: String::new(),
            mute_depth: 0,
            profiles,
            invocations: vec![0; program.methods.len()],
            compiled: FastMap::default(),
            events: Vec::new(),
            stats: ExecStats::default(),
            fuel,
            depth: 0,
            frames: Vec::new(),
            reg_frames: Vec::new(),
            pending_gc_bug: None,
            vec_pool: Vec::new(),
            wall_deadline,
            next_side_check: WATCHDOG_STRIDE.min(chaos_panic_at),
            chaos_panic_at,
            code_cache: None,
            facts: None,
            env_fp,
            ir_verify: Vec::new(),
            tv: Vec::new(),
            coverage: CoverageMap::default(),
            decoded: None,
        }
    }

    /// Attaches the program's binding to a seed-level
    /// [`SharedArtifactCache`] (see [`SharedArtifactCache::attach`]):
    /// compiled code is then shared with every other run — of this
    /// program or any near-identical one — on the same cache, and the
    /// decoded program with every run of this program.
    pub fn with_artifacts(mut self, artifacts: &jit::ProgramArtifacts) -> Vm<'p> {
        debug_assert_eq!(
            artifacts.decoded.methods.len(),
            self.program.methods.len(),
            "artifacts attached to a different program"
        );
        self.decoded = Some(artifacts.decoded.clone());
        self.facts = Some(artifacts.facts.clone());
        self.code_cache = Some(artifacts.cache.clone());
        self
    }

    /// The decoded instruction form, decoding on first use when no
    /// attached [`ProgramArtifacts`] supplied a shared copy.
    pub(crate) fn decoded(&mut self) -> Rc<cse_bytecode::DecodedProgram> {
        if let Some(decoded) = &self.decoded {
            return decoded.clone();
        }
        let decoded = Rc::new(cse_bytecode::DecodedProgram::decode(self.program));
        self.decoded = Some(decoded.clone());
        decoded
    }

    /// Runs `$clinit` (if present) and `main`, producing the final result.
    pub fn run(self) -> ExecutionResult {
        self.run_with_warmth().0
    }

    /// Like [`Vm::run`], but also reports the exact end-of-run lifetime
    /// invocation count of every method (indexed by `MethodId`), so
    /// plan-space pruning (`cse_core::space`) can prove which (method,
    /// invocation) coordinates the program reached. Unlike the event
    /// trace these counts are never capped.
    pub fn run_with_warmth(mut self) -> (ExecutionResult, Vec<u64>) {
        let mut uncaught = false;
        let mut outcome_override: Option<Outcome> = None;
        let entry_sequence: Vec<MethodId> =
            self.program.clinit.into_iter().chain([self.program.entry]).collect();
        for method in entry_sequence {
            match self.call_method(method, Vec::new()) {
                Ok(_) => {}
                Err(Exit::Exception { kind, code }) => {
                    let banner = format!("Exception in thread \"main\" {}", kind.describe(code));
                    let muted = std::mem::replace(&mut self.mute_depth, 0);
                    self.print_line(&banner);
                    self.mute_depth = muted;
                    uncaught = true;
                    break;
                }
                Err(Exit::Crash(info)) => {
                    outcome_override = Some(Outcome::Crash(info));
                    break;
                }
                Err(Exit::OutOfFuel) => {
                    outcome_override = Some(Outcome::Timeout);
                    break;
                }
                Err(Exit::OutOfMemory) => {
                    outcome_override = Some(Outcome::OutOfMemory);
                    break;
                }
                Err(Exit::BudgetExceeded(resource)) => {
                    outcome_override = Some(Outcome::BudgetExceeded(resource));
                    break;
                }
            }
        }
        self.stats.mute_depth_end = self.mute_depth;
        let result = ExecutionResult {
            output: self.out,
            outcome: outcome_override
                .unwrap_or(Outcome::Completed { uncaught_exception: uncaught }),
            events: self.events,
            stats: self.stats,
            ir_verify: self.ir_verify,
            tv: self.tv,
            coverage: self.coverage,
        };
        (result, self.invocations)
    }

    /// Convenience: build a VM, run the program, return the result.
    pub fn run_program(program: &BProgram, config: VmConfig) -> ExecutionResult {
        Vm::new(program, config).run()
    }

    // ----- output ---------------------------------------------------------

    pub(crate) fn print_line(&mut self, text: &str) {
        if self.mute_depth == 0 {
            self.out.push_str(text);
            self.out.push('\n');
        }
    }

    pub(crate) fn print_value(&mut self, kind: PrintKind, value: &Value) {
        let text = match kind {
            PrintKind::Int => value.as_i().to_string(),
            PrintKind::Long => value.as_l().to_string(),
            PrintKind::Bool => if value.as_bool() { "true" } else { "false" }.to_string(),
            PrintKind::Str => match value {
                Value::S(s) => s.to_string(),
                _ => "null".to_string(),
            },
        };
        self.print_line(&text);
    }

    // ----- events / stats ---------------------------------------------------

    pub(crate) fn push_event(&mut self, event: TraceEvent) {
        if self.events.len() < self.config.max_events {
            self.events.push(event);
        }
    }

    #[inline(always)]
    pub(crate) fn burn(&mut self, amount: u64) -> Result<(), Exit> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(Exit::OutOfFuel);
        }
        self.fuel -= amount;
        let burned = self.config.fuel - self.fuel;
        if burned >= self.next_side_check {
            return self.burn_side_check(burned);
        }
        Ok(())
    }

    /// Burns the `extra` ops a fused interpreter shape runs after its
    /// first (which the dispatch loop already burned), but only if all of
    /// them fit: within the fuel and strictly before the next side check.
    /// Returns `false`, burning nothing, when they do not; the caller
    /// then executes just the shape's first instruction, so fuel
    /// exhaustion, the watchdog and chaos panics fire at the same op as
    /// in unfused code. Counts the ops in `stats.interp_ops`.
    #[inline(always)]
    pub(crate) fn burn_fused(&mut self, extra: u64) -> bool {
        let burned = self.config.fuel - self.fuel;
        if self.fuel < extra || burned + extra >= self.next_side_check {
            return false;
        }
        self.fuel -= extra;
        self.stats.interp_ops += extra;
        true
    }

    /// Slow half of [`Vm::burn`]: the chaos knob and the wall-clock
    /// watchdog. `next_side_check` is the `min` of both thresholds, so
    /// the per-instruction fast path pays a single compare and this runs
    /// once per `WATCHDOG_STRIDE` burned ops (or exactly at the chaos
    /// threshold).
    #[cold]
    #[inline(never)]
    fn burn_side_check(&mut self, burned: u64) -> Result<(), Exit> {
        if burned >= self.chaos_panic_at {
            panic!("chaos: injected VM panic after {burned} burned ops");
        }
        self.next_side_check = (burned + WATCHDOG_STRIDE).min(self.chaos_panic_at);
        if let Some(deadline) = self.wall_deadline {
            if std::time::Instant::now() >= deadline {
                self.stats.watchdog_fired = true;
                self.fuel = 0;
                return Err(Exit::OutOfFuel);
            }
        }
        Ok(())
    }

    // ----- heap helpers -------------------------------------------------------

    fn gc_roots(&self) -> Vec<Value> {
        let mut roots: Vec<Value> = Vec::new();
        for class in &self.statics {
            roots.extend(class.iter().cloned());
        }
        for frame in &self.frames {
            roots.extend(frame.locals.iter().cloned());
            roots.extend(frame.stack.iter().cloned());
        }
        for regs in &self.reg_frames {
            roots.extend(regs.iter().cloned());
        }
        roots
    }

    /// Runs a collection, surfacing corruption as a GC crash.
    pub(crate) fn run_gc(&mut self) -> Result<(), Exit> {
        let roots = self.gc_roots();
        let live_before = self.heap.live_objects();
        match self.heap.collect(&roots, self.program) {
            Ok(()) => {
                self.stats.gc_runs += 1;
                let live_after = self.heap.live_objects();
                self.push_event(TraceEvent::GcRun { live_before, live_after });
                Ok(())
            }
            Err(HeapError::Corruption { detail }) => {
                // Only an injected bug corrupts the heap, and it names
                // itself when it does. Corruption with no bug pending is
                // a VM defect: panic (callers contain it as a harness
                // incident) rather than blame a bug that never fired.
                let bug = self.pending_gc_bug.take().unwrap_or_else(|| {
                    panic!("GC found heap corruption with no injected bug pending: {detail}")
                });
                Err(Exit::Crash(CrashInfo {
                    bug,
                    component: Component::GarbageCollection,
                    kind: CrashKind::GcCorruption,
                    phase: CrashPhase::Gc,
                    detail,
                }))
            }
            Err(HeapError::OutOfMemory) => Err(Exit::OutOfMemory),
            Err(HeapError::ByteBudget) => Err(Exit::BudgetExceeded(exec::Resource::HeapBytes)),
        }
    }

    pub(crate) fn alloc(&mut self, obj: HeapObj) -> Result<u32, Exit> {
        // Byte budget: run a last-chance collection before declaring the
        // budget exhausted, mirroring a production VM's GC-before-OOM.
        // (The GC schedule stays deterministic: it depends only on the
        // allocation sequence, never on the host.)
        if self.heap.bytes_would_exceed(obj.byte_size()) {
            self.run_gc()?;
            if self.heap.bytes_would_exceed(obj.byte_size()) {
                return Err(Exit::BudgetExceeded(exec::Resource::HeapBytes));
            }
        }
        let r = match self.heap.alloc(obj) {
            Ok(r) => r,
            Err(HeapError::OutOfMemory) => return Err(Exit::OutOfMemory),
            Err(HeapError::ByteBudget) => {
                return Err(Exit::BudgetExceeded(exec::Resource::HeapBytes))
            }
            Err(HeapError::Corruption { .. }) => unreachable!("alloc does not validate"),
        };
        if self.heap.gc_due() {
            // The freshly allocated object must survive the collection even
            // though no frame refers to it yet.
            self.frames.push(Frame { locals: vec![Value::Ref(r)], stack: Vec::new() });
            let gc = self.run_gc();
            self.frames.pop();
            gc?;
        }
        Ok(r)
    }

    pub(crate) fn alloc_object(&mut self, class: ClassId) -> Result<Value, Exit> {
        let fields = self.program.classes[class.0 as usize]
            .inst_fields
            .iter()
            .map(|f| Value::default_of(&f.ty))
            .collect();
        let r = self.alloc(HeapObj::Obj { class, fields })?;
        Ok(Value::Ref(r))
    }

    pub(crate) fn alloc_array(&mut self, kind: ArrKind, len: i32) -> Result<Value, Exit> {
        if len < 0 {
            return Err(Exit::Exception { kind: ExcKind::NegativeArraySize, code: len });
        }
        let r = self.alloc(HeapObj::Arr(ArrData::new(kind, len as usize)))?;
        Ok(Value::Ref(r))
    }

    /// Allocates a rectangular multi-dimensional array: `dims.len()` nested
    /// levels; the innermost level has element kind `kind`.
    ///
    /// Children allocated before the spine exists are parked in a scratch
    /// frame so an allocation-triggered GC cannot sweep them mid-build.
    pub(crate) fn alloc_multi(&mut self, kind: ArrKind, dims: &[i32]) -> Result<Value, Exit> {
        self.frames.push(Frame { locals: Vec::new(), stack: Vec::new() });
        let scratch = self.frames.len() - 1;
        let result = self.alloc_multi_rooted(kind, dims, scratch);
        self.frames.remove(scratch);
        result
    }

    fn alloc_multi_rooted(
        &mut self,
        kind: ArrKind,
        dims: &[i32],
        scratch: usize,
    ) -> Result<Value, Exit> {
        let (&len, rest) = dims.split_first().expect("multiarray needs dims");
        if rest.is_empty() {
            return self.alloc_array(kind, len);
        }
        if len < 0 {
            return Err(Exit::Exception { kind: ExcKind::NegativeArraySize, code: len });
        }
        let mut elems: Vec<Option<u32>> = Vec::with_capacity(len as usize);
        for _ in 0..len {
            match self.alloc_multi_rooted(kind, rest, scratch)? {
                Value::Ref(r) => {
                    elems.push(Some(r));
                    self.frames[scratch].locals.push(Value::Ref(r));
                }
                _ => unreachable!("alloc_multi returns refs"),
            }
        }
        let r = self.alloc(HeapObj::Arr(ArrData::Ref(elems)))?;
        Ok(Value::Ref(r))
    }

    fn deref(&self, value: &Value) -> Result<u32, Exit> {
        match value {
            Value::Ref(r) => Ok(*r),
            Value::Null => Err(Exit::Exception { kind: ExcKind::NullPointer, code: 0 }),
            other => panic!("expected reference, found {other:?}"),
        }
    }

    pub(crate) fn arr_len(&self, arr: &Value) -> Result<i32, Exit> {
        let r = self.deref(arr)?;
        match self.heap.get(r) {
            Some(HeapObj::Arr(data)) => Ok(data.len() as i32),
            other => panic!("expected array, found {other:?}"),
        }
    }

    pub(crate) fn arr_load(&self, arr: &Value, idx: i32) -> Result<Value, Exit> {
        let r = self.deref(arr)?;
        let data = match self.heap.get(r) {
            Some(HeapObj::Arr(data)) => data,
            other => panic!("expected array, found {other:?}"),
        };
        let len = data.len();
        if idx < 0 || idx as usize >= len {
            return Err(Exit::Exception { kind: ExcKind::IndexOutOfBounds, code: idx });
        }
        let i = idx as usize;
        Ok(match data {
            ArrData::I32(v) => Value::I(v[i]),
            ArrData::I64(v) => Value::L(v[i]),
            ArrData::I8(v) => Value::I(v[i] as i32),
            ArrData::Bool(v) => Value::I(i32::from(v[i])),
            ArrData::Str(v) => v[i].clone().map(Value::S).unwrap_or(Value::Null),
            ArrData::Ref(v) => v[i].map(Value::Ref).unwrap_or(Value::Null),
        })
    }

    pub(crate) fn arr_store(&mut self, arr: &Value, idx: i32, value: Value) -> Result<(), Exit> {
        let r = self.deref(arr)?;
        let data = match self.heap.get_mut(r) {
            Some(HeapObj::Arr(data)) => data,
            other => panic!("expected array, found {other:?}"),
        };
        let len = data.len();
        if idx < 0 || idx as usize >= len {
            return Err(Exit::Exception { kind: ExcKind::IndexOutOfBounds, code: idx });
        }
        let i = idx as usize;
        match data {
            ArrData::I32(v) => v[i] = value.as_i(),
            ArrData::I64(v) => v[i] = value.as_l(),
            ArrData::I8(v) => v[i] = value.as_i() as i8,
            ArrData::Bool(v) => v[i] = value.as_bool(),
            ArrData::Str(v) => {
                v[i] = match value {
                    Value::S(s) => Some(s),
                    _ => None,
                }
            }
            ArrData::Ref(v) => {
                v[i] = match value {
                    Value::Ref(r) => Some(r),
                    _ => None,
                }
            }
        }
        Ok(())
    }

    pub(crate) fn field_get(&self, obj: &Value, field: u32) -> Result<Value, Exit> {
        let r = self.deref(obj)?;
        match self.heap.get(r) {
            Some(HeapObj::Obj { fields, .. }) => Ok(fields[field as usize].clone()),
            other => panic!("expected object, found {other:?}"),
        }
    }

    pub(crate) fn field_put(&mut self, obj: &Value, field: u32, value: Value) -> Result<(), Exit> {
        let r = self.deref(obj)?;
        match self.heap.get_mut(r) {
            Some(HeapObj::Obj { fields, .. }) => {
                fields[field as usize] = value;
                Ok(())
            }
            other => panic!("expected object, found {other:?}"),
        }
    }

    pub(crate) fn concat(&self, a: &Value, b: &Value) -> Value {
        fn text(v: &Value) -> &str {
            v.as_s().map_or("null", |s| s.as_str())
        }
        Value::str(format!("{}{}", text(a), text(b)))
    }

    // ----- dispatch ------------------------------------------------------------

    /// Calls a method: decides the execution mode (forced plan or
    /// profile-driven tiering), compiling as needed, and runs it.
    pub(crate) fn call_method(
        &mut self,
        id: MethodId,
        args: Vec<Value>,
    ) -> Result<Option<Value>, Exit> {
        // Hard harness budget first: the interpreter recurses on the host
        // stack, so this must end the run before `max_call_depth` raised
        // past it can exhaust real stack headroom. Not a guest exception —
        // a `catch` must never observe it.
        if self.depth >= self.config.stack_limit {
            return Err(Exit::BudgetExceeded(exec::Resource::StackDepth));
        }
        if self.depth >= self.config.max_call_depth {
            return Err(Exit::Exception { kind: ExcKind::StackOverflow, code: 0 });
        }
        self.burn(1)?;
        self.stats.calls += 1;
        let inv_idx = self.invocations[id.0 as usize];
        self.invocations[id.0 as usize] += 1;

        // Forced plan (Definition 3.3's `LVM(P, φ)`).
        if let Some(plan) = &self.config.plan {
            if let Some(mode) = plan.mode_for(id, inv_idx) {
                return match mode {
                    ExecMode::Interpret => {
                        self.record_entry(id, Tier::INTERP, inv_idx);
                        self.enter_interpreter(id, args)
                    }
                    ExecMode::Compiled(tier) => {
                        let tier = Tier(tier.0.min(self.config.tiers.len() as u8).max(1));
                        let func =
                            self.ensure_compiled(id, tier, None, false, CompileReason::Forced)?;
                        self.record_entry(id, tier, inv_idx);
                        self.execute_compiled(id, func, args)
                    }
                };
            }
        }

        // Profile-driven tiering.
        if self.config.jit_enabled {
            let top = self.config.tiers.len() as u8;
            let (current_tier, banned, invocations) = {
                let prof = &mut self.profiles[id.0 as usize];
                prof.invocations += 1;
                (prof.tier, prof.compile_banned, prof.invocations)
            };
            let mut tier = current_tier;
            if !banned {
                for t in (current_tier.0 + 1)..=top {
                    if invocations >= self.config.tiers[(t - 1) as usize].invocations {
                        tier = Tier(t);
                    }
                }
                if tier != current_tier {
                    self.ensure_compiled(id, tier, None, true, CompileReason::Invocations)?;
                    self.profiles[id.0 as usize].tier = tier;
                }
            }
            if tier.0 > 0 {
                let func = self.compiled_code(id, tier, None).expect("tiered code compiled above");
                self.record_entry(id, tier, inv_idx);
                return self.execute_compiled(id, func, args);
            }
        }
        self.record_entry(id, Tier::INTERP, inv_idx);
        self.enter_interpreter(id, args)
    }

    /// Queries the fault injector at an *execution-time* trigger site,
    /// recording a firing in `stats.fired_bugs` (compile-time sites go
    /// through [`jit::CompileCtx::active`] instead). Every runtime
    /// trigger site must use this, not `config.faults.active` directly,
    /// so the fired mask stays complete.
    pub(crate) fn fault_fired(&mut self, bug: BugId) -> bool {
        let hit = self.config.faults.active(bug);
        if hit {
            self.stats.fired_bugs |= 1u64 << (bug as u64);
        }
        hit
    }

    fn record_entry(&mut self, id: MethodId, tier: Tier, invocation: u64) {
        if self.config.record_method_entries {
            self.push_event(TraceEvent::MethodEntry { method: id, tier, invocation });
        }
    }

    fn enter_interpreter(&mut self, id: MethodId, args: Vec<Value>) -> Result<Option<Value>, Exit> {
        let method = self.program.method(id);
        let mut locals = args;
        locals.resize(method.num_locals as usize, Value::Null);
        self.interpret(id, locals, 0)
    }

    pub(crate) fn compiled_code(
        &self,
        method: MethodId,
        tier: Tier,
        osr: Option<u32>,
    ) -> Option<Rc<IrFunc>> {
        self.compiled.get(&CodeKey { method, tier, osr }).cloned()
    }

    /// The program's per-method facts: the attached artifacts' (shared
    /// with every run of the program), or this run's own, made on first
    /// use. Having facts never enables the shared code cache — cache
    /// probes require `code_cache`.
    pub(crate) fn facts(&mut self) -> Rc<jit::cache::ProgramFacts> {
        if let Some(facts) = &self.facts {
            return facts.clone();
        }
        let facts = Rc::new(jit::cache::ProgramFacts::new(self.program));
        self.facts = Some(facts.clone());
        facts
    }

    /// The content-digest key of `method`, for coverage features.
    fn method_key(&mut self, method: MethodId) -> u64 {
        self.facts().digests.method_key(self.program, method.0 as usize)
    }

    /// Emits the coverage features of one (method, tier) compilation:
    /// the compile (or OSR entry) itself, every pipeline pass that ran
    /// over it, and every inline edge the compiled body embeds. Called
    /// for cross-run cache hits too — a hit replays the original
    /// compilation, passes and all.
    fn record_compile_coverage(&mut self, method: MethodId, tier: Tier, osr: bool, func: &IrFunc) {
        let key = self.method_key(method);
        self.coverage.insert(coverage::feat_compile(key, tier.0, osr));
        let optimizing = tier.0 >= 2 || self.config.kind == VmKind::ArtLike;
        for (name, _) in jit::passes::pipeline(self.config.kind, optimizing) {
            self.coverage.insert(coverage::feat_pass(key, tier.0, name));
        }
        for frame in func.frames.iter().skip(1) {
            let callee = self.method_key(frame.method);
            self.coverage.insert(coverage::feat_inline(key, callee, tier.0));
        }
    }

    /// Compiles (or fetches cached) code for a method at a tier.
    pub(crate) fn ensure_compiled(
        &mut self,
        method: MethodId,
        tier: Tier,
        osr: Option<u32>,
        speculate: bool,
        reason: CompileReason,
    ) -> Result<Rc<IrFunc>, Exit> {
        let key = CodeKey { method, tier, osr };
        if let Some(func) = self.compiled.get(&key) {
            return Ok(func.clone());
        }
        let has_osr_code = self.compiled.keys().any(|k| k.method == method && k.osr.is_some());
        // Cross-run cache probe: every compile-relevant input is part of
        // the key (see the soundness notes on `jit::cache`), so a hit is
        // indistinguishable from compiling — it still records the event
        // and counts as a compilation, it only skips the work.
        let facts = self.facts();
        let shared = self.code_cache.clone();
        let shared_key = shared.as_ref().map(|_| jit::cache::ArtifactKey {
            unit: facts.digests.unit(self.program, method.0 as usize),
            tier,
            osr,
            speculate,
            has_osr_code,
            profile_fp: self.profiles[method.0 as usize].compile_fingerprint(),
            env_fp: self.env_fp,
        });
        if let (Some(cache), Some(k)) = (&shared, &shared_key) {
            if let Some(entry) = cache.lookup(k) {
                // Replay every observable side effect of the original
                // compilation, so a hit is indistinguishable from
                // compiling no matter which program warmed the cache.
                self.stats.code_cache_hits += u32::from(entry.result.is_ok());
                return self.install(key, reason, &entry);
            }
        }
        let ctx = jit::CompileCtx {
            program: self.program,
            profiles: &self.profiles,
            faults: &self.config.faults,
            kind: self.config.kind,
            tier,
            speculate,
            inline_limit: self.config.inline_limit,
            has_osr_code,
            verify: self.config.verify_ir,
            tv: self.config.tv,
            fired: std::cell::Cell::new(0),
        };
        // Verifier and translation-validator defects are harvested whether
        // or not the compile succeeds: IR corrupted before an injected
        // compile-time crash is still an observation. Likewise the
        // compile's fired-bug mask.
        let mut defects = Vec::new();
        let mut tv_reports = Vec::new();
        let compiled =
            jit::compile_with(&ctx, &facts.depths, method, osr, &mut defects, &mut tv_reports);
        let result = match compiled {
            Ok(func) => {
                if Settings::get().dump_ir {
                    eprintln!(
                        "=== compiled m{} {:?} osr={osr:?} ===\n{}",
                        method.0,
                        tier,
                        func.pretty()
                    );
                }
                Ok(Rc::new(func))
            }
            Err(jit::CompileFail::Crash(info)) => Err(info),
            Err(jit::CompileFail::OsrUnsupported) => {
                // Callers must check OSR feasibility first; reaching this is
                // a VM bug, not a program behavior.
                panic!("OSR compilation requested at an unsupported header")
            }
        };
        // A run keeps findings as lines: each verifier defect, and each
        // failing TV check as its divergence headers. The reports holding
        // the IR are dropped unformatted.
        let entry = jit::cache::CachedCompile {
            defects: Rc::new(defects.iter().map(ToString::to_string).collect()),
            tv: tv_reports.iter().map(|r| Rc::from(r.headers())).collect(),
            tv_defects: tv_reports.iter().map(|r| r.divergences.len() as u32).sum(),
            fired: ctx.fired.get(),
            result,
        };
        let installed = self.install(key, reason, &entry);
        if let (Some(cache), Some(k)) = (&shared, shared_key) {
            cache.insert(k, entry);
        }
        installed
    }

    /// Installs one compilation, fresh or a cache hit: replays its
    /// findings and fired-bug mask and, when it succeeded, counts it, maps
    /// its code, and records its `Compiled` event and coverage features.
    fn install(
        &mut self,
        key: CodeKey,
        reason: CompileReason,
        entry: &jit::cache::CachedCompile,
    ) -> Result<Rc<IrFunc>, Exit> {
        self.stats.ir_verify_defects += entry.defects.len() as u32;
        self.ir_verify.extend(entry.defects.iter().cloned());
        self.stats.tv_defects += entry.tv_defects;
        self.tv.extend(entry.tv.iter().cloned());
        self.stats.fired_bugs |= entry.fired;
        let func = entry.result.clone().map_err(Exit::Crash)?;
        self.compiled.insert(key, func.clone());
        match reason {
            CompileReason::Osr { .. } => self.stats.osr_compilations += 1,
            _ => self.stats.compilations += 1,
        }
        let CodeKey { method, tier, osr } = key;
        self.push_event(TraceEvent::Compiled {
            method,
            tier,
            reason,
            invocation: self.invocations[method.0 as usize],
        });
        if self.config.coverage {
            self.record_compile_coverage(method, tier, osr.is_some(), &func);
        }
        Ok(func)
    }

    /// Runs compiled code; handles de-optimization by falling back to the
    /// interpreter at the trap's bytecode pc.
    pub(crate) fn execute_compiled(
        &mut self,
        id: MethodId,
        func: Rc<IrFunc>,
        args: Vec<Value>,
    ) -> Result<Option<Value>, Exit> {
        let method = self.program.method(id);
        let mut entry = args;
        entry.resize(method.num_locals as usize, Value::Null);
        match jit::run_ir(self, &func, entry)? {
            IrOutcome::Return(value) => Ok(value),
            IrOutcome::Deopt { bc_pc, locals, reason } => {
                self.deoptimize(id, func.tier, bc_pc, reason);
                self.interpret(id, locals, bc_pc)
            }
            IrOutcome::TierUp { bc_pc, locals } => {
                // Method-entry bodies never request tier-up (only OSR
                // bodies do), but resuming interpretation is always sound.
                self.interpret(id, locals, bc_pc)
            }
        }
    }

    /// Records a de-optimization: cools the method down (Definition 3.2)
    /// and invalidates its compiled code so it re-warms from the
    /// interpreter.
    pub(crate) fn deoptimize(&mut self, id: MethodId, tier: Tier, bc_pc: u32, reason: DeoptReason) {
        self.stats.deopts += 1;
        self.push_event(TraceEvent::Deopt {
            method: id,
            tier,
            bc_pc,
            reason,
            invocation: self.invocations[id.0 as usize],
        });
        if self.config.coverage {
            let key = self.method_key(id);
            self.coverage.insert(coverage::feat_deopt(key, tier.0, bc_pc, &format!("{reason:?}")));
        }
        let prof = &mut self.profiles[id.0 as usize];
        prof.no_speculate.insert(bc_pc);
        prof.cool_down(self.config.max_deopts_per_method);
        self.compiled.retain(|k, _| k.method != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str, config: VmConfig) -> ExecutionResult {
        let program = cse_lang::parse_and_check(src).unwrap();
        let compiled = cse_bytecode::compile(&program).unwrap();
        cse_bytecode::verify::verify_program(&compiled).unwrap();
        Vm::run_program(&compiled, config)
    }

    fn interp_out(src: &str) -> String {
        let r = run_src(src, VmConfig::interpreter_only(VmKind::HotSpotLike));
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
        r.output
    }

    #[test]
    fn arithmetic_and_printing() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    println(2 + 3 * 4);
                    println(7 / 2);
                    println(-7 / 2);
                    println(7 % -3);
                    println(2147483647 + 1);
                    println(-2147483648 - 1);
                    println(9223372036854775807L + 1L);
                    println(1 << 33);
                    println(-8 >> 1);
                    println(-8 >>> 28);
                    println(true);
                    println(!true);
                    println("s=" + 1 + true);
                }
            }
            "#,
        );
        assert_eq!(
            out,
            "14\n3\n-3\n1\n-2147483648\n2147483647\n-9223372036854775808\n2\n-4\n15\ntrue\nfalse\ns=1true\n"
        );
    }

    #[test]
    fn byte_semantics_wrap() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    byte b = 127;
                    b += 1;
                    println(b);
                    b = (byte) 300;
                    println(b);
                    byte c = -128;
                    c--;
                    println(c);
                }
            }
            "#,
        );
        assert_eq!(out, "-128\n44\n127\n");
    }

    #[test]
    fn exceptions_and_handlers() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    try { println(1 / 0); } catch { println("div"); }
                    int[] a = new int[2];
                    try { a[5] = 1; } catch { println("oob"); } finally { println("fin"); }
                    try { throw 42; } catch { println("user"); }
                    T t = null;
                    try { t.f(); } catch { println("npe"); }
                }
                void f() { }
            }
            "#,
        );
        assert_eq!(out, "div\noob\nfin\nuser\nnpe\n");
    }

    #[test]
    fn uncaught_exception_banner() {
        let r = run_src(
            "class T { static void main() { int[] a = new int[1]; println(a[3]); } }",
            VmConfig::interpreter_only(VmKind::HotSpotLike),
        );
        assert_eq!(r.outcome, Outcome::Completed { uncaught_exception: true });
        assert!(r.output.contains("ArrayIndexOutOfBoundsException: 3"));
    }

    #[test]
    fn static_and_instance_state() {
        let out = interp_out(
            r#"
            class P { int v = 10; static int s = 5; int bump() { v++; return v; } }
            class T {
                static void main() {
                    P a = new P();
                    P b = new P();
                    a.bump(); a.bump();
                    println(a.v);
                    println(b.v);
                    P.s += 3;
                    println(P.s);
                    println(a == a);
                    println(a == b);
                    println(b == null);
                }
            }
            "#,
        );
        assert_eq!(out, "12\n10\n8\ntrue\nfalse\nfalse\n");
    }

    #[test]
    fn loops_and_switches() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    int acc = 0;
                    for (int i = 0; i < 10; i++) {
                        switch (i % 4) {
                            case 0: acc += 1;
                            case 1: acc += 10; break;
                            case 2: acc += 100; break;
                            default: acc += 1000;
                        }
                    }
                    println(acc);
                    int j = 0;
                    do { j++; } while (j < 5);
                    println(j);
                    int[] k = new int[] { 3, 1, 4 };
                    int s = 0;
                    for (int m : k) { s += m; }
                    println(s);
                }
            }
            "#,
        );
        // i%4 cycles 0,1,2,3: case 0 falls through into case 1.
        assert_eq!(out, "2263\n5\n8\n");
    }

    #[test]
    fn recursion_and_stack_overflow() {
        let out = interp_out(
            r#"
            class T {
                static int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
                static void main() { println(fib(15)); }
            }
            "#,
        );
        assert_eq!(out, "610\n");
        let r = run_src(
            r#"
            class T {
                static int inf(int n) { return inf(n + 1); }
                static void main() {
                    try { println(inf(0)); } catch { println("so"); }
                }
            }
            "#,
            VmConfig::interpreter_only(VmKind::HotSpotLike),
        );
        assert_eq!(r.output, "so\n");
    }

    #[test]
    fn mute_unmute_silences_output() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    println(1);
                    __mute();
                    println(2);
                    __unmute();
                    println(3);
                }
            }
            "#,
        );
        assert_eq!(out, "1\n3\n");
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let mut config = VmConfig::interpreter_only(VmKind::HotSpotLike);
        config.fuel = 10_000;
        let r = run_src("class T { static void main() { while (true) { } } }", config);
        assert_eq!(r.outcome, Outcome::Timeout);
    }

    #[test]
    fn gc_runs_and_preserves_objects() {
        let mut config = VmConfig::interpreter_only(VmKind::HotSpotLike);
        config.gc_interval = 10;
        let r = run_src(
            r#"
            class P { int v = 7; }
            class T {
                static void main() {
                    P keep = new P();
                    for (int i = 0; i < 100; i++) {
                        P temp = new P();
                        temp.v = i;
                    }
                    println(keep.v);
                }
            }
            "#,
            config,
        );
        assert_eq!(r.output, "7\n");
        assert!(r.stats.gc_runs > 0);
    }

    #[test]
    fn strings_and_null_strings() {
        let out = interp_out(
            r#"
            class T {
                static String id(String s) { return s; }
                static void main() {
                    String s = null;
                    println("x" + s);
                    println(id(null) == null);
                    String[] a = new String[2];
                    a[0] = "hi";
                    println(a[0] + a[1]);
                }
            }
            "#,
        );
        assert_eq!(out, "xnull\ntrue\nhinull\n");
    }

    #[test]
    fn multiarray_children_survive_mid_allocation_gc() {
        // Regression: children of a multi-dimensional allocation are not
        // yet referenced by any frame while the spine is being built; a
        // collection triggered between child allocations must not sweep
        // them (this once produced self-referential arrays).
        let mut config = VmConfig::interpreter_only(VmKind::HotSpotLike);
        config.gc_interval = 1;
        let r = run_src(
            r#"
            class T {
                static void main() {
                    int total = 0;
                    for (int i = 0; i < 20; i++) {
                        int[][] m = new int[3][4];
                        m[0][0] = i;
                        m[2][3] = 7;
                        total += m[0][0] + m[2][3];
                    }
                    println(total);
                }
            }
            "#,
            config,
        );
        assert_eq!(r.output, "330\n");
    }

    #[test]
    fn multidim_arrays_work() {
        let out = interp_out(
            r#"
            class T {
                static void main() {
                    int[][] m = new int[3][4];
                    m[2][3] = 9;
                    println(m[2][3] + m[0][0] + m.length + m[1].length);
                    long[][] n = new long[2][];
                    println(n[0] == null);
                    n[0] = new long[1];
                    n[0][0] = 5L;
                    println(n[0][0]);
                }
            }
            "#,
        );
        assert_eq!(out, "16\ntrue\n5\n");
    }

    /// A VM whose heap holds one reference array, reachable from a
    /// frame, that the fault-injection hook has corrupted.
    fn corrupted_heap_vm(program: &BProgram) -> Vm<'_> {
        let mut vm = Vm::new(program, VmConfig::interpreter_only(VmKind::OpenJ9Like));
        let arr = vm.heap.alloc(HeapObj::Arr(ArrData::Ref(vec![None]))).unwrap();
        vm.frames.push(Frame { locals: vec![Value::Ref(arr)], stack: Vec::new() });
        vm.heap.corrupt_for_fault_injection();
        vm
    }

    fn empty_program() -> BProgram {
        let program = cse_lang::parse_and_check("class T { static void main() { } }").unwrap();
        cse_bytecode::compile(&program).unwrap()
    }

    #[test]
    fn gc_crash_names_the_bug_that_corrupted_the_heap() {
        let program = empty_program();
        let mut vm = corrupted_heap_vm(&program);
        vm.pending_gc_bug = Some(BugId::J9GcCorruptUnrollAlloc);
        match vm.run_gc() {
            Err(Exit::Crash(info)) => assert_eq!(info.bug, BugId::J9GcCorruptUnrollAlloc),
            Err(_) => panic!("expected a GC crash"),
            Ok(()) => panic!("expected a GC crash, the collection succeeded"),
        }
    }

    /// Corruption with no injected bug pending is a VM defect: the
    /// collector panics instead of blaming a bug that never fired.
    #[test]
    #[should_panic(expected = "no injected bug pending")]
    fn gc_corruption_without_a_pending_bug_panics() {
        let program = empty_program();
        let _ = corrupted_heap_vm(&program).run_gc();
    }
}
