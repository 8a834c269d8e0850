//! The bytecode interpreter.
//!
//! Runs only *verified* code: the linker refuses to instantiate a module
//! the verifier rejected, so the interpreter performs no per-instruction
//! type checks (a payload-extraction mismatch is an internal panic, not a
//! recoverable state — exactly the trust a Caml runtime places in its
//! compiler). What it does enforce dynamically is the short list the paper
//! also enforced dynamically, plus containment:
//!
//! * string bounds (Caml checked array bounds at run time),
//! * division by zero,
//! * a **fuel meter** and a call-depth limit — our analogue of the active
//!   bridge protecting itself "from some algorithmic failures in
//!   loadable modules": a switchlet that loops forever is cut off, the
//!   error is reported, and the node keeps running.
//!
//! Since PR 4 the interpreter dispatches over the *pre-decoded* form built
//! at link time (see [`crate::decode`]): branch offsets, call targets and
//! host slots are resolved once per load, hot pairs run as fused
//! superinstructions, and the operand stack and locals live in a reusable
//! [`VmScratch`] arena so a steady-state invocation performs no
//! allocation. Fuel metering and [`ExecStats`] are bit-identical to
//! instruction-at-a-time execution of the source `Op` stream (each fused
//! instruction charges one unit per source op, and exhaustion mid-sequence
//! reports exactly the ops the reference interpreter would have retired) —
//! an equivalence the `refinterp` proptests pin down.

use std::rc::Rc;

use bytes::Bytes;

use crate::env::{HostDispatch, HostSlot};
use crate::linker::Namespace;
use crate::value::{FuncVal, InstanceId, Key, Value};

/// Runtime failures. None of these can corrupt the host; they abort the
/// switchlet invocation and surface to the embedder.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// The fuel budget ran out (non-termination containment).
    FuelExhausted,
    /// Call nesting exceeded the configured limit.
    CallDepthExceeded,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A string access was out of bounds.
    StrBounds {
        /// String length.
        len: usize,
        /// Offending index/offset.
        index: i64,
    },
    /// A host function reported an error.
    Host(String),
    /// A host call was made but no implementation is available.
    HostUnavailable(String),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::StrBounds { len, index } => {
                write!(f, "string index {index} out of bounds (len {len})")
            }
            VmError::Host(msg) => write!(f, "host error: {msg}"),
            VmError::HostUnavailable(name) => write!(f, "host function {name} unavailable"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execution limits.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Maximum instructions per invocation.
    pub fuel: u64,
    /// Maximum call nesting.
    pub max_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            fuel: 1_000_000,
            max_depth: 128,
        }
    }
}

/// What an invocation cost — fed to the simulator's time model (the
/// analogue of the paper's per-frame Caml cost instrumentation).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Host calls made.
    pub host_calls: u64,
}

/// Per-function hot counters accumulated across invocations — the
/// promotion signal a JIT tier consumes: which functions are entered
/// often and where the fuel actually goes. Keyed by
/// `(instance, function index)`; fuel is **inclusive** (a caller's total
/// includes its callees, the standard inclusive-time convention).
#[derive(Default, Debug)]
pub struct HotProfile {
    counters: std::collections::BTreeMap<(usize, u32), FuncHotCounters>,
}

/// One function's accumulated cost inside a [`HotProfile`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncHotCounters {
    /// Times the function was entered (including as a callee).
    pub calls: u64,
    /// Fuel (source instructions) retired while the function was on the
    /// stack — inclusive of callees.
    pub fuel: u64,
}

impl HotProfile {
    fn record(&mut self, instance: InstanceId, func: u32, fuel: u64) {
        let c = self.counters.entry((instance.0, func)).or_default();
        c.calls += 1;
        c.fuel += fuel;
    }

    /// The accumulated counters, in `(instance, func)` order.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, u32, FuncHotCounters)> + '_ {
        self.counters
            .iter()
            .map(|(&(inst, func), &c)| (InstanceId(inst), func, c))
    }

    /// Is anything recorded?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// The reusable execution arena: one operand stack and one locals area
/// shared by every frame of an invocation (frames are base-offset
/// windows). An embedder that keeps a `VmScratch` alive across
/// invocations (as the bridge does, one per node) runs steady-state
/// switchlet code with **zero** per-invocation allocation: the vectors
/// grow to the high-water mark once and are reused thereafter.
///
/// The arena optionally carries a [`HotProfile`]: with profiling enabled
/// every function entry bumps its call count and inclusive fuel. Off by
/// default (one `Option` check per function entry); profiling never
/// changes [`ExecStats`], fuel accounting or results.
#[derive(Default)]
pub struct VmScratch {
    stack: Vec<Value>,
    locals: Vec<Value>,
    profile: Option<Box<HotProfile>>,
}

impl VmScratch {
    /// A fresh arena with a useful starting capacity.
    pub fn new() -> VmScratch {
        VmScratch {
            stack: Vec::with_capacity(32),
            locals: Vec::with_capacity(32),
            profile: None,
        }
    }

    /// Start accumulating per-function hot counters (idempotent; keeps
    /// existing counts).
    pub fn enable_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The accumulated profile, if profiling was ever enabled.
    pub fn profile(&self) -> Option<&HotProfile> {
        self.profile.as_deref()
    }
}

/// Call a function value with `args`, using a throwaway arena.
///
/// `ns` provides the loaded instances; `host` the host implementations.
/// The arguments must match the function's type — guaranteed when the call
/// originates from verified code; embedder-originated calls (switchlet
/// entry points) are checked in debug builds.
pub fn call(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    args: impl IntoIterator<Item = Value>,
    cfg: &ExecConfig,
) -> Result<(Value, ExecStats), VmError> {
    let mut scratch = VmScratch::new();
    call_scratch(ns, host, target, args, cfg, &mut scratch)
}

/// Call a function value with `args`, reusing the given arena. This is
/// the per-frame entry point: with a long-lived `scratch` and the
/// arguments passed as an array (`[Value; N]`), the invocation allocates
/// nothing in steady state — the arguments go straight into the arena's
/// locals.
pub fn call_scratch(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    args: impl IntoIterator<Item = Value>,
    cfg: &ExecConfig,
    scratch: &mut VmScratch,
) -> Result<(Value, ExecStats), VmError> {
    let mut stats = ExecStats::default();
    let mut fuel = cfg.fuel;
    // Nested entries (a host function re-entering the VM) stack above the
    // caller's live region; truncating back to the entry marks cleans up
    // every inner frame on both success and error paths.
    let stack_mark = scratch.stack.len();
    let locals_mark = scratch.locals.len();
    let result = match target {
        FuncVal::Host { module, item } => {
            stats.host_calls += 1;
            let mut args: Vec<Value> = args.into_iter().collect();
            host.call_slot(ns.env(), HostSlot { module, item }, &mut args)
        }
        FuncVal::Vm { instance, func } => {
            scratch.locals.extend(args);
            let params = &ns.instance(instance).module.functions[func as usize].params;
            debug_assert_eq!(
                scratch.locals.len() - locals_mark,
                params.len(),
                "arity mismatch at entry"
            );
            debug_assert!(
                scratch.locals[locals_mark..]
                    .iter()
                    .zip(params)
                    .all(|(v, t)| v.matches(t)),
                "argument type mismatch at entry"
            );
            exec(
                ns,
                host,
                instance,
                func,
                cfg,
                &mut fuel,
                0,
                &mut stats,
                scratch,
                locals_mark,
            )
        }
    };
    scratch.stack.truncate(stack_mark);
    scratch.locals.truncate(locals_mark);
    result.map(|v| (v, stats))
}

/// Execute decoded function `func_idx` of `instance`, bumping the hot
/// profile (when enabled) with the entry and its inclusive fuel. The
/// trap path is charged too: the fuel a function burned before running
/// out is exactly what a promotion heuristic should see.
#[allow(clippy::too_many_arguments)]
fn exec(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    instance: InstanceId,
    func_idx: u32,
    cfg: &ExecConfig,
    fuel: &mut u64,
    depth: usize,
    stats: &mut ExecStats,
    scratch: &mut VmScratch,
    locals_base: usize,
) -> Result<Value, VmError> {
    if scratch.profile.is_none() {
        return exec_inner(
            ns,
            host,
            instance,
            func_idx,
            cfg,
            fuel,
            depth,
            stats,
            scratch,
            locals_base,
        );
    }
    let entry = stats.instructions;
    let result = exec_inner(
        ns,
        host,
        instance,
        func_idx,
        cfg,
        fuel,
        depth,
        stats,
        scratch,
        locals_base,
    );
    if let Some(profile) = scratch.profile.as_deref_mut() {
        profile.record(instance, func_idx, stats.instructions - entry);
    }
    result
}

/// Execute decoded function `func_idx` of `instance`. The caller has
/// already pushed the arguments at `scratch.locals[locals_base..]`.
#[allow(clippy::too_many_arguments)]
fn exec_inner(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    instance: InstanceId,
    func_idx: u32,
    cfg: &ExecConfig,
    fuel: &mut u64,
    depth: usize,
    stats: &mut ExecStats,
    scratch: &mut VmScratch,
    locals_base: usize,
) -> Result<Value, VmError> {
    use crate::decode::{Cmp, Inst};

    if depth >= cfg.max_depth {
        return Err(VmError::CallDepthExceeded);
    }
    let inst_ref = ns.instance(instance);
    let dfunc = &inst_ref.decoded[func_idx as usize];
    let code = &dfunc.insts;
    debug_assert_eq!(
        scratch.locals.len() - locals_base,
        dfunc.n_params as usize,
        "arity mismatch at frame entry of {}",
        inst_ref.module.functions[func_idx as usize].name
    );
    // Locals: parameters then placeholder slots (verified code never reads
    // a local before writing it, so Unit placeholders are unobservable).
    scratch
        .locals
        .resize(locals_base + dfunc.n_slots as usize, Value::Unit);
    let stack_base = scratch.stack.len();
    let mut pc: usize = 0;

    macro_rules! pop {
        () => {
            scratch
                .stack
                .pop()
                .expect("verifier invariant broken: stack underflow")
        };
    }
    macro_rules! push {
        ($v:expr) => {
            scratch.stack.push($v)
        };
    }
    macro_rules! local {
        ($n:expr) => {
            scratch.locals[locals_base + $n as usize]
        };
    }

    loop {
        let op = &code[pc];
        // Fuel: charge one unit per *source* op. A fused instruction whose
        // full cost exceeds the remaining fuel reports exhaustion after
        // retiring exactly the ops the unfused stream would have retired
        // (its partial effects are unobservable: the invocation aborts and
        // the arena is rolled back; fused sequences are side-effect-free).
        let cost = op.cost();
        if *fuel < cost {
            stats.instructions += *fuel;
            *fuel = 0;
            return Err(VmError::FuelExhausted);
        }
        *fuel -= cost;
        stats.instructions += cost;
        pc += 1;
        match op {
            Inst::ConstUnit => push!(Value::Unit),
            Inst::ConstBool(b) => push!(Value::Bool(*b)),
            Inst::ConstInt(i) => push!(Value::Int(*i)),
            Inst::ConstStr(n) => {
                // Interned at link time: pushing a pool constant is a
                // `Bytes` clone (refcount bump), never a byte copy.
                push!(Value::Str(inst_ref.str_consts[*n as usize].clone()))
            }
            Inst::LocalGet(n) => push!(local!(*n).clone()),
            Inst::LocalSet(n) => local!(*n) = pop!(),
            Inst::Pop => {
                let _ = pop!();
            }
            Inst::Dup => {
                let top = scratch
                    .stack
                    .last()
                    .expect("verifier invariant broken")
                    .clone();
                push!(top);
            }
            Inst::Add => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Int(a.wrapping_add(b)));
            }
            Inst::Sub => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Int(a.wrapping_sub(b)));
            }
            Inst::Mul => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Int(a.wrapping_mul(b)));
            }
            Inst::Div => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                push!(Value::Int(a.wrapping_div(b)));
            }
            Inst::Mod => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                push!(Value::Int(a.wrapping_rem(b)));
            }
            Inst::Neg => {
                let a = pop!().as_int();
                push!(Value::Int(a.wrapping_neg()));
            }
            Inst::Eq => {
                let b = pop!();
                let a = pop!();
                push!(Value::Bool(
                    a.hash_eq(&b).expect("verifier invariant broken: eq")
                ));
            }
            Inst::Ne => {
                let b = pop!();
                let a = pop!();
                push!(Value::Bool(
                    !a.hash_eq(&b).expect("verifier invariant broken: ne")
                ));
            }
            Inst::Lt => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Bool(a < b));
            }
            Inst::Le => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Bool(a <= b));
            }
            Inst::Gt => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Bool(a > b));
            }
            Inst::Ge => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                push!(Value::Bool(a >= b));
            }
            Inst::And => {
                let b = pop!().as_bool();
                let a = pop!().as_bool();
                push!(Value::Bool(a && b));
            }
            Inst::Or => {
                let b = pop!().as_bool();
                let a = pop!().as_bool();
                push!(Value::Bool(a || b));
            }
            Inst::Not => {
                let a = pop!().as_bool();
                push!(Value::Bool(!a));
            }
            Inst::Jump(t) => pc = *t as usize,
            Inst::BrIf(t) => {
                if pop!().as_bool() {
                    pc = *t as usize;
                }
            }
            Inst::BrIfNot(t) => {
                if !pop!().as_bool() {
                    pc = *t as usize;
                }
            }
            Inst::Return => {
                let result = pop!();
                debug_assert_eq!(
                    scratch.stack.len(),
                    stack_base,
                    "verifier invariant broken: dirty return"
                );
                scratch.locals.truncate(locals_base);
                return Ok(result);
            }
            Inst::Call(n) => {
                let argc = inst_ref.decoded[*n as usize].n_params as usize;
                let new_base = scratch.locals.len();
                let split = scratch.stack.len() - argc;
                scratch.locals.extend(scratch.stack.drain(split..));
                let result = exec(
                    ns,
                    host,
                    instance,
                    *n,
                    cfg,
                    fuel,
                    depth + 1,
                    stats,
                    scratch,
                    new_base,
                )?;
                push!(result);
            }
            Inst::CallHost { slot, argc } => {
                stats.host_calls += 1;
                let split = scratch.stack.len() - *argc as usize;
                let result = host.call_slot(ns.env(), *slot, &mut scratch.stack[split..])?;
                scratch.stack.truncate(split);
                push!(result);
            }
            Inst::CallVm {
                instance: callee_inst,
                func,
            } => {
                let argc = ns.instance(*callee_inst).decoded[*func as usize].n_params as usize;
                let new_base = scratch.locals.len();
                let split = scratch.stack.len() - argc;
                scratch.locals.extend(scratch.stack.drain(split..));
                let result = exec(
                    ns,
                    host,
                    *callee_inst,
                    *func,
                    cfg,
                    fuel,
                    depth + 1,
                    stats,
                    scratch,
                    new_base,
                )?;
                push!(result);
            }
            Inst::ImportGet(fv) => push!(Value::Func(*fv)),
            Inst::CallRef(arity) => {
                let argc = *arity as usize;
                let fpos = scratch.stack.len() - argc - 1;
                let fv = match &scratch.stack[fpos] {
                    Value::Func(fv) => *fv,
                    _ => panic!("verifier invariant broken: callref on non-function"),
                };
                match fv {
                    FuncVal::Host { module, item } => {
                        stats.host_calls += 1;
                        let result = host.call_slot(
                            ns.env(),
                            HostSlot { module, item },
                            &mut scratch.stack[fpos + 1..],
                        )?;
                        scratch.stack.truncate(fpos);
                        push!(result);
                    }
                    FuncVal::Vm {
                        instance: callee_inst,
                        func,
                    } => {
                        let new_base = scratch.locals.len();
                        scratch.locals.extend(scratch.stack.drain(fpos + 1..));
                        let _ = pop!(); // the function value
                        let result = exec(
                            ns,
                            host,
                            callee_inst,
                            func,
                            cfg,
                            fuel,
                            depth + 1,
                            stats,
                            scratch,
                            new_base,
                        )?;
                        push!(result);
                    }
                }
            }
            Inst::FuncConst(n) => push!(Value::Func(FuncVal::Vm { instance, func: *n })),
            Inst::TupleMake(n) => {
                let split = scratch.stack.len() - *n as usize;
                let items: Vec<Value> = scratch.stack.drain(split..).collect();
                push!(Value::Tuple(Rc::new(items)));
            }
            Inst::TupleGet(i) => {
                let Value::Tuple(items) = pop!() else {
                    panic!("verifier invariant broken: tupleget")
                };
                push!(items[*i as usize].clone());
            }
            Inst::StrLen => {
                let s = pop!();
                push!(Value::Int(s.as_str().len() as i64));
            }
            Inst::StrConcat => {
                let b = pop!();
                let a = pop!();
                let mut out = a.as_str().to_vec();
                out.extend_from_slice(b.as_str());
                push!(Value::Str(Bytes::from(out)));
            }
            Inst::StrByte => {
                let i = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                if i < 0 || i as usize >= s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: i,
                    });
                }
                push!(Value::Int(s[i as usize] as i64));
            }
            Inst::StrSlice => {
                let len = pop!().as_int();
                let start = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                if start < 0 || len < 0 || (start as usize).saturating_add(len as usize) > s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: start,
                    });
                }
                // A copy, not a zero-copy `Bytes::slice`: a slice would pin
                // its whole parent (a received frame) for as long as the
                // switchlet keeps it.
                let out = s[start as usize..start as usize + len as usize].to_vec();
                push!(Value::Str(Bytes::from(out)));
            }
            Inst::StrPackInt(width) => {
                let v = pop!().as_int() as u64;
                let bytes = v.to_be_bytes();
                let out = bytes[8 - *width as usize..].to_vec();
                push!(Value::Str(Bytes::from(out)));
            }
            Inst::StrUnpackInt(width) => {
                let off = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                let w = *width as usize;
                if off < 0 || (off as usize).saturating_add(w) > s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: off,
                    });
                }
                let mut bytes = [0u8; 8];
                bytes[8 - w..].copy_from_slice(&s[off as usize..off as usize + w]);
                push!(Value::Int(u64::from_be_bytes(bytes) as i64));
            }
            Inst::StrFromInt => {
                let v = pop!().as_int();
                push!(Value::str(v.to_string().into_bytes()));
            }
            Inst::TableNew => push!(Value::new_table()),
            Inst::TableAdd => {
                let v = pop!();
                let k = pop!();
                let Value::Table(t) = pop!() else {
                    panic!("verifier invariant broken: tableadd")
                };
                let key = k.to_key().expect("verifier invariant broken: key");
                t.borrow_mut().insert(key, v);
            }
            Inst::TableGet => {
                let default = pop!();
                let k = pop!();
                let Value::Table(t) = pop!() else {
                    panic!("verifier invariant broken: tableget")
                };
                let key = k.to_key().expect("verifier invariant broken: key");
                let v = t.borrow().get(&key).cloned().unwrap_or(default);
                push!(v);
            }
            Inst::TableMem => {
                let k = pop!();
                let Value::Table(t) = pop!() else {
                    panic!("verifier invariant broken: tablemem")
                };
                let key: Key = k.to_key().expect("verifier invariant broken: key");
                push!(Value::Bool(t.borrow().contains_key(&key)));
            }
            Inst::TableRemove => {
                let k = pop!();
                let Value::Table(t) = pop!() else {
                    panic!("verifier invariant broken: tableremove")
                };
                let key = k.to_key().expect("verifier invariant broken: key");
                t.borrow_mut().remove(&key);
            }
            Inst::TableLen => {
                let Value::Table(t) = pop!() else {
                    panic!("verifier invariant broken: tablelen")
                };
                let len = t.borrow().len() as i64;
                push!(Value::Int(len));
            }
            Inst::Nop => {}
            // ------------------------------------------ superinstructions
            Inst::LocalGet2(a, b) => {
                let va = local!(*a).clone();
                let vb = local!(*b).clone();
                push!(va);
                push!(vb);
            }
            Inst::LocalGet2Add(a, b) => {
                let va = local!(*a).as_int();
                let vb = local!(*b).as_int();
                push!(Value::Int(va.wrapping_add(vb)));
            }
            Inst::LocalConstAdd(a, k) => {
                let va = local!(*a).as_int();
                push!(Value::Int(va.wrapping_add(*k)));
            }
            Inst::CmpBr {
                cmp,
                negate,
                target,
            } => {
                let b = pop!();
                let a = pop!();
                let taken = match cmp {
                    Cmp::Eq => a.hash_eq(&b).expect("verifier invariant broken: eq"),
                    Cmp::Ne => !a.hash_eq(&b).expect("verifier invariant broken: ne"),
                    Cmp::Lt => a.as_int() < b.as_int(),
                    Cmp::Le => a.as_int() <= b.as_int(),
                    Cmp::Gt => a.as_int() > b.as_int(),
                    Cmp::Ge => a.as_int() >= b.as_int(),
                } != *negate;
                if taken {
                    pc = *target as usize;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ModuleBuilder;
    use crate::bytecode::Op;
    use crate::env::Env;
    use crate::linker::Namespace;
    use crate::types::Ty;

    use crate::env::NoHost;

    /// `quad(x) = double(double(x))`, `double(x) = x + x`: two profiled
    /// functions with a caller/callee relationship.
    fn quad_ns() -> (Namespace, InstanceId, u32, u32) {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("double", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0))
            .op(Op::LocalGet(0))
            .op(Op::Add)
            .op(Op::Return);
        let double = mb.finish(f);
        let mut f = mb.func("quad", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0))
            .op(Op::Call(double))
            .op(Op::Call(double))
            .op(Op::Return);
        let quad = mb.finish(f);
        let mut ns = Namespace::new(Env::new());
        let inst = ns.load_module(mb.build()).expect("module verifies");
        (ns, inst, double, quad)
    }

    #[test]
    fn hot_profile_counts_calls_and_inclusive_fuel() {
        let (ns, inst, double, quad) = quad_ns();
        let target = FuncVal::Vm {
            instance: inst,
            func: quad,
        };
        let cfg = ExecConfig::default();

        // Reference run without profiling.
        let mut plain = VmScratch::new();
        let (v0, stats0) = call_scratch(
            &ns,
            &mut NoHost,
            target,
            vec![Value::Int(5)],
            &cfg,
            &mut plain,
        )
        .expect("runs");
        assert_eq!(v0.as_int(), 20);
        assert!(plain.profile().is_none(), "profiling is off by default");

        // Profiled run: identical result and stats, counters filled in.
        let mut scratch = VmScratch::new();
        scratch.enable_profile();
        for _ in 0..3 {
            let (v, stats) = call_scratch(
                &ns,
                &mut NoHost,
                target,
                vec![Value::Int(5)],
                &cfg,
                &mut scratch,
            )
            .expect("runs");
            assert_eq!(v.as_int(), v0.as_int());
            assert_eq!(stats, stats0, "profiling must not change ExecStats");
        }
        let profile = scratch.profile().expect("enabled");
        let lines: Vec<_> = profile.iter().collect();
        // `double`: 4 source ops per entry, entered twice per quad call.
        // `quad`: 4 own ops + 8 inclusive callee ops.
        assert_eq!(
            lines,
            vec![
                (inst, double, FuncHotCounters { calls: 6, fuel: 24 }),
                (inst, quad, FuncHotCounters { calls: 3, fuel: 36 }),
            ]
        );
    }
}
