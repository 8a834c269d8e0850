//! # switchlet — the loadable-module substrate of Active Bridging
//!
//! The paper programs its bridge in Caml and extends it at run time with
//! *switchlets*: byte-code modules that are statically type-checked, carry
//! MD5 interface digests, link into a restricted ("thinned") name space,
//! and register themselves by evaluating top-level forms. Rust cannot
//! safely load native code (no stable ABI), so this crate rebuilds that
//! substrate from scratch:
//!
//! * [`types`] — a small monomorphic type language (including abstract
//!   `Named` types for capabilities like `iport`/`oport`);
//! * [`bytecode`] — a stack-machine instruction set with **no casts and no
//!   address-of**, the two absences the paper's security argument rests on;
//! * [`verify`] — a JVM-style static verifier: stack typing, control-flow
//!   join agreement, definite assignment, call-site type checks. "Static
//!   checking and prevention over dynamic checks";
//! * [`digest`] — MD5 (RFC 1321), used exactly as Caml used it: interface
//!   fingerprints embedded in the byte codes;
//! * [`module`] — the wire format switchlets travel in (over TFTP, in the
//!   bridge's case);
//! * [`mod env`](crate::env) — host modules with *thinned* signatures: an item absent from
//!   the signature is unnameable, hence unreachable;
//! * [`linker`] — the `Dynlink` equivalent: a name space, available units,
//!   digest/type-checked loading, init ("registration") evaluation, and
//!   translation of verified code into the pre-decoded execution form
//!   (branch offsets remapped, call targets and host slots resolved, hot
//!   pairs fused — see DESIGN.md);
//! * [`vm`] — the direct-dispatch interpreter over the decoded form,
//!   fuel-metered so the node survives non-terminating switchlets (the
//!   paper's "algorithmic failures"), with a reusable [`vm::VmScratch`]
//!   arena so steady-state invocations allocate nothing;
//! * [`asm`] — a builder API standing in for the Caml compiler front end.
//!
//! ```
//! use switchlet::asm::ModuleBuilder;
//! use switchlet::bytecode::Op;
//! use switchlet::env::{Env, NoHost};
//! use switchlet::linker::Namespace;
//! use switchlet::types::Ty;
//! use switchlet::value::Value;
//! use switchlet::vm::{call, ExecConfig};
//!
//! // Author a switchlet ...
//! let mut mb = ModuleBuilder::new("inc");
//! let mut f = mb.func("inc", vec![Ty::Int], Ty::Int);
//! f.op(Op::LocalGet(0));
//! f.op(Op::ConstInt(1));
//! f.op(Op::Add);
//! f.op(Op::Return);
//! let idx = mb.finish(f);
//! mb.export("inc", idx);
//!
//! // ... ship it as bytes, then load and call it.
//! let image = mb.build().encode();
//! let mut ns = Namespace::new(Env::new());
//! ns.load(&image).unwrap();
//! let (fv, _) = ns.lookup_export("inc", "inc").unwrap();
//! let (v, _) = call(&ns, &mut NoHost, fv, [Value::Int(41)], &ExecConfig::default()).unwrap();
//! assert_eq!(v.as_int(), 42);
//! ```

pub mod asm;
pub mod bytecode;
mod decode;
pub mod digest;
pub mod env;
pub mod envelope;
pub mod linker;
pub mod module;
#[cfg(test)]
mod refinterp;
pub mod sig;
pub mod types;
pub mod value;
pub mod verify;
pub mod vm;

#[cfg(test)]
mod equiv_tests;

pub use asm::ModuleBuilder;
pub use bytecode::{Function, Op};
pub use digest::{md5, Digest, Md5};
pub use env::{Env, HostDispatch, HostModuleSig, HostSlot, NoHost};
pub use envelope::{is_enveloped, seal, unseal, EnvelopeError};
pub use linker::{Instance, LoadError, Namespace, ResolvedImport};
pub use module::{DecodeError, Export, Module};
pub use sig::{ExportSig, ImportSig};
pub use types::{FuncTy, Ty};
pub use value::{FuncVal, InstanceId, Key, Value};
pub use verify::{verify_module, VerifyError};
pub use vm::{
    call, call_scratch, ExecConfig, ExecStats, FuncHotCounters, HotProfile, VmError, VmScratch,
};
