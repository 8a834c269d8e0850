//! The Dynlink-style loader/linker.
//!
//! Mirrors the paper's linking model (Section 5.1.2):
//!
//! * [`Namespace::new`] ≈ `Dynlink.init` + `Dynlink.add_available_units`:
//!   it creates the name space and enters the host modules' (thinned)
//!   signatures into it;
//! * [`Namespace::load`] ≈ `Dynlink.load`: decode the byte codes, check
//!   the interface digests, resolve every import by name with *exact* type
//!   equality (a forged signature "would result in a link time error
//!   because the signatures would not match"), statically verify the code,
//!   and instantiate;
//! * [`Namespace::load_and_init`] additionally evaluates the module's
//!   `init` function — the "top-level forms that call a registration
//!   function" — under a fuel budget.
//!
//! Later modules can import earlier modules' exports, but "there is no
//! function to allow previously linked functions ... to access the newly
//! loaded functions" other than registration through host tables.

use std::collections::HashMap;

use crate::env::{Env, HostDispatch, HostSlot};
use crate::module::{DecodeError, Module};
use crate::sig::ImportSig;
use crate::types::Ty;
use crate::value::{FuncVal, InstanceId, Value};
use crate::verify::{verify_module, VerifyError};
use crate::vm::{call, ExecConfig, ExecStats, VmError};

/// Where an import resolved to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResolvedImport {
    /// A host function.
    Host(HostSlot),
    /// An export of an earlier loaded module.
    Vm {
        /// The providing instance.
        instance: InstanceId,
        /// Function index within it.
        func: u32,
    },
}

/// A loaded, linked module.
#[derive(Debug)]
pub struct Instance {
    /// The verified module.
    pub module: Module,
    /// Per-import resolution, parallel to `module.imports`.
    pub resolved: Vec<ResolvedImport>,
    /// String-pool constants interned once at link time, parallel to
    /// `module.str_pool`: `ConstStr` pushes a clone of the prebuilt
    /// `Bytes` (a refcount bump) instead of copying the pool bytes on
    /// every execution.
    pub str_consts: Vec<bytes::Bytes>,
    /// Functions translated to the pre-decoded execution form (branch
    /// offsets remapped, call targets and host slots resolved, hot pairs
    /// fused) — what the interpreter actually runs. Built once here, after
    /// verification; parallel to `module.functions`.
    pub(crate) decoded: Vec<crate::decode::DecodedFunc>,
}

/// Loading failures — every way the node rejects a switchlet *before* it
/// can run.
#[derive(Debug, PartialEq)]
pub enum LoadError {
    /// The image failed structural decoding (including digest mismatches).
    Decode(DecodeError),
    /// An import names nothing in scope (possibly thinned away).
    UnresolvedImport {
        /// Requested module name.
        module: String,
        /// Requested item name.
        item: String,
    },
    /// An import exists but at a different type.
    ImportTypeMismatch {
        /// Requested module name.
        module: String,
        /// Requested item name.
        item: String,
        /// What the importer was compiled against.
        want: Ty,
        /// What the environment provides.
        found: Ty,
    },
    /// A unit with this name is already loaded.
    DuplicateModule(String),
    /// An import declared a non-function type (only functions are
    /// importable).
    NonFunctionImport {
        /// Requested module name.
        module: String,
        /// Requested item name.
        item: String,
    },
    /// The code failed static verification.
    Verify(VerifyError),
    /// The init function trapped (the module stays loaded but inert;
    /// callers typically discard it).
    InitTrap(VmError),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Decode(e) => write!(f, "decode: {e}"),
            LoadError::UnresolvedImport { module, item } => {
                write!(f, "unresolved import {module}.{item}")
            }
            LoadError::ImportTypeMismatch {
                module,
                item,
                want,
                found,
            } => write!(
                f,
                "import {module}.{item}: compiled against {want}, environment provides {found}"
            ),
            LoadError::DuplicateModule(name) => write!(f, "module {name} already loaded"),
            LoadError::NonFunctionImport { module, item } => {
                write!(f, "import {module}.{item} is not function-typed")
            }
            LoadError::Verify(e) => write!(f, "verification failed: {e}"),
            LoadError::InitTrap(e) => write!(f, "init trapped: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The loader's name space: host signatures plus loaded instances.
pub struct Namespace {
    env: Env,
    instances: Vec<Instance>,
    by_name: HashMap<String, InstanceId>,
}

impl Namespace {
    /// Create a name space offering the given host environment.
    pub fn new(env: Env) -> Namespace {
        Namespace {
            env,
            instances: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The host environment (signatures only).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// A loaded instance.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0]
    }

    /// Loaded instance count.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Find a loaded unit by name.
    pub fn find(&self, name: &str) -> Option<InstanceId> {
        self.by_name.get(name).copied()
    }

    /// Look up an export of a loaded unit: `(callable, its type)`.
    pub fn lookup_export(&self, module: &str, item: &str) -> Option<(FuncVal, Ty)> {
        let id = self.find(module)?;
        let inst = &self.instances[id.0];
        let exp = inst.module.exports.iter().find(|e| e.name == item)?;
        let f = &inst.module.functions[exp.func as usize];
        Some((
            FuncVal::Vm {
                instance: id,
                func: exp.func,
            },
            Ty::func(f.params.clone(), f.result.clone()),
        ))
    }

    fn resolve_import(&self, imp: &ImportSig) -> Result<ResolvedImport, LoadError> {
        // Host modules first (they are the primordial units).
        if let Some((slot, ty)) = self.env.lookup(&imp.module, &imp.item) {
            if *ty != imp.ty {
                return Err(LoadError::ImportTypeMismatch {
                    module: imp.module.clone(),
                    item: imp.item.clone(),
                    want: imp.ty.clone(),
                    found: ty.clone(),
                });
            }
            return Ok(ResolvedImport::Host(slot));
        }
        // Then previously loaded units.
        if let Some((fv, ty)) = self.lookup_export(&imp.module, &imp.item) {
            if ty != imp.ty {
                return Err(LoadError::ImportTypeMismatch {
                    module: imp.module.clone(),
                    item: imp.item.clone(),
                    want: imp.ty.clone(),
                    found: ty,
                });
            }
            let FuncVal::Vm { instance, func } = fv else {
                unreachable!()
            };
            return Ok(ResolvedImport::Vm { instance, func });
        }
        Err(LoadError::UnresolvedImport {
            module: imp.module.clone(),
            item: imp.item.clone(),
        })
    }

    /// Decode, link and verify an image; does **not** run its init.
    /// On success the unit is entered into the name space.
    pub fn load(&mut self, image: &[u8]) -> Result<InstanceId, LoadError> {
        let module = Module::decode(image).map_err(LoadError::Decode)?;
        self.load_module(module)
    }

    /// Link and verify an already-decoded module (used by the boot loader,
    /// which holds modules "on disk").
    pub fn load_module(&mut self, module: Module) -> Result<InstanceId, LoadError> {
        if self.by_name.contains_key(&module.name) {
            return Err(LoadError::DuplicateModule(module.name.clone()));
        }
        let mut resolved = Vec::with_capacity(module.imports.len());
        for imp in &module.imports {
            if !matches!(imp.ty, Ty::Func(_)) {
                return Err(LoadError::NonFunctionImport {
                    module: imp.module.clone(),
                    item: imp.item.clone(),
                });
            }
            resolved.push(self.resolve_import(imp)?);
        }
        verify_module(&module).map_err(LoadError::Verify)?;
        let id = InstanceId(self.instances.len());
        self.by_name.insert(module.name.clone(), id);
        let str_consts = module
            .str_pool
            .iter()
            .map(|s| bytes::Bytes::from(s.clone()))
            .collect();
        // Translate to the execution form — only verified code is decoded.
        let decoded = module
            .functions
            .iter()
            .map(|f| crate::decode::decode_function(&module, f, &resolved))
            .collect();
        self.instances.push(Instance {
            module,
            resolved,
            str_consts,
            decoded,
        });
        Ok(id)
    }

    /// Decode, link, verify, then evaluate the module's init function.
    /// Returns the instance id and the init's execution stats.
    pub fn load_and_init(
        &mut self,
        image: &[u8],
        host: &mut dyn HostDispatch,
        cfg: &ExecConfig,
    ) -> Result<(InstanceId, ExecStats), LoadError> {
        let id = self.load(image)?;
        let stats = self.run_init(id, host, cfg)?;
        Ok((id, stats))
    }

    /// Evaluate a loaded module's init function (no-op if it has none).
    pub fn run_init(
        &mut self,
        id: InstanceId,
        host: &mut dyn HostDispatch,
        cfg: &ExecConfig,
    ) -> Result<ExecStats, LoadError> {
        let Some(init) = self.instances[id.0].module.init else {
            return Ok(ExecStats::default());
        };
        let target = FuncVal::Vm {
            instance: id,
            func: init,
        };
        match call(self, host, target, Vec::new(), cfg) {
            Ok((Value::Unit, stats)) => Ok(stats),
            Ok((_, stats)) => {
                // Verifier guarantees init returns unit.
                debug_assert!(false, "init returned non-unit");
                Ok(stats)
            }
            Err(e) => Err(LoadError::InitTrap(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ModuleBuilder;
    use crate::bytecode::Op;
    use crate::env::{HostModuleSig, NoHost};

    fn env() -> Env {
        let mut e = Env::new();
        e.add_module(HostModuleSig::new("safestd").func("add7", Ty::func(vec![Ty::Int], Ty::Int)));
        e
    }

    struct Add7;
    impl HostDispatch for Add7 {
        fn call_slot(
            &mut self,
            env: &Env,
            slot: HostSlot,
            args: &mut [Value],
        ) -> Result<Value, VmError> {
            let (module, item, _) = env.slot_names(slot);
            assert_eq!((module, item), ("safestd", "add7"));
            Ok(Value::Int(args[0].as_int() + 7))
        }
    }

    fn id_module() -> Vec<u8> {
        let mut mb = ModuleBuilder::new("ident");
        let imp = mb.import("safestd", "add7", Ty::func(vec![Ty::Int], Ty::Int));
        let mut f = mb.func("go", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0));
        f.op(Op::CallImport(imp));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        mb.build().encode()
    }

    #[test]
    fn load_and_call_with_host() {
        let mut ns = Namespace::new(env());
        let id = ns.load(&id_module()).unwrap();
        let (fv, ty) = ns.lookup_export("ident", "go").unwrap();
        assert_eq!(ty, Ty::func(vec![Ty::Int], Ty::Int));
        let (v, stats) = call(
            &ns,
            &mut Add7,
            fv,
            vec![Value::Int(35)],
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(v.as_int(), 42);
        assert!(stats.instructions >= 3);
        assert_eq!(stats.host_calls, 1);
        assert_eq!(ns.find("ident"), Some(id));
    }

    #[test]
    fn unresolved_import_rejected() {
        // `system` was thinned out of safestd: unnameable.
        let mut mb = ModuleBuilder::new("evil");
        let imp = mb.import("safestd", "system", Ty::func(vec![Ty::Str], Ty::Int));
        let mut f = mb.func("go", vec![], Ty::Int);
        f.op(Op::ConstStr(mb.intern_str(b"rm -rf /")));
        f.op(Op::CallImport(imp));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        let image = mb.build().encode();

        let mut ns = Namespace::new(env());
        match ns.load(&image) {
            Err(LoadError::UnresolvedImport { module, item }) => {
                assert_eq!((module.as_str(), item.as_str()), ("safestd", "system"));
            }
            other => panic!("expected unresolved import, got {other:?}"),
        }
    }

    #[test]
    fn import_type_mismatch_rejected() {
        // Compiled against a *different* signature for add7 — the paper's
        // "signature built by an attacker" scenario: link-time error.
        let mut mb = ModuleBuilder::new("forged");
        let imp = mb.import("safestd", "add7", Ty::func(vec![Ty::Str], Ty::Str));
        let mut f = mb.func("go", vec![], Ty::Str);
        f.op(Op::ConstStr(mb.intern_str(b"x")));
        f.op(Op::CallImport(imp));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        let image = mb.build().encode();

        let mut ns = Namespace::new(env());
        assert!(matches!(
            ns.load(&image),
            Err(LoadError::ImportTypeMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut ns = Namespace::new(env());
        ns.load(&id_module()).unwrap();
        assert_eq!(
            ns.load(&id_module()),
            Err(LoadError::DuplicateModule("ident".into()))
        );
    }

    #[test]
    fn later_module_imports_earlier_export() {
        let mut ns = Namespace::new(env());
        ns.load(&id_module()).unwrap();

        let mut mb = ModuleBuilder::new("user");
        let imp = mb.import("ident", "go", Ty::func(vec![Ty::Int], Ty::Int));
        let mut f = mb.func("twice", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0));
        f.op(Op::CallImport(imp));
        f.op(Op::CallImport(imp));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("twice", idx);
        let image = mb.build().encode();

        ns.load(&image).unwrap();
        let (fv, _) = ns.lookup_export("user", "twice").unwrap();
        let (v, _) = call(
            &ns,
            &mut Add7,
            fv,
            vec![Value::Int(0)],
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(v.as_int(), 14);
    }

    #[test]
    fn infinite_loop_contained_by_fuel() {
        let mut mb = ModuleBuilder::new("spinner");
        let mut f = mb.func("spin", vec![], Ty::Unit);
        let head = f.new_label();
        f.place(head);
        f.op(Op::Nop);
        f.jump(head);
        let idx = mb.finish(f);
        mb.export("spin", idx);
        let image = mb.build().encode();

        let mut ns = Namespace::new(env());
        ns.load(&image).unwrap();
        let (fv, _) = ns.lookup_export("spinner", "spin").unwrap();
        let err = call(
            &ns,
            &mut NoHost,
            fv,
            vec![],
            &ExecConfig {
                fuel: 10_000,
                max_depth: 16,
            },
        )
        .unwrap_err();
        assert_eq!(err, VmError::FuelExhausted);
    }

    #[test]
    fn runaway_recursion_contained_by_depth() {
        let mut mb = ModuleBuilder::new("recur");
        let mut f = mb.func("r", vec![], Ty::Unit);
        f.op(Op::Call(0));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("r", idx);
        let image = mb.build().encode();

        let mut ns = Namespace::new(env());
        ns.load(&image).unwrap();
        let (fv, _) = ns.lookup_export("recur", "r").unwrap();
        let err = call(
            &ns,
            &mut NoHost,
            fv,
            vec![],
            &ExecConfig {
                fuel: 1_000_000,
                max_depth: 32,
            },
        )
        .unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded);
    }

    #[test]
    fn init_runs_at_load() {
        let mut e = Env::new();
        e.add_module(HostModuleSig::new("func").func(
            "register",
            Ty::func(vec![Ty::Str, Ty::func(vec![Ty::Int], Ty::Int)], Ty::Unit),
        ));

        struct Registry {
            registered: Vec<String>,
        }
        impl HostDispatch for Registry {
            fn call_slot(
                &mut self,
                _env: &Env,
                _slot: HostSlot,
                args: &mut [Value],
            ) -> Result<Value, VmError> {
                self.registered
                    .push(String::from_utf8_lossy(args[0].as_str()).into_owned());
                Ok(Value::Unit)
            }
        }

        let mut mb = ModuleBuilder::new("reg");
        let imp = mb.import(
            "func",
            "register",
            Ty::func(vec![Ty::Str, Ty::func(vec![Ty::Int], Ty::Int)], Ty::Unit),
        );
        let mut handler = mb.func("handler", vec![Ty::Int], Ty::Int);
        handler.op(Op::LocalGet(0));
        handler.op(Op::Return);
        let h_idx = mb.finish(handler);
        let name_idx = mb.intern_str(b"my_handler");
        let mut init = mb.func("init", vec![], Ty::Unit);
        init.op(Op::ConstStr(name_idx));
        init.op(Op::FuncConst(h_idx));
        init.op(Op::CallImport(imp));
        init.op(Op::Return);
        let i_idx = mb.finish(init);
        mb.set_init(i_idx);
        let image = mb.build().encode();

        let mut ns = Namespace::new(e);
        let mut reg = Registry {
            registered: Vec::new(),
        };
        ns.load_and_init(&image, &mut reg, &ExecConfig::default())
            .unwrap();
        assert_eq!(reg.registered, vec!["my_handler".to_string()]);
    }
}
