//! The host modules offered to VM switchlets — the paper's Section 5.2.1
//! module set, thinned.
//!
//! [`host_env`] builds the *signatures* (what is nameable); [`HostEnv`]
//! implements the dispatch. The implementation deliberately contains
//! functions that the signatures do **not** expose (`safeunix.system`,
//! `safeunix.open_file`): they exist behind the dispatcher, but no
//! switchlet can link to them — module thinning "leaves the switchlet
//! with no way of naming the excluded function and thus, no way of
//! accessing it". Tests in this module and the integration suite verify
//! that importing them fails at link time.
//!
//! | module    | paper analogue | contents |
//! |-----------|----------------|----------|
//! | `safestd` | Safestd        | string hashing (tables/ints are VM instructions) |
//! | `safeunix`| Safeunix       | time-of-day only — heavily thinned |
//! | `log`     | Log            | message logging (sink is the simulator trace) |
//! | `func`    | Func           | handler registration glue |
//! | `timer`   | (threads)      | event-driven replacement for blocking threads |
//! | `unixnet` | Unixnet (Fig.4)| port binding + raw frame output, first-bind-wins |
//! | `bridgectl` | "access points" | port suppression, learning flush, counters |
//! | `switchctl` | (control's levers) | switchlet lifecycle inspection/control |

use std::rc::Rc;

use bytes::Bytes;
use ether::MacAddr;
use netsim::{Ctx, PortId, SimDuration};
use switchlet::{Env, FuncVal, HostDispatch, HostModuleSig, HostSlot, Ty, Value, VmError};

use crate::bridge::BridgeCommand;
use crate::plane::{DataPlaneSel, Plane};

/// The frame-handler function type: `(frame, in_port) -> unit`.
pub fn handler_ty() -> Ty {
    Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit)
}

/// The timer-callback type: `(token) -> unit`.
pub fn timer_cb_ty() -> Ty {
    Ty::func(vec![Ty::Int], Ty::Unit)
}

/// Build the thinned host environment every bridge offers.
pub fn host_env() -> Env {
    let mut env = Env::new();
    env.add_module(
        HostModuleSig::new("safestd").func("hash_string", Ty::func(vec![Ty::Str], Ty::Int)),
    );
    env.add_module(
        // Heavily thinned: time only. The implementation behind the
        // dispatcher also knows `system` and `open_file`; they are
        // excluded here, hence unnameable.
        HostModuleSig::new("safeunix").func("gettimeofday", Ty::func(vec![], Ty::Int)),
    );
    env.add_module(HostModuleSig::new("log").func("msg", Ty::func(vec![Ty::Str], Ty::Unit)));
    env.add_module(HostModuleSig::new("func").func(
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    ));
    env.add_module(HostModuleSig::new("timer").func(
        "set_timeout",
        Ty::func(vec![Ty::Int, Ty::Int, timer_cb_ty()], Ty::Unit),
    ));
    env.add_module(
        HostModuleSig::new("unixnet")
            .func("num_ports", Ty::func(vec![], Ty::Int))
            .func("bind_in", Ty::func(vec![Ty::Int], Ty::named("iport")))
            .func("bind_out", Ty::func(vec![Ty::Int], Ty::named("oport")))
            .func(
                "iport_to_oport",
                Ty::func(vec![Ty::named("iport")], Ty::named("oport")),
            )
            .func(
                "send_pkt_out",
                Ty::func(vec![Ty::named("oport"), Ty::Str], Ty::Int),
            )
            .func("unbind_in", Ty::func(vec![Ty::named("iport")], Ty::Unit))
            .func("unbind_out", Ty::func(vec![Ty::named("oport")], Ty::Unit)),
    );
    env.add_module(
        HostModuleSig::new("bridgectl")
            .func("register_addr", Ty::func(vec![Ty::Str, Ty::Str], Ty::Unit))
            .func(
                "set_port_forward",
                Ty::func(vec![Ty::Int, Ty::Bool], Ty::Unit),
            )
            .func(
                "set_port_learn",
                Ty::func(vec![Ty::Int, Ty::Bool], Ty::Unit),
            )
            .func("flush_learning", Ty::func(vec![], Ty::Unit))
            .func("counter_bump", Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit)),
    );
    env.add_module(
        HostModuleSig::new("switchctl")
            .func("is_running", Ty::func(vec![Ty::Str], Ty::Bool))
            .func("loaded", Ty::func(vec![Ty::Str], Ty::Bool))
            .func("suspend", Ty::func(vec![Ty::Str], Ty::Unit))
            .func("resume", Ty::func(vec![Ty::Str], Ty::Unit))
            .func("stop", Ty::func(vec![Ty::Str], Ty::Unit)),
    );
    env
}

/// The dispatch side, bound to one bridge during one VM invocation.
pub struct HostEnv<'a, 'w> {
    /// Simulator context.
    pub sim: &'a mut Ctx<'w>,
    /// Shared forwarding plane.
    pub plane: &'a mut Plane,
    /// Bridge command queue.
    pub cmds: &'a mut Vec<BridgeCommand>,
    /// Registered VM handlers (`module.key` → callable).
    pub vm_handlers: &'a mut std::collections::HashMap<String, FuncVal>,
    /// Callable → owning module (restores identity in callbacks).
    pub vm_owner: &'a mut std::collections::HashMap<FuncVal, Rc<str>>,
    /// Bridge station address.
    pub mac: MacAddr,
    /// Bridge name (logs).
    pub bridge_name: &'a str,
    /// The module being initialized, or the owner of the invoked
    /// callable ("" if unknown). Shared with `vm_owner`, so entering a
    /// handler is a refcount bump, not a name copy.
    pub module_name: Rc<str>,
}

fn str_arg(args: &[Value], i: usize) -> String {
    String::from_utf8_lossy(args[i].as_str()).into_owned()
}

/// Move a string argument out of the VM's argument slice — a `Bytes`
/// handle, so no byte is copied whoever else holds the buffer.
fn take_bytes(args: &mut [Value], i: usize) -> Bytes {
    match std::mem::replace(&mut args[i], Value::Unit) {
        Value::Str(b) => b,
        other => panic!("verifier invariant broken: expected str, got {other:?}"),
    }
}

/// The host functions of [`host_env`], identified by slot. The paper's
/// per-frame path pays one array-shaped integer match here — no string
/// comparison, no allocation (this is the PR 4 slot-indexed dispatch).
///
/// Variant order mirrors [`host_env`]'s registration order; the
/// `slot_table_matches_env_names` test pins the mapping to the names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum HostFn {
    HashString,
    GetTimeOfDay,
    LogMsg,
    RegisterHandler,
    SetTimeout,
    NumPorts,
    BindIn,
    BindOut,
    IportToOport,
    SendPktOut,
    UnbindIn,
    UnbindOut,
    RegisterAddr,
    SetPortForward,
    SetPortLearn,
    FlushLearning,
    CounterBump,
    IsRunning,
    Loaded,
    Suspend,
    Resume,
    Stop,
}

/// Map a resolved [`HostSlot`] to its implementation. Total over the
/// slots [`host_env`] can mint; anything else is a wiring bug.
fn host_fn(slot: HostSlot) -> Option<HostFn> {
    use HostFn::*;
    Some(match (slot.module, slot.item) {
        (0, 0) => HashString,
        (1, 0) => GetTimeOfDay,
        (2, 0) => LogMsg,
        (3, 0) => RegisterHandler,
        (4, 0) => SetTimeout,
        (5, 0) => NumPorts,
        (5, 1) => BindIn,
        (5, 2) => BindOut,
        (5, 3) => IportToOport,
        (5, 4) => SendPktOut,
        (5, 5) => UnbindIn,
        (5, 6) => UnbindOut,
        (6, 0) => RegisterAddr,
        (6, 1) => SetPortForward,
        (6, 2) => SetPortLearn,
        (6, 3) => FlushLearning,
        (6, 4) => CounterBump,
        (7, 0) => IsRunning,
        (7, 1) => Loaded,
        (7, 2) => Suspend,
        (7, 3) => Resume,
        (7, 4) => Stop,
        _ => return None,
    })
}

impl HostDispatch for HostEnv<'_, '_> {
    /// Slot-indexed dispatch: the per-frame path through the host
    /// boundary. `args` is the VM's scratch slice; string arguments are
    /// moved out as shared `Bytes`, never copied.
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError> {
        let Some(f) = host_fn(slot) else {
            let (m, i, _) = env.slot_names(slot);
            return Err(VmError::HostUnavailable(format!("{m}.{i}")));
        };
        self.invoke(f, args)
    }
}

impl HostEnv<'_, '_> {
    fn invoke(&mut self, f: HostFn, args: &mut [Value]) -> Result<Value, VmError> {
        match f {
            HostFn::HashString => {
                // FNV-1a, stable across runs.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in args[0].as_str().iter() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                Ok(Value::Int((h & 0x7FFF_FFFF_FFFF_FFFF) as i64))
            }
            HostFn::GetTimeOfDay => Ok(Value::Int((self.sim.now().as_ns() / 1_000_000) as i64)),
            HostFn::LogMsg => {
                let line = format!(
                    "{}: [{}] {}",
                    self.bridge_name,
                    if self.module_name.is_empty() {
                        "vm"
                    } else {
                        &self.module_name
                    },
                    str_arg(args, 0)
                );
                self.sim.trace(line);
                Ok(Value::Unit)
            }
            HostFn::RegisterHandler => {
                let key = str_arg(args, 0);
                let Value::Func(fv) = args[1] else {
                    return Err(VmError::Host("register_handler expects a function".into()));
                };
                let full = format!("{}.{}", self.module_name, key);
                self.vm_handlers.insert(full, fv);
                self.vm_owner.insert(fv, self.module_name.clone());
                if key == "switching" {
                    // Convention: registering "switching" installs this
                    // handler as the bridge's switching function —
                    // "this switchlet replaces the switching function".
                    self.plane.set_data_plane(DataPlaneSel::Vm(fv));
                }
                Ok(Value::Unit)
            }
            HostFn::SetTimeout => {
                let ms = args[0].as_int().max(0) as u64;
                let token = args[1].as_int();
                let Value::Func(fv) = args[2] else {
                    return Err(VmError::Host("set_timeout expects a function".into()));
                };
                self.vm_owner.insert(fv, self.module_name.clone());
                self.cmds.push(BridgeCommand::VmTimer {
                    callback: fv,
                    after: SimDuration::from_ms(ms),
                    token,
                });
                Ok(Value::Unit)
            }
            HostFn::NumPorts => Ok(Value::Int(self.plane.num_ports() as i64)),
            HostFn::BindIn => {
                let port = args[0].as_int();
                if port < 0 || port as usize >= self.plane.num_ports() {
                    return Err(VmError::Host("No_interface".into()));
                }
                if !self.plane.bind_in(port as usize, &self.module_name) {
                    // The paper's `Already_bound` exception.
                    return Err(VmError::Host("Already_bound".into()));
                }
                Ok(Value::handle("iport", port as u64))
            }
            HostFn::BindOut => {
                let port = args[0].as_int();
                if port < 0 || port as usize >= self.plane.num_ports() {
                    return Err(VmError::Host("No_interface".into()));
                }
                if !self.plane.bind_out(port as usize, &self.module_name) {
                    return Err(VmError::Host("Already_bound".into()));
                }
                Ok(Value::handle("oport", port as u64))
            }
            HostFn::IportToOport => {
                let id = args[0].as_handle("iport");
                Ok(Value::handle("oport", id))
            }
            HostFn::SendPktOut => {
                let id = args[0].as_handle("oport") as usize;
                if id >= self.plane.num_ports() {
                    return Err(VmError::Host("No_interface".into()));
                }
                // Moves the frame's `Bytes` out of the VM and sends it: a
                // frame the switchlet received goes back out as a refcount
                // bump of the same buffer — the data-plane boundary.
                let bytes = take_bytes(args, 1);
                let len = bytes.len();
                self.sim.send(PortId(id), bytes);
                Ok(Value::Int(len as i64))
            }
            HostFn::UnbindIn | HostFn::UnbindOut => {
                // Per-port unbind: release everything this module bound on
                // that port index (ownership is per name).
                self.plane.unbind_all(&self.module_name);
                Ok(Value::Unit)
            }
            HostFn::RegisterAddr => {
                let mac_bytes = args[0].as_str();
                let Some(addr) = MacAddr::from_slice(&mac_bytes[..]) else {
                    return Err(VmError::Host("register_addr: need 6 octets".into()));
                };
                let key = str_arg(args, 1);
                let full = format!("vm:{}.{}", self.module_name, key);
                self.plane.register_addr(addr, full);
                Ok(Value::Unit)
            }
            HostFn::SetPortForward => {
                let port = args[0].as_int() as usize;
                if port >= self.plane.num_ports() {
                    return Err(VmError::Host("No_interface".into()));
                }
                self.plane.set_port_forward(port, args[1].as_bool());
                Ok(Value::Unit)
            }
            HostFn::SetPortLearn => {
                let port = args[0].as_int() as usize;
                if port >= self.plane.num_ports() {
                    return Err(VmError::Host("No_interface".into()));
                }
                self.plane.set_port_learn(port, args[1].as_bool());
                Ok(Value::Unit)
            }
            HostFn::FlushLearning => {
                self.plane.learn.flush();
                Ok(Value::Unit)
            }
            HostFn::CounterBump => {
                let key = str_arg(args, 0);
                let n = args[1].as_int().max(0) as u64;
                self.sim.bump(&key, n);
                Ok(Value::Unit)
            }
            HostFn::IsRunning => Ok(Value::Bool(self.plane.is_running(&str_arg(args, 0)))),
            HostFn::Loaded => Ok(Value::Bool(self.plane.is_loaded(&str_arg(args, 0)))),
            HostFn::Suspend => {
                self.cmds.push(BridgeCommand::Suspend(str_arg(args, 0)));
                Ok(Value::Unit)
            }
            HostFn::Resume => {
                self.cmds.push(BridgeCommand::Resume(str_arg(args, 0)));
                Ok(Value::Unit)
            }
            HostFn::Stop => {
                self.cmds.push(BridgeCommand::Stop(str_arg(args, 0)));
                Ok(Value::Unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_exposes_expected_surface() {
        let env = host_env();
        assert!(env.lookup("log", "msg").is_some());
        assert!(env.lookup("unixnet", "send_pkt_out").is_some());
        assert!(env.lookup("switchctl", "is_running").is_some());
    }

    #[test]
    fn thinned_names_are_absent() {
        let env = host_env();
        assert!(env.lookup("safeunix", "system").is_none());
        assert!(env.lookup("safeunix", "open_file").is_none());
        assert!(env.lookup("unixnet", "set_promiscuous").is_none());
    }

    #[test]
    fn handler_type_is_frame_port_to_unit() {
        let env = host_env();
        let (_, ty) = env.lookup("func", "register_handler").unwrap();
        assert_eq!(*ty, Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit));
    }

    /// The integer slot table is order-coupled to [`host_env`]; this test
    /// pins every `(module, item)` pair to its `HostFn`, so reordering a
    /// registration without updating [`host_fn`] fails loudly.
    #[test]
    fn slot_table_matches_env_names() {
        use HostFn::*;
        let expected: &[(&str, &str, HostFn)] = &[
            ("safestd", "hash_string", HashString),
            ("safeunix", "gettimeofday", GetTimeOfDay),
            ("log", "msg", LogMsg),
            ("func", "register_handler", RegisterHandler),
            ("timer", "set_timeout", SetTimeout),
            ("unixnet", "num_ports", NumPorts),
            ("unixnet", "bind_in", BindIn),
            ("unixnet", "bind_out", BindOut),
            ("unixnet", "iport_to_oport", IportToOport),
            ("unixnet", "send_pkt_out", SendPktOut),
            ("unixnet", "unbind_in", UnbindIn),
            ("unixnet", "unbind_out", UnbindOut),
            ("bridgectl", "register_addr", RegisterAddr),
            ("bridgectl", "set_port_forward", SetPortForward),
            ("bridgectl", "set_port_learn", SetPortLearn),
            ("bridgectl", "flush_learning", FlushLearning),
            ("bridgectl", "counter_bump", CounterBump),
            ("switchctl", "is_running", IsRunning),
            ("switchctl", "loaded", Loaded),
            ("switchctl", "suspend", Suspend),
            ("switchctl", "resume", Resume),
            ("switchctl", "stop", Stop),
        ];
        let env = host_env();
        // Every registered item maps to the HostFn its name promises.
        let mut count = 0;
        for (mi, m) in env.modules().iter().enumerate() {
            for (ii, item) in m.items.iter().enumerate() {
                let slot = HostSlot {
                    module: mi as u16,
                    item: ii as u16,
                };
                let f = host_fn(slot)
                    .unwrap_or_else(|| panic!("no HostFn for {}.{}", m.name, item.name));
                let (em, ei, ef) = expected
                    .iter()
                    .find(|(em, ei, _)| *em == m.name && *ei == item.name)
                    .copied()
                    .unwrap_or_else(|| panic!("unexpected env item {}.{}", m.name, item.name));
                assert_eq!(f, ef, "{em}.{ei} mapped to the wrong HostFn");
                // And the borrowed-key lookup resolves to the same slot.
                let (looked, _) = env.lookup(&m.name, &item.name).unwrap();
                assert_eq!(looked, slot);
                count += 1;
            }
        }
        assert_eq!(count, expected.len(), "slot table drifted from host_env");
    }
}
