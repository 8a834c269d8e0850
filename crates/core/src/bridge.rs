//! The Active Bridge node.
//!
//! Implements the paper's Figure 5 pipeline on top of `netsim`: frames
//! arrive on promiscuous ports, pass through a single-server input queue
//! whose service time comes from the calibrated [`netsim::CostModel`]
//! (steps 2–6 of the seven-step path), and are then demultiplexed —
//! address-registered handlers first (spanning-tree groups, the loader's
//! own station address), then the installed *switching function* (the
//! dumb/learning switchlet, native or VM).
//!
//! Switchlets are managed exactly as the paper describes: loaded (from
//! "disk" at boot, or over the network through the TFTP loader), started,
//! suspended, resumed, and stopped; the control switchlet drives those
//! transitions through `switchctl` commands, which are queued during
//! dispatch and applied when the switchlet returns (a reentrancy
//! discipline the single-address-space Caml prototype got from its
//! cooperative threads).

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

use ether::{EtherType, Frame, MacAddr};
use netsim::{
    Ctx, FrameBuf, Node, Offer, PortId, ServiceQueue, SimDuration, TimerHandle, TimerToken,
};
use switchlet::{ExecConfig, FuncVal, Module, Namespace, Value, VmScratch};

use crate::config::BridgeConfig;
use crate::hostmods;
use crate::plane::{DataPlaneSel, Plane, SwitchletStatus};

/// Timer token kinds (top byte of the `u64`). Bits 48–55 carry the
/// bridge's crash epoch: a timer armed before a crash refers to state
/// that died with the old epoch, so `on_timer` drops any token whose
/// epoch disagrees with the current one.
const KIND_SERVICE: u64 = 0;
const KIND_SWITCHLET: u64 = 1;
const KIND_VM_TIMER: u64 = 2;
const KIND_STORM: u64 = 3;

/// Storm-control traffic classes (index into the per-port bucket pair).
const STORM_BROADCAST: usize = 0;
const STORM_UNKNOWN: usize = 1;

/// One admitted frame costs 10⁹ nano-tokens, so bucket refill
/// (`elapsed_ns × rate_pps`) stays in integer arithmetic.
const NANO_PER_FRAME: u64 = 1_000_000_000;

fn service_token(epoch: u8) -> TimerToken {
    TimerToken(KIND_SERVICE << 56 | (epoch as u64) << 48)
}

fn switchlet_token(epoch: u8, slot: usize, user: u32) -> TimerToken {
    debug_assert!(slot <= 0xFFFF, "switchlet slot overflows its token bits");
    TimerToken(KIND_SWITCHLET << 56 | (epoch as u64) << 48 | (slot as u64) << 32 | user as u64)
}

fn vm_timer_token(epoch: u8, idx: usize) -> TimerToken {
    TimerToken(KIND_VM_TIMER << 56 | (epoch as u64) << 48 | idx as u64)
}

fn storm_token(epoch: u8, port: usize, class: usize) -> TimerToken {
    debug_assert!(port <= 0xFFFF, "storm port overflows its token bits");
    TimerToken(KIND_STORM << 56 | (epoch as u64) << 48 | (class as u64) << 16 | port as u64)
}

/// Runtime state of one storm-control token bucket (one per armed
/// port-class). Volatile: dies with a crash like the rest of the plane.
#[derive(Copy, Clone)]
struct StormBucket {
    /// Nano-tokens remaining (one admitted frame spends [`NANO_PER_FRAME`]).
    tokens_nano: u64,
    /// Last refill instant.
    last: netsim::SimTime,
    /// Consecutive over-budget drops since the last admitted frame; at
    /// the configured trip count the port-class is suppressed.
    strikes: u32,
    /// Suppressed until the hold-down timer releases it.
    suppressed: bool,
}

/// A frame on the bridge's data path: the parsed Ethernet view together
/// with the refcounted buffer it was parsed from. Accessors come from
/// [`Frame`] via `Deref`; [`DataFrame::buf`] exposes the shared buffer so
/// forwarding a frame is a refcount bump, never a copy (the paper's
/// bridges must not modify frames, so sharing is always safe).
pub struct DataFrame<'a> {
    buf: &'a FrameBuf,
    view: Frame<'a>,
}

impl<'a> DataFrame<'a> {
    /// Validate and wrap a received buffer.
    pub fn parse(buf: &'a FrameBuf) -> Result<DataFrame<'a>, ether::FrameError> {
        Ok(DataFrame {
            buf,
            view: Frame::parse(buf)?,
        })
    }

    /// The refcounted frame buffer (clone it to forward zero-copy).
    pub fn buf(&self) -> &'a FrameBuf {
        self.buf
    }

    /// A shared handle to the frame contents (refcount bump).
    pub fn share(&self) -> FrameBuf {
        self.buf.clone()
    }

    /// The parsed Ethernet view.
    pub fn view(&self) -> &Frame<'a> {
        &self.view
    }
}

impl<'a> std::ops::Deref for DataFrame<'a> {
    type Target = Frame<'a>;
    fn deref(&self) -> &Frame<'a> {
        &self.view
    }
}

/// Commands a switchlet may queue against the bridge (applied after the
/// switchlet returns).
#[derive(Debug)]
pub enum BridgeCommand {
    /// Suspend a switchlet by name.
    Suspend(String),
    /// Resume a suspended switchlet.
    Resume(String),
    /// Halt a switchlet permanently.
    Stop(String),
    /// Load a switchlet image (native or VM) as if it arrived from the
    /// network.
    LoadImage(Vec<u8>),
    /// Arm a timer for a VM callback.
    VmTimer {
        /// Callback to invoke.
        callback: FuncVal,
        /// Delay.
        after: SimDuration,
        /// Token passed to the callback.
        token: i64,
    },
}

/// The services a native switchlet sees — ports, timers, the shared
/// plane, logging, and `switchctl`.
pub struct BridgeCtx<'a, 'w> {
    /// The underlying simulator context.
    pub sim: &'a mut Ctx<'w>,
    /// The shared forwarding plane (the "access points").
    pub plane: &'a mut Plane,
    /// Bridge configuration.
    pub cfg: &'a BridgeConfig,
    /// The bridge's station address.
    pub mac: MacAddr,
    /// The bridge's loader IP address.
    pub ip: Ipv4Addr,
    /// The bridge's name (for logs).
    pub bridge_name: &'a str,
    slot: usize,
    epoch: u8,
    cmds: &'a mut Vec<BridgeCommand>,
}

impl<'a, 'w> BridgeCtx<'a, 'w> {
    /// Current simulated time.
    pub fn now(&self) -> netsim::SimTime {
        self.sim.now()
    }

    /// Number of bridge ports.
    pub fn num_ports(&self) -> usize {
        self.plane.num_ports()
    }

    /// Transmit a frame out of `port`. Accepts a [`FrameBuf`] (or
    /// anything convertible); forwarding a received frame via
    /// [`DataFrame::share`] is zero-copy.
    pub fn send_frame(&mut self, port: PortId, frame: impl Into<FrameBuf>) {
        self.sim.send(port, frame);
    }

    /// Schedule a timer for this switchlet; `user` comes back in
    /// `on_timer`.
    pub fn schedule(&mut self, after: SimDuration, user: u32) -> TimerHandle {
        let slot = self.slot;
        self.sim
            .schedule(after, switchlet_token(self.epoch, slot, user))
    }

    /// Cancel a previously scheduled timer.
    pub fn cancel(&mut self, handle: TimerHandle) {
        self.sim.cancel(handle);
    }

    /// Append a log line attributed to this bridge.
    pub fn log(&mut self, msg: impl AsRef<str>) {
        let line = format!("{}: {}", self.bridge_name, msg.as_ref());
        self.sim.trace(line);
    }

    /// Queue a `switchctl` command.
    pub fn command(&mut self, cmd: BridgeCommand) {
        self.cmds.push(cmd);
    }
}

/// A native switchlet: the Rust-implemented counterpart of a Caml
/// switchlet, loaded through the same image format, digest checks and
/// lifecycle (see DESIGN.md §1 for the substitution rationale).
pub trait NativeSwitchlet: Any {
    /// The switchlet's unit name.
    fn name(&self) -> &'static str;
    /// Evaluated at load time (the "registration" forms).
    fn on_install(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// The switchlet was suspended by `switchctl`.
    fn on_suspend(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// The switchlet was resumed.
    fn on_resume(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// A frame whose destination address this switchlet registered for.
    fn on_registered_frame(
        &mut self,
        _bc: &mut BridgeCtx<'_, '_>,
        _port: PortId,
        _frame: &DataFrame<'_>,
    ) {
    }
    /// Invoked when this switchlet is the installed switching function.
    fn switch_frame(&mut self, _bc: &mut BridgeCtx<'_, '_>, _port: PortId, _frame: &DataFrame<'_>) {
    }
    /// A timer scheduled via [`BridgeCtx::schedule`] fired.
    fn on_timer(&mut self, _bc: &mut BridgeCtx<'_, '_>, _user: u32) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Parameters handed to a native switchlet factory.
pub struct NativeInit {
    /// Bridge configuration.
    pub cfg: BridgeConfig,
    /// Bridge station address.
    pub mac: MacAddr,
    /// Port count.
    pub n_ports: usize,
}

/// Creates a native switchlet instance.
pub type NativeFactory = Box<dyn Fn(&NativeInit) -> Box<dyn NativeSwitchlet>>;

enum SwitchletImpl {
    Native(Box<dyn NativeSwitchlet>),
    /// A VM module; its handlers live in `vm_handlers`.
    Vm,
}

/// Which `NativeSwitchlet` entry point a dispatch invokes.
#[derive(Copy, Clone)]
enum DispatchEntry {
    /// `on_registered_frame` (address-registered handlers).
    Registered,
    /// `switch_frame` (the installed switching function).
    Switch,
}

/// A resolved frame-dispatch target (plain indices/values, no borrowed or
/// cloned names, so resolution can happen under an immutable borrow and
/// dispatch under the mutable one).
#[derive(Copy, Clone)]
enum HandlerTarget {
    /// Loaded native switchlet, by slot index.
    Native(usize),
    /// VM handler function.
    Vm(FuncVal),
    /// No runnable handler.
    None,
}

struct Slot {
    name: String,
    imp: Option<SwitchletImpl>,
}

/// The Active Bridge node.
pub struct BridgeNode {
    name: String,
    mac: MacAddr,
    ip: Ipv4Addr,
    cfg: BridgeConfig,
    service: ServiceQueue<(PortId, FrameBuf)>,
    plane: Plane,
    slots: Vec<Slot>,
    by_name: HashMap<String, usize>,
    ns: Namespace,
    vm_handlers: HashMap<String, FuncVal>,
    vm_owner: HashMap<FuncVal, Rc<str>>,
    vm_timers: Vec<(FuncVal, i64)>,
    factories: HashMap<String, NativeFactory>,
    boot_images: Vec<Vec<u8>>,
    cmds: Vec<BridgeCommand>,
    /// Cumulative VM stats on this node.
    pub vm_instructions: u64,
    ports_known: bool,
    /// Reusable VM stack/locals arena: steady-state switchlet execution
    /// allocates nothing.
    vm_scratch: VmScratch,
    /// Memoized data-plane dispatch target, keyed by the plane's decision
    /// generation — the per-frame name lookups (`by_name` + status) run
    /// only when something that could change the answer happened.
    plane_target: Option<(u64, HandlerTarget)>,
    /// Crash epoch, stamped into every timer token so timers armed before
    /// a crash die with the state they referred to.
    epoch: u8,
    /// Watchdog: traps/fuel exhaustions per VM module since boot.
    trap_counts: HashMap<String, u32>,
    /// Modules the watchdog quarantined (never re-dispatched this epoch).
    quarantined: HashSet<String>,
    /// Storm-control buckets, `[broadcast, unknown-unicast]` per port,
    /// lazily materialized at first policed arrival. Volatile.
    storm: Vec<[Option<StormBucket>; 2]>,
}

impl BridgeNode {
    /// Create a bridge. `n_ports` must match the number of segments the
    /// scenario attaches it to.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        ip: Ipv4Addr,
        n_ports: usize,
        cfg: BridgeConfig,
    ) -> BridgeNode {
        let mut plane = Plane::new(n_ports, cfg.learn_age);
        plane.learn.reserve(cfg.expected_stations);
        plane.learn.set_bounds(cfg.learn_cap, cfg.learn_port_quota);
        let input_queue = cfg.input_queue;
        BridgeNode {
            name: name.into(),
            mac,
            ip,
            cfg,
            service: ServiceQueue::new(input_queue),
            plane,
            slots: Vec::new(),
            by_name: HashMap::new(),
            ns: Namespace::new(hostmods::host_env()),
            vm_handlers: HashMap::new(),
            vm_owner: HashMap::new(),
            vm_timers: Vec::new(),
            factories: crate::switchlets::default_factories(),
            boot_images: Vec::new(),
            cmds: Vec::new(),
            vm_instructions: 0,
            ports_known: false,
            vm_scratch: VmScratch::new(),
            plane_target: None,
            epoch: 0,
            trap_counts: HashMap::new(),
            quarantined: HashSet::new(),
            storm: Vec::new(),
        }
    }

    /// Queue a switchlet image for the boot loader ("the initial loader
    /// can only load switchlets from disk"). Loaded in order at start.
    pub fn boot_load(&mut self, image: Vec<u8>) {
        self.boot_images.push(image);
    }

    /// Convenience: boot-load a native switchlet by name (wraps it in an
    /// empty carrier module).
    pub fn boot_load_native(&mut self, name: &str) {
        let module = switchlet::ModuleBuilder::new(name).build();
        self.boot_images.push(module.encode());
    }

    /// The bridge's station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The bridge's loader IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Forwarding-plane access (for tests and experiment harnesses).
    pub fn plane(&self) -> &Plane {
        &self.plane
    }

    /// Mutable plane access (experiment setup).
    pub fn plane_mut(&mut self) -> &mut Plane {
        &mut self.plane
    }

    /// Register an additional native factory (e.g. defect-injected
    /// variants for the fallback experiment).
    pub fn register_factory(&mut self, name: &str, factory: NativeFactory) {
        self.factories.insert(name.to_owned(), factory);
    }

    /// Arm BPDU guard on `ports`. Guard ports differ per bridge even when
    /// the rest of the config is shared, so scenarios call this after
    /// construction; it must run before the world starts (switchlets
    /// snapshot the config when they install at boot).
    pub fn set_bpdu_guard(&mut self, ports: Vec<usize>) {
        self.cfg.bpdu_guard = ports;
    }

    /// The administrative interface: apply a `switchctl` command from
    /// outside the node (the paper: "Programming can be accomplished
    /// out-of-band, through an administrative interface, or in-band").
    /// Call through [`netsim::World::with_ctx`].
    pub fn administer(&mut self, ctx: &mut Ctx<'_>, cmd: BridgeCommand) {
        self.cmds.push(cmd);
        self.apply_cmds(ctx);
    }

    /// Inspect a loaded native switchlet by concrete type.
    pub fn switchlet<S: NativeSwitchlet>(&self, name: &str) -> Option<&S> {
        let idx = *self.by_name.get(name)?;
        match self.slots[idx].imp.as_ref()? {
            SwitchletImpl::Native(b) => b.as_any().downcast_ref::<S>(),
            SwitchletImpl::Vm => None,
        }
    }

    /// Status of a switchlet.
    pub fn switchlet_status(&self, name: &str) -> Option<SwitchletStatus> {
        self.plane.status_of(name)
    }

    /// Start accumulating per-function VM hot counters (call count and
    /// inclusive fuel) on this bridge — the JIT-tier promotion signal.
    /// Idempotent; profiling never changes results, fuel accounting or
    /// `ExecStats`.
    pub fn enable_vm_profile(&mut self) {
        self.vm_scratch.enable_profile();
    }

    /// The accumulated hot-function profile as
    /// `(module, function, counters)` lines in deterministic
    /// `(instance, func)` order. Empty when profiling was never enabled.
    pub fn hot_functions(&self) -> Vec<(String, String, switchlet::FuncHotCounters)> {
        let Some(profile) = self.vm_scratch.profile() else {
            return Vec::new();
        };
        profile
            .iter()
            .map(|(instance, func, c)| {
                let module = &self.ns.instance(instance).module;
                let fname = module
                    .functions
                    .get(func as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("fn{func}"));
                (module.name.clone(), fname, c)
            })
            .collect()
    }

    // ---------------------------------------------------------- dispatch

    fn with_slot(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        f: impl FnOnce(&mut dyn NativeSwitchlet, &mut BridgeCtx<'_, '_>),
    ) {
        let Some(imp) = self.slots[idx].imp.take() else {
            return; // re-entered (cannot happen with queued commands)
        };
        match imp {
            SwitchletImpl::Native(mut native) => {
                {
                    let mut bc = BridgeCtx {
                        sim: ctx,
                        plane: &mut self.plane,
                        cfg: &self.cfg,
                        mac: self.mac,
                        ip: self.ip,
                        bridge_name: &self.name,
                        slot: idx,
                        epoch: self.epoch,
                        cmds: &mut self.cmds,
                    };
                    f(native.as_mut(), &mut bc);
                }
                self.slots[idx].imp = Some(SwitchletImpl::Native(native));
            }
            SwitchletImpl::Vm => {
                self.slots[idx].imp = Some(SwitchletImpl::Vm);
            }
        }
    }

    fn call_vm<const N: usize>(&mut self, ctx: &mut Ctx<'_>, target: FuncVal, args: [Value; N]) {
        let exec = ExecConfig {
            fuel: self.cfg.vm_fuel,
            max_depth: 64,
        };
        let owner = self
            .vm_owner
            .get(&target)
            .cloned()
            .unwrap_or_else(|| Rc::from(""));
        ctx.probe_exec_begin();
        let mut env = hostmods::HostEnv {
            sim: ctx,
            plane: &mut self.plane,
            cmds: &mut self.cmds,
            vm_handlers: &mut self.vm_handlers,
            vm_owner: &mut self.vm_owner,
            mac: self.mac,
            bridge_name: &self.name,
            module_name: Rc::clone(&owner),
        };
        match switchlet::call_scratch(
            &self.ns,
            &mut env,
            target,
            args,
            &exec,
            &mut self.vm_scratch,
        ) {
            Ok((_, stats)) => {
                ctx.probe_exec_end(stats.instructions, stats.host_calls);
                self.vm_instructions += stats.instructions;
                self.plane.stats.vm_instructions += stats.instructions;
            }
            Err(e) => {
                // Contained: the switchlet invocation failed, the bridge
                // carries on (the paper's "protect itself from some
                // algorithmic failures").
                ctx.probe_exec_end(0, 0);
                let name = self.name.clone();
                ctx.trace(format!("{name}: vm switchlet trapped: {e}"));
                ctx.bump("bridge.vm_traps", 1);
                self.watchdog_trap(ctx, &owner);
            }
        }
    }

    // ----------------------------------------------------------- watchdog

    /// Record one trap against a VM module; at the configured threshold
    /// the watchdog quarantines it (see [`BridgeNode::quarantine`]).
    fn watchdog_trap(&mut self, ctx: &mut Ctx<'_>, module: &str) {
        let threshold = self.cfg.watchdog_traps;
        if threshold == 0 || module.is_empty() || self.quarantined.contains(module) {
            return;
        }
        let count = self.trap_counts.entry(module.to_owned()).or_insert(0);
        *count += 1;
        if *count >= threshold {
            self.quarantine(ctx, module);
        }
    }

    /// Quarantine a repeatedly-trapping module: stop it, release its port
    /// bindings and handlers, and — if it held the data plane — roll back
    /// to the last-known-good switching function, or to dumb flood
    /// forwarding as the final degraded tier, so traffic keeps flowing.
    fn quarantine(&mut self, ctx: &mut Ctx<'_>, module: &str) {
        self.quarantined.insert(module.to_owned());
        self.plane
            .set_status(module.to_owned(), SwitchletStatus::Stopped);
        self.plane.unbind_all(module);
        // Drop every handler the module registered: a quarantined
        // switchlet must never run again, on any path.
        let doomed: Vec<FuncVal> = self
            .vm_owner
            .iter()
            .filter(|&(_, owner)| &**owner == module)
            .map(|(&fv, _)| fv)
            .collect();
        self.vm_handlers.retain(|_, fv| !doomed.contains(fv));
        for fv in &doomed {
            self.vm_owner.remove(fv);
        }
        if self.sel_is_quarantined(&self.plane.data_plane().clone()) {
            // `None` (the bare-loader state) is not a known-good plane:
            // rolling back to it would blackhole traffic.
            let rollback = self
                .plane
                .prev_data_plane()
                .cloned()
                .filter(|sel| *sel != DataPlaneSel::None && !self.sel_is_quarantined(sel));
            let n = self.name.clone();
            match rollback {
                Some(sel) => {
                    ctx.trace(format!("{n}: watchdog rollback to last-known-good plane"));
                    self.plane.set_data_plane(sel);
                }
                None => {
                    ctx.trace(format!("{n}: watchdog fallback to dumb flood forwarding"));
                    use crate::switchlets::dumb;
                    if self.by_name.contains_key(dumb::NAME) {
                        // Already loaded (install_native would no-op):
                        // revive and reinstall it directly.
                        self.plane.set_status(dumb::NAME, SwitchletStatus::Running);
                        self.plane
                            .set_data_plane(DataPlaneSel::Native(dumb::NAME.into()));
                    } else {
                        self.install_native(ctx, dumb::NAME);
                    }
                }
            }
        }
        self.plane_target = None;
        ctx.bump("bridge.quarantines", 1);
        ctx.probe_quarantine();
        let n = self.name.clone();
        ctx.trace(format!("{n}: watchdog quarantined {module}"));
    }

    /// Does this data-plane selection belong to a quarantined module? A
    /// VM handler whose owner is unknown (already evicted) counts as
    /// quarantined — it must not be rolled back to.
    fn sel_is_quarantined(&self, sel: &DataPlaneSel) -> bool {
        match sel {
            DataPlaneSel::None => false,
            DataPlaneSel::Native(name) => self.quarantined.contains(name),
            DataPlaneSel::Vm(fv) => self
                .vm_owner
                .get(fv)
                .is_none_or(|owner| self.quarantined.contains(&**owner)),
        }
    }

    /// Has the watchdog quarantined this module?
    pub fn is_quarantined(&self, module: &str) -> bool {
        self.quarantined.contains(module)
    }

    /// Resolve a handler name to an invocable target without holding (or
    /// cloning) any borrowed strings — the hot path must not allocate.
    fn resolve_handler(&self, name: &str) -> HandlerTarget {
        if let Some(key) = name.strip_prefix("vm:") {
            return match self.vm_handlers.get(key) {
                Some(&fv) => HandlerTarget::Vm(fv),
                None => HandlerTarget::None,
            };
        }
        match self.by_name.get(name) {
            Some(&idx) if self.plane.is_running(name) => HandlerTarget::Native(idx),
            _ => HandlerTarget::None,
        }
    }

    /// Invoke a resolved target with one frame: VM handlers get the
    /// frame's shared buffer as a `Value::Str` (a refcount bump — the VM
    /// boundary copies nothing), native switchlets get the already-parsed
    /// [`DataFrame`] view (frames are parsed once per arrival, in
    /// [`BridgeNode::process_frame`]). `entry` selects which trait method
    /// the native path calls.
    fn dispatch_target(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: HandlerTarget,
        port: PortId,
        frame: &DataFrame<'_>,
        entry: DispatchEntry,
    ) {
        match target {
            HandlerTarget::Vm(fv) => {
                let args = [
                    Value::Str(frame.buf().as_bytes().clone()),
                    Value::Int(port.0 as i64),
                ];
                self.call_vm(ctx, fv, args);
            }
            HandlerTarget::Native(idx) => {
                self.with_slot(ctx, idx, |s, bc| match entry {
                    DispatchEntry::Registered => s.on_registered_frame(bc, port, frame),
                    DispatchEntry::Switch => s.switch_frame(bc, port, frame),
                });
            }
            HandlerTarget::None => {}
        }
    }

    fn dispatch_registered(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: HandlerTarget,
        port: PortId,
        frame: &DataFrame<'_>,
    ) {
        self.dispatch_target(ctx, target, port, frame, DispatchEntry::Registered);
    }

    fn dispatch_data_plane(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &DataFrame<'_>) {
        // Resolve the switching function once per decision generation: in
        // steady state this is a compare, not two string-keyed hash
        // lookups per frame.
        let gen = self.plane.generation();
        let target = match self.plane_target {
            Some((g, t)) if g == gen => t,
            _ => {
                let t = match self.plane.data_plane() {
                    DataPlaneSel::None => HandlerTarget::None,
                    DataPlaneSel::Native(name) => match self.by_name.get(name) {
                        Some(&idx) if self.plane.is_running(name) => HandlerTarget::Native(idx),
                        _ => HandlerTarget::None,
                    },
                    DataPlaneSel::Vm(fv) => HandlerTarget::Vm(*fv),
                };
                self.plane_target = Some((gen, t));
                t
            }
        };
        if matches!(target, HandlerTarget::None) {
            self.plane.stats.no_plane += 1;
            return;
        }
        self.dispatch_target(ctx, target, port, frame, DispatchEntry::Switch);
    }

    /// The demultiplexer (Figure 5 step 4 entry): address-registered
    /// handlers first, then the switching function.
    fn process_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        // One parse per arrival; every consumer below shares the view.
        let Ok(parsed) = DataFrame::parse(&frame) else {
            return;
        };
        let (dst, ethertype) = (parsed.dst(), parsed.ethertype());
        if let Some(target) = self
            .plane
            .addr_handler(dst)
            .map(|name| self.resolve_handler(name))
        {
            self.plane.stats.registered += 1;
            self.dispatch_registered(ctx, target, port, &parsed);
            self.apply_cmds(ctx);
            return;
        }
        // The loader endpoint also hears broadcast ARP (hosts resolving
        // the bridge's loader address); the frame is still bridged.
        if dst.is_broadcast() && ethertype == EtherType::ARP {
            if let Some(target) = self
                .plane
                .addr_handler(self.mac)
                .map(|name| self.resolve_handler(name))
            {
                self.plane.stats.to_loader += 1;
                self.dispatch_registered(ctx, target, port, &parsed);
            }
        }
        // Storm control polices flooded classes ahead of the switching
        // function: a dropped frame is never switched and never learned.
        if self.police_frame(ctx, port, &parsed) {
            self.apply_cmds(ctx);
            return;
        }
        self.dispatch_data_plane(ctx, port, &parsed);
        self.apply_cmds(ctx);
    }

    /// The storm-control stage: deterministic per-port token buckets for
    /// broadcast/multicast and unknown-unicast ingress. Returns `true`
    /// when the frame must be dropped (port-class suppressed, or over
    /// budget). Known unicast exits on one learned port — it cannot
    /// storm — and is never policed.
    fn police_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &DataFrame<'_>) -> bool {
        if self.cfg.storm_broadcast.is_none() && self.cfg.storm_unknown.is_none() {
            return false;
        }
        let now = ctx.now();
        let dst = frame.dst();
        let (class, class_cfg) = if dst.is_multicast() {
            (STORM_BROADCAST, self.cfg.storm_broadcast)
        } else if self.plane.learn.peek(dst, now) {
            return false;
        } else {
            (STORM_UNKNOWN, self.cfg.storm_unknown)
        };
        let Some(scfg) = class_cfg else {
            return false;
        };
        if self.storm.len() <= port.0 {
            self.storm.resize(port.0 + 1, [None; 2]);
        }
        let bucket = self.storm[port.0][class].get_or_insert(StormBucket {
            tokens_nano: scfg.burst.saturating_mul(NANO_PER_FRAME),
            last: now,
            strikes: 0,
            suppressed: false,
        });
        if bucket.suppressed {
            return true;
        }
        let elapsed = now.saturating_since(bucket.last).as_ns();
        bucket.last = now;
        bucket.tokens_nano = bucket
            .tokens_nano
            .saturating_add(elapsed.saturating_mul(scfg.rate_pps))
            .min(scfg.burst.saturating_mul(NANO_PER_FRAME));
        if bucket.tokens_nano >= NANO_PER_FRAME {
            bucket.tokens_nano -= NANO_PER_FRAME;
            bucket.strikes = 0;
            return false;
        }
        bucket.strikes += 1;
        if bucket.strikes >= scfg.trip {
            bucket.suppressed = true;
            bucket.strikes = 0;
            self.plane.stats.storm_suppressions += 1;
            ctx.bump("bridge.storm_suppressions", 1);
            ctx.probe_port_suppressed(port);
            ctx.schedule(scfg.hold_down, storm_token(self.epoch, port.0, class));
            let n = self.name.clone();
            let cls = if class == STORM_BROADCAST {
                "broadcast"
            } else {
                "unknown-unicast"
            };
            ctx.trace(format!(
                "{n}: storm control suppressed port {} ({cls})",
                port.0
            ));
        }
        true
    }

    // ------------------------------------------------------ switchlet mgmt

    fn install_native(&mut self, ctx: &mut Ctx<'_>, name: &str) {
        if self.by_name.contains_key(name) {
            let n = self.name.clone();
            ctx.trace(format!("{n}: switchlet {name} already loaded"));
            return;
        }
        let Some(factory) = self.factories.get(name) else {
            let n = self.name.clone();
            ctx.trace(format!("{n}: no native implementation for {name}"));
            self.plane.stats.images_rejected += 1;
            return;
        };
        let init = NativeInit {
            cfg: self.cfg.clone(),
            mac: self.mac,
            n_ports: self.plane.num_ports(),
        };
        let imp = factory(&init);
        let idx = self.slots.len();
        self.slots.push(Slot {
            name: name.to_owned(),
            imp: Some(SwitchletImpl::Native(imp)),
        });
        self.by_name.insert(name.to_owned(), idx);
        self.plane.set_status(name, SwitchletStatus::Running);
        let n = self.name.clone();
        ctx.trace(format!("{n}: installed switchlet {name}"));
        self.with_slot(ctx, idx, |s, bc| s.on_install(bc));
    }

    fn load_image(&mut self, ctx: &mut Ctx<'_>, image: &[u8]) {
        // Decode first so digest/tamper checks apply to native carriers
        // exactly as to VM modules.
        let module = match Module::decode(image) {
            Ok(m) => m,
            Err(e) => {
                let n = self.name.clone();
                ctx.trace(format!("{n}: rejected switchlet image: {e}"));
                self.plane.stats.images_rejected += 1;
                return;
            }
        };
        self.plane.stats.images_loaded += 1;
        if self.factories.contains_key(module.name.as_str()) && module.functions.is_empty() {
            let name = module.name.clone();
            self.install_native(ctx, &name);
            return;
        }
        // A real VM module: link, verify, run its init.
        let exec = ExecConfig {
            fuel: self.cfg.vm_fuel,
            max_depth: 64,
        };
        let name = module.name.clone();
        let image_owned = image.to_vec();
        let mut env = hostmods::HostEnv {
            sim: ctx,
            plane: &mut self.plane,
            cmds: &mut self.cmds,
            vm_handlers: &mut self.vm_handlers,
            vm_owner: &mut self.vm_owner,
            mac: self.mac,
            bridge_name: &self.name,
            module_name: Rc::from(name.as_str()),
        };
        match self.ns.load_and_init(&image_owned, &mut env, &exec) {
            Ok((_, stats)) => {
                self.vm_instructions += stats.instructions;
                let idx = self.slots.len();
                self.slots.push(Slot {
                    name: name.clone(),
                    imp: Some(SwitchletImpl::Vm),
                });
                self.by_name.insert(name.clone(), idx);
                self.plane
                    .set_status(name.clone(), SwitchletStatus::Running);
                let n = self.name.clone();
                ctx.trace(format!("{n}: loaded vm switchlet {name}"));
            }
            Err(e) => {
                self.plane.stats.images_rejected += 1;
                self.plane.stats.images_loaded -= 1;
                let n = self.name.clone();
                ctx.trace(format!("{n}: rejected switchlet {name}: {e}"));
                ctx.bump("bridge.load_rejects", 1);
            }
        }
    }

    fn apply_cmds(&mut self, ctx: &mut Ctx<'_>) {
        while !self.cmds.is_empty() {
            let batch: Vec<BridgeCommand> = self.cmds.drain(..).collect();
            for cmd in batch {
                match cmd {
                    BridgeCommand::Suspend(name) => {
                        if let Some(&idx) = self.by_name.get(&name) {
                            if self.plane.is_running(&name) {
                                self.plane
                                    .set_status(name.clone(), SwitchletStatus::Suspended);
                                self.with_slot(ctx, idx, |s, bc| s.on_suspend(bc));
                                let n = self.name.clone();
                                ctx.trace(format!("{n}: suspended {name}"));
                            }
                        }
                    }
                    BridgeCommand::Resume(name) => {
                        if let Some(&idx) = self.by_name.get(&name) {
                            if self.plane.status_of(&name) == Some(SwitchletStatus::Suspended) {
                                self.plane
                                    .set_status(name.clone(), SwitchletStatus::Running);
                                self.with_slot(ctx, idx, |s, bc| s.on_resume(bc));
                                let n = self.name.clone();
                                ctx.trace(format!("{n}: resumed {name}"));
                            }
                        }
                    }
                    BridgeCommand::Stop(name) => {
                        if self.by_name.contains_key(&name) {
                            self.plane
                                .set_status(name.clone(), SwitchletStatus::Stopped);
                            let n = self.name.clone();
                            ctx.trace(format!("{n}: stopped {name}"));
                        }
                    }
                    BridgeCommand::LoadImage(image) => {
                        self.load_image(ctx, &image);
                    }
                    BridgeCommand::VmTimer {
                        callback,
                        after,
                        token,
                    } => {
                        let idx = self.vm_timers.len();
                        self.vm_timers.push((callback, token));
                        ctx.schedule(after, vm_timer_token(self.epoch, idx));
                    }
                }
            }
        }
    }
}

impl Node for BridgeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(
            ctx.num_ports(),
            self.plane.num_ports(),
            "bridge {} configured for {} ports but attached to {}",
            self.name,
            self.plane.num_ports(),
            ctx.num_ports()
        );
        self.ports_known = true;
        // The boot loader: load the "disk" images in order. They are
        // retained (not drained) so a crash-restart can replay the same
        // cold boot.
        let images = self.boot_images.clone();
        for image in images {
            self.load_image(ctx, &image);
            self.apply_cmds(ctx);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile state dies with the power: the forwarding tables and
        // decision cache (inside `plane`), STP engine state (inside the
        // STP switchlet instance), queued frames, VM instances and
        // scratch, pending commands, and the watchdog's history. The
        // epoch bump orphans every timer already in flight.
        self.epoch = self.epoch.wrapping_add(1);
        self.service = ServiceQueue::new(self.cfg.input_queue);
        let mut plane = Plane::new(self.plane.num_ports(), self.cfg.learn_age);
        plane.learn.reserve(self.cfg.expected_stations);
        plane
            .learn
            .set_bounds(self.cfg.learn_cap, self.cfg.learn_port_quota);
        self.plane = plane;
        self.plane_target = None;
        self.storm.clear();
        self.slots.clear();
        self.by_name.clear();
        self.ns = Namespace::new(hostmods::host_env());
        self.vm_handlers.clear();
        self.vm_owner.clear();
        self.vm_timers.clear();
        self.cmds.clear();
        self.trap_counts.clear();
        self.quarantined.clear();
        let profiling = self.vm_scratch.profile().is_some();
        self.vm_scratch = VmScratch::new();
        if profiling {
            self.vm_scratch.enable_profile();
        }
        let n = self.name.clone();
        ctx.trace(format!("{n}: crashed (volatile state lost)"));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.name.clone();
        ctx.trace(format!("{n}: restarting from boot images"));
        // Cold boot: exactly the `on_start` load sequence, replayed
        // against the fresh state `on_crash` left behind.
        let images = self.boot_images.clone();
        for image in images {
            self.load_image(ctx, &image);
            self.apply_cmds(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.plane.stats.frames_in += 1;
        let service_time = self.cfg.cost.service_time(frame.len());
        // Null-event elision, as on the host receive path: a zero-cost
        // software path with an idle input queue forwards synchronously
        // instead of bouncing through a zero-delay service timer.
        // Calibrated cost models (the paper's bridges) still serialize
        // through the single-server queue.
        if service_time.is_zero() && self.service.head().is_none() {
            self.process_frame(ctx, port, frame);
            return;
        }
        match self.service.offer((port, frame)) {
            Offer::Started => {
                ctx.schedule(service_time, service_token(self.epoch));
            }
            Offer::Queued => {}
            Offer::Dropped => {
                self.plane.stats.queue_drops += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if ((token.0 >> 48) & 0xFF) as u8 != self.epoch {
            // Armed before a crash: the queue entry, slot or VM timer it
            // referred to died with the old epoch.
            return;
        }
        let kind = token.0 >> 56;
        match kind {
            KIND_SERVICE => {
                let ((port, frame), next) = self.service.complete();
                if let Some((_, next_frame)) = next {
                    let t = self.cfg.cost.service_time(next_frame.len());
                    ctx.schedule(t, service_token(self.epoch));
                }
                self.process_frame(ctx, port, frame);
            }
            KIND_SWITCHLET => {
                let slot = ((token.0 >> 32) & 0xFFFF) as usize;
                let user = (token.0 & 0xFFFF_FFFF) as u32;
                if slot < self.slots.len() {
                    let name = self.slots[slot].name.clone();
                    if self.plane.is_running(&name) {
                        // A timer handler may mutate decision inputs the
                        // plane cannot see (switchlet-private state), so
                        // every delivery invalidates cached verdicts.
                        self.plane.bump_generation();
                        self.with_slot(ctx, slot, |s, bc| s.on_timer(bc, user));
                    }
                }
                self.apply_cmds(ctx);
            }
            KIND_VM_TIMER => {
                let idx = (token.0 & 0xFFFF_FFFF) as usize;
                if let Some((fv, user)) = self.vm_timers.get(idx).copied() {
                    self.plane.bump_generation();
                    self.call_vm(ctx, fv, [Value::Int(user)]);
                }
                self.apply_cmds(ctx);
            }
            KIND_STORM => {
                let port = (token.0 & 0xFFFF) as usize;
                let class = ((token.0 >> 16) & 0xFF) as usize;
                let scfg = if class == STORM_BROADCAST {
                    self.cfg.storm_broadcast
                } else {
                    self.cfg.storm_unknown
                };
                if let (Some(scfg), Some(bucket)) = (
                    scfg,
                    self.storm
                        .get_mut(port)
                        .and_then(|classes| classes.get_mut(class))
                        .and_then(|slot| slot.as_mut()),
                ) {
                    if bucket.suppressed {
                        // Hold-down expired: re-enable with a full bucket
                        // so a still-running storm re-trips cleanly
                        // instead of flapping per frame.
                        bucket.suppressed = false;
                        bucket.strikes = 0;
                        bucket.tokens_nano = scfg.burst.saturating_mul(NANO_PER_FRAME);
                        bucket.last = ctx.now();
                        ctx.bump("bridge.storm_releases", 1);
                        ctx.probe_port_released(PortId(port));
                        let n = self.name.clone();
                        ctx.trace(format!("{n}: storm control released port {port}"));
                    }
                }
            }
            _ => unreachable!("unknown bridge timer kind {kind}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
