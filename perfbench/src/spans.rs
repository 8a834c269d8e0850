//! The traced run's recorder: spans around every call the benchmark makes
//! into a layer, timed from outside the program.
//!
//! Node callbacks are wrapped by [`Traced`], a delegating [`Node`]; world
//! slices, topology generation and switchlet loads are wrapped by
//! [`Recorder::span`] at their call sites. A world dispatches one node
//! callback at a time, so callback spans never nest in each other; they
//! nest only inside the `netsim` slice that dispatched them.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use netsim::{Ctx, FrameBuf, Node, PortId, TimerToken};

use crate::heap;

/// The layers, named after the crates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Event queue plus medium: one span per world slice.
    Netsim = 0,
    /// `BridgeNode` callbacks: dispatch, decision cache, switchlets.
    Core = 1,
    /// Bytecode decode, verify and link of a switchlet image.
    Switchlet = 2,
    /// `HostNode` callbacks: the host stack and `netstack`.
    Hostsim = 3,
    /// Topology and workload generation.
    Scenario = 4,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim",
            Layer::Core => "core",
            Layer::Switchlet => "switchlet",
            Layer::Hostsim => "hostsim",
            Layer::Scenario => "scenario",
        }
    }
}

/// Per-layer totals over every span recorded.
#[derive(Copy, Clone, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Totals {
    pub fn plus(self, o: Totals) -> Totals {
        Totals {
            calls: self.calls + o.calls,
            ns: self.ns + o.ns,
            allocs: self.allocs + o.allocs,
        }
    }

    /// What was recorded between snapshots `before` and `self`.
    pub fn since(self, before: Totals) -> Totals {
        Totals {
            calls: self.calls - before.calls,
            ns: self.ns - before.ns,
            allocs: self.allocs - before.allocs,
        }
    }
}

/// Per-layer `after - before`.
pub fn window(before: [Totals; 5], after: [Totals; 5]) -> [Totals; 5] {
    std::array::from_fn(|i| after[i].since(before[i]))
}

/// One recorded span, offsets from the recorder's origin.
#[derive(Copy, Clone, Debug)]
struct Span {
    layer: Layer,
    run: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory for the dump; later spans still count in the
/// totals. 2^18 spans are 8 MiB.
const SPAN_CAP: usize = 1 << 18;

/// Collects spans and per-layer totals for one traced run.
pub struct Recorder {
    origin: Instant,
    run: Cell<u32>,
    totals: [Cell<Totals>; 5],
    spans: RefCell<Vec<Span>>,
    spans_seen: Cell<u64>,
}

/// A started span; [`Recorder::end`] closes it.
pub struct Open {
    start: Instant,
    allocs: u64,
}

impl Recorder {
    pub fn new() -> Rc<Recorder> {
        Rc::new(Recorder {
            origin: Instant::now(),
            run: Cell::new(0),
            totals: Default::default(),
            spans: RefCell::new(Vec::with_capacity(SPAN_CAP)),
            spans_seen: Cell::new(0),
        })
    }

    /// Tag the following spans with run (batch) id `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    pub fn begin(&self) -> Open {
        Open {
            allocs: heap::calls(),
            start: Instant::now(),
        }
    }

    pub fn end(&self, layer: Layer, open: Open) {
        let end = Instant::now();
        let allocs = heap::calls() - open.allocs;
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let slot = &self.totals[layer as usize];
        let mut t = slot.get();
        t.calls += 1;
        t.ns += ns;
        t.allocs += allocs;
        slot.set(t);
        self.spans_seen.set(self.spans_seen.get() + 1);
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                layer,
                run: self.run.get(),
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let open = self.begin();
        let r = f();
        self.end(layer, open);
        r
    }

    /// Count `calls` spans of `layer` lasting `ns` in total that were
    /// timed elsewhere (the exec pool's own job profile).
    pub fn add_external(&self, layer: Layer, calls: u64, ns: u64) {
        let slot = &self.totals[layer as usize];
        let mut t = slot.get();
        t.calls += calls;
        t.ns += ns;
        slot.set(t);
    }

    /// Every layer's totals at this instant, indexed by [`Layer`].
    pub fn snapshot(&self) -> [Totals; 5] {
        self.totals.each_ref().map(Cell::get)
    }

    /// The kept spans as tab-separated `layer run start_ns end_ns` lines,
    /// preceded by a header that states how many spans were dropped.
    pub fn dump(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = format!(
            "# spans kept {} of {}\nlayer\trun\tstart_ns\tend_ns\n",
            spans.len(),
            self.spans_seen.get()
        );
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.layer.label(),
                s.run,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// A delegating node that records a span of `layer` around every
/// callback. `as_any` reaches the inner node, so `World::node::<N>` still
/// downcasts to `N`.
pub struct Traced<N> {
    inner: N,
    layer: Layer,
    rec: Rc<Recorder>,
}

impl<N> Traced<N> {
    pub fn new(inner: N, layer: Layer, rec: Rc<Recorder>) -> Traced<N> {
        Traced { inner, layer, rec }
    }

    fn around(&mut self, f: impl FnOnce(&mut N)) {
        let open = self.rec.begin();
        f(&mut self.inner);
        self.rec.end(self.layer, open);
    }
}

impl<N: Node> Node for Traced<N> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.around(|n| n.on_start(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.around(|n| n.on_frame(ctx, port, frame));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.around(|n| n.on_timer(ctx, token));
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.around(|n| n.on_crash(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.around(|n| n.on_restart(ctx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
