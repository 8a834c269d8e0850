//! What one batch of a workload measured, and the pieces shared by the
//! world-building workloads.

use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::{Node, NodeId, World};

use crate::spans::{window, Layer, Recorder, Totals, Traced};

/// Counts read from the worlds after a batch (no timing involved, so the
/// untraced and traced runs see the same values).
#[derive(Copy, Clone, Debug, Default)]
pub struct Counts {
    /// Frames delivered to node ports over the worlds' whole lives.
    pub delivered: u64,
    /// Frames that completed serialization on some wire.
    pub wire_frames: u64,
    /// Deepest transmit queue any segment reached.
    pub peak_queue: u64,
    /// Frames dropped at a full transmit queue.
    pub queue_drops: u64,
    /// Most pending events seen at a slice boundary.
    pub pending_peak: u64,
    /// Frames bridges accepted into their input queues.
    pub bridge_frames_in: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub vm_instructions: u64,
    /// From the VM hot-function profile (traced runs only).
    pub hot_calls: u64,
    pub hot_fuel: u64,
    /// TCP data frames sent, and the fewest the transfers could take.
    pub tcp_frames: u64,
    pub tcp_min_frames: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.delivered += o.delivered;
        self.wire_frames += o.wire_frames;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.queue_drops += o.queue_drops;
        self.pending_peak = self.pending_peak.max(o.pending_peak);
        self.bridge_frames_in += o.bridge_frames_in;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.vm_instructions += o.vm_instructions;
        self.hot_calls += o.hot_calls;
        self.hot_fuel += o.hot_fuel;
        self.tcp_frames += o.tcp_frames;
        self.tcp_min_frames += o.tcp_min_frames;
    }

    /// The medium counters of a finished world.
    pub fn of_world(world: &World) -> Counts {
        let stats = world.stats();
        Counts {
            delivered: stats.frames_delivered,
            wire_frames: stats.total_tx_frames(),
            peak_queue: stats
                .segments
                .iter()
                .map(|s| s.counters.peak_queue)
                .max()
                .unwrap_or(0),
            queue_drops: stats.total_queue_drops(),
            ..Counts::default()
        }
    }
}

/// One batch: the fixed unit of work a workload repeats.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// The measured phase.
    pub wall_ns: u64,
    /// Set-up (building and booting the worlds, run to first traffic) and
    /// the measured phase, split into the batch's units: a world, or one
    /// sweep of one base seed, in batch order. Every batch has the same
    /// units, so one unit's times compare across batches.
    pub unit_setup_ns: Vec<u64>,
    pub unit_ns: Vec<u64>,
    /// Frames delivered to node ports in the measured phase.
    pub frames: u64,
    /// Allocation calls in the measured phase.
    pub allocs: u64,
    /// Per world (scenario): wall time from its start to its verdict.
    pub job_ns: Vec<u64>,
    /// Per world: time from the start of the measured phase until the
    /// world began running.
    pub queue_wait_ns: Vec<u64>,
    /// Worker threads the measured phase ran on.
    pub workers: u64,
    /// Per-battery job times (sweeps only).
    pub battery_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Operations attempted and failed (see the workload for what an
    /// operation is), with the failures broken down by cause.
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<String, u64>,
    /// Output checks the benchmark itself could not pass.
    pub check_errors: Vec<String>,
    /// Digest of the simulated behaviour.
    pub digest: u64,
    pub counts: Counts,
    /// Recorder totals over the measured phase (zeros when untraced).
    pub measured: [Totals; 5],
}

impl Batch {
    pub fn fail(&mut self, cause: impl Into<String>) {
        self.failed += 1;
        *self.failures.entry(cause.into()).or_default() += 1;
    }
}

/// Add `node` to `world`, wrapped in a [`Traced`] of `layer` when a
/// recorder is given.
pub fn add_node<N: Node>(
    world: &mut World,
    node: N,
    layer: Layer,
    rec: Option<&Rc<Recorder>>,
) -> NodeId {
    match rec {
        Some(rec) => world.add_node(Traced::new(node, layer, rec.clone())),
        None => world.add_node(node),
    }
}

/// Time the measured phase `f` of `batch`: wall time, allocation calls,
/// and the recorder's per-layer totals over it.
pub fn measure<R>(batch: &mut Batch, rec: Option<&Rc<Recorder>>, f: impl FnOnce() -> R) -> R {
    let before = rec.map(|r| r.snapshot());
    let allocs = crate::heap::calls();
    let t = std::time::Instant::now();
    let r = f();
    batch.wall_ns = t.elapsed().as_nanos() as u64;
    batch.allocs = crate::heap::calls() - allocs;
    if let (Some(rec), Some(before)) = (rec, before) {
        batch.measured = window(before, rec.snapshot());
    }
    r
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a sequence of digests.
pub fn fold_digests(parts: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = parts.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv(&bytes)
}
