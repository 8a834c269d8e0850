//! The workloads whose worlds the benchmark builds itself, so the traced
//! run can wrap every node: `ttcp_native`, `ttcp_vm` and `metro_flood`.

use std::rc::Rc;
use std::time::Instant;

use ab_scenario::runner::trace_digest;
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::{bridge_ip, bridge_mac, host_ip, host_mac, lans};
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{App, BlastApp, HostConfig, HostCostModel, HostNode, TtcpRecvApp, TtcpSendApp};
use netsim::{CostModel, NodeId, PortId, SegId, SegmentConfig, SimDuration, SimTime, World};
use netstack::tcplite::{ReceiverConfig, SenderConfig};
use switchlet::{Module, Namespace};

use crate::batch::{add_node, fold_digests, measure, Batch, Counts};
use crate::spans::{Layer, Recorder};

/// The slice the benchmark advances worlds by; pending events are sampled
/// at slice boundaries.
const SLICE: SimDuration = SimDuration::from_ms(50);

/// A world plus the bridges in it.
struct Built {
    world: World,
    bridges: Vec<NodeId>,
}

impl Built {
    /// Advance one slice, inside a `netsim` span when traced; returns the
    /// pending-event count after it.
    fn slice(&mut self, rec: Option<&Rc<Recorder>>) -> u64 {
        match rec {
            Some(rec) => rec.span(Layer::Netsim, || self.world.run_for(SLICE)),
            None => self.world.run_for(SLICE),
        }
        self.world.pending_events() as u64
    }

    /// Bridge counters, plus the VM hot profile when it was enabled.
    fn bridge_counts(&self) -> Counts {
        let mut c = Counts::default();
        for &b in &self.bridges {
            let node = self.world.node::<BridgeNode>(b);
            let s = &node.plane().stats;
            c.bridge_frames_in += s.frames_in;
            c.cache_hits += s.cache_hits;
            c.cache_misses += s.cache_misses;
            c.vm_instructions += s.vm_instructions;
            for (_, _, hot) in node.hot_functions() {
                c.hot_calls += hot.calls;
                c.hot_fuel += hot.fuel;
            }
        }
        c
    }
}

/// An empty carrier module naming a native switchlet: what
/// `BridgeNode::boot_load_native` loads.
pub fn carrier(name: &str) -> Vec<u8> {
    switchlet::ModuleBuilder::new(name).build().encode()
}

/// A bridge booting `images` in order, added to `world` and attached to
/// `segs`. In a traced run, each image first goes through the public
/// decode (and, for bytecode modules, link + verify) calls in a
/// `switchlet` span — the same work the bridge's boot loader does with it.
fn bridge(
    world: &mut World,
    index: u32,
    segs: &[SegId],
    cfg: BridgeConfig,
    images: &[Vec<u8>],
    rec: Option<&Rc<Recorder>>,
) -> NodeId {
    let mut node = BridgeNode::new(
        format!("bridge{index}"),
        bridge_mac(index),
        bridge_ip(index),
        segs.len(),
        cfg,
    );
    for image in images {
        if let Some(rec) = rec {
            rec.span(Layer::Switchlet, || load_image(image));
        }
        node.boot_load(image.clone());
    }
    if rec.is_some() {
        node.enable_vm_profile();
    }
    let id = add_node(world, node, Layer::Core, rec);
    for &seg in segs {
        world.attach(id, seg);
    }
    id
}

/// Decode an image and, if it carries bytecode, link and verify it.
pub fn load_image(image: &[u8]) {
    let module = Module::decode(image).expect("boot images decode");
    if !module.functions.is_empty() {
        Namespace::new(active_bridge::hostmods::host_env())
            .load_module(module)
            .expect("boot images link and verify");
    }
}

// ----------------------------------------------------------------- batch

/// What a world runs, and how the benchmark judges it.
enum Task {
    /// One bulk transfer of `bytes`.
    Ttcp {
        sender: NodeId,
        receiver: NodeId,
        bytes: u64,
    },
    /// District blasters flooding `blasts` frames each; every frame must
    /// reach `fan_out` ports.
    Flood {
        blasters: Vec<NodeId>,
        blasts: u64,
        fan_out: u64,
        horizon: SimTime,
    },
}

/// One world of a batch.
struct Job {
    built: Built,
    task: Task,
}

impl Job {
    fn first_traffic(&self) -> bool {
        match &self.task {
            Task::Ttcp { receiver, .. } => receiver_app(&self.built.world, *receiver)
                .first_at
                .is_some(),
            Task::Flood { .. } => self.built.world.frames_delivered() > 0,
        }
    }

    fn done(&self) -> bool {
        let world = &self.built.world;
        match &self.task {
            Task::Ttcp { sender, .. } => {
                sender_app(world, *sender).is_done() || world.now() >= TTCP_HORIZON
            }
            Task::Flood { horizon, .. } => world.now() >= *horizon,
        }
    }

    /// Judge the finished world into `batch` and return its counters.
    fn check(&self, batch: &mut Batch) -> Counts {
        let world = &self.built.world;
        let mut c = Counts::of_world(world);
        c.add(&self.built.bridge_counts());
        match &self.task {
            Task::Ttcp {
                sender,
                receiver,
                bytes,
            } => {
                let send = sender_app(world, *sender);
                batch.attempted += 1;
                if receiver_app(world, *receiver).bytes_received() != *bytes || !send.is_done() {
                    batch.fail("ttcp_incomplete");
                }
                c.tcp_frames = send.frames_sent;
                c.tcp_min_frames = bytes.div_ceil(SenderConfig::default().mss as u64);
            }
            Task::Flood {
                blasters,
                blasts,
                fan_out,
                ..
            } => {
                for &b in blasters {
                    let App::Blast(blast) = world.node::<HostNode>(b).app(0) else {
                        unreachable!("blasters run blast")
                    };
                    batch.attempted += 1;
                    if blast.sent != *blasts {
                        batch.fail("blaster_not_drained");
                    }
                }
                batch.attempted += 1;
                if world.frames_delivered() != fan_out * blasters.len() as u64 * blasts {
                    batch.fail("flood_short_of_fan_out");
                }
            }
        }
        c
    }
}

/// Run one batch of `n` worlds, world `i` built by `build(i)`.
///
/// Set-up builds and boots every world and runs it to its first delivered
/// traffic. The measured phase then runs the worlds one after another to
/// completion, in slices; each world's run is one job of the batch.
fn run_batch(n: usize, rec: Option<&Rc<Recorder>>, build: impl Fn(usize) -> Job) -> Batch {
    let mut batch = Batch {
        workers: 1,
        ..Batch::default()
    };
    let mut jobs: Vec<Job> = (0..n)
        .map(|i| {
            let t = Instant::now();
            let mut job = build(i);
            job.built.world.start();
            while !job.first_traffic() {
                assert!(
                    job.built.world.step(),
                    "a world idled before its first traffic"
                );
            }
            batch.unit_setup_ns.push(t.elapsed().as_nanos() as u64);
            job
        })
        .collect();

    let delivered0: u64 = jobs.iter().map(|j| j.built.world.frames_delivered()).sum();
    let mut pending_peak = 0;
    let times = measure(&mut batch, rec, || {
        let t = Instant::now();
        let mut times = Vec::with_capacity(jobs.len());
        for job in &mut jobs {
            let started = Instant::now();
            while !job.done() {
                pending_peak = pending_peak.max(job.built.slice(rec));
            }
            times.push((started.duration_since(t), started.elapsed()));
        }
        times
    });
    for (wait, run) in times {
        batch.queue_wait_ns.push(wait.as_nanos() as u64);
        batch.job_ns.push(run.as_nanos() as u64);
        batch.unit_ns.push(run.as_nanos() as u64);
    }
    batch.counts.pending_peak = pending_peak;
    let delivered: u64 = jobs.iter().map(|j| j.built.world.frames_delivered()).sum();
    batch.frames = delivered - delivered0;
    for job in &jobs {
        let c = job.check(&mut batch);
        batch.counts.add(&c);
    }
    batch.digest = fold_digests(jobs.iter().map(|j| trace_digest(&j.built.world)));
    batch
}

// ------------------------------------------------------------------ ttcp

/// The ttcp workloads' input size.
#[derive(Copy, Clone, Debug)]
pub struct TtcpSize {
    /// Independent worlds per batch, each one transfer.
    pub worlds: usize,
    /// Bytes per transfer.
    pub bytes: u64,
}

pub const TTCP_BRIDGES: usize = 4;
pub const TTCP_WRITE: usize = 8192;
const TTCP_PORT: u16 = 5001;
/// Simulated time a transfer may take before it counts as failed.
const TTCP_HORIZON: SimTime = SimTime::from_secs(600);

fn sender_app(w: &World, id: NodeId) -> &TtcpSendApp {
    let App::TtcpSend(t) = w.node::<HostNode>(id).app(0) else {
        unreachable!("the sender runs ttcp")
    };
    t
}

fn receiver_app(w: &World, id: NodeId) -> &TtcpRecvApp {
    let App::TtcpRecv(r) = w.node::<HostNode>(id).app(0) else {
        unreachable!("the receiver runs ttcp")
    };
    r
}

/// The Figure 10 path: sender, a line of calibrated-cost bridges,
/// receiver. `vm` puts the bytecode dumb switchlet on every bridge's data
/// path; otherwise the native learning switchlet forwards.
fn build_ttcp(seed: u64, vm: bool, bytes: u64, rec: Option<&Rc<Recorder>>) -> Job {
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(false);
    let segs = lans(&mut world, TTCP_BRIDGES + 1);
    let data_path = match vm {
        true => active_bridge::switchlets::dumb_vm::build_image(),
        false => carrier("bridge_learning"),
    };
    let images = [carrier(active_bridge::loader::NAME), data_path];
    let bridges = (0..TTCP_BRIDGES)
        .map(|i| {
            let cfg = BridgeConfig::default();
            bridge(&mut world, i as u32, &segs[i..=i + 1], cfg, &images, rec)
        })
        .collect();
    let cost = HostCostModel::pc_1997();
    let send = TtcpSendApp::new(
        PortId(0),
        host_ip(2),
        TTCP_PORT,
        TTCP_PORT,
        bytes,
        TTCP_WRITE,
        SenderConfig::default(),
    );
    let sender = HostNode::new(
        "sender",
        HostConfig::simple(host_mac(1), host_ip(1), cost),
        vec![send],
    );
    let sender = add_node(&mut world, sender, Layer::Hostsim, rec);
    world.attach(sender, segs[0]);
    let receiver = HostNode::new(
        "receiver",
        HostConfig::simple(host_mac(2), host_ip(2), cost),
        vec![TtcpRecvApp::new(TTCP_PORT, ReceiverConfig::default())],
    );
    let receiver = add_node(&mut world, receiver, Layer::Hostsim, rec);
    world.attach(receiver, segs[TTCP_BRIDGES]);
    Job {
        built: Built { world, bridges },
        task: Task::Ttcp {
            sender,
            receiver,
            bytes,
        },
    }
}

/// One ttcp batch: `size.worlds` transfers, world `i` seeded `seed + i`.
/// An operation is one transfer; it succeeds when every byte arrived.
pub fn ttcp_batch(seed: u64, vm: bool, size: TtcpSize, rec: Option<&Rc<Recorder>>) -> Batch {
    run_batch(size.worlds, rec, |i| {
        build_ttcp(seed + i as u64, vm, size.bytes, rec)
    })
}

// ----------------------------------------------------------------- metro

/// The metro workload's input size.
#[derive(Copy, Clone, Debug)]
pub struct MetroSize {
    /// Independent worlds per batch.
    pub worlds: usize,
    /// Frames each district's blaster sends.
    pub blasts: u64,
}

/// Hosts per access segment: the `metro` battery's own crowd.
const METRO_CROWD: u32 = ab_scenario::workload::CROWD_PER_ACCESS;
/// Wide enough that every district's 512-byte flood crosses a legacy
/// 10 Mb/s access segment within one interval: queues stay shallow and
/// every offered frame is delivered.
const BLAST_INTERVAL: SimDuration = SimDuration::from_ms(10);
const BLAST_SIZE: usize = 512;

/// The `metro_large` preset (wired by `seed`) with FREE-cost learning
/// bridges, silent crowds on every access segment, and one blaster per
/// district flooding an address nobody owns.
fn build_metro(seed: u64, blasts: u64, rec: Option<&Rc<Recorder>>) -> Job {
    let shape = TopologyShape::metro_large();
    let TopologyShape::Metro {
        spines,
        districts,
        leaves,
    } = shape
    else {
        unreachable!("the metro preset is metro-shaped")
    };
    let topo = match rec {
        Some(rec) => rec.span(Layer::Scenario, || topo::generate(shape, seed)),
        None => topo::generate(shape, seed),
    };
    let access = topo.access_segments();
    let n_hosts = access.len() * METRO_CROWD as usize + districts;
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(false);
    world.reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
    let cfg = BridgeConfig {
        cost: CostModel::FREE,
        expected_stations: n_hosts + topo.bridges.len(),
        ..Default::default()
    };
    let segs: Vec<SegId> = topo
        .segments
        .iter()
        .map(|spec| {
            world.add_segment(SegmentConfig {
                name: spec.name.clone(),
                bandwidth_bps: spec.bandwidth_bps,
                propagation: spec.propagation,
                ..SegmentConfig::default()
            })
        })
        .collect();
    let images = [
        carrier(active_bridge::loader::NAME),
        carrier("bridge_learning"),
    ];
    let bridges = topo
        .bridges
        .iter()
        .map(|spec| {
            let ports: Vec<SegId> = spec.segments.iter().map(|&i| segs[i]).collect();
            bridge(&mut world, spec.index, &ports, cfg.clone(), &images, rec)
        })
        .collect();
    let mut n = 1u32;
    for &seg in &access {
        for _ in 0..METRO_CROWD {
            let host = HostNode::new(
                format!("m{n}"),
                HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
                vec![],
            );
            let id = add_node(&mut world, host, Layer::Hostsim, rec);
            world.attach(id, segs[seg]);
            n += 1;
        }
    }
    let mut blasters = Vec::with_capacity(districts);
    for d in 0..districts {
        let blast = BlastApp::new(
            PortId(0),
            host_mac(60_000 + d as u32),
            BLAST_SIZE,
            blasts,
            BLAST_INTERVAL,
        );
        let host = HostNode::new(
            format!("blaster{d}"),
            HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
            vec![blast],
        );
        let id = add_node(&mut world, host, Layer::Hostsim, rec);
        world.attach(id, segs[spines + d * leaves]);
        blasters.push(id);
        n += 1;
    }
    // Every flood crosses every segment once (the metro is a tree) and
    // reaches every port on it but the transmitter's.
    let ports: u64 = topo.bridges.iter().map(|b| b.segments.len() as u64).sum();
    Job {
        built: Built { world, bridges },
        task: Task::Flood {
            blasters,
            blasts,
            fan_out: ports + n_hosts as u64 - topo.segments.len() as u64,
            horizon: SimTime::ZERO + BLAST_INTERVAL * blasts + SimDuration::from_ms(100),
        },
    }
}

/// One metro batch: `size.worlds` floods, world `i` wired and seeded by
/// `seed + i`. Operations are the blasters (each must drain its budget)
/// and each world's flood (it must reach the full fan-out).
pub fn metro_batch(seed: u64, size: MetroSize, rec: Option<&Rc<Recorder>>) -> Batch {
    run_batch(size.worlds, rec, |i| {
        build_metro(seed + i as u64, size.blasts, rec)
    })
}
