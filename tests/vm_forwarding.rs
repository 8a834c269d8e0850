//! The VM data path forwards zero-copy and allocation-free: a frame
//! enters a switchlet as the received buffer and leaves through
//! `unixnet.send_pkt_out` as the same buffer, so a line of bytecode
//! bridges allocates no more per delivered frame than a line of native
//! learning bridges.
//!
//! This binary installs the counting allocator and holds a single test,
//! so no other test's allocations land in the counts.

use ab_bench::allocs::{alloc_calls, counting_enabled, CountingAlloc};
use ab_scenario::{bridge, bridge_ip, bridge_mac, host_ip, host_mac};
use active_bridge::switchlets::dumb_vm;
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{App, HostConfig, HostCostModel, HostNode, TtcpRecvApp, TtcpSendApp};
use netsim::{NodeId, PortId, SegId, SegmentConfig, SimDuration, World};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TTCP_PORT: u16 = 5001;
const WRITE: usize = 8192;
const SLICE: SimDuration = SimDuration::from_ms(20);

/// A ttcp line: sender, bridges (each on its own pair of segments),
/// receiver. Segments and bridges are in line order.
struct Line {
    world: World,
    sender: NodeId,
    segs: Vec<SegId>,
    bridges: Vec<NodeId>,
}

/// Build a line of `n` bridges carrying one `bytes`-long transfer. `vm`
/// boots the bytecode dumb switchlet on every bridge's data path;
/// otherwise the native learning switchlet forwards.
fn ttcp_line(vm: bool, n: usize, bytes: u64, capture: bool) -> Line {
    let mut world = World::new(7);
    world.trace_mut().set_enabled(false);
    let segs: Vec<SegId> = (0..=n)
        .map(|i| {
            world.add_segment(SegmentConfig {
                capture,
                ..SegmentConfig::named(format!("lan{i}"))
            })
        })
        .collect();
    let mut bridges = Vec::with_capacity(n);
    for i in 0..n {
        let ports = &segs[i..=i + 1];
        let id = if vm {
            let idx = i as u32;
            let mut node = BridgeNode::new(
                format!("bridge{idx}"),
                bridge_mac(idx),
                bridge_ip(idx),
                ports.len(),
                BridgeConfig::default(),
            );
            node.boot_load_native(active_bridge::loader::NAME);
            node.boot_load(dumb_vm::build_image());
            let id = world.add_node(node);
            for &seg in ports {
                world.attach(id, seg);
            }
            id
        } else {
            bridge(
                &mut world,
                i as u32,
                ports,
                BridgeConfig::default(),
                &["bridge_learning"],
            )
        };
        bridges.push(id);
    }
    let cost = HostCostModel::pc_1997();
    let send = TtcpSendApp::new(
        PortId(0),
        host_ip(2),
        TTCP_PORT,
        TTCP_PORT,
        bytes,
        WRITE,
        SenderConfig::default(),
    );
    let sender = world.add_node(HostNode::new(
        "sender",
        HostConfig::simple(host_mac(1), host_ip(1), cost),
        vec![send],
    ));
    world.attach(sender, segs[0]);
    let receiver = world.add_node(HostNode::new(
        "receiver",
        HostConfig::simple(host_mac(2), host_ip(2), cost),
        vec![TtcpRecvApp::new(TTCP_PORT, ReceiverConfig::default())],
    ));
    world.attach(receiver, segs[n]);
    Line {
        world,
        sender,
        segs,
        bridges,
    }
}

fn transfer_done(world: &World, sender: NodeId) -> bool {
    let App::TtcpSend(t) = world.node::<HostNode>(sender).app(0) else {
        unreachable!("the sender runs ttcp")
    };
    t.is_done()
}

fn run_to_completion(line: &mut Line) {
    while !transfer_done(&line.world, line.sender) {
        line.world.run_for(SLICE);
    }
}

/// Run a ttcp transfer through 4 bridges to completion and return the
/// allocation calls per delivered frame after warm-up (the first 1000
/// deliveries: boot, ARP, learning and buffer growth).
fn allocs_per_frame(vm: bool) -> f64 {
    const BYTES: u64 = 4 << 20;
    let mut line = ttcp_line(vm, 4, BYTES, false);
    line.world.start();
    while line.world.frames_delivered() < 1000 {
        line.world.run_for(SLICE);
    }
    let (allocs0, frames0) = (alloc_calls(), line.world.frames_delivered());
    run_to_completion(&mut line);
    let allocs = alloc_calls() - allocs0;
    let frames = line.world.frames_delivered() - frames0;
    assert!(
        frames > 1000,
        "the measured phase delivered {frames} frames"
    );
    allocs as f64 / frames as f64
}

#[test]
fn vm_forwarding_allocates_like_native_and_shares_the_frame() {
    assert!(counting_enabled(), "the counting allocator is installed");

    let native = allocs_per_frame(false);
    let vm = allocs_per_frame(true);
    assert!(
        vm <= native + 0.05,
        "VM line allocates {vm:.3}/frame, native line {native:.3}/frame"
    );

    // Zero-copy: every frame the first VM bridge forwarded downstream is
    // the very buffer captured on the segment upstream of it.
    let mut line = ttcp_line(true, 2, 64 << 10, true);
    line.world.start();
    run_to_completion(&mut line);
    let upstream = line.world.segment(line.segs[0]).captured();
    let forwarded: Vec<_> = line
        .world
        .segment(line.segs[1])
        .captured()
        .iter()
        .filter(|c| c.src.0 == line.bridges[0])
        .collect();
    assert!(forwarded.len() > 40, "{} frames forwarded", forwarded.len());
    for c in forwarded {
        assert!(
            upstream.iter().any(|u| u.data.shares_storage(&c.data)),
            "a {}-byte frame was copied crossing the VM bridge",
            c.data.len()
        );
    }
}
