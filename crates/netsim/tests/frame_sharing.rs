//! Frame-sharing semantics of the zero-copy plane: one wire frame is one
//! refcounted buffer shared by every listener, the capture log and fault
//! duplicates — and the only thing that can ever diverge a copy is the
//! explicit copy-on-write path (fault corruption, `FrameBuf::mutate`).

use netsim::{
    Ctx, FaultConfig, FrameBuf, Node, PortId, SegmentConfig, SimDuration, SimTime, TimerToken,
    World,
};

/// Sends one prebuilt frame and keeps its own handle to the buffer.
struct Sender {
    frame: FrameBuf,
}

impl Node for Sender {
    fn name(&self) -> &str {
        "sender"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(1), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        ctx.send(PortId(0), self.frame.clone());
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Stores every received frame; optionally scribbles on its own copy
/// through the copy-on-write path.
struct Keeper {
    got: Vec<FrameBuf>,
    scribble: bool,
}

impl Keeper {
    fn new(scribble: bool) -> Keeper {
        Keeper {
            got: Vec::new(),
            scribble,
        }
    }
}

impl Node for Keeper {
    fn name(&self) -> &str {
        "keeper"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, mut frame: FrameBuf) {
        if self.scribble {
            frame.mutate(|buf| buf.iter_mut().for_each(|b| *b = 0xEE));
        }
        self.got.push(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

fn payload() -> FrameBuf {
    FrameBuf::from((0u8..200).collect::<Vec<u8>>())
}

fn build(fault: FaultConfig, scribble_first: bool) -> (World, netsim::SegId, Vec<netsim::NodeId>) {
    let mut world = World::new(7);
    let lan = world.add_segment(SegmentConfig {
        fault,
        capture: true,
        ..Default::default()
    });
    let s = world.add_node(Sender { frame: payload() });
    world.attach(s, lan);
    let listeners: Vec<_> = (0..3)
        .map(|i| {
            let id = world.add_node(Keeper::new(scribble_first && i == 0));
            world.attach(id, lan);
            id
        })
        .collect();
    world.run_until(SimTime::from_ms(1));
    (world, lan, listeners)
}

#[test]
fn clean_delivery_shares_one_buffer_with_capture() {
    let (world, lan, listeners) = build(FaultConfig::default(), false);
    let cap = world.segment(lan).captured();
    assert_eq!(cap.len(), 1);
    let frames: Vec<&FrameBuf> = listeners
        .iter()
        .map(|&l| &world.node::<Keeper>(l).got[0])
        .collect();
    for f in &frames {
        assert_eq!(**f, payload(), "delivered bytes intact");
        assert!(
            f.shares_storage(&cap[0].data),
            "every listener and the capture log share one allocation"
        );
    }
}

#[test]
fn corruption_is_isolated_from_the_sender_buffer() {
    let (world, lan, listeners) = build(
        FaultConfig {
            corrupt_one_in: 1,
            ..Default::default()
        },
        false,
    );
    // The sender still holds the pristine original.
    let frames: Vec<&FrameBuf> = listeners
        .iter()
        .map(|&l| &world.node::<Keeper>(l).got[0])
        .collect();
    let original = payload();
    for f in &frames {
        let diff: u32 = original
            .iter()
            .zip(f.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one corrupted bit reaches the wire");
        assert!(
            !f.shares_storage(&original),
            "corruption must copy-on-write, never touch the original"
        );
        assert!(
            f.shares_storage(&world.segment(lan).captured()[0].data),
            "all listeners and the capture still share the corrupted copy"
        );
    }
}

#[test]
fn listener_mutation_never_leaks_to_other_listeners_or_capture() {
    let (world, lan, listeners) = build(FaultConfig::default(), true);
    let scribbler = &world.node::<Keeper>(listeners[0]).got[0];
    assert!(scribbler.iter().all(|&b| b == 0xEE), "scribble applied");
    let cap = &world.segment(lan).captured()[0].data;
    assert_eq!(*cap, payload(), "capture log unaffected by the scribble");
    for &l in &listeners[1..] {
        let f = &world.node::<Keeper>(l).got[0];
        assert_eq!(*f, payload(), "other listeners unaffected");
        assert!(f.shares_storage(cap), "untouched copies still share");
    }
}

#[test]
fn fault_duplicates_share_storage_with_each_other() {
    let (world, lan, listeners) = build(
        FaultConfig {
            duplicate_one_in: 1,
            ..Default::default()
        },
        false,
    );
    assert_eq!(
        world.segment(lan).counters().fault_duplicates,
        1,
        "the single frame was duplicated"
    );
    let keeper = world.node::<Keeper>(listeners[0]);
    assert_eq!(keeper.got.len(), 2, "listener saw both copies");
    assert!(
        keeper.got[0].shares_storage(&keeper.got[1]),
        "both fault copies share one allocation"
    );
}

/// Builds one frame from the world's pool and sends it, then (after the
/// fan-out has drained) takes the next buffer and records where both
/// allocations live.
#[derive(Default)]
struct PoolBuilder {
    sent_at: usize,
    next_at: usize,
}

impl Node for PoolBuilder {
    fn name(&self) -> &str {
        "pool-builder"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(1), TimerToken(0));
        ctx.schedule(SimDuration::from_ms(1), TimerToken(1));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.0 == 0 {
            let mut buf = ctx.take_buf(200);
            buf.extend(0u8..200);
            self.sent_at = buf.as_ptr() as usize;
            ctx.send(PortId(0), buf);
        } else {
            // A same-sized allocation first: had the sender's buffer gone
            // back to the allocator instead of the pool, the allocator
            // would hand it out here, not to `take_buf`.
            let decoy: Vec<u8> = Vec::with_capacity(200);
            let next = ctx.take_buf(200);
            self.next_at = next.as_ptr() as usize;
            drop(decoy);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Hands every received frame back to the pool, as `HostNode` does at the
/// end of its receive path — or keeps it, when `keep` is set.
struct Recycler {
    keep: bool,
    kept: Option<FrameBuf>,
}

impl Node for Recycler {
    fn name(&self) -> &str {
        "recycler"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        if self.keep {
            self.kept = Some(frame);
        } else {
            ctx.recycle_frame(frame);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// One pooled frame fanned out to 16 recycling listeners; `keeper` picks a
/// listener that keeps its handle instead.
fn recycling_fanout(keeper: Option<usize>) -> (World, netsim::NodeId, Vec<netsim::NodeId>) {
    let mut world = World::new(7);
    let lan = world.add_segment(SegmentConfig::default());
    let b = world.add_node(PoolBuilder::default());
    world.attach(b, lan);
    let listeners: Vec<_> = (0..16)
        .map(|i| {
            let id = world.add_node(Recycler {
                keep: keeper == Some(i),
                kept: None,
            });
            world.attach(id, lan);
            id
        })
        .collect();
    world.run_until(SimTime::from_ms(2));
    assert_eq!(world.frames_delivered(), 16);
    (world, b, listeners)
}

#[test]
fn recycling_fanout_returns_the_senders_buffer_to_the_pool() {
    let (world, b, _) = recycling_fanout(None);
    let builder = world.node::<PoolBuilder>(b);
    // Fifteen listeners recycled a handle that was still shared; only the
    // last one held the sole reference and reclaimed the sender's buffer.
    assert_eq!(
        builder.next_at, builder.sent_at,
        "the next take_buf reuses the sender's allocation"
    );
}

#[test]
fn a_kept_handle_never_enters_the_pool() {
    for keeper in [0, 15] {
        let (world, b, listeners) = recycling_fanout(Some(keeper));
        let builder = world.node::<PoolBuilder>(b);
        let kept = world.node::<Recycler>(listeners[keeper]).kept.as_ref();
        let kept = kept.expect("the keeper holds its frame");
        assert_eq!(kept.as_ptr() as usize, builder.sent_at);
        assert!(kept.iter().copied().eq(0u8..200), "kept bytes intact");
        assert_ne!(
            builder.next_at, builder.sent_at,
            "keeper {keeper}: a buffer still held by a listener was pooled"
        );
    }
}
