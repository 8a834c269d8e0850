//! Microbenchmarks of the simulator's event queue, exercised through the
//! `World` API: future-dated timer churn through the binary heap,
//! zero-delay timer chains through the same-instant fast lane, and
//! broadcast fan-out through the batched delivery path, with listeners
//! that only count frames and with listeners that hand each frame back to
//! the world's pool as `HostNode`'s receive path does.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{Ctx, FrameBuf, Node, PortId, SegmentConfig, SimDuration, SimTime, TimerToken, World};

/// Schedules `pending` timers up front, then reschedules each as it
/// fires — a steady state of heap pushes and pops at many distinct
/// timestamps.
struct TimerChurn {
    pending: u64,
    fired: u64,
    limit: u64,
}

impl Node for TimerChurn {
    fn name(&self) -> &str {
        "churn"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.pending {
            ctx.schedule(SimDuration::from_us(1 + i * 7), TimerToken(i));
        }
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.fired += 1;
        if self.fired < self.limit {
            // Re-arm at a spread of future offsets to keep the heap busy.
            ctx.schedule(SimDuration::from_us(1 + (token.0 % 97) * 11), token);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Chains zero-delay timers: every firing schedules the next at the same
/// instant, which exercises the queue's now-lane fast path.
struct ZeroChain {
    fired: u64,
    limit: u64,
}

impl Node for ZeroChain {
    fn name(&self) -> &str {
        "zero-chain"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_ns(0), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        self.fired += 1;
        if self.fired < self.limit {
            ctx.schedule(SimDuration::from_ns(0), TimerToken(0));
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// One talker, many listeners on a shared segment: the batched
/// `DeliverAll` path with a shared `FrameBuf`.
struct Talker {
    frame: FrameBuf,
    sent: u64,
    limit: u64,
}

impl Node for Talker {
    fn name(&self) -> &str {
        "talker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(200), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if self.sent < self.limit {
            ctx.send(PortId(0), self.frame.clone());
            self.sent += 1;
            ctx.schedule(SimDuration::from_us(200), token);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

struct Sink(u64);

impl Node for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Counts frames, then recycles each one: the talker keeps its own
/// handle, so every check finds the buffer shared and reclaims nothing —
/// the per-listener cost a flood pays on every host.
struct RecyclingSink(u64);

impl Node for RecyclingSink {
    fn name(&self) -> &str {
        "recycling-sink"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        self.0 += 1;
        ctx.recycle_frame(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

fn bench_timer_churn(c: &mut Criterion) {
    c.bench_function("micro_event_queue/timer_churn_10k", |b| {
        b.iter(|| {
            let mut world = World::new(1);
            world.trace_mut().set_enabled(false);
            world.add_node(TimerChurn {
                pending: 256,
                fired: 0,
                limit: 10_000,
            });
            world.run_until(SimTime::from_secs(600));
            world.now()
        })
    });
}

fn bench_zero_chain(c: &mut Criterion) {
    c.bench_function("micro_event_queue/now_lane_chain_10k", |b| {
        b.iter(|| {
            let mut world = World::new(1);
            world.trace_mut().set_enabled(false);
            world.add_node(ZeroChain {
                fired: 0,
                limit: 10_000,
            });
            world.run_until(SimTime::from_secs(1));
            world.now()
        })
    });
}

/// One talker sends 500 frames to 32 listeners built by `sink`.
fn broadcast_fanout<N: Node>(sink: impl Fn() -> N) -> u64 {
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let lan = world.add_segment(SegmentConfig::default());
    let t = world.add_node(Talker {
        frame: FrameBuf::from(vec![0x42u8; 1400]),
        sent: 0,
        limit: 500,
    });
    world.attach(t, lan);
    for _ in 0..32 {
        let s = world.add_node(sink());
        world.attach(s, lan);
    }
    world.run_until(SimTime::from_secs(10));
    world.frames_delivered()
}

fn bench_broadcast_fanout(c: &mut Criterion) {
    c.bench_function("micro_event_queue/broadcast_fanout_32x500", |b| {
        b.iter(|| broadcast_fanout(|| Sink(0)))
    });
}

fn bench_broadcast_fanout_recycling(c: &mut Criterion) {
    c.bench_function("micro_event_queue/broadcast_fanout_recycling_32x500", |b| {
        b.iter(|| broadcast_fanout(|| RecyclingSink(0)))
    });
}

criterion_group!(
    benches,
    bench_timer_churn,
    bench_zero_chain,
    bench_broadcast_fanout,
    bench_broadcast_fanout_recycling
);
criterion_main!(benches);
