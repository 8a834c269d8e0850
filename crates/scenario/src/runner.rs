//! The scenario runner: execute one `(topology, workload, seed)` triple
//! and emit a structured, machine-readable report with invariant
//! verdicts.
//!
//! The runner owns the whole lifecycle: generate the topology and the
//! battery, derive the run's plan (boot list, bridge config, guarded
//! ports, epoch, quiet-window budget), materialize both into a
//! [`World`], drive the world in fixed slices (applying the fault script
//! and sampling convergence on the way), then measure a quiet tail window
//! and judge the invariants, one plane at a time and in this order:
//!
//! * **base** (every run) — `connected`, `converged_before_workload`,
//!   `no_storm` (once the workload is done the wires fall silent apart
//!   from a bounded spanning-tree hello budget),
//!   `no_loss_after_convergence` (waived for raw blasts and loaded probes
//!   while drops or downtime are scripted), `no_duplicate_delivery`
//!   (waived while duplication or downtime is scripted), `single_root`
//!   (loopy topologies) and `uploads_alive` (uploads whose module must
//!   run its `init`);
//! * **recovery** (scripted downtime; `recovery` section) —
//!   `reconverges_after_heal` and `no_permanent_blackhole`;
//! * **resilience** (scripted burst loss; `resilience` section) —
//!   `uploads_complete_under_loss`, `retries_within_budget`,
//!   `corrupted_image_never_activates` and `no_livelock`;
//! * **watchdog** (scripted trapping upload) — `quarantine_engages`;
//! * **security** (hostile hosts; `security` section) — in the defended
//!   arm `learn_table_bounded`, `victim_flows_survive`,
//!   `storm_suppressed_and_released` and `root_stays_stable`; in the
//!   undefended control arm `attack_degrades_undefended`.
//!
//! A plane whose workload trigger is absent adds neither invariants nor a
//! section. Reports render to JSON ([`Report::to_json`]) and are
//! byte-identical across runs with the same seed.

use active_bridge::{BridgeConfig, BridgeNode, BridgeStats, StormConfig};
use hostsim::{
    App, BlastApp, HostConfig, HostCostModel, HostNode, PingApp, TtcpRecvApp, TtcpSendApp,
    UploadApp,
};
use netsim::{NodeId, PortId, SimDuration, SimTime, World, WorldStats};
use netstack::tcplite::{ReceiverConfig, SenderConfig};
use netstack::FailureClass;

use crate::json::Json;
use crate::quality;
use crate::sketch::Sketch;
use crate::topo::{self, Topology, TopologyShape};
use crate::workload::{
    self, AppAction, AttackKind, BatteryKind, FaultAction, Phase, UploadKind, Workload,
};

/// The IEEE spanning-tree switchlet name (what [`Topology::default_boot`]
/// boots on loopy topologies).
const STP_NAME: &str = "stp_ieee";

/// Learning-table hard capacity in the defended arm of adversarial
/// scenarios — comfortably above any honest workload population there,
/// far below what a MAC flood tries to install.
pub const DEFENSE_LEARN_CAP: usize = 64;
/// Per-port occupancy quota in the defended arm: one hostile port can
/// claim at most this many entries before evicting its own.
pub const DEFENSE_PORT_QUOTA: usize = 16;
/// Storm-control budget applied to both the broadcast and the
/// unknown-unicast class in the defended arm. The trip threshold counts
/// *consecutive* over-budget drops, so a port suppresses only when the
/// offered rate stays a multiple of the refill rate — the 1 250–2 000
/// pps attacks trip within ~100 ms while honest ARP/discovery traffic
/// never strikes twice in a row.
pub const DEFENSE_STORM: StormConfig = StormConfig {
    rate_pps: 50,
    burst: 80,
    trip: 20,
    hold_down: SimDuration::from_ms(1_200),
};

/// Everything that defines one run. A scenario is a value: running it
/// twice produces byte-identical reports.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Report name (defaults to `<shape>-<battery>-s<seed>`).
    pub name: String,
    /// Topology shape to generate.
    pub shape: TopologyShape,
    /// Workload battery to generate.
    pub battery: BatteryKind,
    /// The seed for topology, workload and world RNG alike.
    pub seed: u64,
    /// Total simulated length; `None` sizes it from the workload span.
    pub duration: Option<SimDuration>,
    /// Arm the defense plane (bounded learning, storm control, BPDU
    /// guard) on every bridge. Only meaningful for workloads that field
    /// attacks; `false` everywhere else so every pre-existing scenario
    /// replays byte-for-byte.
    pub defended: bool,
}

impl Scenario {
    /// A scenario with the default auto-sized duration.
    pub fn new(shape: TopologyShape, battery: BatteryKind, seed: u64) -> Scenario {
        Scenario {
            name: format!("{}-{}-s{}", shape.label(), battery.label(), seed),
            shape,
            battery,
            seed,
            duration: None,
            defended: false,
        }
    }
}

/// The verdict on one invariant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Held.
    Pass,
    /// Violated.
    Fail,
    /// Not evaluated because the scenario scripts faults that legitimately
    /// break it.
    Waived,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Waived => "waived",
        }
    }
}

/// One judged invariant.
#[derive(Clone, Debug)]
pub struct InvariantResult {
    /// Invariant name.
    pub name: &'static str,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable evidence.
    pub detail: String,
}

/// Experience metrics for one application flow: a deterministic sample
/// sketch plus a delivery ratio, with an explicit validity flag. A flow
/// that measured nothing (a ping with zero replies) is **invalid** and
/// renders `null` statistics — never a perfect-looking zero.
#[derive(Clone, Debug)]
pub struct AppMetrics {
    /// What the sketch samples are: `rtt` (ping round trips), `jitter`
    /// (ttcp inter-arrival gaps), `timeline` (upload progress gaps) or
    /// `delivery` (no sketch — counts only).
    pub kind: &'static str,
    /// Did the flow produce a usable measurement?
    pub valid: bool,
    /// Delivered fraction in per-mille (1000 = everything arrived).
    /// `None` when nothing was expected.
    pub delivery_pm: Option<u64>,
    /// The sample sketch (nanosecond samples), when the flow records one.
    pub sketch: Option<Sketch>,
}

impl AppMetrics {
    /// A counts-only metric (blasts, crowds): validity and delivery,
    /// no sketch.
    pub fn delivery(valid: bool, delivery_pm: Option<u64>) -> AppMetrics {
        AppMetrics {
            kind: "delivery",
            valid,
            delivery_pm,
            sketch: None,
        }
    }

    /// The flow's p90 sample in nanoseconds, when valid and sketched.
    pub fn p90_ns(&self) -> Option<u64> {
        if !self.valid {
            return None;
        }
        self.sketch.as_ref().and_then(|s| s.percentile(90))
    }

    /// Render as JSON: summary statistics derived from the buckets, the
    /// validity flag, and the sketch itself.
    pub fn to_json(&self) -> Json {
        let stat = Json::from;
        let s = self.sketch.as_ref().filter(|_| self.valid);
        let mut members = vec![
            ("kind", Json::str(self.kind)),
            ("valid", Json::Bool(self.valid)),
            ("avg_ns", stat(s.and_then(|s| s.avg()))),
            ("p50_ns", stat(s.and_then(|s| s.percentile(50)))),
            ("p90_ns", stat(s.and_then(|s| s.percentile(90)))),
            ("p99_ns", stat(s.and_then(|s| s.percentile(99)))),
            ("delivery_pm", stat(self.delivery_pm)),
        ];
        if let Some(sk) = &self.sketch {
            members.push(("sketch", sk.to_json()));
        }
        Json::obj(members)
    }
}

/// Per-application outcome, in workload order.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// Action label (`ping`, `ttcp`, `blast`, `upload`).
    pub label: &'static str,
    /// Which measurement phase scheduled this flow.
    pub phase: Phase,
    /// Sender's segment index.
    pub from_seg: usize,
    /// Receiver's segment index (the bridge's first segment for uploads).
    pub to_seg: usize,
    /// Did it do what the battery expected?
    pub ok: bool,
    /// `(key, value)` detail counters, stable order.
    pub detail: Vec<(&'static str, u64)>,
    /// Experience metrics (sketch, percentiles, delivery, validity).
    pub metrics: AppMetrics,
}

/// Per-bridge outcome.
#[derive(Clone, Debug)]
pub struct BridgeReport {
    /// Node name.
    pub name: String,
    /// The spanning-tree root this bridge believes in, if it runs STP.
    pub root: Option<String>,
    /// Ports currently not forwarding.
    pub blocked_ports: u64,
    /// Forwarding-plane counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// Recovery telemetry for runs whose workload scripts downtime
/// (chaos-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// When the script's last healing step fired.
    pub last_heal: SimTime,
    /// Frames dropped by downed segments across the run.
    pub down_drops: u64,
    /// Bridge crashes the script performed.
    pub crashes: u64,
    /// Delay from the last heal to the first slice boundary at which
    /// new frames had been delivered (sampled on the runner's slice
    /// grid; `None` if nothing was delivered after the heal).
    pub time_to_first_delivery: Option<SimDuration>,
}

/// Hostile-media telemetry for runs whose workload scripts bursty loss
/// (burst-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Retransmissions performed across all uploads.
    pub retries: u64,
    /// Fresh-WRQ session restarts after classified server failures.
    pub restarts: u64,
    /// Backoff doublings clamped at the configured RTO ceiling.
    pub rto_ceiling_hits: u64,
    /// Sealed images the integrity gate refused across all bridges.
    pub integrity_rejects: u64,
    /// Frames the burst model dropped while a segment was in its bad
    /// state.
    pub burst_drops: u64,
    /// The longest gap between consecutive upload forward-progress
    /// events — the worst stall the adaptive transport bridged (`None`
    /// if no upload ever progressed twice).
    pub max_stall: Option<SimDuration>,
}

/// Defense-plane telemetry for runs whose workload fields hostile hosts
/// (attack-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct SecurityReport {
    /// Was the defense plane armed for this run?
    pub defended: bool,
    /// The largest learning-table occupancy any bridge showed on the
    /// runner's slice grid — the CAM-exhaustion evidence (bounded in the
    /// defended arm, four figures in the control arm).
    pub max_learn_occupancy: u64,
    /// Bounded-learning victims evicted across all bridges.
    pub learn_evictions: u64,
    /// Learn attempts refused at the table/port bound across all bridges.
    pub learn_rejects: u64,
    /// Storm-control port suppressions across all bridges.
    pub storm_suppressions: u64,
    /// Hold-down expiries that re-enabled a suppressed port.
    pub storm_releases: u64,
    /// Ports err-disabled by BPDU guard.
    pub bpdu_guard_trips: u64,
    /// Did any bridge ever publish a spanning-tree root that is not a
    /// real bridge of this topology (the rogue-root claim landing)?
    pub rogue_root_seen: bool,
}

/// The full structured result of one scenario run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario that produced this.
    pub scenario: Scenario,
    /// Was the topology loopy (and therefore STP-booted)?
    pub cyclic: bool,
    /// Segment count.
    pub n_segments: usize,
    /// Bridge count.
    pub n_bridges: usize,
    /// When the workload epoch was placed.
    pub epoch: SimTime,
    /// When the run ended (before the quiet window).
    pub end: SimTime,
    /// Last observed change to any bridge's port flags / root choice.
    pub converged_at: Option<SimTime>,
    /// World frame accounting at the end of the run.
    pub world: WorldStats,
    /// Frames serialized during the quiet tail window.
    pub quiet_tx: u64,
    /// The hello budget the quiet window was allowed.
    pub quiet_allowed: u64,
    /// Per-bridge outcomes.
    pub bridges: Vec<BridgeReport>,
    /// Per-application outcomes.
    pub apps: Vec<AppReport>,
    /// VM instructions retired across all bridges.
    pub vm_fuel: u64,
    /// Recovery telemetry (`Some` only when the workload scripts
    /// downtime).
    pub recovery: Option<RecoveryReport>,
    /// Hostile-media telemetry (`Some` only when the workload scripts
    /// bursty loss).
    pub resilience: Option<ResilienceReport>,
    /// Defense-plane telemetry (`Some` only when the workload fields
    /// hostile hosts).
    pub security: Option<SecurityReport>,
    /// The judged invariants.
    pub invariants: Vec<InvariantResult>,
}

impl Report {
    /// Did every invariant hold (waived ones excluded)?
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.verdict != Verdict::Fail)
    }

    /// Counts of `(passed, failed, waived)` invariants.
    pub fn verdict_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for i in &self.invariants {
            match i.verdict {
                Verdict::Pass => counts.0 += 1,
                Verdict::Fail => counts.1 += 1,
                Verdict::Waived => counts.2 += 1,
            }
        }
        counts
    }

    /// Render the report as a JSON document. Deterministic: objects are
    /// insertion-ordered and every number is an integer.
    pub fn to_json(&self) -> Json {
        let mut scenario_members = vec![
            ("name", Json::str(&self.scenario.name)),
            ("shape", Json::str(self.scenario.shape.label())),
            ("battery", Json::str(self.scenario.battery.label())),
            ("seed", Json::U64(self.scenario.seed)),
        ];
        // Present only on defended runs: every pre-existing report
        // renders the exact same bytes as before the defense plane.
        if self.scenario.defended {
            scenario_members.push(("defended", Json::Bool(true)));
        }
        scenario_members.extend(vec![
            ("cyclic", Json::Bool(self.cyclic)),
            ("segments", Json::U64(self.n_segments as u64)),
            ("bridges", Json::U64(self.n_bridges as u64)),
            ("epoch_ns", Json::U64(self.epoch.as_ns())),
            ("end_ns", Json::U64(self.end.as_ns())),
        ]);
        let scenario = Json::obj(scenario_members);
        let convergence = Json::obj(vec![
            (
                "converged_at_ns",
                Json::from(self.converged_at.map(SimTime::as_ns)),
            ),
            ("stp", Json::Bool(self.cyclic)),
        ]);
        let segments = Json::Arr(
            self.world
                .segments
                .iter()
                .map(|s| {
                    let c = &s.counters;
                    let mut members = vec![
                        ("name", Json::str(&s.name)),
                        ("tx_frames", Json::U64(c.tx_frames)),
                        ("tx_bytes", Json::U64(c.tx_bytes)),
                        ("deliveries", Json::U64(c.deliveries)),
                        ("contended", Json::U64(c.contended)),
                        ("peak_queue", Json::U64(c.peak_queue)),
                        ("queue_drops", Json::U64(c.queue_drops)),
                        ("fault_drops", Json::U64(c.fault_drops)),
                        ("corrupted", Json::U64(c.corrupted)),
                        ("fault_duplicates", Json::U64(c.fault_duplicates)),
                        ("down_drops", Json::U64(c.down_drops)),
                    ];
                    // Present only where the burst model actually fired:
                    // burst-free reports render the exact same bytes as
                    // before the Gilbert–Elliott model existed.
                    if c.burst_drops > 0 {
                        members.push(("burst_drops", Json::U64(c.burst_drops)));
                    }
                    Json::obj(members)
                })
                .collect(),
        );
        let world = Json::obj(vec![
            ("frames_sent", Json::U64(self.world.frames_sent)),
            ("frames_delivered", Json::U64(self.world.frames_delivered)),
            ("segments", segments),
        ]);
        let bridges = Json::Arr(
            self.bridges
                .iter()
                .map(|b| {
                    Json::obj(vec![
                        ("name", Json::str(&b.name)),
                        ("root", b.root.as_ref().map_or(Json::Null, Json::str)),
                        ("blocked_ports", Json::U64(b.blocked_ports)),
                        (
                            "counters",
                            Json::Obj(
                                b.counters
                                    .iter()
                                    .map(|&(k, v)| (k.to_owned(), Json::U64(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let apps = Json::Arr(
            self.apps
                .iter()
                .map(|a| {
                    let mut members = vec![
                        ("label", Json::str(a.label)),
                        ("phase", Json::str(a.phase.label())),
                        ("from_seg", Json::U64(a.from_seg as u64)),
                        ("to_seg", Json::U64(a.to_seg as u64)),
                        ("ok", Json::Bool(a.ok)),
                    ];
                    for &(k, v) in &a.detail {
                        members.push((k, Json::U64(v)));
                    }
                    members.push(("metrics", a.metrics.to_json()));
                    Json::obj(members)
                })
                .collect(),
        );
        let invariants = Json::Arr(
            self.invariants
                .iter()
                .map(|i| {
                    Json::obj(vec![
                        ("name", Json::str(i.name)),
                        ("verdict", Json::str(i.verdict.label())),
                        ("detail", Json::str(&i.detail)),
                    ])
                })
                .collect(),
        );
        let (passed, failed, waived) = self.verdict_counts();
        let total = passed + failed;
        let summary = Json::obj(vec![
            // `pass` is computed from judged invariants only; waived
            // ones neither pass nor fail it.
            ("pass", Json::Bool(self.passed())),
            ("passed", Json::U64(passed)),
            ("failed", Json::U64(failed)),
            ("waived", Json::U64(waived)),
            (
                // A run whose invariants were *all* waived has no score:
                // rendering 100 here (the old `unwrap_or(100)`) made a
                // fully-waived run look perfect.
                "score_percent",
                Json::from((passed * 100).checked_div(total)),
            ),
        ]);
        let mut members = vec![
            ("scenario", scenario),
            ("convergence", convergence),
            ("world", world),
            ("bridges", bridges),
            ("apps", apps),
            (
                "quiet_window",
                Json::obj(vec![
                    ("tx_frames", Json::U64(self.quiet_tx)),
                    ("allowed", Json::U64(self.quiet_allowed)),
                ]),
            ),
            ("vm_fuel", Json::U64(self.vm_fuel)),
        ];
        // Present only on chaos runs: chaos-free reports render the
        // exact same bytes as before the recovery section existed.
        if let Some(r) = &self.recovery {
            members.push((
                "recovery",
                Json::obj(vec![
                    ("last_heal_ns", Json::U64(r.last_heal.as_ns())),
                    ("down_drops", Json::U64(r.down_drops)),
                    ("crashes", Json::U64(r.crashes)),
                    (
                        "time_to_first_delivery_ns",
                        Json::from(r.time_to_first_delivery.map(SimDuration::as_ns)),
                    ),
                ]),
            ));
        }
        // Present only on bursty-loss runs, mirroring `recovery`.
        if let Some(r) = &self.resilience {
            members.push((
                "resilience",
                Json::obj(vec![
                    ("retries", Json::U64(r.retries)),
                    ("restarts", Json::U64(r.restarts)),
                    ("rto_ceiling_hits", Json::U64(r.rto_ceiling_hits)),
                    ("integrity_rejects", Json::U64(r.integrity_rejects)),
                    ("burst_drops", Json::U64(r.burst_drops)),
                    (
                        "max_stall_ns",
                        Json::from(r.max_stall.map(SimDuration::as_ns)),
                    ),
                ]),
            ));
        }
        // Present only on adversarial runs, mirroring `resilience`.
        if let Some(s) = &self.security {
            members.push((
                "security",
                Json::obj(vec![
                    ("defended", Json::Bool(s.defended)),
                    ("max_learn_occupancy", Json::U64(s.max_learn_occupancy)),
                    ("learn_evictions", Json::U64(s.learn_evictions)),
                    ("learn_rejects", Json::U64(s.learn_rejects)),
                    ("storm_suppressions", Json::U64(s.storm_suppressions)),
                    ("storm_releases", Json::U64(s.storm_releases)),
                    ("bpdu_guard_trips", Json::U64(s.bpdu_guard_trips)),
                    ("rogue_root_seen", Json::Bool(s.rogue_root_seen)),
                ]),
            ));
        }
        members.push(("invariants", invariants));
        members.push(("quality", quality::score_report(self).to_json()));
        members.push(("summary", summary));
        Json::obj(members)
    }
}

/// One materialized workload item: where its hosts went.
struct Placed {
    sender: NodeId,
    receiver: Option<NodeId>,
    /// The crowd's hosts (empty for every other action).
    crowd: Vec<NodeId>,
}

/// How the runner slices the run (fault script application and
/// convergence sampling happen on this grid).
const SLICE: SimDuration = SimDuration::from_ms(100);
/// The quiet tail window measured for the storm invariant.
const QUIET_WINDOW: SimDuration = SimDuration::from_secs(4);

/// Execute `scenario` and produce its [`Report`].
pub fn run(scenario: &Scenario) -> Report {
    let mut world = World::new(scenario.seed);
    run_in(&mut world, scenario)
}

/// Execute `scenario` inside a caller-supplied [`World`], resetting it
/// first. Behaviorally identical to [`run`] — `World::reset` rewinds
/// every observable — but a worker that runs many scenarios through one
/// world amortizes the event-queue, frame-pool and table allocations
/// across the whole batch (this is what the parallel sweep's workers
/// do).
pub fn run_in(world: &mut World, scenario: &Scenario) -> Report {
    world.reset(scenario.seed);
    world.trace_mut().set_enabled(false);
    run_prepared(world, scenario)
}

/// Execute `scenario` with the world trace left **on** and return the
/// report plus an FNV-1a digest of the full observable record (trace
/// entries, experiment counters, frame totals). Two runs of the same
/// scenario — on any thread, in any pool — must agree on both values;
/// the determinism suite compares digests across worker counts.
pub fn run_traced(scenario: &Scenario) -> (Report, u64) {
    let mut world = World::new(scenario.seed);
    let report = run_prepared(&mut world, scenario);
    let digest = trace_digest(&world);
    (report, digest)
}

/// Execute `scenario` with the flight recorder armed and return the
/// report, the trace digest, and the finished [`World`] (for timeline
/// export — the probe ring, hot-function profiles and segment state are
/// still in it).
///
/// The recorder is records-only: it never schedules, never draws from
/// the RNG, and the returned digest is bit-identical to an unarmed
/// [`run_traced`] of the same scenario (`tests/flight_recorder.rs`
/// pins this).
pub fn run_recorded(scenario: &Scenario, probe: netsim::ProbeConfig) -> (Report, u64, World) {
    let mut world = World::new(scenario.seed);
    world.probe_mut().arm(probe);
    let report = run_prepared(&mut world, scenario);
    let digest = trace_digest(&world);
    (report, digest, world)
}

/// FNV-1a over a world's observable record: every retained trace entry,
/// every experiment counter, and the run-wide frame totals.
pub fn trace_digest(world: &World) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for e in world.trace().entries() {
        eat(format!("{:?}\t{:?}\t{}\n", e.at, e.node, e.msg).as_bytes());
    }
    for (key, value) in world.counters().iter() {
        eat(format!("{key}\t{value}\n").as_bytes());
    }
    eat(format!("{}\t{}\n", world.frames_sent(), world.frames_delivered()).as_bytes());
    h
}

/// Everything a run derives once from `(scenario, topology, workload)`
/// before the world is built.
struct Plan {
    /// Switchlets every bridge boots.
    boot: &'static [&'static str],
    /// Configuration every bridge is built with.
    cfg: BridgeConfig,
    /// Per bridge, the ports BPDU guard err-disables (all empty unless
    /// the defense plane is armed).
    guard: Vec<Vec<usize>>,
    /// When the workload starts.
    epoch: SimTime,
    /// When the run ends (before the quiet window).
    end: SimTime,
    /// Frames the quiet window may carry.
    quiet_allowed: u64,
}

impl Plan {
    fn new(scenario: &Scenario, topo: &Topology, wl: &Workload) -> Plan {
        // Loopy topologies need the spanning tree; hostile batteries boot
        // it everywhere (BPDU guard and rogue-root detection need it),
        // even on acyclic shapes.
        let stp = topo.cyclic() || wl.injects_attacks();
        let mut cfg = BridgeConfig {
            expected_stations: wl.host_count() as usize + topo.bridges.len(),
            ..BridgeConfig::default()
        };
        let mut guard = vec![Vec::new(); topo.bridges.len()];
        if scenario.defended {
            cfg.learn_cap = DEFENSE_LEARN_CAP;
            cfg.learn_port_quota = DEFENSE_PORT_QUOTA;
            cfg.storm_broadcast = Some(DEFENSE_STORM);
            cfg.storm_unknown = Some(DEFENSE_STORM);
            // A defended bridge err-disables host-facing edge ports
            // (segments that touch exactly one bridge) on any received
            // BPDU: no end system has a legitimate reason to speak
            // spanning tree.
            let edge = |seg: &usize| {
                topo.bridges
                    .iter()
                    .filter(|b| b.segments.contains(seg))
                    .count()
                    == 1
            };
            for (ports, spec) in guard.iter_mut().zip(&topo.bridges) {
                ports.extend((0..spec.segments.len()).filter(|&port| edge(&spec.segments[port])));
            }
        }
        // A spanning tree must be fully forwarding (two forward-delay
        // intervals plus margin) before traffic starts.
        let epoch = if stp {
            SimTime::from_secs(40)
        } else {
            SimTime::from_ms(200)
        };
        let end = SimTime::ZERO
            + scenario.duration.unwrap_or(
                SimDuration::from_ns(epoch.as_ns()) + wl.span() + SimDuration::from_secs(2),
            );
        let total_ports: u64 = topo.bridges.iter().map(|b| b.segments.len() as u64).sum();
        Plan {
            boot: if stp {
                &["bridge_learning", STP_NAME]
            } else {
                topo.default_boot()
            },
            cfg,
            guard,
            epoch,
            end,
            // Nothing but spanning-tree hellos may talk in the quiet
            // window: per designated port one hello every 2 s, so ≤ 3 in
            // 4 s, plus slack for ages/boundary effects.
            quiet_allowed: if stp { 3 * total_ports + 8 } else { 8 },
        }
    }
}

/// The shared body of [`run`]/[`run_in`]/[`run_traced`]: build the
/// topology and workload into the (fresh or freshly-reset) world, drive
/// the run, judge the invariants.
fn run_prepared(world: &mut World, scenario: &Scenario) -> Report {
    let topo = topo::generate(scenario.shape, scenario.seed);
    assert!(topo.is_connected(), "generated topologies are connected");
    let wl = workload::generate(scenario.battery, &topo, scenario.seed);
    let plan = Plan::new(scenario, &topo, &wl);

    // Topology-derived pre-sizing: the world's node/segment tables and
    // every bridge's learning table are sized for the full population up
    // front, so per-frame work at metro scale never grows a table.
    world.reserve_topology(
        topo.bridges.len() + wl.host_count() as usize,
        topo.segments.len(),
    );
    let built = topo::instantiate(world, &topo, &plan.cfg, plan.boot);
    for (&b, ports) in built.bridges.iter().zip(&plan.guard) {
        if !ports.is_empty() {
            world
                .node_mut::<BridgeNode>(b)
                .set_bpdu_guard(ports.clone());
        }
    }

    // Armed flight recorder ⇒ also collect per-function VM hot counters
    // on every bridge (the trace subcommand's hot-function table).
    // Profiling is passive: results, fuel accounting and `ExecStats`
    // are untouched.
    if world.probe().is_armed() {
        for &b in &built.bridges {
            world.node_mut::<BridgeNode>(b).enable_vm_profile();
        }
    }

    let placed = materialize(world, &built, &topo, &wl, plan.epoch);
    // Chaos steps go onto the world event queue up-front (not the slice
    // grid): their order relative to traffic is fixed by `(time, seq)`
    // alone, so a chaotic run replays byte-for-byte at any worker
    // count. A transparent script schedules nothing.
    wl.chaos
        .schedule(world, plan.epoch, &built.segs, &built.bridges);
    let samples = drive(world, &built, &topo, &wl, &plan);

    // Quiet tail: nothing should be talking except spanning-tree hellos.
    let before = world.stats();
    world.run_until(plan.end + QUIET_WINDOW);
    let after = world.stats();
    let mut report = Report {
        scenario: scenario.clone(),
        cyclic: topo.cyclic(),
        n_segments: topo.segments.len(),
        n_bridges: topo.bridges.len(),
        epoch: plan.epoch,
        end: plan.end,
        converged_at: samples.converged_at,
        quiet_tx: after.total_tx_frames() - before.total_tx_frames(),
        world: after,
        quiet_allowed: plan.quiet_allowed,
        bridges: bridge_reports(world, &built, wl.injects_attacks()),
        apps: judge_apps(world, &wl, &placed, &topo),
        vm_fuel: built
            .bridges
            .iter()
            .map(|&b| world.node::<BridgeNode>(b).plane().stats.vm_instructions)
            .sum(),
        recovery: None,
        resilience: None,
        security: None,
        invariants: Vec::new(),
    };
    let run = Observed {
        world,
        topo: &topo,
        placed: &placed,
        samples: &samples,
    };
    judge_invariants(&mut report, &wl, &run);
    report
}

/// What the slice loop samples on its grid.
#[derive(Default)]
struct Samples {
    /// The last slice boundary at which any bridge's port flags or
    /// elected root had changed.
    converged_at: Option<SimTime>,
    /// The first slice boundary after the script's last heal at which
    /// new frames had been delivered.
    first_delivery_after_heal: Option<SimTime>,
    /// The largest learning-table occupancy any bridge showed (hostile
    /// runs only).
    max_learn_occupancy: u64,
    /// Did any bridge publish a spanning-tree root that is not a real
    /// bridge of this topology (hostile runs only)?
    rogue_root_seen: bool,
}

/// Drive the world to `plan.end` in [`SLICE`]s: apply the fault-script
/// steps due in each slice, run it, then sample convergence, delivery
/// after the last heal and — on hostile runs — security telemetry.
fn drive(
    world: &mut World,
    built: &topo::BuiltTopology,
    topo: &Topology,
    wl: &Workload,
    plan: &Plan,
) -> Samples {
    let mut faults: Vec<(SimTime, &FaultAction)> = wl
        .faults
        .iter()
        .map(|(at, f)| (plan.epoch + *at, f))
        .collect();
    faults.sort_by_key(|(at, _)| *at);
    let mut faults = faults.into_iter().peekable();
    let heal_at = wl.chaos.last_heal_at().map(|d| plan.epoch + d);
    let mut delivered_at_heal: Option<u64> = None;
    let real_macs: Option<Vec<ether::MacAddr>> = wl.injects_attacks().then(|| {
        topo.bridges
            .iter()
            .map(|b| active_bridge::scenario_impl::bridge_mac(b.index))
            .collect()
    });
    let mut signature = Signature::new(world, built);
    let mut samples = Samples::default();
    let mut now = SimTime::ZERO;
    while now < plan.end {
        now = (now + SLICE).min(plan.end);
        while let Some((_, action)) = faults.next_if(|(at, _)| *at <= now) {
            let (seg, fault) = match action {
                FaultAction::Set { seg, fault } => (seg, fault.clone()),
                FaultAction::Clear { seg } => (seg, netsim::FaultConfig::default()),
            };
            world.set_segment_fault(built.segs[*seg], fault);
        }
        world.run_until(now);
        if let Some(real_macs) = &real_macs {
            for &b in &built.bridges {
                let plane = world.node::<BridgeNode>(b).plane();
                samples.max_learn_occupancy =
                    samples.max_learn_occupancy.max(plane.learn.len() as u64);
                if let Some(snap) = plane.published.get(STP_NAME) {
                    samples.rogue_root_seen |= !real_macs.contains(&snap.root_mac);
                }
            }
        }
        if signature.refresh(world, built) {
            samples.converged_at = Some(now);
        }
        // Time-to-first-delivery after the script's last heal: the
        // baseline is the delivery count at the first boundary past the
        // heal, and recovery is the first later boundary where it has
        // grown.
        if heal_at.is_some_and(|heal| now >= heal) && samples.first_delivery_after_heal.is_none() {
            match delivered_at_heal {
                None => delivered_at_heal = Some(world.frames_delivered()),
                Some(base) if world.frames_delivered() > base => {
                    samples.first_delivery_after_heal = Some(now);
                }
                Some(_) => {}
            }
        }
    }
    samples
}

/// Port forwarding flags plus elected root per bridge: when this stops
/// changing, the control plane has converged.
struct Signature(Vec<(Vec<bool>, Option<ether::MacAddr>)>);

impl Signature {
    fn new(world: &World, built: &topo::BuiltTopology) -> Signature {
        let mut sig = Signature(vec![(Vec::new(), None); built.bridges.len()]);
        sig.refresh(world, built);
        sig
    }

    /// Bring the signature up to date in place; `true` if it changed.
    fn refresh(&mut self, world: &World, built: &topo::BuiltTopology) -> bool {
        let mut changed = false;
        for ((forward, root), &b) in self.0.iter_mut().zip(&built.bridges) {
            let plane = world.node::<BridgeNode>(b).plane();
            let flags = plane.flags().iter().map(|f| f.forward);
            if !forward.iter().copied().eq(flags.clone()) {
                forward.clear();
                forward.extend(flags);
                changed = true;
            }
            let elected = plane.published.get(STP_NAME).map(|s| s.root_mac);
            if *root != elected {
                *root = elected;
                changed = true;
            }
        }
        changed
    }
}

/// Add the workload's hosts to the world, apps wrapped in start delays so
/// the whole schedule is declared before the world runs.
fn materialize(
    world: &mut World,
    built: &topo::BuiltTopology,
    topo: &Topology,
    wl: &Workload,
    epoch: SimTime,
) -> Vec<Placed> {
    use active_bridge::scenario_impl::{bridge_ip, host_ip, host_mac};
    let epoch = SimDuration::from_ns(epoch.as_ns());
    let mut next_host: u32 = 1;
    let mut host = |world: &mut World, seg: usize, apps: Vec<App>| -> (NodeId, u32) {
        let n = next_host;
        next_host += 1;
        let id = world.add_node(HostNode::new(
            format!("host{n}"),
            // Workload endpoints resolve at most a handful of peers.
            HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE).with_arp_hint(4),
            apps,
        ));
        world.attach(id, built.segs[seg]);
        (id, n)
    };
    wl.items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            // Two-host actions create the receiver first: the sender's
            // app needs its address.
            let (receiver, from_seg, app) = match &item.action {
                AppAction::Ping {
                    from_seg,
                    to_seg,
                    count,
                    payload,
                    interval,
                } => {
                    let (rx, rx_n) = host(world, *to_seg, vec![]);
                    let ping = PingApp::new(
                        PortId(0),
                        host_ip(rx_n),
                        *count,
                        *payload,
                        *interval,
                        0x5000 + i as u16,
                    );
                    (Some(rx), *from_seg, ping)
                }
                AppAction::Ttcp {
                    from_seg,
                    to_seg,
                    total_bytes,
                    write_size,
                } => {
                    let port = 5001 + i as u16;
                    let recv = TtcpRecvApp::new(port, ReceiverConfig::default());
                    let (rx, rx_n) = host(world, *to_seg, vec![recv]);
                    let send = TtcpSendApp::new(
                        PortId(0),
                        host_ip(rx_n),
                        port,
                        port,
                        *total_bytes,
                        *write_size,
                        SenderConfig::default(),
                    );
                    (Some(rx), *from_seg, send)
                }
                AppAction::Blast {
                    from_seg,
                    to_seg,
                    size,
                    count,
                    interval,
                } => {
                    let (rx, rx_n) = host(world, *to_seg, vec![]);
                    let blast = BlastApp::new(PortId(0), host_mac(rx_n), *size, *count, *interval);
                    (Some(rx), *from_seg, blast)
                }
                AppAction::Upload {
                    from_seg,
                    bridge,
                    kind,
                } => {
                    let upload = UploadApp::with_config(
                        PortId(0),
                        bridge_ip(topo.bridges[*bridge].index),
                        3000 + i as u16,
                        kind.file_name(i),
                        kind.image(i as u32),
                        kind.config(),
                    );
                    (None, *from_seg, upload)
                }
                AppAction::Attack {
                    from_seg,
                    count,
                    interval,
                    kind,
                } => (None, *from_seg, kind.app(*count, *interval)),
                AppAction::Crowd { seg, hosts } => {
                    assert!(*hosts > 0, "a crowd needs at least one host");
                    let crowd: Vec<NodeId> =
                        (0..*hosts).map(|_| host(world, *seg, vec![]).0).collect();
                    return Placed {
                        sender: crowd[0],
                        receiver: None,
                        crowd,
                    };
                }
            };
            let start = epoch + item.offset;
            let (sender, _) = host(world, from_seg, vec![App::delayed(start, app)]);
            Placed {
                sender,
                receiver,
                crowd: Vec::new(),
            }
        })
        .collect()
}

/// Inspect every placed app and compute its outcome, in workload order.
fn judge_apps(world: &World, wl: &Workload, placed: &[Placed], topo: &Topology) -> Vec<AppReport> {
    wl.items
        .iter()
        .zip(placed)
        .map(|(item, p)| {
            let report = |from_seg: usize, to_seg: usize, ok, detail, metrics| AppReport {
                label: item.action.label(),
                phase: item.phase,
                from_seg,
                to_seg,
                ok,
                detail,
                metrics,
            };
            // Crowds run no application; judge them on reception alone.
            if let AppAction::Crowd { seg, hosts } = &item.action {
                let hosts = *hosts as u64;
                let mut heard = 0u64;
                let mut frames_rx = 0u64;
                for &h in &p.crowd {
                    let rx = world.node::<HostNode>(h).core.frames_rx;
                    heard += u64::from(rx > 0);
                    frames_rx += rx;
                }
                return report(
                    *seg,
                    *seg,
                    heard == hosts,
                    vec![("hosts", hosts), ("heard", heard), ("frames_rx", frames_rx)],
                    AppMetrics::delivery(hosts > 0, (hosts > 0).then(|| heard * 1000 / hosts)),
                );
            }
            let app = world.node::<HostNode>(p.sender).app(0).unwrapped();
            match (&item.action, app) {
                (
                    AppAction::Ping {
                        from_seg,
                        to_seg,
                        count,
                        ..
                    },
                    App::Ping(a),
                ) => report(
                    *from_seg,
                    *to_seg,
                    a.received == *count,
                    vec![("sent", a.sent as u64), ("received", a.received as u64)],
                    // A ping that got no replies has no RTT measurement:
                    // the sketch is empty and `valid` is false, so every
                    // derived statistic renders null (the old report
                    // emitted `avg_rtt_ns: 0` here — indistinguishable
                    // from a perfect round trip).
                    AppMetrics {
                        kind: "rtt",
                        valid: a.received > 0,
                        delivery_pm: (a.sent > 0).then(|| a.received as u64 * 1000 / a.sent as u64),
                        sketch: Some(Sketch::from_samples(a.rtts.iter().map(|d| d.as_ns()))),
                    },
                ),
                (
                    AppAction::Ttcp {
                        from_seg,
                        to_seg,
                        total_bytes,
                        ..
                    },
                    App::TtcpSend(a),
                ) => {
                    let (received, jitter) = p
                        .receiver
                        .map(|r| match world.node::<HostNode>(r).app(0).unwrapped() {
                            App::TtcpRecv(rx) => (
                                rx.bytes_received(),
                                Sketch::from_samples(rx.inter_arrival_ns.iter().copied()),
                            ),
                            _ => (0, Sketch::new()),
                        })
                        .unwrap_or_else(|| (0, Sketch::new()));
                    let elapsed = match (a.started_at, a.done_at) {
                        (Some(s), Some(e)) => e.saturating_since(s),
                        _ => SimDuration::ZERO,
                    };
                    let throughput_bps = if elapsed.is_zero() {
                        0
                    } else {
                        total_bytes * 8 * 1_000_000_000 / elapsed.as_ns()
                    };
                    report(
                        *from_seg,
                        *to_seg,
                        a.is_done() && received == *total_bytes,
                        vec![
                            ("bytes", received),
                            ("frames", a.frames_sent),
                            ("elapsed_ns", elapsed.as_ns()),
                            ("throughput_bps", throughput_bps),
                        ],
                        AppMetrics {
                            kind: "jitter",
                            valid: jitter.count() > 0,
                            delivery_pm: (*total_bytes > 0)
                                .then(|| received.min(*total_bytes) * 1000 / total_bytes),
                            sketch: Some(jitter),
                        },
                    )
                }
                (
                    AppAction::Blast {
                        from_seg,
                        to_seg,
                        count,
                        ..
                    },
                    App::Blast(a),
                ) => {
                    let received = p
                        .receiver
                        .map(|r| world.node::<HostNode>(r).core.exp_frames_rx)
                        .unwrap_or(0);
                    report(
                        *from_seg,
                        *to_seg,
                        a.sent == *count && received == *count,
                        vec![("sent", a.sent), ("received", received)],
                        AppMetrics::delivery(
                            *count > 0,
                            (*count > 0).then(|| received.min(*count) * 1000 / count),
                        ),
                    )
                }
                (
                    AppAction::Upload {
                        from_seg,
                        bridge,
                        kind,
                    },
                    App::Upload(a),
                ) => {
                    let done = a.is_done() && a.failed.is_none();
                    let parked = u64::from(a.failed.is_some());
                    let classified = a.failure == Some(FailureClass::IntegrityReject);
                    let mut detail =
                        vec![("bridge", *bridge as u64), ("done", u64::from(a.is_done()))];
                    match kind {
                        UploadKind::Inert | UploadKind::Trap => {
                            detail.push(("retries", a.retries as u64))
                        }
                        UploadKind::Sealed { .. } => detail.extend([
                            ("parked", parked),
                            ("retries", a.retries as u64),
                            ("restarts", a.restarts as u64),
                            ("rto_ceiling_hits", a.rto_ceiling_hits as u64),
                            ("budget_used", a.budget_used() as u64),
                            ("budget", a.cfg.max_retries as u64),
                        ]),
                        UploadKind::Corrupt => detail.extend([
                            ("parked", parked),
                            ("classified_integrity", u64::from(classified)),
                            ("retries", a.retries as u64),
                            ("restarts", a.restarts as u64),
                        ]),
                    }
                    // Like every other label, to_seg is a segment index;
                    // the target bridge goes in the detail.
                    let to_seg = topo.bridges[*bridge].segments[0];
                    if *kind == UploadKind::Corrupt {
                        // The poisoned image must *never* complete: success
                        // here is the gate refusing every re-send and the
                        // sender parking with a classified integrity
                        // reject.
                        let ok = !a.is_done() && classified;
                        let metrics = AppMetrics::delivery(true, Some(if ok { 1000 } else { 0 }));
                        report(*from_seg, to_seg, ok, detail, metrics)
                    } else {
                        let metrics = AppMetrics {
                            kind: "timeline",
                            valid: done,
                            delivery_pm: Some(if done { 1000 } else { 0 }),
                            sketch: Some(Sketch::from_samples(a.progress_gap_ns.iter().copied())),
                        };
                        report(*from_seg, to_seg, done, detail, metrics)
                    }
                }
                // Attack apps carry no receiver: they are judged only on
                // having fired their full schedule (whether the network
                // absorbed or suppressed them is the invariants' job).
                // Only a `sent` detail key, deliberately no `received`,
                // so `no_duplicate_delivery` skips them.
                (
                    AppAction::Attack {
                        from_seg, count, ..
                    },
                    App::MacFlood(hostsim::MacFloodApp { sent, .. })
                    | App::ArpStorm(hostsim::ArpStormApp { sent, .. })
                    | App::RogueBpdu(hostsim::RogueBpduApp { sent, .. }),
                ) => report(
                    *from_seg,
                    *from_seg,
                    *sent == *count,
                    vec![("sent", *sent)],
                    AppMetrics::delivery(
                        *count > 0,
                        (*count > 0).then(|| (*sent).min(*count) * 1000 / count),
                    ),
                ),
                (action, _) => unreachable!(
                    "placed app for {} does not match its action",
                    action.label()
                ),
            }
        })
        .collect()
}

/// Per-bridge counters. The security keys only render on hostile runs so
/// every pre-existing report stays byte-identical.
fn bridge_reports(
    world: &World,
    built: &topo::BuiltTopology,
    include_security: bool,
) -> Vec<BridgeReport> {
    built
        .bridges
        .iter()
        .map(|&b| {
            let node = world.node::<BridgeNode>(b);
            let plane = node.plane();
            let mut counters = plane.stats.as_pairs().to_vec();
            if !include_security {
                counters.retain(|(k, _)| !BridgeStats::SECURITY_KEYS.contains(k));
            }
            BridgeReport {
                name: world.node_name(b).to_owned(),
                root: plane
                    .published
                    .get(STP_NAME)
                    .map(|s| s.root_mac.to_string()),
                blocked_ports: plane.flags().iter().filter(|f| !f.forward).count() as u64,
                counters,
            }
        })
        .collect()
}

/// What a finished run leaves the judges besides its report: the world,
/// the topology, where each workload item's hosts went, and the slice
/// samples.
struct Observed<'a> {
    world: &'a World,
    topo: &'a Topology,
    placed: &'a [Placed],
    samples: &'a Samples,
}

/// Judge every plane the workload exercises, in report order — base,
/// recovery, resilience, watchdog, security — and attach each plane's
/// report section.
fn judge_invariants(report: &mut Report, wl: &Workload, run: &Observed) {
    let mut invariants = base_plane(report, wl, run);
    let (recovery, judged) = recovery_plane(report, wl, run);
    invariants.extend(judged);
    let (resilience, judged) = resilience_plane(report, wl, run);
    invariants.extend(judged);
    invariants.extend(watchdog_plane(wl, run));
    let (security, judged) = security_plane(report, wl, run);
    invariants.extend(judged);
    report.recovery = recovery;
    report.resilience = resilience;
    report.security = security;
    report.invariants = invariants;
}

/// One judged invariant: `Pass` when it `held`, otherwise `Waived` when
/// the run `excused` it, otherwise `Fail`.
fn judge(name: &'static str, held: bool, excused: bool, detail: String) -> InvariantResult {
    let verdict = if held {
        Verdict::Pass
    } else if excused {
        Verdict::Waived
    } else {
        Verdict::Fail
    };
    InvariantResult {
        name,
        verdict,
        detail,
    }
}

/// `label from→to`, how invariant details name a flow.
fn flow(a: &AppReport) -> String {
    format!("{} {}→{}", a.label, a.from_seg, a.to_seg)
}

/// An app's detail counter `key`, if it reports one.
fn detail(a: &AppReport, key: &str) -> Option<u64> {
    a.detail.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The sum of bridge counter `key` across every bridge.
fn bridge_total(bridges: &[BridgeReport], key: &str) -> u64 {
    bridges
        .iter()
        .flat_map(|b| &b.counters)
        .filter(|&&(k, _)| k == key)
        .map(|&(_, v)| v)
        .sum()
}

/// The control arm runs the attacks with every defense off: it exists to
/// prove the attacks bite, so the usual health invariants are waived
/// there and `attack_degrades_undefended` judges it instead.
fn control_arm(report: &Report, wl: &Workload) -> bool {
    wl.injects_attacks() && !report.scenario.defended
}

/// The base plane, judged on every run: `connected`,
/// `converged_before_workload`, `no_storm`, `no_loss_after_convergence`,
/// `no_duplicate_delivery`, `single_root` (loopy topologies) and
/// `uploads_alive` (when uploads must run their `init`).
fn base_plane(r: &Report, wl: &Workload, run: &Observed) -> Vec<InvariantResult> {
    let control_arm = control_arm(r, wl);
    let downtime = wl.injects_downtime();
    let mut out = vec![judge(
        "connected",
        run.topo.is_connected(),
        false,
        format!(
            "{} segments reachable through {} bridges",
            r.n_segments, r.n_bridges
        ),
    )];

    // Convergence: the control plane must settle before the workload
    // epoch and stay settled to the end. Scripted downtime legitimately
    // moves port states mid-run, so it waives this — the
    // `reconverges_after_heal` invariant takes over. So do hostile
    // batteries: a rogue BPDU (or the guard err-disabling its port)
    // changes the control-plane signature by design after the epoch.
    out.push(judge(
        "converged_before_workload",
        r.converged_at.is_none_or(|t| t <= r.epoch),
        downtime || wl.injects_attacks(),
        match r.converged_at {
            Some(t) => format!(
                "last control-plane change at {} ns (epoch {} ns)",
                t.as_ns(),
                r.epoch.as_ns()
            ),
            None => "control plane never changed".to_owned(),
        },
    ));

    // An undefended rogue root ages out (max-age) inside the quiet window
    // and the real tree re-elects itself there.
    out.push(judge(
        "no_storm",
        r.quiet_tx <= r.quiet_allowed,
        control_arm,
        format!(
            "{} frames in the quiet window (allowed {})",
            r.quiet_tx, r.quiet_allowed
        ),
    ));

    // Loss: blasts are raw and unacknowledged, so a scripted drop fault
    // or scripted downtime waives them — as are loaded-phase probes,
    // which run *inside* the scripted fault window precisely to measure
    // how much is lost (their losses feed the degradation score, not
    // the invariant). Attacks running without defenses are *expected* to
    // hurt the victims. Everything else carries its own recovery and
    // stays strict.
    let drops_scripted = wl.injects_drops() || downtime;
    let mut lost = Vec::new();
    let mut waived_loss = 0u64;
    for (item, a) in wl.items.iter().zip(&r.apps) {
        if a.ok {
            continue;
        }
        let blast = matches!(item.action, AppAction::Blast { .. });
        if control_arm || drops_scripted && (blast || a.phase == Phase::Loaded) {
            waived_loss += 1;
        } else {
            lost.push(flow(a));
        }
    }
    out.push(judge(
        "no_loss_after_convergence",
        lost.is_empty() && waived_loss == 0,
        lost.is_empty(),
        if lost.is_empty() {
            format!(
                "{} workload items delivered ({waived_loss} waived under scripted faults)",
                r.apps.len() as u64 - waived_loss
            )
        } else {
            format!("undelivered: {}", lost.join(", "))
        },
    ));

    // Duplicates: a receiver seeing more than was sent means a forwarding
    // loop. Scripted duplication waives this, as does scripted downtime
    // (a healing ring can loop transiently while the spanning tree
    // re-blocks a port) and the undefended attack arm (a rogue root can
    // transiently re-open a blocked port).
    let duplicated: Vec<String> = r
        .apps
        .iter()
        .filter_map(|a| {
            let (sent, received) = (detail(a, "sent")?, detail(a, "received")?);
            (received > sent).then(|| format!("{} ({received} > {sent})", flow(a)))
        })
        .collect();
    out.push(judge(
        "no_duplicate_delivery",
        duplicated.is_empty(),
        wl.injects_duplicates() || downtime || control_arm,
        if duplicated.is_empty() {
            "no receiver saw more frames than were sent".to_owned()
        } else {
            format!("duplicated: {}", duplicated.join(", "))
        },
    ));

    if r.cyclic {
        let roots: std::collections::BTreeSet<&str> =
            r.bridges.iter().filter_map(|b| b.root.as_deref()).collect();
        out.push(judge(
            "single_root",
            roots.len() == 1,
            false,
            format!("elected roots: {roots:?}"),
        ));
    }

    let uploads = wl
        .items
        .iter()
        .filter(|i| matches!(&i.action, AppAction::Upload { kind, .. } if kind.counts_alive()))
        .count() as u64;
    if uploads > 0 {
        let alive = run.world.counters().get(workload::UPLOAD_ALIVE_COUNTER);
        out.push(judge(
            "uploads_alive",
            alive == uploads,
            false,
            format!("{alive} of {uploads} uploaded switchlets ran init"),
        ));
    }
    out
}

/// The recovery plane, on runs that script downtime (link flaps, bridge
/// crashes): the `recovery` section plus `reconverges_after_heal` and
/// `no_permanent_blackhole`.
fn recovery_plane(
    r: &Report,
    wl: &Workload,
    run: &Observed,
) -> (Option<RecoveryReport>, Vec<InvariantResult>) {
    if !wl.injects_downtime() {
        return (None, Vec::new());
    }
    let heal_offset = wl.chaos.last_heal_at();
    let heal = r.epoch + heal_offset.unwrap_or(SimDuration::ZERO);
    let section = heal_offset.map(|_| RecoveryReport {
        last_heal: heal,
        down_drops: r.world.segments.iter().map(|s| s.counters.down_drops).sum(),
        crashes: wl.chaos.crash_count(),
        time_to_first_delivery: run
            .samples
            .first_delivery_after_heal
            .map(|t| t.saturating_since(heal)),
    });

    // After the last heal the control plane must settle within a bound:
    // a spanning-tree re-convergence around a restarted bridge (max-age
    // expiry plus two forward-delay intervals) on loopy topologies, a
    // re-flood on learning-only ones.
    let bound = if r.cyclic {
        SimDuration::from_secs(55)
    } else {
        SimDuration::from_secs(5)
    };
    let reconverged = judge(
        "reconverges_after_heal",
        r.converged_at.is_none_or(|t| t <= heal + bound),
        false,
        match r.converged_at {
            Some(t) => format!(
                "last control-plane change at {} ns (heal {} ns, bound {} ns)",
                t.as_ns(),
                heal.as_ns(),
                bound.as_ns()
            ),
            None => "control plane never changed".to_owned(),
        },
    );

    // No permanent blackhole: every reliable main-phase flow scheduled at
    // or after the last heal must succeed. Raw blasts are excluded — the
    // watchdog probe intentionally sacrifices a few frames to the trap
    // threshold.
    let heal_offset = heal_offset.unwrap_or(SimDuration::ZERO);
    let probes: Vec<&AppReport> = wl
        .items
        .iter()
        .zip(&r.apps)
        .filter(|(item, _)| {
            item.phase == Phase::Main
                && item.offset >= heal_offset
                && !matches!(item.action, AppAction::Blast { .. })
        })
        .map(|(_, a)| a)
        .collect();
    let dead: Vec<String> = probes.iter().filter(|a| !a.ok).map(|a| flow(a)).collect();
    let blackhole = judge(
        "no_permanent_blackhole",
        dead.is_empty() && !probes.is_empty(),
        dead.is_empty(),
        if dead.is_empty() {
            format!("{} post-heal probes delivered", probes.len())
        } else {
            format!("dead after heal: {}", dead.join(", "))
        },
    );
    (section, vec![reconverged, blackhole])
}

/// The resilience plane, on runs that script bursty loss (the lossy
/// battery): the `resilience` section plus `uploads_complete_under_loss`,
/// `retries_within_budget`, `corrupted_image_never_activates` and
/// `no_livelock`. They hold the adaptive transport and the integrity gate
/// to account *under* the hostile medium, so none is waived there except
/// for want of the upload it judges.
fn resilience_plane(
    r: &Report,
    wl: &Workload,
    run: &Observed,
) -> (Option<ResilienceReport>, Vec<InvariantResult>) {
    if !wl.injects_bursts() {
        return (None, Vec::new());
    }
    let mut section = ResilienceReport {
        retries: 0,
        restarts: 0,
        rto_ceiling_hits: 0,
        integrity_rejects: bridge_total(&r.bridges, "images_rejected"),
        burst_drops: r
            .world
            .segments
            .iter()
            .map(|s| s.counters.burst_drops)
            .sum(),
        max_stall: None,
    };
    let mut max_stall_ns = 0u64;
    let mut sealed = Vec::new();
    let mut corrupt = Vec::new();
    for ((item, p), a) in wl.items.iter().zip(run.placed).zip(&r.apps) {
        let AppAction::Upload { kind, .. } = item.action else {
            continue;
        };
        match kind {
            UploadKind::Sealed { .. } => sealed.push(a),
            UploadKind::Corrupt => corrupt.push(a),
            UploadKind::Inert | UploadKind::Trap => {}
        }
        if let App::Upload(u) = run.world.node::<HostNode>(p.sender).app(0).unwrapped() {
            section.retries += u.retries as u64;
            section.restarts += u.restarts as u64;
            section.rto_ceiling_hits += u.rto_ceiling_hits as u64;
            max_stall_ns = max_stall_ns.max(u.progress_gap_ns.iter().copied().max().unwrap_or(0));
        }
    }
    section.max_stall = (max_stall_ns > 0).then(|| SimDuration::from_ns(max_stall_ns));
    let counter = |a: &AppReport, key| detail(a, key).unwrap_or(0);
    let mut out = Vec::new();

    // Every sealed upload must complete despite the burst model chewing
    // on its segment (and, in the lossy battery, a bridge crash
    // mid-transfer).
    let incomplete = sealed.iter().filter(|a| !a.ok).count();
    out.push(judge(
        "uploads_complete_under_loss",
        !sealed.is_empty() && incomplete == 0,
        sealed.is_empty(),
        format!(
            "{} of {} sealed uploads completed under bursty loss",
            sealed.len() - incomplete,
            sealed.len()
        ),
    ));

    // ... and must get there inside its recovery budget: no sealed upload
    // parked, none spent more than `max_retries` actions.
    let mut worst_used = 0u64;
    let mut budget = 0u64;
    let mut blown = 0u64;
    for a in &sealed {
        let used = counter(a, "budget_used");
        worst_used = worst_used.max(used);
        budget = counter(a, "budget");
        if counter(a, "parked") > 0 || used > budget {
            blown += 1;
        }
    }
    out.push(judge(
        "retries_within_budget",
        !sealed.is_empty() && blown == 0,
        sealed.is_empty(),
        format!(
            "worst sealed upload spent {worst_used} of {budget} recovery actions ({blown} exhausted)"
        ),
    ));

    // The deliberately poisoned image must be refused at the gate — every
    // re-send rejected, the sender parked with a classified integrity
    // failure, and the payload never evaluated (its init would inflate
    // the `uploads_alive` counter, which that invariant cross-checks).
    let rejects = section.integrity_rejects;
    let unparked = corrupt.iter().filter(|a| !a.ok).count();
    out.push(judge(
        "corrupted_image_never_activates",
        !corrupt.is_empty() && unparked == 0 && rejects >= corrupt.len() as u64,
        corrupt.is_empty(),
        format!(
            "{} corrupt uploads, {rejects} gate rejects, {unparked} escaped classification",
            corrupt.len()
        ),
    ));

    // Every upload under the hostile medium must reach a terminal state —
    // completed or parked — before the run ends; a transport that retries
    // forever would leave one in limbo.
    let judged = sealed.len() + corrupt.len();
    let in_limbo = sealed
        .iter()
        .chain(&corrupt)
        .filter(|a| counter(a, "done") == 0 && counter(a, "parked") == 0)
        .count();
    out.push(judge(
        "no_livelock",
        judged > 0 && in_limbo == 0,
        judged == 0,
        format!(
            "{} of {judged} uploads reached a terminal state",
            judged - in_limbo
        ),
    ));
    (Some(section), out)
}

/// The watchdog plane, on runs scripted to trip it: `quarantine_engages`
/// — exactly the scripted number of quarantines, no more, no fewer.
fn watchdog_plane(wl: &Workload, run: &Observed) -> Vec<InvariantResult> {
    if wl.expected_quarantines == 0 {
        return Vec::new();
    }
    let quarantines = run.world.counters().get("bridge.quarantines");
    vec![judge(
        "quarantine_engages",
        quarantines == wl.expected_quarantines,
        false,
        format!(
            "{quarantines} watchdog quarantines (scripted {})",
            wl.expected_quarantines
        ),
    )]
}

/// The security plane, on runs that field hostile hosts: the `security`
/// section plus `learn_table_bounded`, `victim_flows_survive`,
/// `storm_suppressed_and_released` and `root_stays_stable` for the
/// defended arm, and `attack_degrades_undefended` for the control arm —
/// which must visibly suffer the attacks, or the defended arm proves
/// nothing.
fn security_plane(
    r: &Report,
    wl: &Workload,
    run: &Observed,
) -> (Option<SecurityReport>, Vec<InvariantResult>) {
    if !wl.injects_attacks() {
        return (None, Vec::new());
    }
    let sec = SecurityReport {
        defended: r.scenario.defended,
        max_learn_occupancy: run.samples.max_learn_occupancy,
        learn_evictions: bridge_total(&r.bridges, "learn_evictions"),
        learn_rejects: bridge_total(&r.bridges, "learn_rejects"),
        storm_suppressions: bridge_total(&r.bridges, "storm_suppressions"),
        storm_releases: run.world.counters().get("bridge.storm_releases"),
        bpdu_guard_trips: bridge_total(&r.bridges, "bpdu_guard_trips"),
        rogue_root_seen: run.samples.rogue_root_seen,
    };
    let control_arm = control_arm(r, wl);
    let defended = |name, held, detail| judge(name, !control_arm && held, control_arm, detail);
    let rogue_scheduled = wl.items.iter().any(|i| {
        matches!(
            i.action,
            AppAction::Attack {
                kind: AttackKind::RogueBpdu,
                ..
            }
        )
    });
    let starved: Vec<String> = wl
        .items
        .iter()
        .zip(&r.apps)
        .filter(|(item, a)| !matches!(item.action, AppAction::Attack { .. }) && !a.ok)
        .map(|(_, a)| flow(a))
        .collect();
    // The control arm earns its keep by demonstrating degradation: the
    // flood blows past the (defended-arm) cap, and a scheduled rogue BPDU
    // actually steals the root.
    let degraded = sec.max_learn_occupancy > DEFENSE_LEARN_CAP as u64
        && (!rogue_scheduled || sec.rogue_root_seen);
    let out = vec![
        defended(
            "learn_table_bounded",
            sec.max_learn_occupancy <= DEFENSE_LEARN_CAP as u64,
            format!(
                "max learning-table occupancy {} (cap {DEFENSE_LEARN_CAP})",
                sec.max_learn_occupancy
            ),
        ),
        defended(
            "victim_flows_survive",
            starved.is_empty(),
            if starved.is_empty() {
                "every victim flow completed under attack".to_owned()
            } else {
                format!("starved under attack: {}", starved.join(", "))
            },
        ),
        defended(
            "storm_suppressed_and_released",
            sec.storm_suppressions > 0 && sec.storm_suppressions == sec.storm_releases,
            format!(
                "{} suppressions, {} releases",
                sec.storm_suppressions, sec.storm_releases
            ),
        ),
        defended(
            "root_stays_stable",
            !sec.rogue_root_seen && (!rogue_scheduled || sec.bpdu_guard_trips > 0),
            format!(
                "rogue root seen: {}, guard trips: {} (rogue scheduled: {rogue_scheduled})",
                sec.rogue_root_seen, sec.bpdu_guard_trips
            ),
        ),
        judge(
            "attack_degrades_undefended",
            control_arm && degraded,
            !control_arm,
            format!(
                "max occupancy {} vs cap {DEFENSE_LEARN_CAP}, rogue root seen: {}",
                sec.max_learn_occupancy, sec.rogue_root_seen
            ),
        ),
    ];
    (Some(sec), out)
}
