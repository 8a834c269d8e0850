//! perfbench — the repository's benchmark: four workloads, each measured
//! end to end, plus a traced run that splits the time across the layers
//! (`netsim`, `core`, `switchlet`, `hostsim`, `scenario`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ttcp_native --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A workload is a fixed batch of work generated from `--seed`. The run
//! discards one warm-up batch, then repeats the batch until `--seconds`
//! have passed (and at least five times). A batch is timed unit by unit
//! (a world, or one sweep of one base seed), and its time is the sum of
//! each unit's fastest run (see [`fastest_per_unit`]).
//! `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced batches and prints the
//! per-layer metrics. Every batch's outputs are checked, and every batch
//! (traced or not) must reproduce the warm-up's simulated digest. The last
//! line of standard output is one JSON object; the exit code is 1 when an
//! output check failed and 2 on bad arguments.

mod batch;
mod heap;
mod spans;
mod stats;
mod sweep;
mod worlds;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use ab_scenario::Json;

use batch::Batch;
use spans::{Layer, Recorder, Totals};
use stats::{median, percentile, ratio, tail_percentile};
use sweep::SweepSize;
use worlds::{MetroSize, TtcpSize};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = ["ttcp_native", "ttcp_vm", "metro_flood", "sweep_mixed"];

#[derive(Copy, Clone, Debug)]
enum Kind {
    Ttcp { vm: bool, size: TtcpSize },
    Metro(MetroSize),
    Sweep(SweepSize),
}

struct Workload {
    name: &'static str,
    kind: Kind,
    /// Batches measured even when `--seconds` has passed.
    min_batches: usize,
}

impl Workload {
    /// The input sizes. `quick` shrinks every batch for the self-test.
    fn new(name: &str, quick: bool) -> Option<Workload> {
        let ttcp = |mib: u64| TtcpSize {
            worlds: 4,
            bytes: if quick { 1 << 20 } else { mib << 20 },
        };
        let kind = match name {
            "ttcp_native" => Kind::Ttcp {
                vm: false,
                size: ttcp(32),
            },
            "ttcp_vm" => Kind::Ttcp {
                vm: true,
                size: ttcp(16),
            },
            "metro_flood" => Kind::Metro(MetroSize {
                worlds: 4,
                blasts: if quick { 20 } else { 64 },
            }),
            "sweep_mixed" => Kind::Sweep(SweepSize {
                seeds: if quick { 1 } else { 4 },
            }),
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let min_batches = if quick { 1 } else { 5 };
        Some(Workload {
            name,
            kind,
            min_batches,
        })
    }

    fn describe(&self) -> String {
        match self.kind {
            Kind::Ttcp { vm, size } => format!(
                "{} worlds x {} MiB ttcp in {} B writes, pc_1997 hosts, {} calibrated {} bridges",
                size.worlds,
                size.bytes >> 20,
                worlds::TTCP_WRITE,
                worlds::TTCP_BRIDGES,
                if vm { "dumb_vm (bytecode)" } else { "bridge_learning" },
            ),
            Kind::Metro(size) => format!(
                "{} worlds x metro_large (1040 hosts), 16 district blasters x {} floods of 512 B, FREE-cost bridges",
                size.worlds, size.blasts
            ),
            Kind::Sweep(size) => format!(
                "default+adversarial+chaos+lossy sweeps for {} base seeds on {} pool worker",
                size.seeds,
                sweep::JOBS
            ),
        }
    }

    fn batch(&self, seed: u64, rec: Option<&Rc<Recorder>>) -> Batch {
        match self.kind {
            Kind::Ttcp { vm, size } => worlds::ttcp_batch(seed, vm, size, rec),
            Kind::Metro(size) => worlds::metro_batch(seed, size, rec),
            Kind::Sweep(size) => sweep::sweep_batch(seed, size, rec),
        }
    }

    /// Does the benchmark build the worlds itself? Then the traced run
    /// wraps every node, and a failed operation is a failed output check.
    /// The sweep's worlds are built inside `ab_scenario::runner`: node
    /// times are not measured there, and a failed invariant is a verdict
    /// the benchmark only counts.
    fn own_worlds(&self) -> bool {
        !matches!(self.kind, Kind::Sweep(_))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <ttcp_native|ttcp_vm|metro_flood|sweep_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::new(name, quick).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one invocation measured.
struct Run {
    warm_up: Batch,
    plain: Vec<Batch>,
    traced: Vec<Batch>,
    rec: Option<Rc<Recorder>>,
}

fn run(args: &Args) -> Run {
    let wl = &args.workload;
    // The first batch in a process runs slow (cold caches, allocator
    // growth): it sets the reference digest and is not measured.
    let warm_up = wl.batch(args.seed, None);
    let rec = args.trace.then(Recorder::new);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // A traced run needs fewer batches: its per-layer figures are sums.
    let min_batches = match args.trace {
        true => wl.min_batches.min(3),
        false => wl.min_batches,
    };
    let start = Instant::now();
    while plain.len() < min_batches || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(wl.batch(args.seed, None));
        if let Some(rec) = &rec {
            rec.set_run(traced.len() as u32 + 1);
            traced.push(wl.batch(args.seed, Some(rec)));
        }
    }
    Run {
        warm_up,
        plain,
        traced,
        rec,
    }
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Shown after the value, on the human-readable line only.
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        note: String::new(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn job_samples(batches: &[Batch]) -> Vec<f64> {
    batches
        .iter()
        .flat_map(|b| b.job_ns.iter().map(|&ns| ms(ns)))
        .collect()
}

/// Each unit's (or job's) fastest time over the batches, in batch order.
///
/// Batches repeat identical deterministic work, so the spread between
/// them is interference from the machine, not the program. The shared
/// machine this was developed on switches between a fast state and one
/// about 1.6 times slower, for stretches of 0.1 to 20 seconds. Short
/// units catch the fast state in every run, where whole batches often
/// do not; a unit's fastest time is its cost with the least interference
/// the run saw.
fn fastest_per_unit(batches: &[Batch], times: impl Fn(&Batch) -> &[u64]) -> Vec<f64> {
    let mut best: Vec<u64> = times(&batches[0]).to_vec();
    for b in &batches[1..] {
        for (best, &t) in best.iter_mut().zip(times(b)) {
            *best = (*best).min(t);
        }
    }
    best.into_iter().map(|ns| ns as f64).collect()
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let b = &run.plain;
    let wall_s = fastest_per_unit(b, |b| &b.unit_ns).iter().sum::<f64>() / 1e9;
    let setup_s = fastest_per_unit(b, |b| &b.unit_setup_ns).iter().sum::<f64>() / 1e9;
    let allocs: Vec<f64> = b
        .iter()
        .map(|b| ratio(b.allocs as f64, b.frames as f64))
        .collect();
    let jobs: Vec<f64> = fastest_per_unit(b, |b| &b.job_ns)
        .iter()
        .map(|&ns| ns / 1e6)
        .collect();
    let tail_p = tail_percentile(jobs.len());
    let mut tail = metric("scenario_tail_ms", "ms", percentile(&jobs, tail_p));
    tail.note = format!(
        "p{} of {} samples ({} beyond)",
        tail_p as f64 / 10.0,
        jobs.len(),
        stats::beyond(tail_p, jobs.len())
    );
    vec![
        metric(
            "frames_per_s",
            "frames/s",
            ratio(run.warm_up.frames as f64, wall_s),
        ),
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", setup_s),
        metric("allocs_per_frame", "allocs/frame", median(&allocs)),
        metric(
            "peak_heap_mb",
            "MiB",
            heap::peak_bytes() as f64 / (1u64 << 20) as f64,
        ),
        metric("scenario_p50_ms", "ms", median(&jobs)),
        tail,
    ]
}

/// The per-layer metrics, and the table of layer self times.
fn per_layer(wl: &Workload, run: &Run) -> (Vec<Metric>, String) {
    let rec = run
        .rec
        .as_ref()
        .expect("per-layer metrics come from a traced run");
    let t = &run.traced;
    let n = t.len() as f64;
    let sum = |f: &dyn Fn(&Batch) -> u64| t.iter().map(f).sum::<u64>() as f64;
    let measured = |layer: Layer| {
        t.iter().fold(Totals::default(), |acc, b| {
            acc.plus(b.measured[layer as usize])
        })
    };
    // Spans outside the measured phases: set-up work (generation, loads).
    let all = rec.snapshot();
    let setup_ns = |layer: Layer| (all[layer as usize].ns - measured(layer).ns) as f64;

    let frames = sum(&|b| b.frames);
    let traced_wall = sum(&|b| b.wall_ns);
    let (net, core, host, scen) = (
        measured(Layer::Netsim),
        measured(Layer::Core),
        measured(Layer::Hostsim),
        measured(Layer::Scenario),
    );
    let net_self = net.ns.saturating_sub(core.ns + host.ns) as f64;
    let c = t.iter().fold(batch::Counts::default(), |mut acc, b| {
        acc.add(&b.counts);
        acc
    });
    let jobs = job_samples(t);
    let waits: Vec<f64> = t
        .iter()
        .flat_map(|b| b.queue_wait_ns.iter().map(|&ns| ms(ns)))
        .collect();
    let capacity = sum(&|b| b.wall_ns * b.workers);
    let busy = sum(&|b| b.job_ns.iter().sum());
    let plain_wall = median(
        &run.plain
            .iter()
            .map(|b| b.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    let traced_wall_median = median(&t.iter().map(|b| b.wall_ns as f64).collect::<Vec<_>>());
    // Self time per layer over the traced measured phases, against what
    // they could cover: the traced wall, or every worker's share of it in
    // the sweep's pool. The remainder is the benchmark's own loop between
    // world slices, or idle workers.
    let split: Vec<(&str, f64)> = match wl.own_worlds() {
        true => vec![
            ("netsim", net_self),
            ("core", core.ns as f64),
            ("hostsim", host.ns as f64),
            ("remainder", traced_wall - net.ns as f64),
        ],
        false => vec![
            ("scenario", scen.ns as f64),
            ("idle", capacity - scen.ns as f64),
        ],
    };
    let base = match wl.own_worlds() {
        true => traced_wall,
        false => capacity,
    };
    let mut table = String::from("layer self time over the traced measured phases:\n");
    for (name, ns) in &split {
        table += &format!(
            "  {name:<12} {:>10.1} ms  {:>5.1}%\n",
            ns / 1e6,
            100.0 * ratio(*ns, base)
        );
    }
    if !wl.own_worlds() {
        table += "  (node callbacks run inside ab_scenario::runner and are not wrapped)\n";
    }
    let unaccounted = split.last().map_or(0.0, |&(_, ns)| ns);

    let mut out = vec![
        metric(
            "netsim.self_ns_per_frame",
            "ns/frame",
            ratio(net_self, frames),
        ),
        metric(
            "netsim.deliveries_per_wire_frame",
            "ratio",
            ratio(c.delivered as f64, c.wire_frames as f64),
        ),
        metric("netsim.peak_queue", "frames", c.peak_queue as f64),
        metric(
            "netsim.queue_drops",
            "frames",
            ratio(c.queue_drops as f64, n),
        ),
        metric(
            "netsim.pending_events_peak",
            "events",
            c.pending_peak as f64,
        ),
        metric("core.calls", "calls", ratio(core.calls as f64, n)),
        metric(
            "core.self_ns_per_call",
            "ns/call",
            ratio(core.ns as f64, core.calls as f64),
        ),
        metric(
            "core.cache_hit_ratio",
            "ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        metric(
            "core.cache_misses_per_kframe",
            "misses/kframe",
            ratio(1000.0 * c.cache_misses as f64, c.bridge_frames_in as f64),
        ),
        metric(
            "core.allocs_per_call",
            "allocs/call",
            ratio(core.allocs as f64, core.calls as f64),
        ),
        metric(
            "switchlet.fuel_per_frame",
            "instr/frame",
            ratio(c.vm_instructions as f64, c.bridge_frames_in as f64),
        ),
        metric(
            "switchlet.hot_fuel_per_call",
            "instr/call",
            ratio(c.hot_fuel as f64, c.hot_calls as f64),
        ),
        metric(
            "switchlet.load_ms",
            "ms",
            ratio(setup_ns(Layer::Switchlet) / 1e6, n),
        ),
        metric("hostsim.calls", "calls", ratio(host.calls as f64, n)),
        metric(
            "hostsim.self_ns_per_call",
            "ns/call",
            ratio(host.ns as f64, host.calls as f64),
        ),
        metric(
            "hostsim.allocs_per_call",
            "allocs/call",
            ratio(host.allocs as f64, host.calls as f64),
        ),
        metric(
            "netstack.retx_ratio",
            "ratio",
            ratio(c.tcp_frames as f64, c.tcp_min_frames as f64),
        ),
        metric(
            "scenario.generate_ms",
            "ms",
            ratio(setup_ns(Layer::Scenario) / 1e6, n),
        ),
        metric("scenario.pool_util", "ratio", ratio(busy, capacity)),
        metric(
            "scenario.queue_wait_ms",
            "ms",
            ratio(waits.iter().sum(), waits.len() as f64),
        ),
        metric("scenario.job_ms", "ms", median(&jobs)),
        metric(
            "trace.overhead_ratio",
            "ratio",
            ratio(traced_wall_median, plain_wall),
        ),
        metric("trace.unaccounted_ratio", "ratio", ratio(unaccounted, base)),
    ];
    let not_measured: &[&str] = match wl.kind {
        Kind::Sweep(_) => &[
            "netsim.self_ns_per_frame",
            "netsim.pending_events_peak",
            "core.calls",
            "core.self_ns_per_call",
            "core.allocs_per_call",
            "switchlet.hot_fuel_per_call",
            "hostsim.calls",
            "hostsim.self_ns_per_call",
            "hostsim.allocs_per_call",
            "netstack.retx_ratio",
        ],
        Kind::Metro(_) => &["netstack.retx_ratio", "switchlet.hot_fuel_per_call"],
        Kind::Ttcp { vm: false, .. } => &["switchlet.hot_fuel_per_call", "scenario.generate_ms"],
        Kind::Ttcp { vm: true, .. } => &["scenario.generate_ms"],
    };
    for m in &mut out {
        if not_measured.contains(&m.name.as_str()) {
            m.note = "n/a on this workload".into();
        }
    }
    (out, table)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;
    let run = run(&args);

    let all: Vec<&Batch> = run.plain.iter().chain(&run.traced).collect();
    let mut errors: Vec<String> = all.iter().flat_map(|b| b.check_errors.clone()).collect();
    errors.extend(run.warm_up.check_errors.iter().cloned());
    if run.plain.iter().any(|b| b.digest != run.warm_up.digest) {
        errors.push("simulated digest differs between untraced batches".into());
    }
    if run.traced.iter().any(|b| b.digest != run.warm_up.digest) {
        errors.push("the traced run changed the simulated digest".into());
    }
    // Every batch repeats the warm-up's operations and must reproduce its
    // digest, so the operations are counted once, from the warm-up: the
    // counts do not grow with the number of batches a run fits in.
    let (attempted, failed) = (run.warm_up.attempted, run.warm_up.failed);
    if all.iter().any(|b| b.failures != run.warm_up.failures) {
        errors.push("failed operations differ between batches".into());
    }
    if failed > 0 && wl.own_worlds() {
        errors.push(format!("{failed} of {attempted} operations failed"));
    }

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!("input    {}", wl.describe());
    println!(
        "batches  {} untraced + {} traced measured, 1 warm-up discarded",
        run.plain.len(),
        run.traced.len()
    );
    let walls: Vec<f64> = run.plain.iter().map(|b| ms(b.wall_ns)).collect();
    println!(
        "wall_ms  untraced batches: min {:.2}  p25 {:.2}  median {:.2}  p75 {:.2}  max {:.2}",
        percentile(&walls, 0),
        percentile(&walls, 250),
        median(&walls),
        percentile(&walls, 750),
        percentile(&walls, 1000)
    );
    let in_order: Vec<String> = walls.iter().map(|w| format!("{w:.1}")).collect();
    println!("wall_ms  in run order: {}", in_order.join(" "));
    let units: Vec<String> = fastest_per_unit(&run.plain, |b| &b.unit_ns)
        .iter()
        .map(|ns| format!("{:.1}", ns / 1e6))
        .collect();
    println!("unit_ms  fastest run of each unit: {}", units.join(" "));
    println!(
        "digest   {:016x} (every batch must reproduce it)",
        run.warm_up.digest
    );
    println!(
        "fail_ratio {} ratio ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    for (cause, n) in &run.warm_up.failures {
        println!("  failed {n:>5}  {cause}");
    }
    if let Kind::Sweep(_) = wl.kind {
        let per_battery = |batches: &[Batch], battery: &str| -> f64 {
            let v: Vec<f64> = batches
                .iter()
                .flat_map(|b| b.battery_ns.get(battery).into_iter().flatten())
                .map(|&ns| ms(ns))
                .collect();
            median(&v)
        };
        let batches = if args.trace { &run.traced } else { &run.plain };
        for battery in run.warm_up.battery_ns.keys() {
            println!(
                "scenario.job_ms.{battery} {} ms",
                per_battery(batches, battery)
            );
        }
    }

    let metrics = match args.trace {
        false => end_to_end(&run),
        true => {
            let (metrics, table) = per_layer(wl, &run);
            print!("{table}");
            metrics
        }
    };
    for m in &metrics {
        println!("{} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(rec) = &run.rec {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-s{}.tsv", wl.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.dump())) {
            Ok(()) => println!("spans    {}", path.display()),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }

    let correct = errors.is_empty();
    let json = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj(vec![
                            ("value", Json::F64(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json.render());
    match correct {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}
