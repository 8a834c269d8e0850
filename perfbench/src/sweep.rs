//! `sweep_mixed`: the `default`, `adversarial`, `chaos` and `lossy`
//! sweeps over a range of seeds, run through the `ab_scenario::exec` pool
//! with the runner `ab_scenario render` uses, one sweep at a time.
//!
//! The runner builds its worlds itself, so node callbacks cannot be
//! wrapped here; the traced run times the scenario layer (generation and
//! the pool) and reads the bridge counters from the reports.

use std::rc::Rc;
use std::time::Instant;

use ab_scenario::json::Json;
use ab_scenario::runner::{self, Report, Scenario};
use ab_scenario::topo;
use ab_scenario::{exec, workload, SweepReport, SweepSpec};
use active_bridge::BridgeConfig;
use netsim::World;

use crate::batch::{fnv, measure, Batch, Counts};
use crate::spans::{Layer, Recorder};
use crate::worlds::{carrier, load_image};

/// The sweep workload's input size.
#[derive(Copy, Clone, Debug)]
pub struct SweepSize {
    /// Base seeds per sweep: sweeps run for `seed .. seed + seeds`.
    pub seeds: u64,
}

/// Pool workers. One: on the 2-vCPU machine this was developed on, two
/// workers slowed each other by an amount that changed from run to run
/// (across-run spread of `wall_s` 17% with two workers, 5% with one).
pub const JOBS: usize = 1;

/// The scenarios of one batch in sweep order, grouped by base seed and
/// sweep: each group is one unit of the batch.
fn scenarios(seed: u64, size: SweepSize) -> Vec<Vec<Scenario>> {
    (seed..seed + size.seeds)
        .flat_map(|s| {
            [
                SweepSpec::default_sweep(s),
                SweepSpec::adversarial_sweep(s),
                SweepSpec::chaos_sweep(s),
                SweepSpec::lossy_sweep(s),
            ]
        })
        .map(|spec| spec.scenarios())
        .collect()
}

/// Set-up as the runner does it, on one reused world: generate each
/// scenario's topology and workload, build the bridges and boot them. A
/// traced run also times the boot images' decode in `switchlet` spans
/// (uploaded images are built inside the runner and not replayed).
/// (The pool then does this again inside each job; the runner offers no
/// way to time its set-up apart from its run.)
fn set_up(scs: &[Scenario], rec: Option<&Rc<Recorder>>) {
    let mut world = World::new(0);
    for sc in scs {
        let (topo, wl) = match rec {
            Some(rec) => rec.span(Layer::Scenario, || generate(sc)),
            None => generate(sc),
        };
        world.reset(sc.seed);
        world.trace_mut().set_enabled(false);
        let n_hosts = wl.host_count() as usize;
        world.reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
        let cfg = BridgeConfig {
            expected_stations: n_hosts + topo.bridges.len(),
            ..BridgeConfig::default()
        };
        let boot: &[&str] = match wl.injects_attacks() {
            true => &["bridge_learning", "stp_ieee"],
            false => topo.default_boot(),
        };
        if let Some(rec) = rec {
            for name in std::iter::once(&active_bridge::loader::NAME).chain(boot) {
                let image = carrier(name);
                for _ in &topo.bridges {
                    rec.span(Layer::Switchlet, || load_image(&image));
                }
            }
        }
        topo::instantiate(&mut world, &topo, &cfg, boot);
        world.start();
    }
}

fn generate(sc: &Scenario) -> (topo::Topology, workload::Workload) {
    let topo = topo::generate(sc.shape, sc.seed);
    let wl = workload::generate(sc.battery, &topo, sc.seed);
    (topo, wl)
}

/// One sweep batch on [`JOBS`] workers: each sweep of each base seed is
/// set up, then run through the pool, as a unit of its own. An operation is
/// one judged (not waived) invariant; it fails when its verdict is `fail`.
pub fn sweep_batch(seed: u64, size: SweepSize, rec: Option<&Rc<Recorder>>) -> Batch {
    let units = scenarios(seed, size);
    let mut batch = Batch::default();
    for unit in &units {
        let t = Instant::now();
        set_up(unit, rec);
        batch.unit_setup_ns.push(t.elapsed().as_nanos() as u64);
    }

    let batteries: Vec<&'static str> = units
        .iter()
        .flatten()
        .map(|sc| sc.battery.label())
        .collect();
    let mut unit_ns = Vec::with_capacity(units.len());
    let (runs, profiles) = measure(&mut batch, rec, || {
        let mut runs = Vec::new();
        let mut profiles = Vec::new();
        for unit in units {
            let t = Instant::now();
            let (r, profile) = exec::run_jobs_local_profiled(
                unit,
                JOBS,
                || World::new(0),
                |world, sc| runner::run_in(world, &sc),
            );
            unit_ns.push(t.elapsed().as_nanos() as u64);
            if let Some(rec) = rec {
                // The pool's jobs as scenario-layer spans, from its own
                // profile.
                let busy = profile.workers.iter().map(|w| w.busy_ns).sum();
                rec.add_external(Layer::Scenario, profile.jobs.len() as u64, busy);
            }
            runs.extend(r);
            profiles.push(profile);
        }
        (runs, profiles)
    });
    batch.unit_ns = unit_ns;
    batch.workers = profiles.iter().map(|p| p.workers.len()).max().unwrap_or(1) as u64;
    let pool_jobs = profiles.iter().flat_map(|p| &p.jobs);
    for (j, battery) in pool_jobs.zip(batteries) {
        batch.job_ns.push(j.run_ns);
        batch.queue_wait_ns.push(j.queue_wait_ns);
        batch.battery_ns.entry(battery).or_default().push(j.run_ns);
    }
    for r in &runs {
        batch.frames += r.world.frames_delivered;
        check_report(r, &mut batch);
        let mut c = Counts {
            delivered: r.world.frames_delivered,
            wire_frames: r.world.total_tx_frames(),
            queue_drops: r.world.total_queue_drops(),
            peak_queue: r
                .world
                .segments
                .iter()
                .map(|s| s.counters.peak_queue)
                .max()
                .unwrap_or(0),
            ..Counts::default()
        };
        for b in &r.bridges {
            for &(key, value) in &b.counters {
                match key {
                    "frames_in" => c.bridge_frames_in += value,
                    "cache_hits" => c.cache_hits += value,
                    "cache_misses" => c.cache_misses += value,
                    "vm_instructions" => c.vm_instructions += value,
                    _ => {}
                }
            }
        }
        batch.counts.add(&c);
    }
    let report = SweepReport { runs }.to_json().render();
    batch.digest = fnv(report.as_bytes());
    batch
}

/// Parse one report back from its JSON and count its verdicts; the parsed
/// counts must equal the report's own.
fn check_report(r: &Report, batch: &mut Batch) {
    let name = &r.scenario.name;
    let parsed = match Json::parse(&r.to_json().render()) {
        Ok(j) => j,
        Err(e) => {
            batch
                .check_errors
                .push(format!("{name}: report does not parse: {e}"));
            return;
        }
    };
    let Some(Json::Arr(invariants)) = parsed.get("invariants") else {
        batch
            .check_errors
            .push(format!("{name}: report has no invariants"));
        return;
    };
    let mut counts = (0, 0, 0);
    for inv in invariants {
        let (Some(Json::Str(inv_name)), Some(Json::Str(verdict))) =
            (inv.get("name"), inv.get("verdict"))
        else {
            batch
                .check_errors
                .push(format!("{name}: malformed invariant"));
            continue;
        };
        match verdict.as_str() {
            "pass" => counts.0 += 1,
            "fail" => {
                counts.1 += 1;
                let cell = format!(
                    "{}-{}",
                    r.scenario.shape.label(),
                    r.scenario.battery.label()
                );
                batch.fail(format!("{inv_name} ({cell})"));
            }
            "waived" => counts.2 += 1,
            other => batch
                .check_errors
                .push(format!("{name}: unknown verdict {other}")),
        }
    }
    batch.attempted += counts.0 + counts.1;
    if counts != r.verdict_counts() {
        batch.check_errors.push(format!(
            "{name}: parsed verdicts {counts:?} != {:?}",
            r.verdict_counts()
        ));
    }
}
