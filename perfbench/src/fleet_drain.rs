//! `fleet-drain`: three `run_fleet_with` phases from one seed — a large
//! clean drain served from the class cache, a churned and journaled
//! drain, and a storm drain that simulates every stripe and so bypasses
//! the class cache. After the passes, one resume from the last churn
//! journal checks the crash-restart path.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

use rpr_codec::{BlockId, CodeParams};
use rpr_core::{CostModel, RepairContext};
use rpr_faults::{CrashSite, SplitMix64, StormFault};
use rpr_netsim::Network;
use rpr_obs::TraceRecorder;
use rpr_sched::{
    first_valid_plan, plan_demand, run_fleet_with, schedule_fleet, BandwidthArbiter, Demand,
    FleetIo, FleetJob, FleetJournal, FleetOutcome, FleetSpec, JournalReplay,
};
use rpr_topology::{BandwidthProfile, Placement, Topology};

use crate::host::nproc;
use crate::lanes::{self, seeded_failures, World};
use crate::stats::{fastest_pass, mean};
use crate::trace::{self, Tracer};
use crate::{overhead_pct, passes, timed_setup, Checks, Run, OUT_DIR, WARMUP_SEED};

const MIB: u64 = 1 << 20;

/// Stripes of the clean, class-cached drain.
const CLEAN_STRIPES: usize = 200_000;
/// Stripes of the churned, journaled drain.
const CHURN_STRIPES: usize = 5_000;
/// Churn arrivals per fleet-clock second.
const CHURN_RATE: f64 = 0.05;
/// Stripes of the storm drain (one supervised simulation each).
const STORM_STRIPES: usize = 1_000;

/// The three phase specs; every seed derives from the workload seed.
struct Phases {
    clean: FleetSpec,
    churn: FleetSpec,
    storm: FleetSpec,
}

fn phases(seed: u64) -> Phases {
    let mut mix = SplitMix64::new(seed);
    let base = FleetSpec {
        threads: nproc(),
        ..FleetSpec::default()
    };
    Phases {
        clean: FleetSpec {
            stripes: CLEAN_STRIPES,
            seed: mix.next_u64(),
            ..base.clone()
        },
        churn: FleetSpec {
            stripes: CHURN_STRIPES,
            seed: mix.next_u64(),
            churn_rate: CHURN_RATE,
            ..base.clone()
        },
        storm: FleetSpec {
            stripes: STORM_STRIPES,
            seed: mix.next_u64(),
            storm: vec![
                vec![StormFault::Crash(CrashSite::SeedPick)],
                vec![StormFault::Timeout],
            ],
            ..base
        },
    }
}

/// Conservation and arbiter hygiene of one phase.
fn sound(out: &FleetOutcome, spec: &FleetSpec) -> bool {
    let s = &out.summary;
    s.repaired + s.lost == s.stripes
        && s.stripes + out.unrepairable == spec.stripes
        && s.mismatched_releases == 0
}

fn journal_path() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("fleet-journal-{}.jsonl", std::process::id()))
}

/// One phase run with a write-ahead journal at [`journal_path`]: its
/// outcome and wall, and the journal's size in bytes and records.
fn journaled(tr: &Tracer, name: &'static str, spec: &FleetSpec) -> (FleetOutcome, f64, u64, usize) {
    let path = journal_path();
    std::fs::create_dir_all(OUT_DIR).expect("create the benchmark output directory");
    let journal =
        RefCell::new(FleetJournal::create(&path, spec.seed, spec.stripes).expect("create journal"));
    let t = Instant::now();
    let out = tr.span(name, || {
        run_fleet_with(
            spec,
            FleetIo {
                journal: Some(&journal),
                resume: None,
            },
            rpr_obs::noop(),
        )
    });
    let wall = t.elapsed().as_secs_f64();
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("read journal");
    (out, wall, text.len() as u64, text.lines().count())
}

/// Resume `spec` from the journal at [`journal_path`], then delete it:
/// the resumed outcome and the wall of loading plus the resumed run.
fn resume(tr: &Tracer, name: &'static str, spec: &FleetSpec) -> (FleetOutcome, f64) {
    let path = journal_path();
    let t = Instant::now();
    let out = tr.root(name, || {
        let replay = JournalReplay::load(&path).expect("journal parses");
        run_fleet_with(
            spec,
            FleetIo {
                journal: None,
                resume: Some(&replay),
            },
            rpr_obs::noop(),
        )
    });
    let wall = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    (out, wall)
}

fn timed(tr: &Tracer, name: &'static str, spec: &FleetSpec) -> (FleetOutcome, f64) {
    let t = Instant::now();
    let out = tr.span(name, || {
        run_fleet_with(spec, FleetIo::default(), rpr_obs::noop())
    });
    (out, t.elapsed().as_secs_f64())
}

/// Per-pass results. The churn phase leaves its journal on disk for the
/// resume that follows the passes.
struct Pass {
    clean: (FleetOutcome, f64),
    churn: (FleetOutcome, f64, u64, usize),
    storm: (FleetOutcome, f64),
}

fn pass(tr: &Tracer, p: &Phases) -> Pass {
    Pass {
        clean: tr.root("op", || timed(tr, "sched.run_fleet_with.clean", &p.clean)),
        churn: tr.root("op", || {
            journaled(tr, "sched.run_fleet_with.churn", &p.churn)
        }),
        storm: tr.root("op", || timed(tr, "sched.run_fleet_with.storm", &p.storm)),
    }
}

/// Summaries of one pass, for the determinism check.
fn fingerprint(p: &Pass) -> [String; 3] {
    [
        p.clean.0.summary.to_json(),
        p.churn.0.summary.to_json(),
        p.storm.0.summary.to_json(),
    ]
}

fn check_pass(checks: &mut Checks, ph: &Phases, p: &Pass, reference: &[String; 3]) {
    let same = fingerprint(p);
    for (i, ((out, spec), what)) in [
        (&p.clean.0, &ph.clean),
        (&p.churn.0, &ph.churn),
        (&p.storm.0, &ph.storm),
    ]
    .into_iter()
    .zip(["clean", "churn", "storm"])
    .enumerate()
    {
        checks.record(sound(out, spec) && same[i] == reference[i], || {
            format!("{what} drain unsound or not deterministic")
        });
    }
}

/// Resume the churn phase from the journal the last pass left, and check
/// that the resumed summary equals the journaled one byte for byte.
fn check_churn_resume(checks: &mut Checks, tr: &Tracer, ph: &Phases, churn_ref: &str) {
    let (resumed, _) = resume(tr, "replay.churn_resume", &ph.churn);
    checks.record(resumed.summary.to_json() == churn_ref, || {
        "the resumed churn drain differs from the journaled one".into()
    });
}

/// Phase walls of one pass: clean, churn, storm.
fn walls(p: &Pass) -> [f64; 3] {
    [p.clean.1, p.churn.1, p.storm.1]
}

/// Run the workload.
pub fn run(run: &mut Run) {
    let ph = phases(run.seed);
    // Set-up: spec derivation plus a warm-up op, the storm phase of the
    // warm-up seed.
    let (setup_s, ()) = timed_setup(&run.tracer, || {
        let p = phases(WARMUP_SEED);
        run.tracer.span("warmup", || {
            run_fleet_with(&p.storm, FleetIo::default(), rpr_obs::noop());
        });
    });

    // Each pass is checked as it finishes; only its walls are kept.
    let untraced = Tracer::new(false);
    let mut reference: Option<[String; 3]> = None;
    let mut untraced_walls: Vec<[f64; 3]> = Vec::new();
    let work = passes(run.phase_seconds(), || {
        let p = pass(&untraced, &ph);
        let want = reference.get_or_insert_with(|| fingerprint(&p));
        check_pass(&mut run.checks, &ph, &p, want);
        untraced_walls.push(walls(&p));
    });
    let reference = reference.expect("one pass");
    // Each phase's fastest wall over the passes.
    let phase_s: Vec<f64> = (0..3)
        .map(|i| fastest_pass(&[untraced_walls.iter().map(|w| w[i]).collect()]))
        .collect();
    if !run.tracer.on() {
        check_churn_resume(&mut run.checks, &untraced, &ph, &reference[1]);
        // Stripes per second of a pass made of those phase walls.
        let stripes = CLEAN_STRIPES + CHURN_STRIPES + STORM_STRIPES;
        let pass_s: f64 = phase_s.iter().sum();
        run.put_timed(setup_s, stripes as f64 / pass_s, &work, stripes);
        let names = [
            "drain_stripes_per_s",
            "churn_stripes_per_s",
            "storm_stripes_per_s",
        ];
        for ((name, n), s) in names
            .into_iter()
            .zip([CLEAN_STRIPES, CHURN_STRIPES, STORM_STRIPES])
            .zip(&phase_s)
        {
            run.metrics.detail(name, n as f64 / s, "1/s");
        }
        return;
    }
    let untraced_ops = untraced_walls.concat();

    let tr = &run.tracer;
    let mut last = None;
    passes(run.phase_seconds(), || {
        let p = pass(tr, &ph);
        check_pass(&mut run.checks, &ph, &p, &reference);
        last = Some(p);
    });
    let last = last.expect("one traced pass");
    check_churn_resume(&mut run.checks, tr, &ph, &reference[1]);

    // Journal lane: the storm phase journaled, then resumed from its
    // journal. Every stripe's cost record replays, so the resume skips
    // every per-stripe simulation.
    let (storm, ..) = journaled(&untraced, "sched.run_fleet_with.storm", &ph.storm);
    let (resumed, resume_s) = resume(tr, "replay.storm_resume", &ph.storm);
    run.checks.record(
        resumed.summary.to_json() == storm.summary.to_json()
            && resumed.replayed == storm.summary.stripes,
        || "the resumed storm drain differs or re-simulated stripes".into(),
    );

    // Admission-only lane over a synthetic backlog shaped like the clean
    // phase (see `backlog`).
    let (jobs, per_level, net) = backlog(&ph.clean, &last.clean.0);
    let mut arb = BandwidthArbiter::new(&net);
    let t = Instant::now();
    let admitted = tr.root("replay.schedule_fleet", || {
        schedule_fleet(
            &jobs,
            &mut |i| per_level[jobs[i].level - 1].clone(),
            &mut arb,
            rpr_obs::noop(),
        )
    });
    let admit_s = t.elapsed().as_secs_f64();
    run.checks.record(
        admitted.summary.repaired == jobs.len() && admitted.summary.mismatched_releases == 0,
        || "admission lane lost jobs".into(),
    );

    let ops = trace::durations(&tr.spans(), "op");
    // Layer lanes on the fleet's geometry: one stripe per seeded failure
    // set on the canonical racks every class simulation runs on.
    let params = ph.clean.params;
    lanes::kernels(&mut run.metrics, params, MIB);
    let world = World::new(
        params,
        Topology::uniform(params.rack_count(), ph.clean.nodes_per_rack),
        BandwidthProfile::uniform(params.rack_count(), ph.clean.inner_bps, ph.clean.cross_bps),
    );
    let ctxs: Vec<RepairContext<'_>> = seeded_failures(run.seed, params)
        .into_iter()
        .map(|failed| {
            let mut c = world.ctx(failed, ph.clean.block_bytes, ph.clean.cost, None);
            c.agg_capacity = ph.clean.agg_capacity;
            c
        })
        .collect();
    lanes::planner(tr, &ctxs, &mut run.metrics, &mut run.checks);

    // The scheduler's own figures go to the details file.
    let spans = tr.spans();
    let clean = &last.clean.0;
    let (churn, _, journal_bytes, journal_records) = &last.churn;
    let m = &mut run.metrics;
    m.detail(
        "sched.clean_drain_s",
        mean(&trace::durations(&spans, "sched.run_fleet_with.clean")),
        "s",
    );
    m.detail(
        "sched.churn_drain_s",
        mean(&trace::durations(&spans, "sched.run_fleet_with.churn")),
        "s",
    );
    m.detail(
        "sched.storm_drain_s",
        mean(&trace::durations(&spans, "sched.run_fleet_with.storm")),
        "s",
    );
    m.detail("sched.admit_per_s", jobs.len() as f64 / admit_s, "1/s");
    m.detail(
        "sched.class_cache_hit_ratio",
        1.0 - clean.classes as f64 / CLEAN_STRIPES as f64,
        "ratio",
    );
    m.detail(
        "sched.churn_failures",
        churn.summary.churn_failures as f64,
        "count",
    );
    m.detail(
        "sched.escalations",
        churn.summary.escalations as f64,
        "count",
    );
    m.detail("sched.lost", churn.summary.lost as f64, "count");
    m.detail("sched.max_utilization", clean.max_utilization, "ratio");
    m.detail(
        "sched.journal_mib",
        *journal_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    m.detail("sched.journal_records", *journal_records as f64, "count");
    m.detail("sched.resume_s", resume_s, "s");
    m.detail("sched.replayed", resumed.replayed as f64, "count");

    // Program tracing cost on the storm phase.
    let t = Instant::now();
    let plain = run_fleet_with(&ph.storm, FleetIo::default(), rpr_obs::noop());
    let t_noop = t.elapsed().as_secs_f64();
    let rec = TraceRecorder::default();
    let t = Instant::now();
    let rec_out = run_fleet_with(&ph.storm, FleetIo::default(), &rec);
    let t_rec = t.elapsed().as_secs_f64();
    run.checks.record(plain.summary == rec_out.summary, || {
        "recorded storm drain differs".into()
    });
    m.put(
        "obs.recorder_overhead_pct",
        (t_rec / t_noop - 1.0) * 100.0,
        "%",
    );
    m.put(
        "obs.events_per_op",
        rec.snapshot().recorded_events as f64,
        "count",
    );
    m.put(
        "obs.span_overhead_pct",
        overhead_pct(&ops, &untraced_ops),
        "%",
    );
}

/// A synthetic pre-costed backlog shaped like the clean phase, and the
/// network it is admitted on. One job per repaired stripe, at its level
/// and with its admitted-to-finish duration; every job of level z asks
/// for entry z - 1 of the returned demands: the canonical plan demand
/// with the first z data blocks failed, on the code's canonical racks. The scheduler's real
/// per-stripe demands stay inside `run_fleet_with`, so this lane times
/// admission over a demand pattern of its own, in which every stripe
/// contends for the same links.
fn backlog(spec: &FleetSpec, out: &FleetOutcome) -> (Vec<FleetJob>, Vec<Demand>, Network) {
    let params: CodeParams = spec.params;
    let codec = rpr_codec::StripeCodec::new(params);
    let topo = Topology::uniform(params.rack_count(), spec.nodes_per_rack);
    let placement = Placement::rpr_preplaced(params, &topo);
    let profile = BandwidthProfile::uniform(params.rack_count(), spec.inner_bps, spec.cross_bps);
    let net = Network::new(topo.clone(), profile.clone());
    let per_level: Vec<Demand> = (1..=params.k)
        .map(|z| {
            let ctx = RepairContext::new(
                &codec,
                &topo,
                &placement,
                (0..z).map(BlockId).collect(),
                spec.block_bytes,
                &profile,
                CostModel::free(),
            );
            let plan = first_valid_plan(&ctx).expect("a valid plan exists for <=k failures");
            plan_demand(&plan, &topo, &net)
        })
        .collect();
    let s = &out.summary;
    let stripes = s.stripes.max(1) as u64;
    let jobs = out
        .records
        .iter()
        .map(|r| FleetJob {
            stripe: r.stripe,
            level: r.level,
            duration: r.finish - r.admitted,
            arrival: 0.0,
            cross_bytes: s.cross_bytes / stripes,
            inner_bytes: s.inner_bytes / stripes,
        })
        .collect();
    (jobs, per_level, net)
}
