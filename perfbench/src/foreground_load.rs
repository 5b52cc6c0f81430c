//! `foreground-load`: open-loop foreground workloads co-simulated with a
//! stream of throttled (QoS) repairs on the shared flow simulator.
//! Latencies are virtual and timed from each request's scheduled
//! arrival. One pass runs a fixed list of workloads whose seeds derive
//! from the workload seed; the tails pool the pass's requests.

use std::sync::Mutex;
use std::time::Instant;

use rpr_codec::BlockId;
use rpr_core::{CostModel, RepairContext};
use rpr_faults::SplitMix64;
use rpr_load::{run_load, run_load_recorded, LoadSpec, LoadSummary};
use rpr_obs::{Event, Recorder, TraceRecorder};
use rpr_topology::{cluster_for, BandwidthProfile};

use crate::lanes::{self, seeded_failures, World};
use crate::stats::{fastest_pass, mean, nearest_rank, sorted, supports, tail};
use crate::trace::{self, Tracer};
use crate::{overhead_pct, passes, timed_setup, Checks, Run, WARMUP_SEED};

const MIB: u64 = 1 << 20;

/// Co-simulations per pass, each with its own derived seed. A pass takes
/// about 2 s, so a run times each co-simulation about ten times for
/// `ops_per_s`; one pass pools about 7,000 reads for the p99.
const OPS_PER_PASS: usize = 16;
/// Co-simulations the set-up runs as its warm-up.
const WARMUP_OPS: usize = 4;
/// Foreground requests per co-simulation. At 1,000 the simulation's wall
/// time swung by 30% from run to run on a shared host; at 500 by a few
/// percent.
const REQUESTS: usize = 500;
/// Open-loop arrival rate, requests per virtual second. At 40 the
/// degraded-read relays alone load the recovery node's link to about
/// 85%; at 20 it stays below saturation, so the tail does not grow with
/// run length.
const ARRIVAL_RATE: f64 = 20.0;
/// Repair pipelining chunk size.
const CHUNK: u64 = 4 * MIB;
/// Repair stripes, staggered to cover the request window.
const REPAIR_STRIPES: usize = 10;
/// Virtual seconds between repair starts.
const REPAIR_STAGGER: f64 = 2.5;

/// The tail percentile both latency metrics report.
const TAIL: f64 = 99.0;

/// The pass's co-simulation specs.
fn specs(seed: u64) -> Vec<LoadSpec> {
    let mut mix = SplitMix64::new(seed);
    (0..OPS_PER_PASS)
        .map(|_| LoadSpec {
            requests: REQUESTS,
            arrival_rate: ARRIVAL_RATE,
            chunk_bytes: Some(CHUNK),
            repair_stripes: REPAIR_STRIPES,
            repair_stagger: REPAIR_STAGGER,
            ..LoadSpec::paper_config(mix.next_u64(), LoadSpec::paper_qos())
        })
        .collect()
}

/// One request's completion.
#[derive(Clone, Copy)]
struct Done {
    read: bool,
    degraded: bool,
    latency: f64,
    first_byte: f64,
}

/// Collects every request completion of a co-simulation.
#[derive(Default)]
struct Completions(Mutex<Vec<Done>>);

impl Recorder for Completions {
    fn record(&self, event: Event) {
        if let Event::RequestDone {
            read,
            degraded,
            first_byte,
            issued,
            end,
            ..
        } = event
        {
            self.0.lock().expect("completion log poisoned").push(Done {
                read,
                degraded,
                latency: end - issued,
                first_byte,
            });
        }
    }
}

/// What one op produced.
struct Op {
    wall: f64,
    summary: LoadSummary,
    done: Vec<Done>,
}

fn op(tr: &Tracer, spec: &LoadSpec) -> Op {
    let rec = Completions::default();
    let t = Instant::now();
    let summary = tr.span("load.run_load", || run_load_recorded(spec, &rec));
    let wall = t.elapsed().as_secs_f64();
    Op {
        wall,
        summary,
        done: rec.0.into_inner().expect("completion log poisoned"),
    }
}

fn pass(tr: &Tracer, specs: &[LoadSpec]) -> Vec<Op> {
    specs.iter().map(|s| tr.root("op", || op(tr, s))).collect()
}

/// Every request completed with a finite latency, and each summary is
/// its same-seed reference byte for byte.
fn check(checks: &mut Checks, ops: &[Op], reference: &[String]) {
    for (o, want) in ops.iter().zip(reference) {
        let complete = o.done.len() == REQUESTS
            && o.summary.requests == REQUESTS
            && o.done.iter().all(|d| {
                d.latency.is_finite()
                    && d.latency >= 0.0
                    && d.first_byte.is_finite()
                    && d.first_byte <= d.latency
            });
        checks.record(complete && o.summary.to_json() == *want, || {
            format!(
                "{} of {REQUESTS} requests completed, or the summary differs",
                o.done.len()
            )
        });
    }
}

/// p99 over the pass's completions that `pick` selects, after checking
/// that the tail rule supports p99 at that sample count.
fn p99(checks: &mut Checks, ops: &[Op], pick: impl Fn(&Done) -> Option<f64>, what: &str) -> f64 {
    let v = sorted(
        &ops.iter()
            .flat_map(|o| o.done.iter().filter_map(&pick))
            .collect::<Vec<_>>(),
    );
    if let Some(t) = tail(&v) {
        eprintln!(
            "{what}: {} samples; p{TAIL} reported; the tail rule reaches p{}",
            t.samples, t.percentile
        );
    }
    checks.record(supports(v.len(), TAIL), || {
        format!(
            "{what}: {} samples leave fewer than 10 beyond p{TAIL}",
            v.len()
        )
    });
    if v.is_empty() {
        0.0
    } else {
        nearest_rank(&v, TAIL)
    }
}

/// Run the workload.
pub fn run(run: &mut Run) {
    let specs = specs(run.seed);
    let (setup_s, ()) = timed_setup(&run.tracer, || {
        self::specs(run.seed).iter().for_each(LoadSpec::validate);
        let warm = self::specs(WARMUP_SEED);
        run.tracer.span("warmup", || {
            for s in &warm[..WARMUP_OPS] {
                op(&run.tracer, s);
            }
        });
    });

    let untraced = Tracer::new(false);
    let mut first: Option<Vec<Op>> = None;
    let mut reference: Vec<String> = Vec::new();
    // Walls of every untraced op, per spec.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let work = passes(run.phase_seconds(), || {
        let ops = pass(&untraced, &specs);
        if reference.is_empty() {
            reference = ops.iter().map(|o| o.summary.to_json()).collect();
        }
        check(&mut run.checks, &ops, &reference);
        walls.iter_mut().zip(&ops).for_each(|(w, o)| w.push(o.wall));
        first.get_or_insert(ops);
    });
    let first = first.expect("one pass");
    if !run.tracer.on() {
        let read_p99 = p99(
            &mut run.checks,
            &first,
            |d| d.read.then_some(d.latency),
            "reads",
        );
        // Requests per second of a pass made of each co-simulation's
        // fastest wall.
        let rate = (OPS_PER_PASS * REQUESTS) as f64 / fastest_pass(&walls);
        run.put_timed(setup_s, rate, &work, OPS_PER_PASS * REQUESTS);
        run.metrics.detail("model_read_p99_s", read_p99, "s");
        return;
    }

    let tr = &run.tracer;
    let mut last = Vec::new();
    passes(run.phase_seconds(), || last = pass(tr, &specs));
    check(&mut run.checks, &last, &reference);
    let spans = tr.spans();
    let traced_ops = trace::durations(&spans, "op");
    let sum = |f: fn(&LoadSummary) -> f64| last.iter().map(|o| f(&o.summary)).sum::<f64>();
    let ttfb_p99 = p99(
        &mut run.checks,
        &last,
        |d| d.degraded.then_some(d.first_byte),
        "degraded reads",
    );

    // Layer lanes on the load's geometry: the repair `run_load` runs
    // (block 0 lost) and the seeded failure sets, on the same cluster.
    let spec = &specs[0];
    lanes::kernels(&mut run.metrics, spec.params, CHUNK);
    let topo = cluster_for(spec.params, 1, 1);
    let profile = BandwidthProfile::uniform(topo.rack_count(), spec.inner_bps, spec.cross_bps);
    let world = World::new(spec.params, topo, profile);
    let ctxs: Vec<RepairContext<'_>> = std::iter::once(vec![BlockId(0)])
        .chain(seeded_failures(run.seed, spec.params))
        .map(|failed| {
            world.ctx(
                failed,
                spec.block_bytes,
                CostModel::free(),
                spec.chunk_bytes,
            )
        })
        .collect();
    lanes::planner(tr, &ctxs, &mut run.metrics, &mut run.checks);

    // The load's own figures go to the details file.
    let m = &mut run.metrics;
    m.detail(
        "load.run_s",
        mean(&trace::durations(&spans, "load.run_load")),
        "s",
    );
    m.detail("load.requests", sum(|s| s.requests as f64), "count");
    m.detail("load.degraded", sum(|s| s.degraded as f64), "count");
    m.detail("load.first_byte_p99_s", ttfb_p99, "s");
    m.detail(
        "load.repair_makespan_s",
        sum(|s| s.repair_makespan) / OPS_PER_PASS as f64,
        "s",
    );

    // Program tracing cost: the plain entry point vs a TraceRecorder.
    let t = Instant::now();
    let plain = run_load(&specs[0]);
    let t_noop = t.elapsed().as_secs_f64();
    let rec = TraceRecorder::default();
    let t = Instant::now();
    let recorded = run_load_recorded(&specs[0], &rec);
    let t_rec = t.elapsed().as_secs_f64();
    run.checks
        .record(plain == recorded && plain.to_json() == reference[0], || {
            "recorded load run differs".into()
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
        overhead_pct(&traced_ops, &walls.concat()),
        "%",
    );
}
