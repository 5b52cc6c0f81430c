//! `sim-plan`: RPR planning (selection search on) followed by a flow
//! simulation of the chosen plan, over a fixed list of scenarios on the
//! paper's Simics cluster. No bytes move: the planner and `rpr-netsim`
//! do all of the work.

use std::time::Instant;

use rpr_codec::{BlockId, CodeParams};
use rpr_core::{simulate, simulate_traced, CostModel, RepairContext, RepairPlanner, RprPlanner};
use rpr_faults::SplitMix64;
use rpr_obs::TraceRecorder;
use rpr_topology::{cluster_for, BandwidthProfile};

use crate::lanes::{self, World};
use crate::stats::fastest_pass;
use crate::trace::{self, Tracer};
use crate::{overhead_pct, passes, timed_setup, Checks, Run};

const MIB: u64 = 1 << 20;

/// Block size of every scenario (the paper's 256 MB blocks).
const BLOCK: u64 = 256 * MIB;

/// Salt for the scenario failure draws.
const LIST_SALT: u64 = 0x7369_6d2d_706c_616e;

/// One code's Simics cluster.
fn world(n: usize, k: usize) -> World {
    let params = CodeParams::new(n, k);
    let topo = cluster_for(params, 1, 1);
    let profile = BandwidthProfile::simics_default(topo.rack_count());
    World::new(params, topo, profile)
}

/// The repair context of scenario `s`.
fn ctx<'w>(worlds: &'w [World], s: &Scenario) -> RepairContext<'w> {
    worlds[s.code].ctx(
        s.failed.clone(),
        BLOCK,
        CostModel::simics().scaled_for_block(BLOCK),
        s.chunk,
    )
}

/// One planning scenario.
struct Scenario {
    code: usize,
    failed: Vec<BlockId>,
    chunk: Option<u64>,
}

/// Codes of the scenario list, `(n, k)`.
const CODES: [(usize, usize); 2] = [(6, 3), (12, 4)];

/// The fixed scenario list; which data and parity blocks fail is drawn
/// from the seed. Kinds: `D` one data block, `P` one parity block other
/// than P0, `DP` one of each.
fn scenario_list(seed: u64) -> Vec<Scenario> {
    let mut rng = SplitMix64::new(seed ^ LIST_SALT);
    let shape: [(usize, &str, Option<u64>); 11] = [
        (0, "D", None),
        (0, "D", Some(8 * MIB)),
        (0, "D", Some(MIB)),
        (0, "P", Some(4 * MIB)),
        (0, "DP", None),
        (0, "DP", Some(2 * MIB)),
        (1, "D", None),
        (1, "D", Some(4 * MIB)),
        (1, "P", Some(2 * MIB)),
        (1, "DP", None),
        (1, "DP", Some(4 * MIB)),
    ];
    shape
        .iter()
        .map(|&(code, kind, chunk)| {
            let (n, k) = CODES[code];
            let d = BlockId(rng.pick(n));
            let p = BlockId(n + 1 + rng.pick(k - 1));
            let failed = match kind {
                "D" => vec![d],
                "P" => vec![p],
                _ => vec![d, p],
            };
            Scenario {
                code,
                failed,
                chunk,
            }
        })
        .collect()
}

/// What one scenario produced.
struct Outcome {
    valid: bool,
    repair_time: f64,
}

/// One op: plan with search, validate, simulate the chosen plan.
fn op(tr: &Tracer, worlds: &[World], s: &Scenario) -> Outcome {
    let w = &worlds[s.code];
    let ctx = ctx(worlds, s);
    let plan = tr.span("core.plan", || RprPlanner::new().plan(&ctx));
    let valid = tr.span("core.validate", || {
        plan.validate(&w.codec, &w.topo, &w.placement).is_ok()
    });
    let out = tr.span("core.simulate", || simulate(&plan, &ctx));
    Outcome {
        valid: valid && out.repair_time.is_finite() && out.repair_time > 0.0,
        repair_time: out.repair_time,
    }
}

/// One pass over the list, checking each plan: per-scenario repair
/// times and walls.
fn pass(
    tr: &Tracer,
    worlds: &[World],
    list: &[Scenario],
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>) {
    let mut times = Vec::with_capacity(list.len());
    let mut walls = Vec::with_capacity(list.len());
    for (i, s) in list.iter().enumerate() {
        let t = Instant::now();
        let out = tr.root("op", || op(tr, worlds, s));
        walls.push(t.elapsed().as_secs_f64());
        checks.record(out.valid, || {
            format!("scenario {i}: invalid plan or repair time")
        });
        times.push(out.repair_time);
    }
    (times, walls)
}

fn setup(tr: &Tracer) -> Vec<World> {
    let worlds: Vec<World> = CODES.iter().map(|&(n, k)| world(n, k)).collect();
    // Warm-up op: the most chunked (6,3) shape with a fixed failed block,
    // so the set-up does the same work under every seed.
    let warm = Scenario {
        code: 0,
        failed: vec![BlockId(0)],
        chunk: Some(MIB),
    };
    tr.span("warmup", || op(tr, &worlds, &warm));
    worlds
}

/// Run the workload.
pub fn run(run: &mut Run) {
    let list = scenario_list(run.seed);
    let (setup_s, worlds) = timed_setup(&run.tracer, || setup(&run.tracer));

    let untraced = Tracer::new(false);
    let mut reference: Option<Vec<f64>> = None;
    let mut identical = true;
    // Walls of every untraced op, per scenario.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); list.len()];
    let work = passes(run.phase_seconds(), || {
        let (times, w) = pass(&untraced, &worlds, &list, &mut run.checks);
        identical &= same_bits(reference.get_or_insert_with(|| times.clone()), &times);
        walls.iter_mut().zip(w).for_each(|(ws, w)| ws.push(w));
    });
    let reference = reference.expect("at least one pass");
    run.checks
        .record(identical, || "repair times differ between passes".into());
    let makespan: f64 = reference.iter().sum();
    if !run.tracer.on() {
        // Scenarios per second of a pass made of each scenario's
        // fastest op wall.
        let pass_s = fastest_pass(&walls);
        run.put_timed(setup_s, list.len() as f64 / pass_s, &work, list.len());
        run.metrics.detail("model_makespan_s", makespan, "s");
        return;
    }

    // Traced run: the same passes with spans, then the layer lanes.
    let tr = &run.tracer;
    let mut traced_identical = true;
    passes(run.phase_seconds(), || {
        let (times, _) = pass(tr, &worlds, &list, &mut run.checks);
        traced_identical &= same_bits(&reference, &times);
    });
    run.checks.record(traced_identical, || {
        "model_makespan_s differs between the timed and traced passes".into()
    });
    let ops = trace::durations(&tr.spans(), "op");
    lanes::kernels(&mut run.metrics, CodeParams::new(6, 3), MIB);
    let ctxs: Vec<RepairContext<'_>> = list.iter().map(|s| ctx(&worlds, s)).collect();
    lanes::planner(tr, &ctxs, &mut run.metrics, &mut run.checks);

    // Program tracing cost on the most chunked (6,3) scenario.
    let plan = RprPlanner::new().plan(&ctxs[2]);
    let t = Instant::now();
    let plain = simulate(&plan, &ctxs[2]);
    let t_noop = t.elapsed().as_secs_f64();
    let rec = TraceRecorder::default();
    let t = Instant::now();
    let traced = simulate_traced(&plan, &ctxs[2], &rec);
    let t_rec = t.elapsed().as_secs_f64();
    run.checks.record(
        plain.repair_time.to_bits() == traced.repair_time.to_bits(),
        || "simulate_traced disagrees with simulate".into(),
    );
    let m = &mut run.metrics;
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
        overhead_pct(&ops, &walls.concat()),
        "%",
    );
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_list_is_seeded() {
        let a: Vec<Vec<BlockId>> = scenario_list(5).into_iter().map(|s| s.failed).collect();
        let b: Vec<Vec<BlockId>> = scenario_list(5).into_iter().map(|s| s.failed).collect();
        assert_eq!(a, b);
        for s in scenario_list(5) {
            let (n, k) = CODES[s.code];
            assert!(s.failed.iter().all(|b| b.0 < n + k && b.0 != n));
        }
    }
}
