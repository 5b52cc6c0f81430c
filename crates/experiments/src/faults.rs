//! Degraded-mode repair: how much does an injected fault cost RPR?
//!
//! For every single-failure configuration of the paper, run the RPR repair
//! through the supervisor on the flow simulator under each applicable
//! fault family, pinned to one site (fixed seed, so the whole table is
//! deterministic), and compare against the fault-free repair time. Crash
//! rows exercise the full recovery path: replanning around the dead
//! helper with partial-result reuse (`docs/ROBUSTNESS.md`).

use crate::util::{self, Fixture, PAPER_CODES};
use rpr_codec::BlockId;
use rpr_core::{
    crash_candidates, supervise_injected, Op, Payload, RepairPlanner, RprPlanner, SuperviseConfig,
};
use rpr_faults::{FaultKind, FaultStorm, HealthTracker, StormFault};

/// Seed for every fault table row — fixed so reruns are bit-identical.
const SEED: u64 = 17;

pub fn faults() {
    let block: u64 = 256 << 20;
    let cfg = SuperviseConfig::default();
    let mut rows = Vec::new();
    for (n, k) in PAPER_CODES {
        let fx = Fixture::simics(n, k, block);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("generated plans must validate");
        let (waves, _) = plan.cross_waves(&fx.topo);

        let mut cases: Vec<(&str, FaultKind)> = Vec::new();
        if let Some(&(node, timestep)) = crash_candidates(&plan, &ctx).first() {
            cases.push(("crash", FaultKind::HelperCrash { node, timestep }));
        }
        if let Some(op) = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
        {
            cases.push(("timeout", FaultKind::TransferTimeout { op }));
        }
        if let Some(op) = plan.ops.iter().position(|op| {
            matches!(
                op,
                Op::Send {
                    what: Payload::Intermediate(_),
                    ..
                }
            )
        }) {
            cases.push(("corrupt", FaultKind::CorruptIntermediate { op }));
        }
        if let Some((rack, timestep)) = plan.ops.iter().enumerate().find_map(|(i, op)| {
            match (op, waves[i]) {
                (Op::Send { from, .. }, Some(w)) => Some((fx.topo.rack_of(*from).0, w)),
                _ => None,
            }
        }) {
            cases.push(("rack outage", FaultKind::RackSwitchOutage { rack, timestep }));
        }

        for (label, kind) in cases {
            let storm = FaultStorm::new(SEED).with_generation(vec![StormFault::Pinned(kind)]);
            let mut tracker = HealthTracker::with_defaults();
            let out = supervise_injected(&ctx, &storm, &cfg, &mut tracker, rpr_obs::noop())
                .expect("injected repair must complete");
            rows.push(vec![
                format!("({n},{k})"),
                label.to_string(),
                util::fmt_s(out.clean_time),
                util::fmt_s(out.repair_time),
                util::fmt_pct(out.repair_time / out.clean_time - 1.0),
                out.retries.to_string(),
                out.replans.to_string(),
                out.reused_ops.to_string(),
                out.final_scheme.to_string(),
            ]);
        }
    }
    util::print_table(
        "Degraded repair under injected faults (RPR, single failure, sim, seed 17)",
        &[
            "code",
            "fault",
            "clean (s)",
            "degraded (s)",
            "overhead",
            "retries",
            "replans",
            "reused ops",
            "finished as",
        ],
        &rows,
    );
}
