//! Fault resolution: pinning a storm generation's faults to the ops of
//! the plan it runs.
//!
//! A [`FaultStorm`](rpr_faults::FaultStorm) describes faults per
//! supervision generation, either plan-independently (a seed-picked
//! crash, timeout, lie, ...) or at an exact site
//! ([`StormFault::Pinned`], what `rpr inject` injects). Each generation
//! of the supervision loop ([`supervise`](crate::supervise())) hands its bucket to
//! `resolve_storm_bucket`, which turns it into [`ResolvedFaults`]:
//! per-op attempt failures, link derates, lies and at most one helper
//! crash — further crashes carry over into the next generation. Every
//! free parameter draws from the storm's seeded stream, so the same plan
//! and storm pin identically on both backends (the property
//! `scripts/verify.sh` checks end to end). See `docs/ROBUSTNESS.md` for
//! the full fault model.

use crate::plan::{Op, OpId, Payload, RepairPlan};
use crate::scenario::RepairContext;
use crate::supervise::SuperviseError;
use rpr_faults::{reason, CrashSite, FaultKind, RetryPolicy, SplitMix64, StormFault};
use rpr_topology::NodeId;

/// One resolved failure of a single transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttemptFault {
    /// Fraction of the payload moved before the attempt is abandoned, in
    /// `[0, 1]` (1.0 models corruption: the full payload arrives and
    /// fails checksum verification).
    pub fraction: f64,
    /// Stable reason string (see [`rpr_faults::reason`]).
    pub reason: &'static str,
}

/// A helper crash resolved to the concrete op whose start triggers it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashFault {
    /// The dying helper.
    pub node: NodeId,
    /// The cross-rack send whose start marks the death: the node fails
    /// immediately after beginning this transfer, which therefore never
    /// completes.
    pub trigger: OpId,
}

/// One storm bucket resolved against one concrete [`RepairPlan`]: every
/// fault pinned to plan ops with its free parameters (sites, failure
/// fractions) drawn from the seeded stream.
#[derive(Clone, Debug)]
pub struct ResolvedFaults {
    /// Per-op injected attempt failures, in injection order (`op_faults[i]`
    /// is empty for unaffected ops).
    pub op_faults: Vec<Vec<AttemptFault>>,
    /// At most one helper crash.
    pub crash: Option<CrashFault>,
    /// Per-node bandwidth derates `(node, factor)` active for the whole
    /// repair.
    pub slow: Vec<(NodeId, f64)>,
    /// Send ops whose helper turns Byzantine: the payload carries wrong
    /// bytes under a valid FNV checksum. Only the proof plane
    /// (`rpr-proof`, [`SuperviseConfig::proof`]) can detect these —
    /// transport-level retry never fires.
    ///
    /// [`SuperviseConfig::proof`]: crate::supervise::SuperviseConfig
    pub lies: Vec<usize>,
}

/// Every `(node, timestep)` pair at which a [`FaultKind::HelperCrash`]
/// can fire for this plan: block-hosting helpers (not the recovery node)
/// at the wave of each of their cross-rack sends, sorted by
/// `(timestep, node)` and deduplicated. Used by the chaos suite and the
/// `rpr inject` CLI to enumerate or seed-pick crash sites.
pub fn crash_candidates(plan: &RepairPlan, ctx: &RepairContext<'_>) -> Vec<(usize, usize)> {
    let (waves, _) = plan.cross_waves(ctx.topo);
    let rec = ctx.recovery_node();
    let mut out: Vec<(usize, usize)> = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if let (Op::Send { from, .. }, Some(w)) = (op, waves[i]) {
            if *from != rec && ctx.placement.block_on(*from).is_some() {
                out.push((from.0, w));
            }
        }
    }
    out.sort_by_key(|&(n, w)| (w, n));
    out.dedup();
    out
}

/// Reject a fault set in which some op's injected failures exhaust the
/// retry budget: that transfer could never succeed.
pub(crate) fn check_retry_budget(
    op_faults: &[Vec<AttemptFault>],
    policy: &RetryPolicy,
) -> Result<(), String> {
    match op_faults
        .iter()
        .enumerate()
        .find(|(_, fs)| !fs.is_empty() && fs.len() >= policy.max_attempts)
    {
        Some((i, fs)) => Err(format!(
            "op {i}: {} injected failures exhaust the retry budget (max_attempts = {})",
            fs.len(),
            policy.max_attempts
        )),
        None => Ok(()),
    }
}

/// One storm bucket resolved against a concrete generation plan.
#[derive(Debug, Clone)]
pub(crate) struct GenFaults {
    /// The concrete faults: per-op attempt failures, at most one crash,
    /// link derates.
    pub resolved: ResolvedFaults,
    /// Human-readable site descriptions, in injection order.
    pub descriptions: Vec<String>,
    /// Crash faults beyond the first: a generation ends at its first
    /// crash, so extra crashes carry over into the next bucket.
    pub deferred: Vec<StormFault>,
}

/// Resolve one storm bucket against the current generation's plan.
///
/// The loop calls this for every generation on either backend, so the
/// seeded picks depend only on the plan and the storm: `lowered`
/// restricts seed-picked targets to ops the generation actually
/// executes, `prev_senders` (cross-rack senders of the *previous*
/// generation's plan) anchors [`CrashSite::NewHelper`] — "crash the
/// replacement" — and every free parameter draws from `rng` in
/// declaration order. A crash beyond the bucket's first is deferred to
/// the next generation.
///
/// Returns [`SuperviseError::Unrecoverable`] when a
/// [`StormFault::Pinned`] fault names a site this plan does not have.
pub(crate) fn resolve_storm_bucket(
    bucket: &[StormFault],
    plan: &RepairPlan,
    lowered: &[bool],
    prev_senders: Option<&[usize]>,
    ctx: &RepairContext<'_>,
    rng: &mut SplitMix64,
) -> Result<GenFaults, SuperviseError> {
    let (waves, _) = plan.cross_waves(ctx.topo);
    let mut out = GenFaults {
        resolved: ResolvedFaults {
            op_faults: vec![Vec::new(); plan.ops.len()],
            crash: None,
            slow: Vec::new(),
            lies: Vec::new(),
        },
        descriptions: Vec::new(),
        deferred: Vec::new(),
    };

    // Executed sends (timeout/corrupt targets), cross sends, and crash
    // candidates (node, wave, op) — helpers that host a live block.
    let mut send_ops: Vec<usize> = Vec::new();
    let mut cross_ops: Vec<usize> = Vec::new();
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if !lowered[i] {
            continue;
        }
        if let Op::Send { from, .. } = op {
            send_ops.push(i);
            if let Some(w) = waves[i] {
                cross_ops.push(i);
                if *from != plan.recovery {
                    if let Some(b) = ctx.placement.block_on(*from) {
                        if !ctx.failed.contains(&b) {
                            candidates.push((from.0, w, i));
                        }
                    }
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.sort_by_key(|&(n, w, _)| (w, n));
    let mut nodes: Vec<usize> = candidates.iter().map(|&(n, _, _)| n).collect();
    nodes.dedup();
    let sender_nodes: Vec<usize> = {
        let mut ns: Vec<usize> = send_ops
            .iter()
            .filter_map(|&i| match &plan.ops[i] {
                Op::Send { from, .. } if *from != plan.recovery => Some(from.0),
                _ => None,
            })
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    };

    let trigger_for = |node: usize| -> Option<(usize, usize)> {
        candidates
            .iter()
            .find(|&&(n, _, _)| n == node)
            .map(|&(_, w, i)| (w, i))
    };

    for fault in bucket {
        let crash = matches!(
            fault,
            StormFault::Crash(_) | StormFault::Pinned(FaultKind::HelperCrash { .. })
        );
        if crash && out.resolved.crash.is_some() {
            out.deferred.push(*fault);
            continue;
        }
        match fault {
            StormFault::Crash(site) => {
                if nodes.is_empty() {
                    out.descriptions
                        .push("crash skipped (no live cross-rack helpers)".into());
                    continue;
                }
                let node = match site {
                    CrashSite::Node(n) if nodes.contains(n) => *n,
                    CrashSite::Node(_) | CrashSite::SeedPick => nodes[rng.pick(nodes.len())],
                    CrashSite::NewHelper => {
                        let fresh: Vec<usize> = nodes
                            .iter()
                            .copied()
                            .filter(|n| prev_senders.is_none_or(|p| !p.contains(n)))
                            .collect();
                        if fresh.is_empty() || prev_senders.is_none() {
                            nodes[rng.pick(nodes.len())]
                        } else {
                            fresh[rng.pick(fresh.len())]
                        }
                    }
                };
                let (w, i) = trigger_for(node).expect("node came from candidates");
                out.resolved.crash = Some(CrashFault {
                    node: NodeId(node),
                    trigger: OpId(i),
                });
                out.descriptions
                    .push(format!("{} node {node} (wave {w}, op {i})", fault.name()));
            }
            StormFault::Timeout => {
                if send_ops.is_empty() {
                    out.descriptions.push("timeout skipped (no sends)".into());
                    continue;
                }
                let i = send_ops[rng.pick(send_ops.len())];
                let fraction = 0.25 + 0.5 * rng.next_f64();
                out.resolved.op_faults[i].push(AttemptFault {
                    fraction,
                    reason: reason::TIMEOUT,
                });
                out.descriptions.push(format!("timeout op {i}"));
            }
            StormFault::Corrupt => {
                if send_ops.is_empty() {
                    out.descriptions.push("corrupt skipped (no sends)".into());
                    continue;
                }
                let i = send_ops[rng.pick(send_ops.len())];
                out.resolved.op_faults[i].push(AttemptFault {
                    fraction: 1.0,
                    reason: reason::CORRUPT,
                });
                out.descriptions.push(format!("corrupt op {i}"));
            }
            StormFault::Slow { factor } => {
                if sender_nodes.is_empty() {
                    out.descriptions.push("slow skipped (no helpers)".into());
                    continue;
                }
                let node = sender_nodes[rng.pick(sender_nodes.len())];
                out.resolved.slow.push((NodeId(node), *factor));
                out.descriptions
                    .push(format!("slow node {node} (x{factor:.2})"));
            }
            StormFault::Lie => {
                // A Byzantine helper: its send carries wrong bytes under
                // a valid FNV checksum, so transport-level retry never
                // fires — only the proof plane can catch it. The target
                // must be a helper send (the recovery node folds, it does
                // not serve blocks) so there is a node to accuse.
                let liars: Vec<usize> = send_ops
                    .iter()
                    .copied()
                    .filter(|&i| matches!(&plan.ops[i], Op::Send { from, .. } if *from != plan.recovery))
                    .collect();
                if liars.is_empty() {
                    out.descriptions
                        .push("lie skipped (no helper sends)".into());
                    continue;
                }
                let i = liars[rng.pick(liars.len())];
                let node = match &plan.ops[i] {
                    Op::Send { from, .. } => from.0,
                    _ => unreachable!("lie targets sends"),
                };
                out.resolved.lies.push(i);
                out.descriptions.push(format!("lie op {i} (node {node})"));
            }
            StormFault::RackOutage => {
                let mut racks: Vec<usize> = cross_ops
                    .iter()
                    .filter_map(|&i| match &plan.ops[i] {
                        Op::Send { from, .. } => Some(ctx.topo.rack_of(*from).0),
                        _ => None,
                    })
                    .collect();
                racks.sort_unstable();
                racks.dedup();
                if racks.is_empty() {
                    out.descriptions
                        .push("rack outage skipped (no cross sends)".into());
                    continue;
                }
                let rack = racks[rng.pick(racks.len())];
                let mut hit = 0usize;
                for &i in &cross_ops {
                    if let Op::Send { from, .. } = &plan.ops[i] {
                        if ctx.topo.rack_of(*from).0 == rack {
                            let fraction = 0.25 + 0.5 * rng.next_f64();
                            out.resolved.op_faults[i].push(AttemptFault {
                                fraction,
                                reason: reason::SWITCH_OUTAGE,
                            });
                            hit += 1;
                        }
                    }
                }
                out.descriptions
                    .push(format!("rack {rack} outage ({hit} transfers)"));
            }
            StormFault::Pinned(kind) => {
                let site = resolve_pinned(kind, plan, lowered, &waves, ctx, rng, &mut out.resolved)
                    .map_err(SuperviseError::Unrecoverable)?;
                out.descriptions.push(site);
            }
        }
    }
    Ok(out)
}

/// Pin one [`StormFault::Pinned`] fault into `out` and describe its site.
/// Each kind draws a fixed number of values from `rng` (a timeout one, a
/// switch outage one per transfer it hits, the rest none). Returns `Err`
/// when the fault cannot apply to this plan: wrong op kind, out-of-range
/// index, no matching transfer, or a crash of a node whose block cannot
/// join the failure set.
fn resolve_pinned(
    kind: &FaultKind,
    plan: &RepairPlan,
    lowered: &[bool],
    waves: &[Option<usize>],
    ctx: &RepairContext<'_>,
    rng: &mut SplitMix64,
    out: &mut ResolvedFaults,
) -> Result<String, String> {
    match *kind {
        FaultKind::TransferTimeout { op } => {
            if op >= plan.ops.len() {
                return Err(format!("timeout: op {op} out of range"));
            }
            if !matches!(plan.ops[op], Op::Send { .. }) {
                return Err(format!("timeout: op {op} is not a transfer"));
            }
            // Stall partway through: a quarter to three quarters in.
            let fraction = 0.25 + 0.5 * rng.next_f64();
            out.op_faults[op].push(AttemptFault {
                fraction,
                reason: reason::TIMEOUT,
            });
            Ok(format!("timeout op {op}"))
        }
        FaultKind::CorruptIntermediate { op } => {
            if op >= plan.ops.len() {
                return Err(format!("corrupt: op {op} out of range"));
            }
            if !matches!(
                plan.ops[op],
                Op::Send {
                    what: Payload::Intermediate(_),
                    ..
                }
            ) {
                return Err(format!(
                    "corrupt: op {op} does not carry an intermediate block"
                ));
            }
            // The full payload arrives; verification rejects it.
            out.op_faults[op].push(AttemptFault {
                fraction: 1.0,
                reason: reason::CORRUPT,
            });
            Ok(format!("corrupt op {op}"))
        }
        FaultKind::SlowLink { node, factor } => {
            if node >= ctx.topo.node_count() {
                return Err(format!("slow link: node {node} out of range"));
            }
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(format!("slow link: factor {factor} not in (0, 1]"));
            }
            out.slow.push((NodeId(node), factor));
            Ok(format!("slow node {node} (x{factor:.2})"))
        }
        FaultKind::RackSwitchOutage { rack, timestep } => {
            if rack >= ctx.topo.rack_count() {
                return Err(format!("switch outage: rack {rack} out of range"));
            }
            let mut hit = 0usize;
            for (i, op) in plan.ops.iter().enumerate() {
                let Op::Send { from, to, .. } = op else {
                    continue;
                };
                let touches = ctx.topo.rack_of(*from).0 == rack || ctx.topo.rack_of(*to).0 == rack;
                if waves[i] == Some(timestep) && touches {
                    hit += 1;
                    out.op_faults[i].push(AttemptFault {
                        fraction: rng.next_f64(),
                        reason: reason::SWITCH_OUTAGE,
                    });
                }
            }
            if hit == 0 {
                return Err(format!(
                    "switch outage: no cross transfer touches rack {rack} \
                     at timestep {timestep}"
                ));
            }
            Ok(format!(
                "rack {rack} outage at wave {timestep} ({hit} transfers)"
            ))
        }
        FaultKind::HelperCrash { node, timestep } => {
            if node >= ctx.topo.node_count() {
                return Err(format!("crash: node {node} out of range"));
            }
            // The node dies right before its first executed cross-rack
            // send scheduled at wave `timestep` or later.
            let trigger = (0..plan.ops.len())
                .filter_map(|i| match &plan.ops[i] {
                    Op::Send { from, .. } if from.0 == node && lowered[i] => {
                        waves[i].filter(|w| *w >= timestep).map(|w| (w, i))
                    }
                    _ => None,
                })
                .min();
            let Some((w, i)) = trigger else {
                return Err(format!(
                    "crash: node {node} performs no cross-rack send at or \
                     after timestep {timestep}"
                ));
            };
            // The dead helper's block joins the failure set.
            let crashed = NodeId(node);
            if crashed == plan.recovery {
                return Err("replan: the recovery node itself crashed".into());
            }
            let block = ctx
                .placement
                .block_on(crashed)
                .ok_or_else(|| format!("replan: {crashed:?} hosts no block of this stripe"))?;
            if ctx.failed.contains(&block) {
                return Err(format!("replan: {block:?} already failed"));
            }
            out.crash = Some(CrashFault {
                node: crashed,
                trigger: OpId(i),
            });
            Ok(format!("crash node {node} (wave {w}, op {i})"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::schemes::{RepairPlanner, RprPlanner};
    use crate::supervise::{plan_with_pool, supervise_injected, SuperviseConfig, Tier};
    use rpr_codec::{BlockId, CodeParams, StripeCodec};
    use rpr_faults::{FaultStorm, HealthTracker};
    use rpr_obs::TraceRecorder;
    use rpr_topology::{cluster_for, BandwidthProfile, Placement, Topology};
    use std::collections::HashMap;

    struct Fixture {
        codec: StripeCodec,
        topo: Topology,
        placement: Placement,
        profile: BandwidthProfile,
    }

    impl Fixture {
        fn new(n: usize, k: usize) -> Fixture {
            let params = CodeParams::new(n, k);
            let topo = cluster_for(params, 1, 1);
            let placement = Placement::rpr_preplaced(params, &topo);
            let profile = BandwidthProfile::simics_default(topo.rack_count());
            Fixture {
                codec: StripeCodec::new(params),
                topo,
                placement,
                profile,
            }
        }

        fn ctx(&self, failed: Vec<BlockId>) -> RepairContext<'_> {
            RepairContext::new(
                &self.codec,
                &self.topo,
                &self.placement,
                failed,
                64 << 20,
                &self.profile,
                CostModel::free(),
            )
        }
    }

    fn rpr_plan(ctx: &RepairContext<'_>) -> RepairPlan {
        let plan = RprPlanner::new().plan(ctx);
        plan.validate(ctx.codec, ctx.topo, ctx.placement)
            .expect("valid");
        plan
    }

    fn first_cross_send(plan: &RepairPlan, topo: &Topology) -> usize {
        plan.ops
            .iter()
            .position(|op| matches!(op, Op::Send { from, to, .. } if !topo.same_rack(*from, *to)))
            .expect("plan has a cross send")
    }

    fn first_intermediate_send(plan: &RepairPlan) -> usize {
        plan.ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    Op::Send {
                        what: Payload::Intermediate(_),
                        ..
                    }
                )
            })
            .expect("plan ships an intermediate")
    }

    fn bucket(kinds: &[FaultKind]) -> Vec<StormFault> {
        kinds.iter().copied().map(StormFault::Pinned).collect()
    }

    /// Resolve pinned `kinds` as generation 0 of a storm seeded `seed`.
    fn resolve_bucket(
        plan: &RepairPlan,
        ctx: &RepairContext<'_>,
        seed: u64,
        kinds: &[FaultKind],
    ) -> Result<GenFaults, SuperviseError> {
        let lowered = vec![true; plan.ops.len()];
        let mut rng = SplitMix64::new(seed);
        resolve_storm_bucket(&bucket(kinds), plan, &lowered, None, ctx, &mut rng)
    }

    /// A one-generation storm of pinned `kinds`, supervised on the
    /// simulator under `cfg`.
    fn supervise(
        ctx: &RepairContext<'_>,
        seed: u64,
        kinds: &[FaultKind],
        cfg: &SuperviseConfig,
        rec: &dyn rpr_obs::Recorder,
    ) -> Result<crate::supervise::SuperviseOutcome, String> {
        let storm = FaultStorm::new(seed).with_generation(bucket(kinds));
        supervise_injected(ctx, &storm, cfg, &mut HealthTracker::with_defaults(), rec)
    }

    #[test]
    fn pinned_transient_faults_resolve_to_their_ops() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let send = first_cross_send(&plan, &fx.topo);
        let interm = first_intermediate_send(&plan);
        let kinds = [
            FaultKind::TransferTimeout { op: send },
            FaultKind::CorruptIntermediate { op: interm },
            FaultKind::SlowLink {
                node: 0,
                factor: 0.5,
            },
        ];
        let r = resolve_bucket(&plan, &ctx, 42, &kinds)
            .expect("resolves")
            .resolved;
        assert_eq!(r.op_faults[send][0].reason, reason::TIMEOUT);
        let f = r.op_faults[send][0].fraction;
        assert!((0.25..0.75).contains(&f), "{f}");
        assert_eq!(
            r.op_faults[interm].last().unwrap(),
            &AttemptFault {
                fraction: 1.0,
                reason: reason::CORRUPT
            }
        );
        assert_eq!(r.slow, vec![(NodeId(0), 0.5)]);
        assert!(r.crash.is_none());
        // Same seed, same resolution.
        let r2 = resolve_bucket(&plan, &ctx, 42, &kinds).unwrap().resolved;
        assert_eq!(
            r.op_faults[send][0].fraction,
            r2.op_faults[send][0].fraction
        );
    }

    #[test]
    fn pinned_faults_at_missing_sites_are_unrecoverable() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let combine = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Combine { .. }))
            .unwrap();
        let raw_send = plan
            .ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    Op::Send {
                        what: Payload::Block(_),
                        ..
                    }
                )
            })
            .unwrap();
        for (fault, want) in [
            (FaultKind::TransferTimeout { op: combine }, "not a transfer"),
            (
                FaultKind::CorruptIntermediate { op: raw_send },
                "does not carry an intermediate",
            ),
            (FaultKind::TransferTimeout { op: 10_000 }, "out of range"),
            (
                FaultKind::SlowLink {
                    node: 0,
                    factor: 0.0,
                },
                "not in (0, 1]",
            ),
            (
                FaultKind::RackSwitchOutage {
                    rack: 0,
                    timestep: 999,
                },
                "no cross transfer",
            ),
            (
                FaultKind::HelperCrash {
                    node: fx.topo.node_count() - 1,
                    timestep: 999,
                },
                "no cross-rack send",
            ),
        ] {
            match resolve_bucket(&plan, &ctx, 1, &[fault]) {
                Err(SuperviseError::Unrecoverable(err)) => assert!(err.contains(want), "{err}"),
                other => panic!("{fault:?}: {other:?}"),
            }
        }
        // A second crash is deferred to the next generation, even if both
        // sites are valid.
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let crash = FaultKind::HelperCrash {
            node,
            timestep: step,
        };
        let r = resolve_bucket(&plan, &ctx, 1, &[crash, crash]).expect("resolves");
        assert_eq!(r.resolved.crash.map(|c| c.node), Some(NodeId(node)));
        assert_eq!(r.deferred, vec![StormFault::Pinned(crash)]);
    }

    #[test]
    fn switch_outage_hits_every_wave_transfer_touching_the_rack() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let (waves, _) = plan.cross_waves(&fx.topo);
        let rack = ctx.recovery_rack().0;
        let outage = FaultKind::RackSwitchOutage { rack, timestep: 0 };
        let r = resolve_bucket(&plan, &ctx, 9, &[outage])
            .expect("resolves")
            .resolved;
        for (i, w) in waves.iter().enumerate() {
            let hit = !r.op_faults[i].is_empty();
            if hit {
                assert_eq!(*w, Some(0), "op {i} hit outside wave 0");
                assert_eq!(r.op_faults[i][0].reason, reason::SWITCH_OUTAGE);
            }
        }
        assert!(r.op_faults.iter().any(|f| !f.is_empty()));
    }

    #[test]
    fn crash_candidates_are_block_hosting_cross_senders() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let cands = crash_candidates(&plan, &ctx);
        assert!(!cands.is_empty());
        let rec = ctx.recovery_node().0;
        for &(node, step) in &cands {
            assert_ne!(node, rec);
            assert!(fx.placement.block_on(NodeId(node)).is_some());
            // Each candidate resolves to a concrete trigger.
            let crash = FaultKind::HelperCrash {
                node,
                timestep: step,
            };
            let r = resolve_bucket(&plan, &ctx, 1, &[crash]).expect("candidate resolves");
            assert_eq!(r.resolved.crash.unwrap().node.0, node);
        }
    }

    #[test]
    fn pool_replan_reuses_completed_results_and_validates() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let &(node, _) = crash_candidates(&plan, &ctx).last().unwrap();
        // Everything except the crashed node's own ops completed.
        let vecs = plan.symbolic_vectors();
        let pool: HashMap<_, ()> = plan
            .ops
            .iter()
            .zip(vecs)
            .map(|(op, v)| (op.output_location().0, v))
            .filter(|(loc, _)| *loc != node)
            .map(|key| (key, ()))
            .collect();
        let mut ctx2 = ctx.clone();
        ctx2.failed
            .push(fx.placement.block_on(NodeId(node)).unwrap());
        ctx2.recovery_node_override = Some(plan.recovery);
        ctx2.recovery_override = Some(fx.topo.rack_of(plan.recovery));
        let rep = plan_with_pool(&ctx2, &pool, Tier::Full).expect("replans");
        assert_eq!(ctx2.failed.len(), 2);
        assert_eq!(rep.plan.recovery, plan.recovery);
        rep.plan
            .validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("replacement plan is valid");
        // Reused ops are never re-executed.
        for (i, r) in rep.reused.iter().enumerate() {
            if r.is_some() {
                assert!(!rep.lowered[i], "reused op {i} must not re-execute");
            }
        }
        // Reused values really are byte-identical: same location and
        // symbolic vector as the banked partial.
        let v2 = rep.plan.symbolic_vectors();
        for (i, r) in rep.reused.iter().enumerate() {
            if let Some((loc, v)) = r {
                assert_eq!(&v2[i], v);
                assert_eq!(rep.plan.ops[i].output_location().0, *loc);
                assert!(pool.contains_key(&(*loc, v.clone())));
            }
        }
    }

    #[test]
    fn crash_beyond_k_failures_is_unrecoverable() {
        let fx = Fixture::new(4, 2);
        let ctx = fx.ctx(vec![BlockId(0), BlockId(1)]); // already k = 2 failures
        let plan = rpr_plan(&ctx);
        let (node, timestep) = crash_candidates(&plan, &ctx)[0];
        let crash = FaultKind::HelperCrash { node, timestep };
        let err = supervise(
            &ctx,
            1,
            &[crash],
            &SuperviseConfig::default(),
            rpr_obs::noop(),
        )
        .unwrap_err();
        assert!(err.contains("unrecoverable"), "{err}");
    }

    #[test]
    fn injected_run_without_faults_matches_clean_simulation() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let out =
            supervise(&ctx, 7, &[], &SuperviseConfig::default(), rpr_obs::noop()).expect("runs");
        assert_eq!(out.repair_time, out.clean_time);
        assert_eq!(out.retries, 0);
        assert_eq!(out.replans, 0);
    }

    #[test]
    fn injected_timeout_retries_and_slows_the_repair() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let send = first_cross_send(&plan, &fx.topo);
        let rec = TraceRecorder::default();
        let timeout = FaultKind::TransferTimeout { op: send };
        let out = supervise(&ctx, 5, &[timeout], &SuperviseConfig::default(), &rec).expect("runs");
        assert_eq!(out.retries, 1);
        assert_eq!(out.replans, 0);
        assert!(
            out.repair_time > out.clean_time,
            "{} vs {}",
            out.repair_time,
            out.clean_time
        );
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"transfer_failed"));
        assert!(names.contains(&"retry_scheduled"));
        assert_eq!(*names.last().unwrap(), "repair_done");
    }

    #[test]
    fn injected_crash_replans_and_completes() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        for &(node, step) in &crash_candidates(&plan, &ctx) {
            let crash = FaultKind::HelperCrash {
                node,
                timestep: step,
            };
            let rec = TraceRecorder::default();
            let out = supervise(&ctx, 11, &[crash], &SuperviseConfig::default(), &rec)
                .unwrap_or_else(|e| panic!("crash ({node}, {step}): {e}"));
            assert_eq!(out.replans, 1);
            assert!(out.repair_time >= out.clean_time);
            let events = rec.take_events();
            let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
            assert!(names.contains(&"helper_crashed"));
            assert!(names.contains(&"replanned"));
            assert_eq!(*names.last().unwrap(), "repair_done");
            // Timeline is monotone: repair_done is the latest instant.
            for e in &events {
                assert!(e.time() <= out.repair_time + 1e-9);
            }
        }
    }

    #[test]
    fn injected_run_exhausting_retry_budget_fails() {
        let fx = Fixture::new(6, 3);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = rpr_plan(&ctx);
        let timeout = FaultKind::TransferTimeout {
            op: first_cross_send(&plan, &fx.topo),
        };
        let tight = SuperviseConfig {
            policy: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..SuperviseConfig::default()
        };
        let err = supervise(&ctx, 5, &[timeout], &tight, rpr_obs::noop()).unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
    }

    #[test]
    fn injected_trace_is_bit_deterministic() {
        let fx = Fixture::new(8, 4);
        let ctx = fx.ctx(vec![BlockId(2)]);
        let plan = rpr_plan(&ctx);
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let kinds = [
            FaultKind::TransferTimeout {
                op: first_cross_send(&plan, &fx.topo),
            },
            FaultKind::HelperCrash {
                node,
                timestep: step,
            },
        ];
        let mut traces = Vec::new();
        for _ in 0..2 {
            let rec = TraceRecorder::default();
            supervise(&ctx, 4242, &kinds, &SuperviseConfig::default(), &rec).expect("runs");
            traces.push(rpr_obs::export::to_json_lines(&rec.take_events()));
        }
        assert_eq!(traces[0], traces[1]);
    }
}
