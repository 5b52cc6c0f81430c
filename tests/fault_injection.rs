//! Deterministic chaos suite: single pinned faults (one-generation
//! storms of [`StormFault::Pinned`], what `rpr inject` runs) across both
//! backends of the supervisor.
//!
//! The headline guarantees (see `docs/ROBUSTNESS.md`):
//! * a helper crash at *any* pipeline timestep of a single-failure RPR
//!   repair completes via replanning and reconstructs the lost block
//!   byte-identically on the real-data executor;
//! * transient faults (timeouts, corrupted intermediates) are retried and
//!   the repair still verifies;
//! * under a fixed seed the simulated degraded trace is bit-deterministic
//!   (the property `scripts/verify.sh` diffs end-to-end via `rpr inject`).

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    crash_candidates, supervise_injected, CostModel, Op, Payload, RepairContext, RepairPlanner,
    RprPlanner, SuperviseConfig,
};
use rpr::exec::execute_supervised;
use rpr::faults::{FaultKind, FaultStorm, HealthTracker, RetryPolicy, SplitMix64, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement};

/// The paper's single-failure configurations (kept in sync with
/// `rpr-experiments`).
const PAPER_CODES: [(usize, usize); 6] = [(4, 2), (6, 2), (8, 2), (6, 3), (8, 4), (12, 4)];

struct World {
    codec: StripeCodec,
    topo: rpr::topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
    block: u64,
}

impl World {
    fn new(n: usize, k: usize, block: u64) -> World {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        World {
            codec: StripeCodec::new(params),
            topo,
            placement,
            profile,
            block,
        }
    }

    fn ctx(&self, failed: Vec<BlockId>) -> RepairContext<'_> {
        RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            failed,
            self.block,
            &self.profile,
            CostModel::free(),
        )
    }

    fn stripe(&self, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<Vec<u8>> = (0..self.codec.params().n)
            .map(|_| {
                (0..self.block as usize)
                    .map(|_| (rng.next_u64() >> 24) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        self.codec.encode_stripe(&refs)
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff: 0.01,
        multiplier: 2.0,
        ..RetryPolicy::default()
    }
}

/// A one-generation storm of the pinned `kinds`.
fn pinned(seed: u64, kinds: &[FaultKind]) -> FaultStorm {
    FaultStorm::new(seed).with_generation(kinds.iter().copied().map(StormFault::Pinned).collect())
}

fn cfg(policy: RetryPolicy) -> SuperviseConfig {
    SuperviseConfig {
        policy,
        ..SuperviseConfig::default()
    }
}

/// Simulated chaos sweep: for every paper configuration, crash every
/// possible helper at every timestep it participates in; the repair must
/// always complete by replanning, never faster than the clean run.
#[test]
fn sim_crash_at_every_site_replans_and_completes() {
    for (n, k) in PAPER_CODES {
        let w = World::new(n, k, 8 << 20);
        let ctx = w.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&w.codec, &w.topo, &w.placement).expect("valid");
        let sites = crash_candidates(&plan, &ctx);
        assert!(!sites.is_empty(), "({n},{k}): no crash sites");
        for (site, &(node, timestep)) in sites.iter().enumerate() {
            let storm = pinned(
                1000 + site as u64,
                &[FaultKind::HelperCrash { node, timestep }],
            );
            let rec = TraceRecorder::default();
            let mut tracker = HealthTracker::with_defaults();
            let out = supervise_injected(&ctx, &storm, &cfg(fast_policy()), &mut tracker, &rec)
                .unwrap_or_else(|e| panic!("({n},{k}) crash node {node}@{timestep}: {e}"));
            assert_eq!(out.replans, 1, "({n},{k}) node {node}@{timestep}");
            assert!(
                out.repair_time >= out.clean_time,
                "({n},{k}) node {node}@{timestep}: degraded {} < clean {}",
                out.repair_time,
                out.clean_time
            );
            let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
            for expect in ["helper_crashed", "replanned", "repair_done"] {
                assert!(
                    names.contains(&expect),
                    "({n},{k}) node {node}@{timestep}: missing {expect} in {names:?}"
                );
            }
        }
    }
}

/// The acceptance scenario: on RS(6,3) with one failed block, kill one
/// seeded-random helper at *every* pipeline timestep in turn; the
/// real-data executor must recover through replanning and reconstruct the
/// block byte-identically every time.
#[test]
fn exec_crash_at_every_timestep_recovers_byte_identically() {
    let w = World::new(6, 3, 16 * 1024);
    let ctx = w.ctx(vec![BlockId(1)]);
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&w.codec, &w.topo, &w.placement).expect("valid");
    let stripe = w.stripe(99);
    let sites = crash_candidates(&plan, &ctx);
    let timesteps: Vec<usize> = {
        let mut ws: Vec<usize> = sites.iter().map(|&(_, w)| w).collect();
        ws.dedup();
        ws
    };
    assert!(timesteps.len() >= 2, "(6,3) pipelines over 2 timesteps");
    let mut rng = SplitMix64::new(42);
    for step in timesteps {
        // One seeded-random helper among those active at this timestep.
        let at_step: Vec<usize> = sites
            .iter()
            .filter(|&&(_, w)| w == step)
            .map(|&(n, _)| n)
            .collect();
        let node = at_step[rng.pick(at_step.len())];
        let storm = pinned(
            7 + step as u64,
            &[FaultKind::HelperCrash {
                node,
                timestep: step,
            }],
        );
        let rec = TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let out = execute_supervised(
            &ctx,
            &stripe,
            &rec,
            &storm,
            &cfg(fast_policy()),
            &mut tracker,
        )
        .unwrap_or_else(|e| panic!("crash node {node}@{step}: {e}"));
        assert!(
            out.report.verified,
            "crash node {node}@{step}: mismatches {:?}",
            out.report.mismatches
        );
        assert_eq!(out.replans, 1, "crash node {node}@{step}");
        let events = rec.take_events();
        assert!(
            events.iter().any(|e| matches!(e, Event::Replanned { .. })),
            "crash node {node}@{step}: no replanned event"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::HelperCrashed { .. })),
            "crash node {node}@{step}: no helper_crashed event"
        );
    }
}

/// Transient faults on the executor: a seeded-random timeout and a
/// corrupted intermediate must both be retried (`retry_scheduled`) and
/// still end in a byte-verified reconstruction.
#[test]
fn exec_transient_faults_retry_and_verify() {
    let w = World::new(6, 2, 16 * 1024);
    let ctx = w.ctx(vec![BlockId(1)]);
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&w.codec, &w.topo, &w.placement).expect("valid");
    let stripe = w.stripe(5);

    let mut rng = SplitMix64::new(123);
    let sends: Vec<usize> = plan
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Send { .. }))
        .map(|(i, _)| i)
        .collect();
    let interms: Vec<usize> = plan
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| {
            matches!(
                op,
                Op::Send {
                    what: Payload::Intermediate(_),
                    ..
                }
            )
        })
        .map(|(i, _)| i)
        .collect();
    let cases = [
        FaultKind::TransferTimeout {
            op: sends[rng.pick(sends.len())],
        },
        FaultKind::CorruptIntermediate {
            op: interms[rng.pick(interms.len())],
        },
    ];
    for kind in cases {
        let rec = TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let storm = pinned(9, &[kind]);
        let out = execute_supervised(
            &ctx,
            &stripe,
            &rec,
            &storm,
            &cfg(fast_policy()),
            &mut tracker,
        )
        .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(out.report.verified, "{kind:?}: not verified");
        assert_eq!(out.retries, 1, "{kind:?}");
        assert_eq!(out.replans, 0, "{kind:?}");
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"transfer_failed"), "{kind:?}: {names:?}");
        assert!(names.contains(&"retry_scheduled"), "{kind:?}: {names:?}");
    }
}

/// Fixed seed in, identical bytes out: the simulated degraded trace —
/// including a full crash/replan cycle — serializes to byte-identical
/// JSONL across runs.
#[test]
fn sim_injected_trace_is_bit_deterministic() {
    let run = |seed: u64| -> String {
        let w = World::new(8, 4, 64 << 20);
        let ctx = w.ctx(vec![BlockId(2)]);
        let plan = RprPlanner::new().plan(&ctx);
        let (node, timestep) = crash_candidates(&plan, &ctx)[1];
        let send = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
            .expect("plans start with sends");
        let storm = pinned(
            seed,
            &[
                FaultKind::TransferTimeout { op: send },
                FaultKind::HelperCrash { node, timestep },
            ],
        );
        let rec = TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        supervise_injected(
            &ctx,
            &storm,
            &SuperviseConfig::default(),
            &mut tracker,
            &rec,
        )
        .expect("injected repair completes");
        export::to_json_lines(&rec.take_events())
    };
    assert_eq!(run(17), run(17), "same seed must replay identically");
    assert_ne!(run(17), run(4242), "the seed must actually steer the run");
}
