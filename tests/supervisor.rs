//! Repair-supervisor acceptance suite.
//!
//! The headline guarantees (see `docs/ROBUSTNESS.md`):
//! * a seeded 3-fault storm — helper crash, crash of its replacement,
//!   then a transient timeout — completes at (6,3) via multi-crash
//!   replanning with pooled partial reuse;
//! * the identical seed replays bit-deterministically (traces diff
//!   byte-for-byte clean);
//! * a hedged repair with one seeded straggler beats the unhedged
//!   makespan of the same seed (regression pin);
//! * the replan invariants hold across seeded chaos storms: reused
//!   partials never exceed the pool banked by prior generations, and
//!   replacement plans still satisfy the decode equation;
//! * `Slow` derates outlive the generation that injected them;
//! * the simulator and the executor reach the same decisions on the
//!   same seeded storms.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    plan_with_pool, supervise_injected, CostModel, RepairContext, RepairPlanner, RprPlanner,
    SuperviseConfig, Tier,
};
use rpr::exec::execute_supervised;
use rpr::faults::{ChaosProcess, CrashSite, FaultStorm, HealthTracker, RetryPolicy, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement};
use rpr_proof::ProofMode;
use std::collections::HashMap;

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
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff: 0.01,
        multiplier: 2.0,
        ..RetryPolicy::default()
    }
}

fn three_fault_storm(seed: u64) -> FaultStorm {
    FaultStorm::new(seed)
        .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
        .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
        .with_generation(vec![StormFault::Timeout])
}

fn run_storm(
    world: &World,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
) -> (rpr::core::SuperviseOutcome, String) {
    let ctx = world.ctx(vec![BlockId(1)]);
    let rec = TraceRecorder::with_capacity(16384);
    let mut tracker = HealthTracker::with_defaults();
    let outcome = supervise_injected(&ctx, storm, cfg, &mut tracker, &rec)
        .expect("supervised repair completes");
    let trace = export::to_json_lines(&rec.take_events());
    (outcome, trace)
}

#[test]
fn three_fault_storm_completes_at_6_3() {
    let world = World::new(6, 3, 1 << 20);
    let storm = three_fault_storm(77);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let (outcome, _) = run_storm(&world, &storm, &cfg);

    assert_eq!(outcome.replans, 2, "two crashes, two replans");
    assert_eq!(outcome.generations.len(), 3);
    assert!(outcome.generations[0].crashed.is_some());
    assert!(outcome.generations[1].crashed.is_some());
    assert!(outcome.generations[2].crashed.is_none());
    assert!(outcome.retries >= 1, "the timeout fired");
    assert!(
        outcome.repair_time > outcome.clean_time,
        "faults cost time: {} vs {}",
        outcome.repair_time,
        outcome.clean_time
    );
    assert_eq!(outcome.final_tier, Tier::Full);
    // The second crash hit the replacement helper: the fault resolved
    // to a node that was not a cross sender of generation 0's plan.
    assert!(outcome
        .fault_sites
        .iter()
        .any(|s| s.starts_with("replacement-crash")));
}

#[test]
fn identical_seed_replays_bit_deterministically() {
    let world = World::new(6, 3, 1 << 20);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        hedge: Some(2.0),
        deadline: Some(500.0),
        ..SuperviseConfig::default()
    };
    for chunked in [false, true] {
        let storm = three_fault_storm(4242);
        let run = |storm: &FaultStorm| {
            let mut ctx = world.ctx(vec![BlockId(1)]);
            if chunked {
                ctx = ctx.with_chunk_size(1 << 18);
            }
            let rec = TraceRecorder::with_capacity(16384);
            let mut tracker = HealthTracker::with_defaults();
            let outcome =
                supervise_injected(&ctx, storm, &cfg, &mut tracker, &rec).expect("completes");
            (outcome.repair_time, export::to_json_lines(&rec.take_events()))
        };
        let (t1, trace1) = run(&storm);
        let (t2, trace2) = run(&storm);
        assert_eq!(t1.to_bits(), t2.to_bits(), "chunked={chunked}");
        assert_eq!(trace1, trace2, "trace replay must be byte-identical");
    }
}

#[test]
fn hedged_repair_beats_unhedged_with_seeded_straggler() {
    let world = World::new(6, 3, 8 << 20);
    // One seeded straggler: a helper's links run at 10% for the whole
    // repair. No crashes — hedging only arms in crash-free generations.
    let storm = FaultStorm::new(3).with_generation(vec![StormFault::Slow { factor: 0.1 }]);
    let base = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let hedged_cfg = SuperviseConfig {
        hedge: Some(2.0),
        ..base.clone()
    };
    let (unhedged, _) = run_storm(&world, &storm, &base);
    let (hedged, _) = run_storm(&world, &storm, &hedged_cfg);

    assert_eq!(unhedged.hedges, 0);
    assert!(hedged.hedges >= 1, "straggler must trigger a hedge");
    assert!(hedged.hedge_wins >= 1, "the alternate helper must win");
    assert!(
        hedged.repair_time < unhedged.repair_time,
        "hedged {} must beat unhedged {}",
        hedged.repair_time,
        unhedged.repair_time
    );
    // Regression pin: both makespans are deterministic for this seed.
    let (hedged2, _) = run_storm(&world, &storm, &hedged_cfg);
    assert_eq!(hedged.repair_time.to_bits(), hedged2.repair_time.to_bits());
}

#[test]
fn replan_invariants_hold_across_seeded_chaos_storms() {
    let world = World::new(6, 3, 1 << 20);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let mut completed_runs = 0usize;
    for seed in 0..24u64 {
        let storm = ChaosProcess::new(seed).storm();
        let ctx = world.ctx(vec![BlockId(1)]);
        let rec = TraceRecorder::with_capacity(16384);
        let mut tracker = HealthTracker::with_defaults();
        let Ok(outcome) = supervise_injected(&ctx, &storm, &cfg, &mut tracker, &rec) else {
            // Some storms legitimately exceed the retry budget or k.
            continue;
        };
        completed_runs += 1;
        for (g, gen) in outcome.generations.iter().enumerate() {
            assert!(
                gen.reused_ops <= gen.pool_before,
                "seed {seed} gen {g}: reused {} partials but only {} were banked",
                gen.reused_ops,
                gen.pool_before
            );
            assert!(
                gen.completed_ops <= gen.executed_ops,
                "seed {seed} gen {g}: completed more ops than it executed"
            );
        }
        assert_eq!(outcome.generations[0].pool_before, 0);
        assert_eq!(
            outcome.replans,
            outcome.generations.len() - 1,
            "seed {seed}: every generation after the first is a replan"
        );
    }
    assert!(
        completed_runs >= 16,
        "most chaos storms must complete ({completed_runs}/24 did)"
    );
}

#[test]
fn pool_reuse_preserves_the_decode_equation() {
    let world = World::new(6, 3, 1 << 20);
    let ctx = world.ctx(vec![BlockId(1)]);
    let plan = RprPlanner::new().plan(&ctx);
    plan.validate(&world.codec, &world.topo, &world.placement)
        .expect("base plan valid");

    // Bank every op of the original plan, then replan around a crashed
    // helper with the pool available.
    let vecs = plan.symbolic_vectors();
    let crashed = world.placement.node_of(BlockId(3));
    let mut pool: HashMap<(usize, Vec<u8>), ()> = HashMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let loc = op.output_location();
        if loc != crashed {
            pool.insert((loc.0, vecs[i].clone()), ());
        }
    }
    let mut ctx2 = world.ctx(vec![BlockId(1), BlockId(3)]);
    ctx2.recovery_node_override = Some(plan.recovery);
    ctx2.recovery_override = Some(world.topo.rack_of(plan.recovery));
    let rep = plan_with_pool(&ctx2, &pool, Tier::Full).expect("replan builds");

    // The replacement plan still solves the decode equation…
    rep.plan
        .validate(&world.codec, &world.topo, &world.placement)
        .expect("replacement plan valid");
    // …and every reused partial is byte-identical by construction: same
    // node, same symbolic coefficient vector as the new plan demands.
    let vecs2 = rep.plan.symbolic_vectors();
    let mut reused = 0usize;
    for (i, key) in rep.reused.iter().enumerate() {
        let Some((node, vec)) = key else { continue };
        reused += 1;
        assert_eq!(*node, rep.plan.ops[i].output_location().0);
        assert_eq!(*vec, vecs2[i]);
        assert!(
            pool.contains_key(&(*node, vec.clone())),
            "reused key must come from the pool"
        );
        assert!(!rep.lowered[i], "reused ops never re-execute");
    }
    assert!(reused > 0, "a fully-banked pool must be reused");
    assert!(reused <= pool.len());
}

/// The node a resolved `slow node {n} (x…)` site derated.
fn slow_node(sites: &[String]) -> Option<usize> {
    sites
        .iter()
        .find_map(|s| s.strip_prefix("slow node "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
}

#[test]
fn slow_derates_persist_into_the_generation_after_a_crash() {
    // A `Slow` fault models degraded hardware, which does not heal when
    // the supervisor replans around a crash: in the generation after the
    // crash, the derated node's transfers must still run ~10x slower
    // than their same-class peers.
    let world = World::new(6, 3, 1 << 20);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let mut checked = 0usize;
    for seed in 0..16u64 {
        let storm = FaultStorm::new(seed).with_generation(vec![
            StormFault::Slow { factor: 0.1 },
            StormFault::Crash(CrashSite::SeedPick),
        ]);
        let ctx = world.ctx(vec![BlockId(1)]);
        let rec = TraceRecorder::with_capacity(16384);
        let mut tracker = HealthTracker::with_defaults();
        let out = supervise_injected(&ctx, &storm, &cfg, &mut tracker, &rec)
            .expect("one crash is always survivable at (6,3)");
        let slow = slow_node(&out.fault_sites).expect("a slow site resolved");
        if out.generations[0].crashed == Some(slow) {
            continue;
        }
        // (source, cross, duration) of every generation-1 transfer.
        let gen1: Vec<(usize, bool, f64)> = rec
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                Event::TransferDone { xfer, start, end } if xfer.label.starts_with("p1op") => {
                    Some((xfer.src_node, xfer.cross, end - start))
                }
                _ => None,
            })
            .collect();
        for &(src, cross, dur) in &gen1 {
            if src != slow {
                continue;
            }
            let mut peers: Vec<f64> = gen1
                .iter()
                .filter(|&&(s, c, _)| s != slow && c == cross)
                .map(|&(.., d)| d)
                .collect();
            if peers.is_empty() {
                continue;
            }
            peers.sort_by(f64::total_cmp);
            let median = peers[peers.len() / 2];
            assert!(
                dur > 4.0 * median,
                "seed {seed}: node {slow} sent in {dur:.3} s after the crash, \
                 peers' median {median:.3} s — the derate did not persist"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 3,
        "too few post-crash sends from a slow node ({checked})"
    );
}

fn stripe_for(codec: &StripeCodec, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut s = seed | 1;
    let data: Vec<Vec<u8>> = (0..codec.params().n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 33) as u8
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
    codec.encode_stripe(&refs)
}

#[test]
fn backends_agree_on_seeded_storms() {
    // One loop drives both backends, so the same seeded storm must reach
    // the same decisions on either. The one fact each backend owns is
    // which ops count as completed when a crash fires (the simulator
    // stops at the crash instant, the executor lets surviving branches
    // finish), so after a crash only the crash sequence, the replan
    // count and the accusations are compared; crash-free storms must
    // agree on every clock-free field.
    let storms = |seed: u64| -> Vec<FaultStorm> {
        let mut chaos = ChaosProcess::new(seed).storm();
        for bucket in &mut chaos.generations {
            bucket.retain(|f| !matches!(f, StormFault::Slow { .. }));
        }
        let mut out = vec![chaos];
        for fault in [
            StormFault::Lie,
            StormFault::Timeout,
            StormFault::Corrupt,
            StormFault::RackOutage,
        ] {
            out.push(FaultStorm::new(seed).with_generation(vec![fault]));
        }
        out
    };
    let mut compared = (0usize, 0usize);
    for (n, k) in [(6usize, 3usize), (12, 4)] {
        let world = World::new(n, k, 64 * 1024);
        let ctx = world.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&world.codec, world.block as usize, 5);
        for seed in 0..6u64 {
            for storm in storms(seed) {
                for proof in [ProofMode::Off, ProofMode::Mandatory] {
                    let cfg = SuperviseConfig {
                        policy: fast_policy(),
                        proof,
                        ..SuperviseConfig::default()
                    };
                    let sim = supervise_injected(
                        &ctx,
                        &storm,
                        &cfg,
                        &mut HealthTracker::with_defaults(),
                        rpr::obs::noop(),
                    );
                    let exec = execute_supervised(
                        &ctx,
                        &stripe,
                        rpr::obs::noop(),
                        &storm,
                        &cfg,
                        &mut HealthTracker::with_defaults(),
                    );
                    let case = format!("({n},{k}) seed {seed} {proof:?} storm {storm:?}");
                    let (sim, exec) = match (sim, exec) {
                        (Ok(s), Ok(e)) => (s, e),
                        (Err(_), Err(_)) => continue,
                        (s, e) => panic!("{case}: sim ok={} exec ok={}", s.is_ok(), e.is_ok()),
                    };
                    // An unenforced lie reaches the output: only a
                    // Mandatory proof plane routes around it.
                    let lied = storm
                        .generations
                        .iter()
                        .flatten()
                        .any(|f| *f == StormFault::Lie);
                    assert_eq!(
                        exec.report.verified,
                        !lied || proof == ProofMode::Mandatory,
                        "{case}: exec verification"
                    );
                    let crashes = |g: &[rpr::core::GenerationRecord]| -> Vec<Option<usize>> {
                        g.iter().map(|r| r.crashed).collect()
                    };
                    assert_eq!(
                        crashes(&sim.generations),
                        crashes(&exec.generations),
                        "{case}"
                    );
                    assert_eq!(sim.replans, exec.replans, "{case}");
                    assert_eq!(sim.accusations, exec.accusations, "{case}");
                    if sim.generations.iter().any(|g| g.crashed.is_some()) {
                        compared.1 += 1;
                        continue;
                    }
                    assert_eq!(sim.fault_sites, exec.fault_sites, "{case}");
                    assert_eq!(
                        format!("{:?}", sim.generations),
                        format!("{:?}", exec.generations),
                        "{case}"
                    );
                    assert_eq!(sim.retries, exec.retries, "{case}");
                    assert_eq!(sim.proofs_emitted, exec.proofs_emitted, "{case}");
                    assert_eq!(sim.proofs_rejected, exec.proofs_rejected, "{case}");
                    assert_eq!(sim.cross_bytes, exec.report.cross_bytes, "{case}");
                    assert_eq!(sim.inner_bytes, exec.report.inner_bytes, "{case}");
                    compared.0 += 1;
                }
            }
        }
    }
    assert!(
        compared.0 >= 60 && compared.1 >= 8,
        "too few storms compared (crash-free, crash) = {compared:?}"
    );
}

/// The generation that completes a supervised repair closes it with its
/// wave boundaries on both backends, and on the simulator with its
/// stream summaries labelled by generation: all of them after the last
/// replan and before `repair_done`.
#[test]
fn completing_generation_emits_wave_boundaries_on_both_backends() {
    let world = World::new(6, 3, 256 * 1024);
    let ctx = world.ctx(vec![BlockId(1)]).with_chunk_size(64 * 1024);
    let storm = three_fault_storm(77);
    let cfg = SuperviseConfig {
        policy: fast_policy(),
        ..SuperviseConfig::default()
    };
    let stripe = stripe_for(&world.codec, world.block as usize, 77);
    for backend in ["sim", "exec"] {
        let rec = TraceRecorder::with_capacity(16384);
        let mut tracker = HealthTracker::with_defaults();
        let generations = if backend == "sim" {
            supervise_injected(&ctx, &storm, &cfg, &mut tracker, &rec)
                .expect("sim storm completes")
                .generations
                .len()
        } else {
            execute_supervised(&ctx, &stripe, &rec, &storm, &cfg, &mut tracker)
                .expect("exec storm completes")
                .generations
                .len()
        };
        assert_eq!(generations, 3, "{backend}");
        let events = rec.take_events();
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        let last_replan = names.iter().rposition(|n| *n == "replanned").unwrap();
        let done = names.iter().position(|n| *n == "repair_done").unwrap();
        assert_eq!(done, names.len() - 1, "{backend}");
        let starts = names.iter().filter(|n| **n == "timestep_started").count();
        let finishes = names.iter().filter(|n| **n == "timestep_finished").count();
        assert!(starts >= 1, "{backend}: no wave boundaries in {names:?}");
        assert_eq!(starts, finishes, "{backend}");
        for (i, e) in events.iter().enumerate() {
            match e {
                Event::TimestepStarted { .. } | Event::TimestepFinished { .. } => {
                    assert!(i > last_replan && i < done, "{backend}: boundary at {i}");
                }
                Event::StreamSummary { xfer, .. } if backend == "sim" => {
                    assert!(i > last_replan && i < done, "{backend}: summary at {i}");
                    assert!(xfer.label.starts_with("p2op"), "{}", xfer.label);
                }
                _ => {}
            }
        }
        if backend == "sim" {
            assert!(names.contains(&"stream_summary"), "no stream summaries");
        }
    }
}
