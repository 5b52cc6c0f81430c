//! Golden pins for single-fault injection (`rpr inject`).
//!
//! Each case injects one seed-sited fault into a single-failure RPR
//! repair on the simulator and pins two things: every outcome field
//! (times as exact bit patterns) and the `checksum64` digest of the
//! JSON-lines trace with its `timestep_started`, `timestep_finished` and
//! `stream_summary` lines removed. Sites are picked exactly as
//! `rpr inject --fault F --seed S` picks them, in the `rpr` CLI world
//! (preplaced placement, 1 Gbit/s inner links, a 1:10 inner:cross ratio,
//! the simics cost model, 256 MiB blocks). The crash cases are
//! `scripts/verify.sh` step 6's runs.
//!
//! On a mismatch the panic message prints the full table of actual pins.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{
    crash_candidates, supervise_injected, CostModel, Op, Payload, RepairContext, RepairPlan,
    RepairPlanner, RprPlanner, SuperviseConfig,
};
use rpr::faults::{checksum64, FaultKind, FaultStorm, HealthTracker, SplitMix64, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, GBIT};

const MIB: u64 = 1 << 20;

struct World {
    codec: StripeCodec,
    topo: rpr::topology::Topology,
    placement: Placement,
    profile: BandwidthProfile,
}

impl World {
    fn new(n: usize, k: usize) -> World {
        let params = CodeParams::new(n, k);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), GBIT, GBIT / 10.0);
        World {
            codec: StripeCodec::new(params),
            topo,
            placement,
            profile,
        }
    }

    fn ctx(&self, chunk: Option<u64>) -> RepairContext<'_> {
        let block = 256 * MIB;
        let ctx = RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            vec![BlockId(1)],
            block,
            &self.profile,
            CostModel::simics().scaled_for_block(block),
        );
        match chunk {
            Some(c) => ctx.with_chunk_size(c),
            None => ctx,
        }
    }
}

/// The fault `rpr inject --fault {family} --seed {seed}` injects.
fn seeded_fault(plan: &RepairPlan, ctx: &RepairContext<'_>, family: &str, seed: u64) -> FaultKind {
    let mut rng = SplitMix64::new(seed);
    let sends = |pred: &dyn Fn(&Op) -> bool| -> Vec<usize> {
        (0..plan.ops.len())
            .filter(|&i| pred(&plan.ops[i]))
            .collect()
    };
    match family {
        "crash" => {
            let cands = crash_candidates(plan, ctx);
            let (node, timestep) = cands[rng.pick(cands.len())];
            FaultKind::HelperCrash { node, timestep }
        }
        "timeout" => {
            let s = sends(&|op| matches!(op, Op::Send { .. }));
            FaultKind::TransferTimeout {
                op: s[rng.pick(s.len())],
            }
        }
        "corrupt" => {
            let s = sends(&|op| {
                matches!(
                    op,
                    Op::Send {
                        what: Payload::Intermediate(_),
                        ..
                    }
                )
            });
            FaultKind::CorruptIntermediate {
                op: s[rng.pick(s.len())],
            }
        }
        "slow" => {
            let mut helpers: Vec<usize> = plan
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Send { from, .. } => Some(from.0),
                    _ => None,
                })
                .collect();
            helpers.sort_unstable();
            helpers.dedup();
            FaultKind::SlowLink {
                node: helpers[rng.pick(helpers.len())],
                factor: 0.25,
            }
        }
        "rack" => {
            let (waves, _) = plan.cross_waves(ctx.topo);
            let mut sites: Vec<(usize, usize)> = (0..plan.ops.len())
                .filter_map(|i| match (&plan.ops[i], waves[i]) {
                    (Op::Send { from, .. }, Some(w)) => Some((ctx.topo.rack_of(*from).0, w)),
                    _ => None,
                })
                .collect();
            sites.sort_unstable();
            sites.dedup();
            let (rack, timestep) = sites[rng.pick(sites.len())];
            FaultKind::RackSwitchOutage { rack, timestep }
        }
        other => panic!("unknown fault family {other}"),
    }
}

/// Inject `kind` into the single-failure repair of `ctx` — a
/// one-generation storm of one pinned fault, as `rpr inject` runs it —
/// and return the outcome fields plus the trace.
fn injected(ctx: &RepairContext<'_>, kind: FaultKind, seed: u64) -> (String, Vec<Event>) {
    let storm = FaultStorm::new(seed).with_generation(vec![StormFault::Pinned(kind)]);
    let rec = TraceRecorder::default();
    let mut tracker = HealthTracker::with_defaults();
    let out = supervise_injected(ctx, &storm, &SuperviseConfig::default(), &mut tracker, &rec)
        .expect("injected repair completes");
    let fields = format!(
        "{:016x}|{:016x}|{}|{}|{}|{}",
        out.repair_time.to_bits(),
        out.clean_time.to_bits(),
        out.retries,
        out.replans,
        out.reused_ops,
        out.final_scheme,
    );
    (fields, rec.take_events())
}

/// The trace digest, wave boundaries and stream summaries left out.
fn trace_digest(events: &[Event]) -> u64 {
    let kept: Vec<Event> = events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                Event::TimestepStarted { .. }
                    | Event::TimestepFinished { .. }
                    | Event::StreamSummary { .. }
            )
        })
        .cloned()
        .collect();
    checksum64(export::to_json_lines(&kept).as_bytes())
}

#[test]
fn injected_faults_match_golden_pins() {
    // (name, fault family, seed, code, chunk size)
    type Case = (String, &'static str, u64, (usize, usize), Option<u64>);
    let mut cases: Vec<Case> = Vec::new();
    for seed in [17u64, 4242] {
        for (mode, chunk) in [("block", None), ("chunk", Some(8 * MIB))] {
            cases.push((
                format!("crash-s{seed}-{mode}"),
                "crash",
                seed,
                (6, 3),
                chunk,
            ));
        }
    }
    for (n, k) in [(6, 3), (12, 4)] {
        for family in ["timeout", "corrupt", "slow", "rack"] {
            cases.push((format!("{family}-{n}-{k}"), family, 17, (n, k), None));
        }
    }

    let mut actual: Vec<(String, String, u64)> = Vec::new();
    for (name, family, seed, (n, k), chunk) in cases {
        let w = World::new(n, k);
        let ctx = w.ctx(chunk);
        let plan = RprPlanner::new().plan(&ctx);
        let kind = seeded_fault(&plan, &ctx, family, seed);
        let (fields, events) = injected(&ctx, kind, seed);
        actual.push((name, fields, trace_digest(&events)));
    }

    let table: String = actual
        .iter()
        .map(|(name, fields, d)| format!("    (\"{name}\", \"{fields}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "case count changed; actual:\n{table}"
    );
    for ((name, fields, d), (gname, gfields, gd)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "case order changed; actual:\n{table}");
        assert_eq!(
            fields, gfields,
            "case {name} outcome moved; actual:\n{table}"
        );
        assert_eq!(d, gd, "case {name} trace moved; actual:\n{table}");
    }
}

const GOLDEN: &[(&str, &str, u64)] = &[
    (
        "crash-s17-block",
        "405718eef99a8855|40458abcee18b311|0|1|2|rpr",
        0x5464bbb411f3aac7,
    ),
    (
        "crash-s17-chunk",
        "404688a2b00788fc|40362893fb7d97e0|0|1|0|rpr",
        0xe3abb4b395f21b84,
    ),
    (
        "crash-s4242-block",
        "405718eef99a8855|40458abcee18b311|0|1|2|rpr",
        0x5464bbb411f3aac7,
    ),
    (
        "crash-s4242-chunk",
        "404688a2b00788fc|40362893fb7d97e0|0|1|0|rpr",
        0xe3abb4b395f21b84,
    ),
    (
        "timeout-6-3",
        "40458abcee18b311|40458abcee18b311|1|0|0|rpr",
        0xc612fac4bbd88e3f,
    ),
    (
        "corrupt-6-3",
        "405026f562cbafc9|40458abcee18b311|1|0|0|rpr",
        0x1f73bb27e29c6c9b,
    ),
    (
        "slow-6-3",
        "405a257e88e0d383|40458abcee18b311|0|0|0|rpr",
        0xfa761d68b1aa2b9a,
    ),
    (
        "rack-6-3",
        "404aeeaeefd53fc3|40458abcee18b311|1|0|0|rpr",
        0xb989c598f6848796,
    ),
    (
        "timeout-12-4",
        "404851ca59efbd84|4047e4088ed60267|1|0|0|rpr",
        0x1b358a57c5917463,
    ),
    (
        "corrupt-12-4",
        "40514e376069773d|4047e4088ed60267|1|0|0|rpr",
        0x1509a3b576aeb53d,
    ),
    (
        "slow-12-4",
        "4059ded6ee167c20|4047e4088ed60267|0|0|0|rpr",
        0x4667fb26d7b9b86d,
    ),
    (
        "rack-12-4",
        "404d3d32eb10ceaa|4047e4088ed60267|1|0|0|rpr",
        0x30fd693db1f3dac9,
    ),
];
