//! Golden pins for the repair supervisor.
//!
//! Each case runs a fixed-seed storm and reduces what the supervisor
//! produced to `checksum64` digests: on the simulator the JSON-lines
//! trace, the same trace without its `timestep_started`,
//! `timestep_finished` and `stream_summary` lines, the
//! `SuperviseOutcome` summary fields and the proof ledger; on the
//! executor (hedging off, wall-clock fields excluded) the ledger, fault
//! sites, generation records, retries and traffic. Apart from the full
//! trace digest, every digest was captured before the two supervision
//! loops were merged into one, so a refactor of the loop must reproduce
//! them exactly. The full trace digest was taken when the completing
//! generation began to emit its wave boundaries and stream summaries;
//! the filtered digest is the trace digest from before that change.
//!
//! No case runs a `Slow` fault followed by a later generation: that is
//! the one storm shape whose sim trace changed on purpose (derates now
//! persist across generations on both backends).
//!
//! On a mismatch the panic message prints the full table of actual
//! digests.

use rpr::codec::{BlockId, CodeParams, StripeCodec};
use rpr::core::{supervise_injected, CostModel, RepairContext, SuperviseConfig, SuperviseOutcome};
use rpr::exec::{execute_supervised, SupervisedReport};
use rpr::faults::{checksum64, CrashSite, FaultStorm, HealthTracker, StormFault};
use rpr::obs::{export, Event, TraceRecorder};
use rpr::topology::{cluster_for, BandwidthProfile, Placement, GBIT};
use rpr_proof::ProofMode;

/// The `rpr chaos` world: preplaced placement, 1 Gbit/s inner links, a
/// 1:10 inner:cross ratio and the simics cost model.
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

    fn ctx(&self, block: u64, chunk: Option<u64>) -> RepairContext<'_> {
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

const MIB: u64 = 1 << 20;

fn three_fault_storm(seed: u64) -> FaultStorm {
    FaultStorm::new(seed)
        .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
        .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
        .with_generation(vec![StormFault::Timeout])
}

fn lie_storm(seed: u64) -> FaultStorm {
    FaultStorm::new(seed).with_generation(vec![StormFault::Lie])
}

fn proof_cfg(mode: ProofMode) -> SuperviseConfig {
    SuperviseConfig {
        proof: mode,
        ..SuperviseConfig::default()
    }
}

/// Every summary field of a sim outcome, times as exact bit patterns.
fn sim_summary(o: &SuperviseOutcome) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{}|{}|{:?}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}",
        o.repair_time.to_bits(),
        o.clean_time.to_bits(),
        o.generations,
        o.retries,
        o.replans,
        o.reused_ops,
        o.final_scheme,
        o.final_tier,
        o.hedges,
        o.hedge_wins,
        o.deadline_hit,
        o.fault_sites,
        o.cross_bytes,
        o.inner_bytes,
        o.proofs_emitted,
        o.proofs_rejected,
        o.accusations,
    )
}

/// The structural (clock-free) fields of an exec report.
fn exec_summary(o: &SupervisedReport) -> String {
    format!(
        "{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}",
        o.fault_sites,
        o.generations,
        o.retries,
        o.replans,
        o.accusations,
        o.report.cross_bytes,
        o.report.inner_bytes,
        o.report.verified,
        o.final_scheme,
    )
}

/// `(trace, trace without wave boundaries and stream summaries, summary,
/// ledger)` digests of one sim run.
fn sim_digests(
    w: &World,
    block: u64,
    chunk: Option<u64>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
) -> [u64; 4] {
    let ctx = w.ctx(block, chunk);
    let rec = TraceRecorder::default();
    let mut tracker = HealthTracker::with_defaults();
    let out = supervise_injected(&ctx, storm, cfg, &mut tracker, &rec).expect("storm completes");
    let events = rec.take_events();
    let filtered: Vec<Event> = events
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
    [
        checksum64(export::to_json_lines(&events).as_bytes()),
        checksum64(export::to_json_lines(&filtered).as_bytes()),
        checksum64(sim_summary(&out).as_bytes()),
        checksum64(out.ledger.to_json_lines().as_bytes()),
    ]
}

/// `(summary, ledger)` digests of one exec run.
fn exec_digests(w: &World, block: u64, storm: &FaultStorm, cfg: &SuperviseConfig) -> [u64; 2] {
    let ctx = w.ctx(block, None);
    let stripe = stripe_for(&w.codec, block as usize, storm.seed);
    let mut tracker = HealthTracker::with_defaults();
    let out = execute_supervised(&ctx, &stripe, rpr::obs::noop(), storm, cfg, &mut tracker)
        .expect("storm completes");
    [
        checksum64(exec_summary(&out).as_bytes()),
        checksum64(out.ledger.to_json_lines().as_bytes()),
    ]
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

/// Compare `actual` against `golden` by case name; on any mismatch, fail
/// with the whole actual table so it can be read off in one run.
fn check<const N: usize>(actual: &[(String, [u64; N])], golden: &[(&str, [u64; N])]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            let cells: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "case count changed; actual:\n{table}"
    );
    for ((name, d), (gname, g)) in actual.iter().zip(golden) {
        assert_eq!(name, gname, "case order changed; actual:\n{table}");
        assert_eq!(d, g, "case {name} moved; actual:\n{table}");
    }
}

#[test]
fn sim_supervisor_matches_golden_digests() {
    let w = World::new(6, 3);
    let mut actual: Vec<(String, [u64; 4])> = Vec::new();
    let default = SuperviseConfig::default();

    // `rpr chaos` acceptance storm: 256 MiB blocks, block and 8 MiB chunks.
    for seed in [17u64, 4242] {
        for (mode, chunk) in [("block", None), ("chunk", Some(8 * MIB))] {
            let d = sim_digests(&w, 256 * MIB, chunk, &three_fault_storm(seed), &default);
            actual.push((format!("storm-s{seed}-{mode}"), d));
        }
    }
    // Byzantine storm, both enforcing and advisory proof planes.
    for seed in [21u64, 77] {
        for mode in [ProofMode::Advisory, ProofMode::Mandatory] {
            let d = sim_digests(&w, 256 * MIB, None, &lie_storm(seed), &proof_cfg(mode));
            actual.push((format!("lie-s{seed}-{}", mode.name()), d));
        }
    }
    // One-generation straggler under a fixed hedge multiple.
    let hedged = SuperviseConfig {
        hedge: Some(2.0),
        ..SuperviseConfig::default()
    };
    for (seed, factor) in [(3u64, 0.1), (5, 0.25)] {
        let storm = FaultStorm::new(seed).with_generation(vec![StormFault::Slow { factor }]);
        let d = sim_digests(&w, 64 * MIB, None, &storm, &hedged);
        actual.push((format!("slow-hedge-s{seed}"), d));
    }
    // Tier ladder: no replan budget, two crashes; then the same with a
    // deadline the crashes blow.
    let two_crashes = FaultStorm::new(17)
        .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
        .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)]);
    let ladder = SuperviseConfig {
        max_replans: 0,
        ..SuperviseConfig::default()
    };
    actual.push((
        "ladder-two-crashes".into(),
        sim_digests(&w, 256 * MIB, None, &two_crashes, &ladder),
    ));
    let ladder_deadline = SuperviseConfig {
        max_replans: 0,
        deadline: Some(30.0),
        ..SuperviseConfig::default()
    };
    actual.push((
        "ladder-deadline".into(),
        sim_digests(
            &w,
            256 * MIB,
            None,
            &three_fault_storm(4242),
            &ladder_deadline,
        ),
    ));

    check(&actual, SIM_GOLDEN);
}

#[test]
fn exec_supervisor_matches_golden_digests() {
    let w = World::new(6, 3);
    let mut actual: Vec<(String, [u64; 2])> = Vec::new();
    for seed in [17u64, 4242] {
        let d = exec_digests(
            &w,
            256 * 1024,
            &three_fault_storm(seed),
            &SuperviseConfig::default(),
        );
        actual.push((format!("storm-s{seed}"), d));
    }
    for seed in [21u64, 77] {
        for mode in [ProofMode::Advisory, ProofMode::Mandatory] {
            let d = exec_digests(&w, 256 * 1024, &lie_storm(seed), &proof_cfg(mode));
            actual.push((format!("lie-s{seed}-{}", mode.name()), d));
        }
    }
    check(&actual, EXEC_GOLDEN);
}

const SIM_GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "storm-s17-block",
        [
            0xf112e5a302f7f3ae,
            0x81e0ee3a91bf71a6,
            0x22fcbb244f975601,
            0xd4c45f7c0f16f4ef,
        ],
    ),
    (
        "storm-s17-chunk",
        [
            0x29c6bd121c1853b5,
            0xff5d82b00456dcb5,
            0x09ca43225ec3871b,
            0xd4c45f7c0f16f4ef,
        ],
    ),
    (
        "storm-s4242-block",
        [
            0x2aaedd67e07f6d13,
            0x6100fcaee84869e1,
            0x8a4f285fc6ce4261,
            0x7e6417e71e486e7b,
        ],
    ),
    (
        "storm-s4242-chunk",
        [
            0x280fa434ccf221a5,
            0x61640e3ae8d1cfac,
            0xf61905eae8d358e8,
            0x7e6417e71e486e7b,
        ],
    ),
    (
        "lie-s21-advisory",
        [
            0x863430714d2e7f64,
            0x38766a04b5b65be9,
            0x376fffecc4be211f,
            0x1c2546607c4c73ee,
        ],
    ),
    (
        "lie-s21-mandatory",
        [
            0xe7fd869aec1ec414,
            0x0246254e453ac294,
            0x5a5f703a01fcdfbc,
            0x1bf1f86f8774f85e,
        ],
    ),
    (
        "lie-s77-advisory",
        [
            0x43c71f37611c3b09,
            0xc4902eea52c46f40,
            0xb2cbd75782bff06a,
            0xeac3d0d46411a182,
        ],
    ),
    (
        "lie-s77-mandatory",
        [
            0x470a2a2ed964127e,
            0xcd7654687ade06b4,
            0x4075124403ebcb39,
            0x49120a2c1b298012,
        ],
    ),
    (
        "slow-hedge-s3",
        [
            0xf7d665130844d78e,
            0x67008c3b615a19ab,
            0xeea5d1f5cff63919,
            0xc804a53213cd8c5c,
        ],
    ),
    (
        "slow-hedge-s5",
        [
            0x622e6f523a365cef,
            0x5fb8d4c04d7bfa2d,
            0x85c7a92993aa073e,
            0xef83b092169e0fbe,
        ],
    ),
    (
        "ladder-two-crashes",
        [
            0x6de7aa639a4155c7,
            0xe09351492b5d766b,
            0x51a65d64adeccf98,
            0xd4c45f7c0f16f4ef,
        ],
    ),
    (
        "ladder-deadline",
        [
            0xc64c58c56d8869cb,
            0x6272c4f38f73921a,
            0xb63efbdafdf0b82a,
            0x7e6417e71e486e7b,
        ],
    ),
];

const EXEC_GOLDEN: &[(&str, [u64; 2])] = &[
    ("storm-s17", [0x9213822b41b29ce7, 0xd4c45f7c0f16f4ef]),
    ("storm-s4242", [0xf89a9d936728fb69, 0x7e6417e71e486e7b]),
    ("lie-s21-advisory", [0x801922d0a9030efb, 0xf0d979bcfc542b84]),
    (
        "lie-s21-mandatory",
        [0x3b17ee2f36b7aeb7, 0xd631dbe465958f14],
    ),
    ("lie-s77-advisory", [0x89322e62ec6b8908, 0xe541af2f2444de3f]),
    (
        "lie-s77-mandatory",
        [0x14cc5f7c69ef2d16, 0x48eab8127c284b1f],
    ),
];
