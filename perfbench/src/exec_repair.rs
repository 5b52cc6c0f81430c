//! `exec-repair`: back-to-back supervised repairs of real bytes on the
//! thread-per-op executor, with link shaping and modeled compute off, so
//! the data path itself — GF folds, checksums, proofs, channels, the
//! buffer arena and the supervisor — sets the pace.

use std::time::Instant;

use rpr_codec::{BlockId, CodeParams};
use rpr_core::{CostModel, RepairContext, RepairPlanner, RprPlanner, SuperviseConfig};
use rpr_exec::{execute_supervised, SupervisedReport};
use rpr_faults::{checksum64, FaultStorm, HealthTracker, SplitMix64};
use rpr_obs::{Recorder, TraceRecorder};
use rpr_proof::{hash_bytes, ProofKey, ProofMode};
use rpr_topology::{cluster_for, BandwidthProfile};

use crate::host::cpu_seconds;
use crate::lanes::{self, fill, World};
use crate::stats::{fastest_pass, mean, median};
use crate::trace::{self, Tracer};
use crate::{overhead_pct, passes, timed_setup, Run};

const MIB: u64 = 1 << 20;

/// Cross-rack rate of the unshaped profile, bytes/s. Finite because
/// `TokenBucket::new` rejects infinity; the run checks that it is at
/// least [`SHAPING_HEADROOM`]× the measured repair rate.
const CROSS_BPS: f64 = 1.0e13;

/// Inner-rack rate: the paper's 10:1 ratio, so the planner still sees
/// rack-aware costs.
const INNER_BPS: f64 = 10.0 * CROSS_BPS;

/// Minimum ratio of link rate to measured repair rate.
const SHAPING_HEADROOM: f64 = 1000.0;

/// Cut-through chunk size.
const CHUNK: u64 = MIB;

/// Shaper granularity the executor uses without a chunk size.
const BLOCK_MODE_CHUNK: u64 = 64 * 1024;

/// Codes under repair: `(n, k, block bytes)`.
const CODES: [(usize, usize, u64); 2] = [(6, 3, 16 * MIB), (12, 4, 16 * MIB)];

/// Salt for the repair-list draws.
const LIST_SALT: u64 = 0x6578_6563_2d72_6570;

/// One code's cluster with unshaped links.
fn world(n: usize, k: usize) -> World {
    let params = CodeParams::new(n, k);
    let topo = cluster_for(params, 1, 1);
    let profile = BandwidthProfile::uniform(topo.rack_count(), INNER_BPS, CROSS_BPS);
    World::new(params, topo, profile)
}

/// Bytes per block of list entry `r`'s code.
fn block_bytes(r: &Repair) -> u64 {
    CODES[r.code].2
}

/// The repair context of list entry `r`, with modeled compute off.
fn ctx<'w>(st: &'w State, r: &Repair) -> RepairContext<'w> {
    st.worlds[r.code].ctx(r.failed.clone(), block_bytes(r), CostModel::free(), r.chunk)
}

/// One entry of the repair list.
struct Repair {
    class: &'static str,
    code: usize,
    failed: Vec<BlockId>,
    chunk: Option<u64>,
    proof: ProofMode,
}

/// The seeded repair list: which blocks fail is drawn from the seed,
/// the shape of the list is fixed.
fn repair_list(seed: u64) -> Vec<Repair> {
    let mut rng = SplitMix64::new(seed ^ LIST_SALT);
    let (n0, k0) = (CODES[0].0, CODES[0].1);
    let (n1, k1) = (CODES[1].0, CODES[1].1);
    // Data failures take the all-ones XOR equation (eq. 6); parity
    // failures other than P0 need general GF coefficients.
    let mut data = |n: usize| BlockId(rng.pick(n));
    let (d0, d1, d2, d3, d4) = (data(n0), data(n0), data(n0), data(n0), data(n1));
    let mut rng = SplitMix64::new(seed ^ LIST_SALT ^ 1);
    let mut parity = |n: usize, k: usize| BlockId(n + 1 + rng.pick(k - 1));
    let (p0, p1, p2) = (parity(n0, k0), parity(n0, k0), parity(n1, k1));
    let r = |class, code, failed, chunk, proof| Repair {
        class,
        code,
        failed,
        chunk,
        proof,
    };
    use ProofMode::{Mandatory, Off};
    vec![
        r("rs6_3.data", 0, vec![d0], Some(CHUNK), Off),
        r("rs6_3.parity", 0, vec![p0], Some(CHUNK), Off),
        r("rs6_3.double", 0, vec![d1, p1], Some(CHUNK), Off),
        r("rs6_3.data_sf", 0, vec![d2], None, Off),
        r("rs6_3.data_proof", 0, vec![d3], Some(CHUNK), Mandatory),
        r("rs12_4.data", 1, vec![d4], Some(CHUNK), Off),
        r("rs12_4.parity_proof", 1, vec![p2], Some(CHUNK), Mandatory),
    ]
}

/// Worlds plus one encoded stripe per code.
struct State {
    worlds: Vec<World>,
    stripes: Vec<Vec<Vec<u8>>>,
}

/// What one supervised repair call produced.
struct Call {
    wall: f64,
    cpu: f64,
    ok: bool,
    report: Option<SupervisedReport>,
}

fn call(tr: &Tracer, st: &State, r: &Repair, seed: u64, rec: &dyn Recorder) -> Call {
    let stripe = &st.stripes[r.code];
    let ctx = ctx(st, r);
    let cfg = SuperviseConfig {
        proof: r.proof,
        ..SuperviseConfig::default()
    };
    let storm = FaultStorm::new(seed);
    let mut tracker = HealthTracker::with_defaults();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let res = tr.span("exec.execute_supervised", || {
        execute_supervised(&ctx, stripe, rec, &storm, &cfg, &mut tracker)
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let ok = tr.span("harness.verify", || match &res {
        Ok(rep) => recovered_exactly(rep, &r.failed, stripe),
        Err(_) => false,
    });
    Call {
        wall,
        cpu,
        ok,
        report: res.ok(),
    }
}

/// Byte-for-byte comparison of every reconstructed block against the
/// harness's own copy of the lost block — not only the `verified` flag.
fn recovered_exactly(rep: &SupervisedReport, failed: &[BlockId], stripe: &[Vec<u8>]) -> bool {
    let mut ids: Vec<usize> = rep.report.recovered.iter().map(|(b, _)| b.0).collect();
    let mut want: Vec<usize> = failed.iter().map(|b| b.0).collect();
    ids.sort_unstable();
    want.sort_unstable();
    rep.report.verified
        && ids == want
        && rep
            .report
            .recovered
            .iter()
            .all(|(b, bytes)| bytes.as_slice() == stripe[b.0].as_slice())
}

fn setup(tr: &Tracer, seed: u64, warm: &Repair) -> State {
    let mut worlds = Vec::new();
    let mut stripes = Vec::new();
    for (i, &(n, k, block)) in CODES.iter().enumerate() {
        let w = world(n, k);
        let data: Vec<Vec<u8>> = (0..n)
            .map(|b| fill(seed ^ ((i as u64) << 32) ^ b as u64, block))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let stripe = tr.span("codec.encode_stripe", || w.codec.encode_stripe(&refs));
        worlds.push(w);
        stripes.push(stripe);
    }
    let st = State { worlds, stripes };
    // Warm-up op: page in the stripe, spin up the kernel dispatch.
    tr.span("warmup", || call(tr, &st, warm, seed, rpr_obs::noop()));
    st
}

/// Run the workload.
pub fn run(run: &mut Run) {
    let seed = run.seed;
    let list = repair_list(seed);
    let (setup_s, st) = timed_setup(&run.tracer, || setup(&run.tracer, seed, &list[0]));

    // Timed phase (the traced run first repeats it untraced, for the
    // span-overhead baseline).
    let untraced = Tracer::new(false);
    // (wall, CPU) of every call, per list entry; reports are dropped as
    // soon as they are checked, so memory does not grow with the passes.
    let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); list.len()];
    let work = passes(run.phase_seconds(), || {
        for (i, r) in list.iter().enumerate() {
            let c = call(&untraced, &st, r, seed, rpr_obs::noop());
            run.checks
                .record(c.ok, || format!("{} repair not byte-exact", r.class));
            samples[i].push((c.wall, c.cpu));
        }
    });
    // One pass at each entry's fastest wall and median CPU.
    let pass_bytes: u64 = list
        .iter()
        .map(|r| r.failed.len() as u64 * block_bytes(r))
        .sum();
    let column = |f: fn(&(f64, f64)) -> f64| -> Vec<Vec<f64>> {
        samples.iter().map(|v| v.iter().map(f).collect()).collect()
    };
    let pass_s = fastest_pass(&column(|s| s.0));
    let rate = pass_bytes as f64 / pass_s;
    let cpu: f64 = column(|s| s.1).iter().map(|c| median(c)).sum();
    run.checks.record(CROSS_BPS >= SHAPING_HEADROOM * rate, || {
        format!("link rate {CROSS_BPS} B/s is not {SHAPING_HEADROOM}x the repair rate {rate} B/s")
    });
    if !run.tracer.on() {
        // Repairs per second of a pass made of each entry's fastest call.
        run.put_timed(setup_s, list.len() as f64 / pass_s, &work, list.len());
        run.metrics.detail("repair_mb_per_s", rate / 1e6, "MB/s");
        run.metrics.detail(
            "cpu_s_per_gib",
            cpu / (pass_bytes as f64 / (1u64 << 30) as f64),
            "s/GiB",
        );
        return;
    }
    let untraced_walls: Vec<f64> = samples.iter().flatten().map(|s| s.0).collect();
    traced_layers(run, &list, &st, &untraced_walls);
}

/// The traced run's per-layer metrics.
fn traced_layers(run: &mut Run, list: &[Repair], st: &State, untraced_walls: &[f64]) {
    let seed = run.seed;
    let tr = &run.tracer;
    // Call walls of every traced pass by list entry; the reports of the
    // last pass feed the replay lanes.
    let mut walls: Vec<(usize, f64)> = Vec::new();
    let mut calls: Vec<(usize, Call)> = Vec::new();
    passes(run.phase_seconds(), || {
        calls.clear();
        for (i, r) in list.iter().enumerate() {
            let c = tr.root("op", || call(tr, st, r, seed, rpr_obs::noop()));
            walls.push((i, c.wall));
            calls.push((i, c));
        }
    });
    for (i, c) in &calls {
        run.checks.record(c.ok, || {
            format!("traced {} repair not byte-exact", list[*i].class)
        });
    }
    let spans = tr.spans();
    let ops: Vec<f64> = trace::durations(&spans, "op");

    // Replay lanes over the last traced pass: the same work units fed
    // straight to each layer's public function.
    let mut lanes_ok = true;
    for (i, c) in &calls {
        let Some(rep) = &c.report else { continue };
        lanes_ok &= replay(tr, st, &list[*i], rep, seed);
    }
    run.checks.record(lanes_ok, || {
        "a replay lane did not reproduce a lost block".into()
    });
    let spans = tr.spans();
    let n = calls.len() as f64;
    let fold = trace::total(&spans, "replay.gf_fold");
    let checksum = trace::total(&spans, "replay.checksum");
    let hash = trace::total(&spans, "replay.proof_hash");
    let cpu_per_call: Vec<f64> = calls.iter().map(|(_, c)| c.cpu).collect();
    let reports: Vec<&SupervisedReport> = calls
        .iter()
        .filter_map(|(_, c)| c.report.as_ref())
        .collect();

    lanes::kernels(
        &mut run.metrics,
        CodeParams::new(CODES[0].0, CODES[0].1),
        CHUNK,
    );
    let ctxs: Vec<RepairContext<'_>> = list.iter().map(|r| ctx(st, r)).collect();
    lanes::planner(tr, &ctxs, &mut run.metrics, &mut run.checks);

    // The executor's own figures go to the details file.
    let m = &mut run.metrics;
    m.detail("gf.fold_s", fold / n, "s");
    m.detail(
        "codec.encode_block_s",
        trace::total(&spans, "codec.encode_stripe") / crate::SETUP_REPS as f64,
        "s",
    );
    m.detail("faults.checksum_s", checksum / n, "s");
    m.detail("proof.hash_s", hash / n, "s");
    let proof_entries: Vec<f64> = calls
        .iter()
        .filter(|(i, _)| list[*i].proof == ProofMode::Mandatory)
        .filter_map(|(_, c)| c.report.as_ref().map(|r| r.ledger.entries.len() as f64))
        .collect();
    m.detail("proof.entries", mean(&proof_entries), "count");

    let all: Vec<f64> = walls.iter().map(|w| w.1).collect();
    m.detail("exec.call_s", median(&all), "s");
    for (j, r) in list.iter().enumerate() {
        let per: Vec<f64> = walls.iter().filter(|w| w.0 == j).map(|w| w.1).collect();
        m.detail(format!("exec.call_s.{}", r.class), median(&per), "s");
    }
    let last: Vec<f64> = calls.iter().map(|(_, c)| c.wall).collect();
    let attempt: Vec<f64> = reports.iter().map(|r| r.report.wall_seconds).collect();
    m.detail("exec.attempt_s", mean(&attempt), "s");
    m.detail("exec.outside_attempt_s", mean(&last) - mean(&attempt), "s");
    m.detail(
        "exec.unattributed_cpu_s",
        trace::unattributed_per_call(&cpu_per_call, &[fold, checksum, hash], calls.len()),
        "s",
    );
    let moved: Vec<f64> = reports
        .iter()
        .map(|r| (r.report.inner_bytes + r.report.cross_bytes) as f64 / MIB as f64)
        .collect();
    let cross: Vec<f64> = reports
        .iter()
        .map(|r| r.report.cross_bytes as f64 / MIB as f64)
        .collect();
    m.detail("exec.moved_mib", mean(&moved), "MiB");
    m.detail("exec.cross_mib", mean(&cross), "MiB");
    let (fresh, recycled) = reports.iter().fold((0usize, 0usize), |(f, r), rep| {
        (f + rep.report.arena.fresh, r + rep.report.arena.recycled)
    });
    m.detail(
        "exec.arena_recycle_ratio",
        recycled as f64 / (fresh + recycled).max(1) as f64,
        "ratio",
    );
    let first: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.report.first_byte_seconds)
        .map(|s| s * 1e3)
        .collect();
    m.detail("exec.first_byte_ms", median(&first), "ms");

    // Program tracing cost: the first repair of the list through the
    // executor's recorder hook, TraceRecorder vs NoopRecorder.
    let quiet = Tracer::new(false);
    let noop = call(&quiet, st, &list[0], seed, rpr_obs::noop());
    let rec = TraceRecorder::default();
    let traced = call(&quiet, st, &list[0], seed, &rec);
    run.checks.record(noop.ok && traced.ok, || {
        "recorder rerun not byte-exact".into()
    });
    m.put(
        "obs.recorder_overhead_pct",
        (traced.wall / noop.wall - 1.0) * 100.0,
        "%",
    );
    m.put(
        "obs.events_per_op",
        rec.snapshot().recorded_events as f64,
        "count",
    );
    m.put(
        "obs.span_overhead_pct",
        overhead_pct(&ops, untraced_walls),
        "%",
    );
}

/// Feed one repair's work units straight to the layers: its equation
/// terms folded chunk by chunk (`replay.gf_fold`), its moved bytes
/// checksummed once per send and once per receive (`replay.checksum`),
/// and — for Mandatory repairs — the block hashes and ground-truth folds
/// a proof generation computes (`replay.proof_hash`). Returns whether the
/// folds reproduced every lost block.
fn replay(tr: &Tracer, st: &State, r: &Repair, rep: &SupervisedReport, seed: u64) -> bool {
    let stripe = &st.stripes[r.code];
    let block = block_bytes(r) as usize;
    let chunk = r.chunk.unwrap_or(block_bytes(r)) as usize;
    // The plan the supervisor's first generation runs on a healthy cluster.
    let plan = RprPlanner::new().plan(&ctx(st, r));
    let vecs = plan.symbolic_vectors();
    let mut ok = true;
    let mut out = vec![0u8; block];
    for &(lost, op) in &plan.outputs {
        out.fill(0);
        tr.root("replay.gf_fold", || {
            for start in (0..block).step_by(chunk) {
                let range = start..(start + chunk).min(block);
                for (b, &c) in vecs[op.0].iter().enumerate() {
                    match c {
                        0 => {}
                        1 => rpr_gf::xor_slice(&mut out[range.clone()], &stripe[b][range.clone()]),
                        _ => rpr_gf::mul_acc_slice(
                            c,
                            &stripe[b][range.clone()],
                            &mut out[range.clone()],
                        ),
                    }
                }
            }
        });
        ok &= out == stripe[lost.0];
    }

    let moved = (rep.report.inner_bytes + rep.report.cross_bytes) as usize;
    let sum_chunk = r.chunk.unwrap_or(BLOCK_MODE_CHUNK) as usize;
    tr.root("replay.checksum", || {
        let src = &stripe[0];
        let mut acc = 0u64;
        let mut left = 2 * moved;
        let mut at = 0;
        while left > 0 {
            let len = sum_chunk.min(left);
            if at + len > src.len() {
                at = 0;
            }
            acc ^= checksum64(&src[at..at + len]);
            at += len;
            left -= len;
        }
        std::hint::black_box(acc);
    });

    if r.proof != ProofMode::Off {
        let key = ProofKey::from_seed(seed);
        tr.root("replay.proof_hash", || {
            let mut acc = 0u128;
            for b in stripe {
                acc ^= hash_bytes(key, b);
            }
            let mut expected = vec![0u8; block];
            for (i, _) in plan.ops.iter().enumerate() {
                expected.fill(0);
                for (b, &c) in vecs[i].iter().enumerate() {
                    if c != 0 {
                        rpr_gf::mul_acc_slice(c, &stripe[b], &mut expected);
                    }
                }
                // The output hash and the expected hash: equal bytes in
                // a clean run, hashed twice all the same.
                for _ in 0..2 {
                    acc ^= hash_bytes(key, std::hint::black_box(&expected));
                }
            }
            std::hint::black_box(acc);
        });
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_list_is_seeded_and_well_formed() {
        let a = repair_list(1);
        let b = repair_list(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.failed, y.failed);
        }
        for r in &a {
            let (n, k, _) = CODES[r.code];
            assert!(!r.failed.is_empty() && r.failed.len() <= k);
            assert!(r.failed.iter().all(|b| b.0 < n + k));
        }
        // Parity picks never hit P0 (the XOR row).
        assert!(a[1].failed[0].0 > CODES[0].0);
    }
}
