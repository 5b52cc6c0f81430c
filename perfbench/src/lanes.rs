//! The layer lanes every workload's traced run shares. Each lane feeds
//! work units shaped by the workload — its chunk size, its code, its
//! repair contexts — straight to one layer's public functions, so every
//! workload reports the same per-layer metrics:
//!
//! - kernel lanes: `mul_acc_slice`, `xor_slice`, `checksum64` and
//!   `hash_bytes` on one chunk, and `encode_stripe` of one stripe of
//!   chunk-sized blocks;
//! - planner lanes: for each repair context, `RprPlanner::plan`,
//!   `RepairPlan::validate`, `repair_equations`, `simulate`, and the plan
//!   lowered into a fresh `Simulator` and run.

use std::time::Instant;

use rpr_codec::{BlockId, CodeParams, StripeCodec};
use rpr_core::{
    lower_plan_into, network_for_ctx, simulate, CostModel, RepairContext, RepairPlan,
    RepairPlanner, RprPlanner,
};
use rpr_faults::{checksum64, SplitMix64};
use rpr_netsim::Simulator;
use rpr_proof::{hash_bytes, ProofKey};
use rpr_topology::{BandwidthProfile, Placement, PlacementPolicy, Topology};

use crate::stats::mean;
use crate::trace::{self, Tracer};
use crate::{Checks, Metrics};

/// One code's cluster: the stripe's codec, the racks, where each block
/// lives (RPR's pre-placement) and the link rates.
pub struct World {
    pub codec: StripeCodec,
    pub topo: Topology,
    pub placement: Placement,
    pub profile: BandwidthProfile,
}

impl World {
    /// A world on `topo` with RPR's pre-placement.
    pub fn new(params: CodeParams, topo: Topology, profile: BandwidthProfile) -> World {
        let placement = Placement::by_policy(PlacementPolicy::RprPreplaced, params, &topo);
        World {
            codec: StripeCodec::new(params),
            topo,
            placement,
            profile,
        }
    }

    /// A repair of `failed` blocks of `block` bytes each, cut through in
    /// `chunk`-byte chunks when `chunk` is set.
    pub fn ctx(
        &self,
        failed: Vec<BlockId>,
        block: u64,
        cost: CostModel,
        chunk: Option<u64>,
    ) -> RepairContext<'_> {
        let ctx = RepairContext::new(
            &self.codec,
            &self.topo,
            &self.placement,
            failed,
            block,
            &self.profile,
            cost,
        );
        match chunk {
            Some(c) => ctx.with_chunk_size(c),
            None => ctx,
        }
    }
}

/// Seeded failure sets of an `(n, k)` code: one data block, one parity
/// block other than P0 (the XOR row), and one of each.
pub fn seeded_failures(seed: u64, params: CodeParams) -> Vec<Vec<BlockId>> {
    let mut rng = SplitMix64::new(seed);
    let d = BlockId(rng.pick(params.n));
    let p = BlockId(params.n + 1 + rng.pick(params.k - 1));
    vec![vec![d], vec![p], vec![d, p]]
}

/// Fill `len` bytes from a SplitMix64 stream, one 64-bit word at a time.
pub fn fill(seed: u64, len: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len as usize];
    for w in v.chunks_mut(8) {
        let x = rng.next_u64().to_le_bytes();
        w.copy_from_slice(&x[..w.len()]);
    }
    v
}

/// Bytes per second of `f` over `bytes`, repeated until 0.2 s pass.
fn rate(bytes: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    let mut reps = 0usize;
    while t.elapsed().as_secs_f64() < 0.2 {
        f();
        reps += 1;
    }
    (reps * bytes) as f64 / t.elapsed().as_secs_f64()
}

/// Kernel lanes at the workload's chunk size: `gf.mul_acc_gbps`,
/// `gf.xor_gbps`, `faults.checksum_gbps` and `proof.hash_gbps` on one
/// chunk, and `codec.encode_s` for one stripe of `params` whose blocks
/// are one chunk each.
pub fn kernels(m: &mut Metrics, params: CodeParams, chunk: u64) {
    let len = chunk as usize;
    let src = fill(7, chunk);
    let mut dst = fill(8, chunk);
    let mul = rate(len, || rpr_gf::mul_acc_slice(0x1d, &src, &mut dst));
    let xor = rate(len, || rpr_gf::xor_slice(&mut dst, &src));
    std::hint::black_box(&dst);
    let sum = rate(len, || {
        std::hint::black_box(checksum64(&src));
    });
    let key = ProofKey::from_seed(1);
    let hash = rate(len, || {
        std::hint::black_box(hash_bytes(key, &src));
    });
    m.put("gf.mul_acc_gbps", mul / 1e9, "GB/s");
    m.put("gf.xor_gbps", xor / 1e9, "GB/s");
    m.put("faults.checksum_gbps", sum / 1e9, "GB/s");
    m.put("proof.hash_gbps", hash / 1e9, "GB/s");

    let codec = StripeCodec::new(params);
    let data: Vec<Vec<u8>> = (0..params.n).map(|b| fill(b as u64, chunk)).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut walls = Vec::new();
    let t = Instant::now();
    while walls.is_empty() || t.elapsed().as_secs_f64() < 0.2 {
        let t = Instant::now();
        std::hint::black_box(codec.encode_stripe(&refs));
        walls.push(t.elapsed().as_secs_f64());
    }
    m.put("codec.encode_s", crate::stats::median(&walls), "s");
}

/// Planner lanes over the workload's repair contexts: the `core.*`,
/// `netsim.*` and `codec.equations_us` metrics. Every plan must
/// validate, and the lowered simulation must reproduce `simulate`'s
/// repair time bit for bit.
pub fn planner(tr: &Tracer, ctxs: &[RepairContext<'_>], m: &mut Metrics, checks: &mut Checks) {
    let mut eq_us = Vec::new();
    let mut plan_ops = 0usize;
    let mut waves = 0usize;
    let mut jobs = 0usize;
    let mut makespan = 0.0;
    for (i, ctx) in ctxs.iter().enumerate() {
        let plan = tr.root("lane.plan", || RprPlanner::new().plan(ctx));
        let valid = plan.validate(ctx.codec, ctx.topo, ctx.placement).is_ok();
        plan_ops += plan.ops.len();
        waves += plan.cross_waves(ctx.topo).1;
        let helpers = helpers_of(&plan, ctx.codec, &ctx.failed);
        let t = Instant::now();
        let eqs = tr.root("lane.repair_equations", || {
            ctx.codec.repair_equations(&ctx.failed, &helpers)
        });
        eq_us.push(t.elapsed().as_secs_f64() * 1e6);
        let out = tr.root("lane.simulate", || simulate(&plan, ctx));
        makespan += out.repair_time;
        let mut sim = Simulator::new(network_for_ctx(ctx));
        tr.root("lane.lower_plan_into", || {
            lower_plan_into(&mut sim, &plan, ctx, 0)
        });
        jobs += sim.job_count();
        let report = tr.root("lane.netsim_run", || sim.run());
        checks.record(
            valid
                && eqs.len() == ctx.failed.len()
                && out.repair_time > 0.0
                && report.makespan.to_bits() == out.repair_time.to_bits(),
            || format!("planner lane {i}: invalid plan, or lowering disagrees with simulate"),
        );
    }
    let spans = tr.spans();
    let n = ctxs.len() as f64;
    let per_ms = |name| trace::total(&spans, name) / n * 1e3;
    let run_s = trace::total(&spans, "lane.netsim_run");
    m.put("codec.equations_us", mean(&eq_us), "us");
    m.put("core.plan_ms", per_ms("lane.plan"), "ms");
    m.put("core.plan_ops", plan_ops as f64 / n, "count");
    m.put("core.cross_waves", waves as f64, "count");
    m.put("core.lower_ms", per_ms("lane.lower_plan_into"), "ms");
    m.put("core.simulate_ms", per_ms("lane.simulate"), "ms");
    m.put("core.model_makespan_s", makespan, "s");
    m.put("netsim.run_ms", per_ms("lane.netsim_run"), "ms");
    m.put("netsim.jobs", jobs as f64, "count");
    m.put("netsim.jobs_per_s", jobs as f64 / run_s, "1/s");
}

/// Exactly `n` helper blocks for the repair equations: the blocks the
/// plan's outputs depend on, topped up with other survivors in id order.
fn helpers_of(plan: &RepairPlan, codec: &StripeCodec, failed: &[BlockId]) -> Vec<BlockId> {
    let n = codec.params().n;
    let vecs = plan.symbolic_vectors();
    let mut used: Vec<usize> = plan
        .outputs
        .iter()
        .flat_map(|&(_, op)| {
            vecs[op.0]
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(b, _)| b)
                .collect::<Vec<_>>()
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    if used.len() > n {
        used.clear();
    }
    for b in 0..codec.params().total() {
        if used.len() == n {
            break;
        }
        if !used.contains(&b) && !failed.contains(&BlockId(b)) {
            used.push(b);
        }
    }
    used.into_iter().map(BlockId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_deterministic_and_handles_ragged_tails() {
        assert_eq!(fill(3, 13), fill(3, 13));
        assert_ne!(fill(3, 16), fill(4, 16));
        assert_eq!(fill(3, 13).len(), 13);
    }

    #[test]
    fn seeded_failures_avoid_p0_and_repeat_per_seed() {
        let params = CodeParams::new(6, 3);
        let a = seeded_failures(9, params);
        assert_eq!(a, seeded_failures(9, params));
        for f in &a {
            assert!(f.iter().all(|b| b.0 < params.total() && b.0 != params.n));
        }
        assert_eq!(a[2], [a[0][0], a[1][0]]);
    }
}
