//! Thread-per-operation plan execution with real bytes, including the
//! fault-injected path: per-attempt transfer failures with checksum
//! verification and bounded retry, helper-crash propagation through the
//! operation DAG, and supervised replanning that reuses completed partial
//! results (see `docs/ROBUSTNESS.md`).

use crate::arena::{ArenaStats, BufferPool, Chunk};
use crate::ratelimit::TokenBucket;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rpr_codec::BlockId;
use rpr_core::{
    chunk_sizes, combine_kernel, plan_built, supervise, Evidence, Generation, GenerationRecord,
    GenerationRun, Input, Op, Payload, RepairBackend, RepairContext, RepairPlan, ResolvedFaults,
    SuperviseConfig, Tier,
};
use rpr_faults::{checksum64, reason, FaultStorm, HealthTracker, RetryPolicy};
use rpr_obs::{Event, Recorder};
use rpr_proof::{hash_bytes, ProofKey, ProofLedger, ProofSource, RepairProof};
use rpr_topology::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rate-limiter granularity when the context does not configure a
/// streaming chunk size. With [`RepairContext::with_chunk_size`] the
/// limiters instead admit exactly one streaming chunk per take, so shaper
/// granularity and cut-through chunk size always agree.
const DEFAULT_SHAPER_CHUNK: usize = 64 * 1024;

/// Wall-clock timing of one executed operation, in seconds since the run
/// started.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// When the op had all inputs and began executing.
    pub start: f64,
    /// When the op finished.
    pub end: f64,
}

/// The result of executing one repair plan on real data.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Total wall-clock repair time in seconds.
    pub wall_seconds: f64,
    /// Per-op timings, indexed like the ops of the plan that finished the
    /// repair (the replacement plan after a crash recovery). Skipped and
    /// reused ops read as zero.
    pub op_timings: Vec<OpTiming>,
    /// Bytes moved across racks (full payloads; aborted attempts and
    /// retransmissions are not counted).
    pub cross_bytes: u64,
    /// Bytes moved within racks.
    pub inner_bytes: u64,
    /// True if every reconstructed block matched the lost original.
    pub verified: bool,
    /// Targets whose reconstruction mismatched (empty when `verified`).
    pub mismatches: Vec<BlockId>,
    /// Chunk-buffer arena counters: how many delivery buffers were
    /// allocated fresh vs recycled from the pool. Streaming runs settle
    /// into recycling; block-mode runs use neither (whole-block values
    /// are shared, not pooled).
    pub arena: ArenaStats,
    /// The reconstructed output blocks, in plan-output order — the exact
    /// bytes a degraded-read client receives. Shared (`Arc`) with the
    /// executor's value store, never copied.
    pub recovered: Vec<(BlockId, Arc<Vec<u8>>)>,
    /// Wall-clock seconds at which the **first decoded chunk** of any
    /// output op was available at its executing node — the
    /// degraded-read time-to-first-byte when the recovery node is the
    /// client ([`RepairContext::with_recovery_node`]). Under cut-through
    /// streaming this is far earlier than [`ExecReport::wall_seconds`];
    /// in block mode it coincides with the output op's completion
    /// (there is no cut-through without streaming). `None` only if no
    /// output op executed in the reporting attempt (all outputs reused
    /// from a previous generation's partial pool).
    pub first_byte_seconds: Option<f64>,
}

/// Why a fault-injected execution could not complete: the fault plan
/// does not apply or made the stripe unrecoverable, or a transfer's
/// injected failures exhaust the retry budget.
pub use rpr_core::SuperviseError as ExecError;

struct NodeLinks {
    up: TokenBucket,
    down: TokenBucket,
    xup: TokenBucket,
    xdown: TokenBucket,
    cpu: Mutex<()>,
}

/// What flows through a dependency channel: the producer's output, or
/// notice that it will never arrive (dead helper upstream). Streamed
/// edges carry pooled chunk buffers; block-mode edges carry shared
/// whole-block values.
#[derive(Debug)]
enum Delivery {
    Data(Chunk),
    Failed,
}

/// Everything that parameterizes one execution attempt beyond the plan
/// itself.
struct AttemptCfg<'a> {
    /// Faults to enact (attempt failures, crash, link derates).
    faults: Option<&'a ResolvedFaults>,
    /// Retry backoff schedule.
    policy: RetryPolicy,
    /// Per-op values already available from a previous attempt.
    prefilled: &'a [Option<Arc<Vec<u8>>>],
    /// Which ops actually execute (false: skipped or reused).
    lowered: &'a [bool],
    /// Label tag (`p{tag}op{i}`), 0 for the original plan, 1 after replan.
    tag: usize,
    /// Cooperative cancellation: when set, in-flight transfers abandon
    /// the stream between shaper admissions and propagate `Failed`
    /// downstream, unwinding the whole attempt. The supervisor's hedge
    /// watchdog uses this to cancel a straggling generation for real.
    cancel: Option<&'a AtomicBool>,
}

/// Immutable per-run state shared by every op thread.
struct RunEnv<'r, 'c> {
    plan: &'r RepairPlan,
    ctx: &'r RepairContext<'c>,
    stripe: &'r [Vec<u8>],
    rec: &'r dyn Recorder,
    t0: Instant,
    links: &'r [NodeLinks],
    agg: Option<&'r TokenBucket>,
    waves: &'r [Option<usize>],
    needs_matrix: bool,
    matrix_done: &'r [Mutex<bool>],
    /// Rate-limiter granularity in bytes (the streaming chunk size, or
    /// [`DEFAULT_SHAPER_CHUNK`] when streaming is off).
    chunk: usize,
    /// Chunk split of one block (a singleton without streaming).
    sizes: &'r [u64],
    /// Shared chunk-buffer arena: streamed deliveries check buffers out
    /// of this pool instead of allocating per chunk.
    pool: &'r Arc<BufferPool>,
    /// `outputs[i]` — op `i` produces a plan output (a reconstructed
    /// block delivered to the recovery node / degraded-read client).
    outputs: &'r [bool],
    /// Earliest wall time any output op delivered its first chunk: the
    /// degraded-read first byte, min-merged across output ops.
    first_out: &'r Mutex<Option<f64>>,
}

impl RunEnv<'_, '_> {
    /// Byte range of chunk `j` within a block.
    fn range(&self, j: usize) -> std::ops::Range<usize> {
        let start: u64 = self.sizes[..j].iter().sum();
        (start as usize)..((start + self.sizes[j]) as usize)
    }

    /// Note that output op `i` just made its first chunk available at
    /// time `t` (no-op for non-output ops; keeps the earliest time).
    fn note_first_out(&self, i: usize, t: f64) {
        if !self.outputs[i] {
            return;
        }
        let mut g = self.first_out.lock();
        if g.is_none_or(|cur| t < cur) {
            *g = Some(t);
        }
    }
}

/// What one attempt produced.
struct AttemptRun {
    /// Output value of every op that completed.
    values: Vec<Option<Arc<Vec<u8>>>>,
    /// Wall-clock timings (zero for ops that did not run).
    op_timings: Vec<OpTiming>,
    /// Failed-and-retried transfer attempts.
    retries: usize,
    /// Chunk-buffer pool counters for this attempt.
    arena: ArenaStats,
    /// Earliest wall time any output op delivered its first chunk (the
    /// degraded-read first byte); `None` if no output op ran.
    first_out: Option<f64>,
}

/// Execute a plan on real stripe contents.
///
/// `stripe` must hold all `n + k` blocks of the stripe (failed blocks
/// included — they are used only to *verify* the reconstruction, never read
/// by plan operations; the validator enforces that).
///
/// # Panics
/// Panics if the stripe has the wrong shape or the plan is malformed (run
/// [`RepairPlan::validate`] first).
pub fn execute(plan: &RepairPlan, ctx: &RepairContext<'_>, stripe: &[Vec<u8>]) -> ExecReport {
    execute_recorded(plan, ctx, stripe, rpr_obs::noop())
}

/// Like [`execute`], but record structured wall-clock events into `rec`:
/// `plan_built`, per-transfer queued/started/done (with the *real* wait
/// between inputs becoming ready and the shapers admitting the first
/// chunk), per-combine `combine_done` with its kernel kind, cross-rack
/// timestep boundaries, and a final `repair_done`. Labels follow the same
/// `p0op{i}:send|combine` convention as the simulator lowering, so traces
/// from both substrates line up.
///
/// # Panics
/// As [`execute`].
pub fn execute_recorded(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
) -> ExecReport {
    check_stripe(plan, stripe);
    rec.record(plan_built(plan, ctx.topo));
    let t0 = Instant::now();
    let lowered = vec![true; plan.ops.len()];
    let prefilled: Vec<Option<Arc<Vec<u8>>>> = vec![None; plan.ops.len()];
    let cfg = AttemptCfg {
        faults: None,
        policy: RetryPolicy::default(),
        prefilled: &prefilled,
        lowered: &lowered,
        tag: 0,
        cancel: None,
    };
    let run = run_attempt(plan, ctx, stripe, rec, t0, &cfg);
    let wall_seconds = t0.elapsed().as_secs_f64();
    close_run(plan, ctx, stripe, rec, run, &lowered, wall_seconds)
}

/// The result of a supervised execution under a fault storm.
#[derive(Clone, Debug)]
pub struct SupervisedReport {
    /// The final execution report (verification runs against the plan
    /// that actually completed the repair).
    pub report: ExecReport,
    /// Per-generation records, in order.
    pub generations: Vec<GenerationRecord>,
    /// Transfer attempts that failed and were retried.
    pub retries: usize,
    /// Plan replacements after helper crashes.
    pub replans: usize,
    /// Total ops satisfied from the partial-result pool.
    pub reused_ops: usize,
    /// Hedges launched (straggling generations cancelled mid-stream).
    pub hedges: usize,
    /// Hedges whose speculative alternative completed the repair.
    pub hedge_wins: usize,
    /// True when the repair deadline was exceeded at any point.
    pub deadline_hit: bool,
    /// Scheme of the plan that completed the repair.
    pub final_scheme: &'static str,
    /// Tier the repair completed at.
    pub final_tier: Tier,
    /// Human-readable resolved fault sites, in injection order.
    pub fault_sites: Vec<String>,
    /// Repair proofs recorded to the ledger (zero when proofs are Off).
    pub proofs_emitted: usize,
    /// Proofs whose output hash disagreed with the expectation.
    pub proofs_rejected: usize,
    /// Helpers quarantined on proof evidence (Mandatory mode only).
    pub accusations: usize,
    /// The proof ledger for the whole repair, verifiable offline with
    /// `rpr audit` against the recorded trace.
    pub ledger: ProofLedger,
}

/// Run one attempt under an optional hedge watchdog: a timer thread arms
/// at `budget` seconds from now and, if the attempt is still running,
/// flips `cancel` — every in-flight transfer aborts between shaper
/// admissions and the attempt unwinds through its `Delivery` channels.
/// Returns the attempt plus whether the watchdog fired.
#[allow(clippy::too_many_arguments)]
fn run_watched(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    t0: Instant,
    cfg: &AttemptCfg<'_>,
    budget: Option<f64>,
    cancel: &AtomicBool,
) -> (AttemptRun, bool) {
    let Some(budget) = budget else {
        return (run_attempt(plan, ctx, stripe, rec, t0, cfg), false);
    };
    let done = std::sync::Mutex::new(false);
    let cv = std::sync::Condvar::new();
    let fired = AtomicBool::new(false);
    let run = std::thread::scope(|scope| {
        scope.spawn(|| {
            let armed = Instant::now();
            let mut finished = done.lock().expect("watchdog lock");
            while !*finished {
                let Some(left) = Duration::from_secs_f64(budget.max(1e-3))
                    .checked_sub(armed.elapsed())
                else {
                    fired.store(true, Ordering::SeqCst);
                    cancel.store(true, Ordering::SeqCst);
                    return;
                };
                finished = cv
                    .wait_timeout(finished, left)
                    .expect("watchdog lock")
                    .0;
            }
        });
        let run = run_attempt(plan, ctx, stripe, rec, t0, cfg);
        *done.lock().expect("watchdog lock") = true;
        cv.notify_all();
        run
    });
    (run, fired.load(Ordering::SeqCst))
}

/// The executor's proof evidence, taken from the real bytes a generation
/// produced. Every op with an available value (executed this generation
/// or re-served from the partial pool) gets a proof: the output hash is
/// taken over the actual bytes, the expected hash over the ground-truth
/// GF linear combination of the op's symbolic coefficient vector applied
/// to the original stripe, and the inputs bind each consumed edge to its
/// producer's recorded output. An op is tainted when output ≠ expected;
/// a node is convicted only when its op's output is wrong *and* every
/// recorded input matches the producer's expected value — exactly the
/// localization rule the offline auditor applies, so online accusations
/// and `rpr audit` agree.
fn byte_evidence(
    gen: &Generation<'_, '_, Arc<Vec<u8>>>,
    run: &GenerationRun<Arc<Vec<u8>>>,
    stripe: &[Vec<u8>],
    key: ProofKey,
) -> Evidence {
    let (plan, vecs) = (gen.plan, gen.vecs);
    let block_hashes: Vec<u128> = stripe.iter().map(|b| hash_bytes(key, b)).collect();
    let sizes = chunk_sizes(plan.block_bytes, gen.ctx.effective_chunk());
    let (chunks, chunk_bytes) = (sizes.len(), sizes[0]);
    let mut out_hash: Vec<Option<u128>> = vec![None; plan.ops.len()];
    let mut exp_hash: Vec<Option<u128>> = vec![None; plan.ops.len()];
    let mut taints = vec![Vec::new(); plan.ops.len()];
    let mut proofs = Vec::new();
    let mut dishonest: Vec<usize> = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let Some(v) = run.values[i].as_ref().or(gen.prefilled[i].as_ref()) else {
            continue;
        };
        let mut expected = vec![0u8; plan.block_bytes as usize];
        for (b, &c) in vecs[i].iter().enumerate() {
            if c != 0 {
                rpr_gf::mul_acc_slice(c, &stripe[b], &mut expected);
            }
        }
        let oh = hash_bytes(key, v);
        let eh = hash_bytes(key, &expected);
        out_hash[i] = Some(oh);
        exp_hash[i] = Some(eh);
        if oh != eh {
            taints[i].push((gen.index, i));
        }
        let (node, algorithm, inputs) = if gen.reused[i].is_some() {
            // Re-served from the partial pool: the entry carries no
            // input edges.
            (op.output_location().0, "pool".to_string(), Vec::new())
        } else {
            match op {
                Op::Send { what, from, .. } => {
                    let inputs = match what {
                        Payload::Block(b) => {
                            vec![(ProofSource::Block(b.0), block_hashes[b.0])]
                        }
                        Payload::Intermediate(src) => vec![(
                            ProofSource::Op(src.0),
                            out_hash[src.0].expect("send source produced before send"),
                        )],
                    };
                    (from.0, "wire".to_string(), inputs)
                }
                Op::Combine { node, inputs, .. } => {
                    let kernel = combine_kernel(plan, i)
                        .expect("combine ops always have a kernel")
                        .name();
                    let alg = format!("{kernel}/{}", rpr_gf::active_tier().name());
                    let ins = inputs
                        .iter()
                        .map(|inp| match inp {
                            Input::Block { via: Some(v), .. } => (
                                ProofSource::Op(v.0),
                                out_hash[v.0].expect("via op produced before combine"),
                            ),
                            Input::Block { block, via: None, .. } => {
                                (ProofSource::Block(block.0), block_hashes[block.0])
                            }
                            Input::Intermediate(o) => (
                                ProofSource::Op(o.0),
                                out_hash[o.0].expect("input op produced before combine"),
                            ),
                        })
                        .collect();
                    (node.0, alg, ins)
                }
            }
        };
        let inputs_honest = inputs.iter().all(|(src, h)| match src {
            ProofSource::Op(s) => exp_hash[*s].is_some_and(|e| *h == e),
            ProofSource::Block(_) => true,
            // Re-serves carry no inputs here; a pooled edge's honesty
            // would belong to its origin generation.
            ProofSource::Pooled { .. } => false,
        });
        if oh != eh && inputs_honest {
            dishonest.push(node);
        }
        proofs.push(RepairProof {
            op: i,
            node,
            coeffs: vecs[i].clone(),
            inputs,
            output_hash: oh,
            expected_hash: eh,
            algorithm,
            chunks,
            chunk_bytes,
        });
    }
    dishonest.sort_unstable();
    dishonest.dedup();
    Evidence {
        proofs,
        taints,
        dishonest,
    }
}

/// The executor backend of the supervision loop: every generation runs
/// on OS threads over real bytes, on the wall clock.
struct ExecBackend<'s> {
    stripe: &'s [Vec<u8>],
    t0: Instant,
    arena: ArenaStats,
    first_byte: Option<f64>,
    /// Op timings of the last generation run.
    timings: Vec<OpTiming>,
}

/// The byte-verified outputs of the generation that completed a repair.
struct Verified {
    scheme: &'static str,
    recovered: Vec<(BlockId, Arc<Vec<u8>>)>,
    mismatches: Vec<BlockId>,
}

impl RepairBackend for ExecBackend<'_> {
    type Value = Arc<Vec<u8>>;
    type Report = Verified;

    fn start(&mut self, plan: &RepairPlan, _ctx: &RepairContext<'_>) -> Result<f64, ExecError> {
        check_stripe(plan, self.stripe);
        self.t0 = Instant::now();
        Ok(0.0)
    }

    fn run(
        &mut self,
        gen: &Generation<'_, '_, Arc<Vec<u8>>>,
        rec: &dyn Recorder,
    ) -> Result<GenerationRun<Arc<Vec<u8>>>, ExecError> {
        let plan = gen.plan;
        // Real time cannot be rewound, so a hedge arms a watchdog at
        // `hedge ×` the plan's analytical makespan instead of splicing a
        // counterfactual.
        let budget = gen
            .hedge
            .map(|m| m * rpr_core::simulate(plan, gen.ctx).repair_time);
        let cancel = AtomicBool::new(false);
        let cfg = AttemptCfg {
            faults: Some(gen.faults),
            policy: *gen.policy,
            prefilled: gen.prefilled,
            lowered: gen.lowered,
            tag: gen.index,
            cancel: Some(&cancel),
        };
        let (run, fired) = run_watched(
            plan,
            gen.ctx,
            self.stripe,
            rec,
            self.t0,
            &cfg,
            budget,
            &cancel,
        );
        let end = self.t0.elapsed().as_secs_f64();
        self.arena = self.arena.plus(run.arena);
        self.first_byte = match (self.first_byte, run.first_out) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let is_send = |i: usize| matches!(plan.ops[i], Op::Send { .. });
        let send_durations = (0..plan.ops.len())
            .map(|i| {
                let t = run.op_timings[i];
                let done = run.values[i].is_some() && is_send(i) && t.end > t.start;
                done.then_some(t.end - t.start)
            })
            .collect();
        // A watchdog that fires after every transfer finished raced a
        // clean completion: nothing was cancelled.
        let cancelled = (0..plan.ops.len())
            .find(|&i| fired && gen.lowered[i] && run.values[i].is_none() && is_send(i));
        self.timings = run.op_timings;
        Ok(GenerationRun {
            values: run.values,
            send_durations,
            end,
            retries: run.retries,
            splice: None,
            cancelled,
        })
    }

    fn evidence(
        &self,
        gen: &Generation<'_, '_, Arc<Vec<u8>>>,
        run: &GenerationRun<Arc<Vec<u8>>>,
        key: ProofKey,
    ) -> Evidence {
        byte_evidence(gen, run, self.stripe, key)
    }

    fn backoff(&mut self, _now: f64, delay: f64) {
        std::thread::sleep(Duration::from_secs_f64(delay));
    }

    fn complete(
        &mut self,
        gen: &Generation<'_, '_, Arc<Vec<u8>>>,
        run: &GenerationRun<Arc<Vec<u8>>>,
        rec: &dyn Recorder,
    ) -> Result<Verified, ExecError> {
        emit_wave_boundaries(gen.plan, gen.ctx, &self.timings, gen.lowered, rec);
        let mut verified = Verified {
            scheme: gen.plan.scheme,
            recovered: Vec::with_capacity(gen.plan.outputs.len()),
            mismatches: Vec::new(),
        };
        for &(target, op) in &gen.plan.outputs {
            let got = run.values[op.0]
                .clone()
                .or_else(|| gen.prefilled[op.0].clone())
                .ok_or_else(|| ExecError::Unrecoverable(format!("output {op:?} never produced")))?;
            if got.as_slice() != self.stripe[target.0].as_slice() {
                verified.mismatches.push(target);
            }
            verified.recovered.push((target, got));
        }
        Ok(verified)
    }
}

/// Execute a supervised repair on real bytes — the wall-clock counterpart
/// of [`rpr_core::supervise_injected`], driven by the same supervision
/// loop ([`rpr_core::supervise()`]): the same storm resolution, pool
/// banking, health feed, proof rules, tier ladder and replanning. The
/// pool holds real byte buffers keyed by `(node, symbolic coefficient
/// vector)`, which prefill the ops a replacement plan reuses.
///
/// Two things differ from the simulator, both owned by this backend.
/// When a helper crashes, the branches that do not depend on it run to
/// completion and bank their partials (the simulator banks only what
/// finished by the crash instant), so after a crash the banked pool and
/// the replacement plans can differ from the simulator's for the same
/// seed; the crashed nodes, replan count and accusations do not.
/// Hedging cannot rewind real time: instead of splicing a counterfactual
/// the backend arms a watchdog at `hedge ×` the plan's analytical
/// makespan and, when it fires, *actually cancels* the straggling
/// generation — in-flight transfers abort between shaper admissions and
/// unwind through their `Delivery` channels — and the loop launches the
/// speculative alternative as the next generation: a pool-reusing replan
/// that avoids the straggling helper. `hedge_wins` counts alternatives
/// that completed the repair; `hedge_won.saved` is reported as zero,
/// since the cancelled original never finishes.
///
/// The reconstruction is verified byte-for-byte against the lost
/// originals regardless of how many faults fired.
///
/// # Panics
/// Panics if the stripe has the wrong shape (see [`execute`]).
pub fn execute_supervised(
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
) -> Result<SupervisedReport, ExecError> {
    let mut backend = ExecBackend {
        stripe,
        t0: Instant::now(),
        arena: ArenaStats::default(),
        first_byte: None,
        timings: Vec::new(),
    };
    let (out, verified) = supervise(&mut backend, ctx, storm, cfg, tracker, rec)?;
    Ok(SupervisedReport {
        report: ExecReport {
            wall_seconds: out.repair_time,
            op_timings: backend.timings,
            cross_bytes: out.cross_bytes,
            inner_bytes: out.inner_bytes,
            verified: verified.mismatches.is_empty(),
            mismatches: verified.mismatches,
            arena: backend.arena,
            recovered: verified.recovered,
            first_byte_seconds: backend.first_byte,
        },
        generations: out.generations,
        retries: out.retries,
        replans: out.replans,
        reused_ops: out.reused_ops,
        hedges: out.hedges,
        hedge_wins: out.hedge_wins,
        deadline_hit: out.deadline_hit,
        final_scheme: verified.scheme,
        final_tier: out.final_tier,
        fault_sites: out.fault_sites,
        proofs_emitted: out.proofs_emitted,
        proofs_rejected: out.proofs_rejected,
        accusations: out.accusations,
        ledger: out.ledger,
    })
}

fn check_stripe(plan: &RepairPlan, stripe: &[Vec<u8>]) {
    assert_eq!(
        stripe.len(),
        plan.params.total(),
        "execute: stripe must hold n+k blocks"
    );
    let block_len = stripe[0].len();
    assert!(
        stripe.iter().all(|b| b.len() == block_len),
        "execute: unequal block lengths"
    );
    assert_eq!(
        block_len as u64, plan.block_bytes,
        "execute: stripe block size must match the plan"
    );
}

fn add_send_bytes(
    ctx: &RepairContext<'_>,
    op: &Op,
    bytes: u64,
    cross: &mut u64,
    inner: &mut u64,
) {
    if let Op::Send { from, to, .. } = op {
        if ctx.topo.same_rack(*from, *to) {
            *inner += bytes;
        } else {
            *cross += bytes;
        }
    }
}

/// Per-node link shapers, mirroring rpr-netsim's resource layout, with
/// optional per-node derates from injected slow-link faults.
fn node_links(ctx: &RepairContext<'_>, slow: &[(NodeId, f64)]) -> Vec<NodeLinks> {
    (0..ctx.topo.node_count())
        .map(|i| {
            let node = NodeId(i);
            let rack = ctx.topo.rack_of(node);
            let factor: f64 = slow
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|&(_, f)| f)
                .product();
            let nic = ctx.profile.rate(rack, rack) * factor;
            let cross = cross_class_rate(ctx, node) * factor;
            NodeLinks {
                up: TokenBucket::new(nic),
                down: TokenBucket::new(nic),
                xup: TokenBucket::new(cross),
                xdown: TokenBucket::new(cross),
                cpu: Mutex::new(()),
            }
        })
        .collect()
}

/// Run every lowered op of a plan once, enacting the configured faults.
/// Transfers with injected attempt failures retry in place; a helper
/// crash poisons the dead node's remaining ops and propagates `Failed`
/// through the DAG, while independent branches run to completion.
fn run_attempt(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    t0: Instant,
    cfg: &AttemptCfg<'_>,
) -> AttemptRun {
    let empty_slow: &[(NodeId, f64)] = &[];
    let slow = cfg.faults.map_or(empty_slow, |f| f.slow.as_slice());
    let links = node_links(ctx, slow);
    let crash = cfg.faults.and_then(|f| f.crash);
    let sizes = chunk_sizes(plan.block_bytes, ctx.effective_chunk());
    let streaming = sizes.len() > 1;

    // Wire one channel per (producer, consumer) dependency edge between
    // executing ops; dependencies on reused ops read the prefilled value.
    // Block-level edges carry exactly one delivery, so a rendezvous
    // channel suffices; streamed edges carry one delivery per chunk and
    // are unbounded — the shapers pace the producers, and cut-through
    // must never let a slow fan-out branch stall the stream.
    let mut producers: Vec<Vec<Sender<Delivery>>> =
        (0..plan.ops.len()).map(|_| Vec::new()).collect();
    type Edge = (usize, Receiver<Delivery>);
    let mut consumers: Vec<Vec<Edge>> = (0..plan.ops.len()).map(|_| Vec::new()).collect();
    #[allow(clippy::needless_range_loop)] // deps_of takes an index
    for i in 0..plan.ops.len() {
        if !cfg.lowered[i] {
            continue;
        }
        for dep in plan.deps_of(i) {
            if cfg.lowered[dep.0] {
                let (tx, rx) = if streaming { unbounded() } else { bounded(1) };
                producers[dep.0].push(tx);
                consumers[i].push((dep.0, rx));
            }
        }
    }

    // Optional shared aggregation-switch shaper for all cross traffic.
    let agg: Option<TokenBucket> = ctx.agg_capacity.map(TokenBucket::new);

    // Matrix-build bookkeeping: one real inversion per combining node for
    // matrix-based plans, mirroring the cost model's surcharge.
    let needs_matrix = plan.stats(ctx.topo).needs_matrix;
    let nodes = ctx.topo.node_count();
    let matrix_done: Vec<Mutex<bool>> = (0..nodes).map(|_| Mutex::new(false)).collect();

    let (waves, _) = plan.cross_waves(ctx.topo);
    let values: Vec<Mutex<Option<Arc<Vec<u8>>>>> =
        plan.ops.iter().map(|_| Mutex::new(None)).collect();
    let timings: Vec<Mutex<OpTiming>> = plan
        .ops
        .iter()
        .map(|_| {
            Mutex::new(OpTiming {
                start: 0.0,
                end: 0.0,
            })
        })
        .collect();
    let retries = AtomicUsize::new(0);

    let mut outputs = vec![false; plan.ops.len()];
    for &(_, op) in &plan.outputs {
        outputs[op.0] = true;
    }
    let first_out: Mutex<Option<f64>> = Mutex::new(None);

    let pool = BufferPool::new();
    let env = RunEnv {
        plan,
        ctx,
        stripe,
        rec,
        t0,
        links: &links,
        agg: agg.as_ref(),
        waves: &waves,
        needs_matrix,
        matrix_done: &matrix_done,
        chunk: ctx
            .effective_chunk()
            .map_or(DEFAULT_SHAPER_CHUNK, |c| c as usize),
        sizes: &sizes,
        pool: &pool,
        outputs: &outputs,
        first_out: &first_out,
    };

    std::thread::scope(|scope| {
        for (i, op) in plan.ops.iter().enumerate() {
            if !cfg.lowered[i] {
                continue;
            }
            let my_consumers = std::mem::take(&mut consumers[i]);
            let my_producers = std::mem::take(&mut producers[i]);
            let env = &env;
            let links = &links;
            let agg = &agg;
            let values = &values;
            let timings = &timings;
            let matrix_done = &matrix_done;
            let waves = &waves;
            let retries = &retries;
            scope.spawn(move || {
                if streaming {
                    stream_op(env, cfg, i, op, my_consumers, &my_producers, values, timings, retries);
                    return;
                }
                // Gather dependency values: prefilled (reused) first, then
                // the channel edges.
                let mut vals: HashMap<usize, Arc<Vec<u8>>> = HashMap::new();
                for dep in plan.deps_of(i) {
                    if let Some(v) = &cfg.prefilled[dep.0] {
                        vals.insert(dep.0, v.clone());
                    }
                }
                let mut failed_input = false;
                for (dep, rx) in my_consumers {
                    match rx.recv().expect("producer thread panicked") {
                        Delivery::Data(v) => {
                            // Block-mode edges only ever carry `Shared`
                            // values, so this is an Arc bump, not a copy.
                            vals.insert(dep, v.to_block());
                        }
                        Delivery::Failed => failed_input = true,
                    }
                }
                let exec_node = match op {
                    Op::Send { from, .. } => *from,
                    Op::Combine { node, .. } => *node,
                };
                let down =
                    crash.is_some_and(|c| c.node == exec_node && i >= c.trigger.0);
                if failed_input || down {
                    if crash.is_some_and(|c| c.trigger.0 == i) {
                        // The crash trigger: the node dies as this send
                        // begins, so the failure is observed here.
                        let c = crash.expect("checked above");
                        let now = t0.elapsed().as_secs_f64();
                        if let Op::Send { from, to, .. } = op {
                            let xfer = transfer_descr(plan, ctx, cfg.tag, i, from, to, waves);
                            rec.record(Event::TransferQueued {
                                xfer: xfer.clone(),
                                t: now,
                            });
                            rec.record(Event::TransferFailed {
                                xfer,
                                attempt: 0,
                                reason: reason::NODE_DOWN.to_string(),
                                t: now,
                            });
                        }
                        rec.record(Event::HelperCrashed {
                            node: c.node.0,
                            rack: ctx.topo.rack_of(c.node).0,
                            t: now,
                        });
                    }
                    for tx in my_producers {
                        // The consumer may have unwound already under a
                        // hedge cancellation; a dropped receiver is fine.
                        let _ = tx.send(Delivery::Failed);
                    }
                    return;
                }
                let started = t0.elapsed().as_secs_f64();

                let out: Arc<Vec<u8>> = match op {
                    Op::Send { what, from, to } => {
                        let data: Arc<Vec<u8>> = match what {
                            Payload::Block(b) => Arc::new(stripe[b.0].clone()),
                            Payload::Intermediate(o) => vals[&o.0].clone(),
                        };
                        // A Byzantine helper flips a byte *before* taking
                        // the sender-side digest, so the transport
                        // checksum validates the lie end-to-end — only
                        // the proof plane can catch it.
                        let data: Arc<Vec<u8>> = if cfg
                            .faults
                            .is_some_and(|f| f.lies.contains(&i))
                        {
                            let mut bad = (*data).clone();
                            bad[0] ^= 0xA5;
                            Arc::new(bad)
                        } else {
                            data
                        };
                        // Sender-side digest: every delivery is verified
                        // against it on arrival.
                        let expected = checksum64(&data);
                        let xfer = transfer_descr(plan, ctx, cfg.tag, i, from, to, waves);
                        let no_faults: &[rpr_core::AttemptFault] = &[];
                        let injected = cfg
                            .faults
                            .map_or(no_faults, |f| f.op_faults[i].as_slice());
                        for (a, fault) in injected.iter().enumerate() {
                            let queued = t0.elapsed().as_secs_f64();
                            rec.record(Event::TransferQueued {
                                xfer: xfer.clone(),
                                t: queued,
                            });
                            if fault.reason == reason::CORRUPT {
                                // The full payload arrives with a flipped
                                // byte; the checksum rejects it.
                                let mut bad = (*data).clone();
                                bad[0] ^= 0x01;
                                let Some(admitted) = shaped_transfer(
                                    ctx,
                                    links,
                                    agg.as_ref(),
                                    *from,
                                    *to,
                                    bad.len(),
                                    env.chunk,
                                    cfg.cancel,
                                ) else {
                                    for tx in &my_producers {
                                        let _ = tx.send(Delivery::Failed);
                                    }
                                    return;
                                };
                                rec.record(Event::TransferStarted {
                                    xfer: xfer.clone(),
                                    queue_wait: admitted,
                                    t: queued + admitted,
                                });
                                assert_ne!(
                                    checksum64(&bad),
                                    expected,
                                    "checksum must detect injected corruption"
                                );
                            } else {
                                // The attempt stalls after moving a
                                // fraction of the payload.
                                let part = (data.len() as f64 * fault.fraction) as usize;
                                let Some(admitted) = shaped_transfer(
                                    ctx,
                                    links,
                                    agg.as_ref(),
                                    *from,
                                    *to,
                                    part,
                                    env.chunk,
                                    cfg.cancel,
                                ) else {
                                    for tx in &my_producers {
                                        let _ = tx.send(Delivery::Failed);
                                    }
                                    return;
                                };
                                rec.record(Event::TransferStarted {
                                    xfer: xfer.clone(),
                                    queue_wait: admitted,
                                    t: queued + admitted,
                                });
                            }
                            let now = t0.elapsed().as_secs_f64();
                            rec.record(Event::TransferFailed {
                                xfer: xfer.clone(),
                                attempt: a,
                                reason: fault.reason.to_string(),
                                t: now,
                            });
                            let delay = cfg.policy.delay(a);
                            rec.record(Event::RetryScheduled {
                                label: xfer.label.clone(),
                                rack: xfer.src_rack,
                                attempt: a,
                                delay,
                                t: now,
                            });
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_secs_f64(delay));
                        }
                        // The (final) successful attempt.
                        let queued = t0.elapsed().as_secs_f64();
                        rec.record(Event::TransferQueued {
                            xfer: xfer.clone(),
                            t: queued,
                        });
                        let Some(admitted) = shaped_transfer(
                            ctx,
                            links,
                            agg.as_ref(),
                            *from,
                            *to,
                            data.len(),
                            env.chunk,
                            cfg.cancel,
                        ) else {
                            for tx in &my_producers {
                                let _ = tx.send(Delivery::Failed);
                            }
                            return;
                        };
                        rec.record(Event::TransferStarted {
                            xfer: xfer.clone(),
                            queue_wait: admitted,
                            t: queued + admitted,
                        });
                        assert_eq!(
                            checksum64(&data),
                            expected,
                            "delivered payload failed verification"
                        );
                        rec.record(Event::TransferDone {
                            xfer,
                            start: queued + admitted,
                            end: t0.elapsed().as_secs_f64(),
                        });
                        data
                    }
                    Op::Combine { node, inputs, .. } => {
                        let _cpu = links[node.0].cpu.lock();
                        let work_start = Instant::now();
                        // Model the decode pace of the target machine: the
                        // real folds run first (verifying the bytes), then
                        // the thread is paced up to the CostModel's time so
                        // scaled-down experiments keep the paper's
                        // decode-to-transfer proportions. CostModel::free()
                        // disables pacing entirely.
                        let mut modeled = 0.0f64;
                        let uses_matrix = plan.force_matrix
                            || inputs
                                .iter()
                                .any(|i| matches!(i, Input::Block { coeff, .. } if *coeff != 1));
                        if needs_matrix && uses_matrix {
                            let mut done = matrix_done[node.0].lock();
                            if !*done {
                                *done = true;
                                build_decoding_matrix(ctx);
                                modeled += ctx.cost.matrix_build_seconds;
                            }
                        }
                        let mut pd = rpr_codec::PartialDecoder::new(stripe[0].len());
                        for inp in inputs {
                            match inp {
                                Input::Block {
                                    block,
                                    coeff,
                                    via: None,
                                } => {
                                    pd.fold(*coeff, &stripe[block.0]);
                                    modeled += if plan.force_matrix {
                                        ctx.cost.forced_fold_seconds(plan.block_bytes)
                                    } else {
                                        ctx.cost.fold_seconds(*coeff, plan.block_bytes)
                                    };
                                }
                                Input::Block {
                                    block: _,
                                    coeff,
                                    via: Some(s),
                                } => {
                                    pd.fold(*coeff, &vals[&s.0]);
                                    modeled += if plan.force_matrix {
                                        ctx.cost.forced_fold_seconds(plan.block_bytes)
                                    } else {
                                        ctx.cost.fold_seconds(*coeff, plan.block_bytes)
                                    };
                                }
                                Input::Intermediate(o) => {
                                    pd.merge_bytes(&vals[&o.0]);
                                    modeled += if plan.force_matrix {
                                        ctx.cost.forced_fold_seconds(plan.block_bytes)
                                    } else {
                                        ctx.cost.merge_seconds(plan.block_bytes)
                                    };
                                }
                            }
                        }
                        let spent = work_start.elapsed().as_secs_f64();
                        if modeled.is_finite() && modeled > spent {
                            std::thread::sleep(std::time::Duration::from_secs_f64(modeled - spent));
                        }
                        Arc::new(pd.finish())
                    }
                };

                let ended = t0.elapsed().as_secs_f64();
                {
                    let mut t = timings[i].lock();
                    t.start = started;
                    t.end = ended;
                }
                if let Op::Combine { node, inputs, .. } = op {
                    rec.record(Event::CombineDone {
                        label: format!("p{}op{i}:combine", cfg.tag),
                        node: node.0,
                        rack: ctx.topo.rack_of(*node).0,
                        kernel: combine_kernel(plan, i).expect("op is a combine"),
                        inputs: inputs.len(),
                        bytes: plan.block_bytes,
                        start: started,
                        end: ended,
                    });
                }
                env.note_first_out(i, ended);
                *values[i].lock() = Some(out.clone());
                for tx in my_producers {
                    let _ = tx.send(Delivery::Data(Chunk::shared(out.clone())));
                }
            });
        }
    });

    AttemptRun {
        values: values.into_iter().map(|m| m.into_inner()).collect(),
        op_timings: timings.into_iter().map(|m| m.into_inner()).collect(),
        retries: retries.into_inner(),
        arena: pool.stats(),
        first_out: first_out.into_inner(),
    }
}

/// A send's per-chunk payload source: a whole buffer already in memory
/// (local block or prefilled value) or a live upstream stream.
struct SendSource<'f> {
    whole: Option<&'f [u8]>,
    edge: Option<Receiver<Delivery>>,
    have: usize,
    /// Byzantine sender: perturb each chunk before digesting it, so the
    /// per-chunk FNV checksum validates the lie (see `StormFault::Lie`).
    lie: bool,
}

impl SendSource<'_> {
    /// Materialize chunks up to and including `j` into `buf`, recording
    /// each chunk's FNV-1a checksum. Returns false if the upstream
    /// producer died.
    fn ensure(&mut self, j: usize, env: &RunEnv<'_, '_>, buf: &mut [u8], sums: &mut Vec<u64>) -> bool {
        while self.have <= j {
            let r = env.range(self.have);
            match (&self.whole, &self.edge) {
                (Some(w), _) => buf[r.clone()].copy_from_slice(&w[r.clone()]),
                (None, Some(rx)) => match rx.recv().expect("producer thread panicked") {
                    Delivery::Data(c) => buf[r.clone()].copy_from_slice(&c),
                    Delivery::Failed => return false,
                },
                (None, None) => unreachable!("send payload always has a source"),
            }
            if self.lie {
                buf[r.start] ^= 0xA5;
            }
            sums.push(checksum64(&buf[r]));
            self.have += 1;
        }
        true
    }
}

/// One combine input's chunk source.
enum ChunkFeed<'f> {
    /// A buffer fully in memory (local stripe block or prefilled value).
    Whole(&'f [u8]),
    /// A live upstream stream delivering one chunk per message.
    Edge(Receiver<Delivery>),
}

/// How a combine folds one input.
enum FoldKind {
    /// `dst ^= coeff · src` (coefficient-scaled raw block).
    Coeff(u8),
    /// `dst ^= src` (intermediate merge).
    Merge,
}

/// Streamed (cut-through) execution of one op. Payloads move hop-to-hop
/// in `env.sizes`-sized chunks: a send verifies each chunk against its
/// FNV-1a checksum and forwards it downstream the moment it is intact, so
/// a retry resumes from the first unverified chunk instead of
/// re-streaming the whole block; a combine folds chunk `j` with the GF
/// kernels as soon as every input's chunk `j` arrived and forwards the
/// folded chunk immediately. The downstream hop therefore starts after
/// one chunk, not one block — the executor's critical path collapses
/// from `waves × t_block` toward `t_block + (waves − 1) × t_chunk`.
#[allow(clippy::too_many_arguments)]
fn stream_op(
    env: &RunEnv<'_, '_>,
    cfg: &AttemptCfg<'_>,
    i: usize,
    op: &Op,
    consumers: Vec<(usize, Receiver<Delivery>)>,
    producers: &[Sender<Delivery>],
    values: &[Mutex<Option<Arc<Vec<u8>>>>],
    timings: &[Mutex<OpTiming>],
    retries: &AtomicUsize,
) {
    let plan = env.plan;
    let ctx = env.ctx;
    let rec = env.rec;
    let t0 = env.t0;
    let m = env.sizes.len();
    let total = plan.block_bytes as usize;
    let crash = cfg.faults.and_then(|f| f.crash);
    // A downstream consumer may have aborted (failed input on another
    // edge) and dropped its receiver while this stream is mid-flight;
    // chunk sends into a closed channel are simply dropped.
    let forward = |chunk: Chunk| {
        for tx in producers {
            let _ = tx.send(Delivery::Data(chunk.clone()));
        }
    };
    // Forward one chunk through a pooled buffer: the buffer returns to
    // the pool when the last downstream consumer finishes with it, so
    // the steady state allocates nothing per chunk.
    let forward_pooled = |bytes: &[u8]| {
        let mut c = env.pool.get(bytes.len());
        c.copy_from_slice(bytes);
        forward(Chunk::pooled(c));
    };
    let fail_downstream = || {
        for tx in producers {
            let _ = tx.send(Delivery::Failed);
        }
    };

    // Split edges: data edges feed payload chunks; ordering edges (link
    // FIFO, used by slice-pipelined plans) must drain completely before
    // this op may start — they serialize whole ops, exactly as the
    // analytical lowering does.
    let data = op.dependencies();
    let mut edges: HashMap<usize, Receiver<Delivery>> = HashMap::new();
    let mut failed_input = false;
    for (dep, rx) in consumers {
        if data.iter().any(|d| d.0 == dep) {
            edges.insert(dep, rx);
        } else {
            for _ in 0..m {
                match rx.recv().expect("producer thread panicked") {
                    Delivery::Data(_) => {}
                    Delivery::Failed => {
                        failed_input = true;
                        break;
                    }
                }
            }
        }
    }

    let exec_node = match op {
        Op::Send { from, .. } => *from,
        Op::Combine { node, .. } => *node,
    };
    let down = crash.is_some_and(|c| c.node == exec_node && i >= c.trigger.0);
    if failed_input || down {
        if crash.is_some_and(|c| c.trigger.0 == i) {
            let c = crash.expect("checked above");
            let now = t0.elapsed().as_secs_f64();
            if let Op::Send { from, to, .. } = op {
                let xfer = transfer_descr(plan, ctx, cfg.tag, i, from, to, env.waves);
                rec.record(Event::TransferQueued {
                    xfer: xfer.clone(),
                    t: now,
                });
                rec.record(Event::TransferFailed {
                    xfer,
                    attempt: 0,
                    reason: reason::NODE_DOWN.to_string(),
                    t: now,
                });
            }
            rec.record(Event::HelperCrashed {
                node: c.node.0,
                rack: ctx.topo.rack_of(c.node).0,
                t: now,
            });
        }
        fail_downstream();
        return;
    }
    let started = t0.elapsed().as_secs_f64();

    match op {
        Op::Send { what, from, to } => {
            let mut src = SendSource {
                whole: match what {
                    Payload::Block(b) => Some(env.stripe[b.0].as_slice()),
                    Payload::Intermediate(o) => cfg.prefilled[o.0].as_deref().map(|v| v.as_slice()),
                },
                edge: match what {
                    Payload::Intermediate(o) if cfg.prefilled[o.0].is_none() => edges.remove(&o.0),
                    _ => None,
                },
                have: 0,
                lie: cfg.faults.is_some_and(|f| f.lies.contains(&i)),
            };
            let mut buf = vec![0u8; total];
            let mut sums: Vec<u64> = Vec::with_capacity(m);
            let xfer = transfer_descr(plan, ctx, cfg.tag, i, from, to, env.waves);
            let no_faults: &[rpr_core::AttemptFault] = &[];
            let injected = cfg.faults.map_or(no_faults, |f| f.op_faults[i].as_slice());
            // Chunks verified and forwarded downstream so far; a failed
            // attempt never rewinds this — the retry re-streams from the
            // first unverified chunk, not from the start of the block.
            let mut delivered = 0usize;
            let mut first_delivered_t: Option<f64> = None;

            for (a, fault) in injected.iter().enumerate() {
                let queued = t0.elapsed().as_secs_f64();
                rec.record(Event::TransferQueued {
                    xfer: xfer.clone(),
                    t: queued,
                });
                let mut admitted = 0.0f64;
                if fault.reason == reason::CORRUPT {
                    // The next chunk arrives with a flipped byte; its
                    // checksum rejects it, so it is neither forwarded nor
                    // counted as verified.
                    if !src.ensure(delivered, env, &mut buf, &mut sums) {
                        fail_downstream();
                        return;
                    }
                    let mut bad = buf[env.range(delivered)].to_vec();
                    bad[0] ^= 0x01;
                    admitted = match shaped_transfer(
                        ctx, env.links, env.agg, *from, *to, bad.len(), env.chunk, cfg.cancel,
                    ) {
                        Some(a) => a,
                        None => {
                            fail_downstream();
                            return;
                        }
                    };
                    assert_ne!(
                        checksum64(&bad),
                        sums[delivered],
                        "checksum must detect injected corruption"
                    );
                } else {
                    // The attempt stalls after a prefix of the stream;
                    // chunks that got through intact stay verified and
                    // forwarded.
                    let goal = (((m as f64) * fault.fraction).floor() as usize).min(m - 1);
                    let mut first = true;
                    for j in delivered..goal {
                        if !src.ensure(j, env, &mut buf, &mut sums) {
                            fail_downstream();
                            return;
                        }
                        let r = env.range(j);
                        let Some(wait) = shaped_transfer(
                            ctx,
                            env.links,
                            env.agg,
                            *from,
                            *to,
                            r.len(),
                            env.chunk,
                            cfg.cancel,
                        ) else {
                            fail_downstream();
                            return;
                        };
                        if first {
                            admitted = wait;
                            first = false;
                        }
                        assert_eq!(
                            checksum64(&buf[r.clone()]),
                            sums[j],
                            "delivered chunk failed verification"
                        );
                        forward_pooled(&buf[r]);
                        if first_delivered_t.is_none() {
                            let now = t0.elapsed().as_secs_f64();
                            first_delivered_t = Some(now);
                            env.note_first_out(i, now);
                        }
                    }
                    delivered = delivered.max(goal);
                }
                rec.record(Event::TransferStarted {
                    xfer: xfer.clone(),
                    queue_wait: admitted,
                    t: queued + admitted,
                });
                let now = t0.elapsed().as_secs_f64();
                rec.record(Event::TransferFailed {
                    xfer: xfer.clone(),
                    attempt: a,
                    reason: fault.reason.to_string(),
                    t: now,
                });
                let delay = cfg.policy.delay(a);
                rec.record(Event::RetryScheduled {
                    label: xfer.label.clone(),
                    rack: xfer.src_rack,
                    attempt: a,
                    delay,
                    t: now,
                });
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_secs_f64(delay));
            }

            // The (final) successful attempt streams the rest.
            let queued = t0.elapsed().as_secs_f64();
            rec.record(Event::TransferQueued {
                xfer: xfer.clone(),
                t: queued,
            });
            let mut admitted = 0.0f64;
            for j in delivered..m {
                if !src.ensure(j, env, &mut buf, &mut sums) {
                    fail_downstream();
                    return;
                }
                let r = env.range(j);
                let Some(wait) = shaped_transfer(
                    ctx, env.links, env.agg, *from, *to, r.len(), env.chunk, cfg.cancel,
                ) else {
                    fail_downstream();
                    return;
                };
                if j == delivered {
                    admitted = wait;
                    rec.record(Event::TransferStarted {
                        xfer: xfer.clone(),
                        queue_wait: admitted,
                        t: queued + admitted,
                    });
                }
                assert_eq!(
                    checksum64(&buf[r.clone()]),
                    sums[j],
                    "delivered chunk failed verification"
                );
                forward_pooled(&buf[r]);
                if first_delivered_t.is_none() {
                    let now = t0.elapsed().as_secs_f64();
                    first_delivered_t = Some(now);
                    env.note_first_out(i, now);
                }
            }
            let end = t0.elapsed().as_secs_f64();
            rec.record(Event::TransferDone {
                xfer: xfer.clone(),
                start: queued + admitted,
                end,
            });
            rec.record(Event::StreamSummary {
                xfer,
                chunks: m,
                chunk_bytes: env.sizes[0],
                first_chunk_latency: first_delivered_t.expect("streamed >= 1 chunk") - started,
                throughput: if end > started {
                    total as f64 / (end - started)
                } else {
                    f64::INFINITY
                },
                t: end,
            });
            {
                let mut t = timings[i].lock();
                t.start = started;
                t.end = end;
            }
            *values[i].lock() = Some(Arc::new(buf));
        }
        Op::Combine { node, inputs, .. } => {
            let work_start = Instant::now();
            let mut modeled = 0.0f64;
            let uses_matrix = plan.force_matrix
                || inputs
                    .iter()
                    .any(|i| matches!(i, Input::Block { coeff, .. } if *coeff != 1));
            if env.needs_matrix && uses_matrix {
                let _cpu = env.links[node.0].cpu.lock();
                let mut done = env.matrix_done[node.0].lock();
                if !*done {
                    *done = true;
                    build_decoding_matrix(ctx);
                    modeled += ctx.cost.matrix_build_seconds;
                }
            }
            let mut feeds: Vec<(ChunkFeed<'_>, FoldKind)> = inputs
                .iter()
                .map(|inp| match inp {
                    Input::Block {
                        block,
                        coeff,
                        via: None,
                    } => (
                        ChunkFeed::Whole(env.stripe[block.0].as_slice()),
                        FoldKind::Coeff(*coeff),
                    ),
                    Input::Block {
                        block: _,
                        coeff,
                        via: Some(s),
                    } => (feed_for(cfg, &mut edges, s.0), FoldKind::Coeff(*coeff)),
                    Input::Intermediate(o) => (feed_for(cfg, &mut edges, o.0), FoldKind::Merge),
                })
                .collect();
            let mut out = vec![0u8; total];
            let mut arrived: Vec<Option<Chunk>> = vec![None; feeds.len()];
            for j in 0..m {
                let r = env.range(j);
                let clen = r.len() as u64;
                // Gather this chunk's upstream deliveries BEFORE taking
                // the node's CPU lock: another combine on the same node
                // may be the producer of one of these edges, and holding
                // the lock across recv would deadlock the pair.
                for (f, (feed, _)) in feeds.iter_mut().enumerate() {
                    if let ChunkFeed::Edge(rx) = feed {
                        match rx.recv().expect("producer thread panicked") {
                            Delivery::Data(c) => arrived[f] = Some(c),
                            Delivery::Failed => {
                                fail_downstream();
                                return;
                            }
                        }
                    }
                }
                let _cpu = env.links[node.0].cpu.lock();
                // Fold every input directly into this chunk's slice of
                // the output block — the per-chunk accumulator the
                // PartialDecoder used to allocate (plus its copy-out) is
                // gone; `out[r]` starts zeroed and serves as the
                // accumulator itself.
                let dst = &mut out[r.clone()];
                for (f, (feed, kind)) in feeds.iter().enumerate() {
                    let chunk: &[u8] = match feed {
                        ChunkFeed::Whole(w) => &w[r.clone()],
                        ChunkFeed::Edge(_) => arrived[f].as_ref().expect("gathered above"),
                    };
                    match kind {
                        FoldKind::Coeff(coeff) => {
                            // Zero terms are filtered at equation build;
                            // folding one here would hide a plan bug.
                            assert_ne!(*coeff, 0, "combine: zero coefficient");
                            rpr_gf::mul_acc_slice(*coeff, chunk, dst);
                        }
                        FoldKind::Merge => rpr_gf::xor_slice(dst, chunk),
                    }
                    modeled += chunk_fold_cost(plan, ctx, kind, clen);
                }
                arrived.iter_mut().for_each(|a| *a = None);
                // Pace the stream to the modeled decode rate before
                // forwarding, so downstream sees chunks at the pace the
                // target machine would produce them.
                let spent = work_start.elapsed().as_secs_f64();
                if modeled.is_finite() && modeled > spent {
                    std::thread::sleep(std::time::Duration::from_secs_f64(modeled - spent));
                }
                forward_pooled(&out[r]);
                if j == 0 {
                    // The degraded-read cut-through moment: the first
                    // decoded chunk of a reconstructed block exists at
                    // the recovery node while the rest is in flight.
                    env.note_first_out(i, t0.elapsed().as_secs_f64());
                }
            }
            let ended = t0.elapsed().as_secs_f64();
            rec.record(Event::CombineDone {
                label: format!("p{}op{i}:combine", cfg.tag),
                node: node.0,
                rack: ctx.topo.rack_of(*node).0,
                kernel: combine_kernel(plan, i).expect("op is a combine"),
                inputs: inputs.len(),
                bytes: plan.block_bytes,
                start: started,
                end: ended,
            });
            {
                let mut t = timings[i].lock();
                t.start = started;
                t.end = ended;
            }
            *values[i].lock() = Some(Arc::new(out));
        }
    }
}

/// The chunk feed of a combine input produced by op `dep`: the prefilled
/// value after a replan, the live channel edge otherwise.
fn feed_for<'f>(
    cfg: &AttemptCfg<'f>,
    edges: &mut HashMap<usize, Receiver<Delivery>>,
    dep: usize,
) -> ChunkFeed<'f> {
    match cfg.prefilled[dep].as_deref() {
        Some(v) => ChunkFeed::Whole(v.as_slice()),
        None => ChunkFeed::Edge(edges.remove(&dep).expect("lowered dependency has an edge")),
    }
}

/// The modeled CPU seconds of folding one `bytes`-sized chunk.
fn chunk_fold_cost(plan: &RepairPlan, ctx: &RepairContext<'_>, kind: &FoldKind, bytes: u64) -> f64 {
    match kind {
        FoldKind::Coeff(coeff) => {
            if plan.force_matrix {
                ctx.cost.forced_fold_seconds(bytes)
            } else {
                ctx.cost.fold_seconds(*coeff, bytes)
            }
        }
        FoldKind::Merge => {
            if plan.force_matrix {
                ctx.cost.forced_fold_seconds(bytes)
            } else {
                ctx.cost.merge_seconds(bytes)
            }
        }
    }
}

/// The shared transfer descriptor of op `i`.
fn transfer_descr(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    tag: usize,
    i: usize,
    from: &NodeId,
    to: &NodeId,
    waves: &[Option<usize>],
) -> rpr_obs::Transfer {
    rpr_obs::Transfer {
        label: format!("p{tag}op{i}:send"),
        src_node: from.0,
        src_rack: ctx.topo.rack_of(*from).0,
        dst_node: to.0,
        dst_rack: ctx.topo.rack_of(*to).0,
        bytes: plan.block_bytes,
        cross: !ctx.topo.same_rack(*from, *to),
        timestep: waves[i],
    }
}

/// Emit `timestep_started`/`timestep_finished` per cross-rack wave from
/// wall-clock op timings: the earliest start to the latest end among the
/// wave's `lowered` sends. A wave with no lowered send (all of it served
/// from the partial pool) emits nothing.
fn emit_wave_boundaries(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    timings: &[OpTiming],
    lowered: &[bool],
    rec: &dyn Recorder,
) {
    let (waves, wave_count) = plan.cross_waves(ctx.topo);
    for w in 0..wave_count {
        let mut start = f64::INFINITY;
        let mut finish = 0.0f64;
        for (i, wave) in waves.iter().enumerate() {
            if *wave == Some(w) && lowered[i] {
                start = start.min(timings[i].start);
                finish = finish.max(timings[i].end);
            }
        }
        if start.is_finite() {
            rec.record(Event::TimestepStarted { step: w, t: start });
            rec.record(Event::TimestepFinished { step: w, t: finish });
        }
    }
}

/// Verify outputs, account traffic, emit the closing timestep/repair_done
/// events, and assemble the report for a fully completed run.
fn close_run(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    run: AttemptRun,
    lowered: &[bool],
    wall_seconds: f64,
) -> ExecReport {
    let mut mismatches = Vec::new();
    for &(target, op) in &plan.outputs {
        let got = run.values[op.0].as_ref().expect("output never produced");
        if got.as_slice() != stripe[target.0].as_slice() {
            mismatches.push(target);
        }
    }

    // Traffic accounting from the plan structure.
    let mut cross_bytes = 0u64;
    let mut inner_bytes = 0u64;
    for op in &plan.ops {
        add_send_bytes(ctx, op, plan.block_bytes, &mut cross_bytes, &mut inner_bytes);
    }

    // Timestep boundaries from the recorded wall-clock timings, then the
    // closing repair_done.
    emit_wave_boundaries(plan, ctx, &run.op_timings, lowered, rec);
    rec.record(Event::RepairDone {
        t: wall_seconds,
        cross_bytes,
        inner_bytes,
    });

    let recovered = plan
        .outputs
        .iter()
        .map(|&(target, op)| {
            let v = run.values[op.0].clone().expect("output never produced");
            (target, v)
        })
        .collect();

    ExecReport {
        wall_seconds,
        arena: run.arena,
        op_timings: run.op_timings,
        cross_bytes,
        inner_bytes,
        verified: mismatches.is_empty(),
        mismatches,
        recovered,
        first_byte_seconds: run.first_out,
    }
}

/// The shaped cross-traffic class of a node (same rule as the simulator).
fn cross_class_rate(ctx: &RepairContext<'_>, node: NodeId) -> f64 {
    let r = ctx.topo.rack_of(node);
    let q = ctx.topo.rack_count();
    if q == 1 {
        return ctx.profile.rate(r, r);
    }
    (0..q)
        .filter(|&b| b != r.0)
        .map(|b| ctx.profile.rate(r, rpr_topology::RackId(b)))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Move `len` bytes from `from` to `to` through the shapers: the private
/// pair-rate bucket plus the shared per-node (and, cross-rack, cross-class)
/// buckets. Returns the seconds spent waiting for the shapers to admit the
/// *first* chunk — the transfer's queue wait under link contention — or
/// `None` when `cancel` fired between shaper admissions (the transfer was
/// abandoned mid-stream by the hedge watchdog).
#[allow(clippy::too_many_arguments)]
fn shaped_transfer(
    ctx: &RepairContext<'_>,
    links: &[NodeLinks],
    agg: Option<&TokenBucket>,
    from: NodeId,
    to: NodeId,
    len: usize,
    granularity: usize,
    cancel: Option<&AtomicBool>,
) -> Option<f64> {
    let pair_rate = ctx
        .profile
        .rate(ctx.topo.rack_of(from), ctx.topo.rack_of(to));
    let flow = TokenBucket::new(pair_rate);
    let cross = !ctx.topo.same_rack(from, to);
    let entered = Instant::now();
    let mut first_admit = 0.0f64;
    let mut left = len;
    while left > 0 {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return None;
        }
        let take = left.min(granularity) as f64;
        flow.take(take);
        links[from.0].up.take(take);
        links[to.0].down.take(take);
        if cross {
            links[from.0].xup.take(take);
            links[to.0].xdown.take(take);
            if let Some(bucket) = agg {
                bucket.take(take);
            }
        }
        if left == len {
            first_admit = entered.elapsed().as_secs_f64();
        }
        left -= take as usize;
    }
    Some(first_admit)
}

/// Perform a genuine decoding-matrix construction (survivor-row selection
/// plus Gauss-Jordan inversion), the work Jerasure does before a
/// matrix-based decode.
fn build_decoding_matrix(ctx: &RepairContext<'_>) {
    let n = ctx.params().n;
    let rows: Vec<usize> = ctx.survivors().iter().take(n).map(|b| b.0).collect();
    let sub = ctx.codec.generator().select_rows(&rows);
    let inv = sub.inverse().expect("survivor rows are invertible");
    // Keep the optimizer honest.
    std::hint::black_box(inv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_codec::{CodeParams, StripeCodec};
    use rpr_core::{crash_candidates, CostModel, RepairPlanner, RprPlanner, TraditionalPlanner};
    use rpr_faults::{FaultKind, StormFault};
    use rpr_proof::ProofMode;
    use rpr_topology::{cluster_for, BandwidthProfile, Placement};

    fn stripe_for(codec: &StripeCodec, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let n = codec.params().n;
        let mut s = seed | 1;
        let data: Vec<Vec<u8>> = (0..n)
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

    /// A fast retry policy so backoff sleeps stay in the milliseconds.
    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: 0.01,
            multiplier: 2.0,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn rpr_plan_executes_and_verifies() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        // Fast links so the test runs quickly: 80 MB/s inner, 8 MB/s cross.
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 128 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");

        let stripe = stripe_for(&codec, block as usize, 42);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
        assert!(report.wall_seconds > 0.0);
        assert_eq!(
            report.cross_bytes,
            plan.stats(&topo).cross_bytes,
            "executor and plan must agree on traffic"
        );
    }

    #[test]
    fn recorded_execution_emits_a_consistent_trace() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 128 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&codec, block as usize, 11);
        let rec = rpr_obs::TraceRecorder::default();
        let report = execute_recorded(&plan, &ctx, &stripe, &rec);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);

        // Aggregate metrics agree with the executor's own accounting.
        let snap = rec.snapshot();
        assert_eq!(snap.cross_bytes, report.cross_bytes);
        assert_eq!(snap.inner_bytes, report.inner_bytes);

        let events = rec.take_events();
        assert!(matches!(events[0], Event::PlanBuilt { .. }));
        assert!(matches!(events.last().unwrap(), Event::RepairDone { .. }));
        let stats = plan.stats(&topo);
        let dones = events
            .iter()
            .filter(|e| matches!(e, Event::TransferDone { .. }))
            .count();
        assert_eq!(dones, stats.cross_transfers + stats.inner_transfers);
        let combines = events
            .iter()
            .filter(|e| matches!(e, Event::CombineDone { .. }))
            .count();
        assert_eq!(combines, stats.combines);
        // Wave boundaries cover every advertised timestep.
        let (_, wave_count) = plan.cross_waves(&topo);
        let finished = events
            .iter()
            .filter(|e| matches!(e, Event::TimestepFinished { .. }))
            .count();
        assert_eq!(finished, wave_count);
    }

    #[test]
    fn traditional_multi_failure_executes_and_verifies() {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 64 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0), BlockId(3)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let stripe = stripe_for(&codec, block as usize, 7);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn executor_detects_corrupted_source_data() {
        // Feed the executor a stripe whose parity is inconsistent: the
        // reconstruction must NOT verify (negative control for the
        // verification logic).
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 16 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let mut stripe = stripe_for(&codec, block as usize, 9);
        stripe[4][0] ^= 0xFF; // corrupt p0
        let report = execute(&plan, &ctx, &stripe);
        // The plan uses p0 (or not); either way flipping a parity byte can
        // only break verification if that block participated.
        let uses_p0 = plan.ops.iter().any(|op| match op {
            Op::Send {
                what: Payload::Block(b),
                ..
            } => b.0 == 4,
            Op::Combine { inputs, .. } => inputs
                .iter()
                .any(|i| matches!(i, Input::Block { block, .. } if block.0 == 4)),
            _ => false,
        });
        assert_eq!(report.verified, !uses_p0);
    }

    #[test]
    fn transfer_time_reflects_the_shaped_rate() {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        // 2 MB/s cross: a 256 KiB cross transfer should take ~0.13 s.
        let profile = BandwidthProfile::uniform(topo.rack_count(), 20.0e6, 2.0e6);
        let block = 256 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        let stripe = stripe_for(&codec, block as usize, 3);
        let report = execute(&plan, &ctx, &stripe);
        // 4 cross transfers serialize on the recovery node's cross class:
        // 4 * 256 KiB / 2 MB/s ≈ 0.52 s (minus burst allowances).
        assert!(
            (0.30..1.2).contains(&report.wall_seconds),
            "wall {}",
            report.wall_seconds
        );
        assert!(report.verified);
    }

    struct Fx {
        codec: StripeCodec,
        topo: rpr_topology::Topology,
        placement: Placement,
        profile: BandwidthProfile,
        block: u64,
    }

    impl Fx {
        fn new(n: usize, k: usize, block: u64) -> Fx {
            let params = CodeParams::new(n, k);
            let topo = cluster_for(params, 1, 1);
            let placement = Placement::rpr_preplaced(params, &topo);
            let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
            Fx {
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

    /// A one-generation storm of pinned `kinds`, supervised on real bytes
    /// under `policy`.
    fn pinned(
        ctx: &RepairContext<'_>,
        stripe: &[Vec<u8>],
        seed: u64,
        kinds: &[FaultKind],
        policy: RetryPolicy,
        rec: &dyn Recorder,
    ) -> Result<SupervisedReport, ExecError> {
        let storm = FaultStorm::new(seed)
            .with_generation(kinds.iter().copied().map(StormFault::Pinned).collect());
        let cfg = SuperviseConfig {
            policy,
            ..SuperviseConfig::default()
        };
        let mut tracker = HealthTracker::with_defaults();
        execute_supervised(ctx, stripe, rec, &storm, &cfg, &mut tracker)
    }

    #[test]
    fn injected_timeout_retries_and_still_verifies() {
        let fx = Fx::new(6, 2, 32 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        let send = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
            .unwrap();
        let kinds = [
            FaultKind::TransferTimeout { op: send },
            FaultKind::SlowLink {
                node: 0,
                factor: 0.9,
            },
        ];
        let stripe = stripe_for(&fx.codec, fx.block as usize, 21);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 3, &kinds, fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.retries, 1);
        assert_eq!(out.replans, 0);
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"transfer_failed"));
        assert!(names.contains(&"retry_scheduled"));
        assert_eq!(*names.last().unwrap(), "repair_done");
    }

    #[test]
    fn corrupted_intermediate_is_detected_by_checksum_and_retried() {
        let fx = Fx::new(6, 2, 32 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        let interm = plan
            .ops
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
            .expect("rpr ships intermediates");
        let corrupt = FaultKind::CorruptIntermediate { op: interm };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 33);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 8, &[corrupt], fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.retries, 1);
        let events = rec.take_events();
        let corrupt_failures = events
            .iter()
            .filter(|e| {
                matches!(e, Event::TransferFailed { reason, .. } if reason == reason::CORRUPT)
            })
            .count();
        assert_eq!(corrupt_failures, 1);
        let snap = rec.snapshot();
        assert_eq!(snap.transfer_failures, 1);
        assert_eq!(snap.retries, 1);
    }

    #[test]
    fn exhausted_retry_budget_is_an_error() {
        let fx = Fx::new(6, 2, 16 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        let send = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
            .unwrap();
        let timeout = FaultKind::TransferTimeout { op: send };
        let tight = RetryPolicy {
            max_attempts: 1,
            ..fast_policy()
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 5);
        let err = pinned(&ctx, &stripe, 3, &[timeout], tight, rpr_obs::noop()).unwrap_err();
        assert!(matches!(err, ExecError::RetriesExhausted(_)), "{err}");
    }

    #[test]
    fn helper_crash_replans_and_verifies() {
        let fx = Fx::new(6, 3, 16 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("valid");
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let crash = FaultKind::HelperCrash {
            node,
            timestep: step,
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 55);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 17, &[crash], fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.replans, 1);
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"helper_crashed"));
        assert!(names.contains(&"replanned"));
        assert_eq!(*names.last().unwrap(), "repair_done");
    }

    #[test]
    fn empty_storm_behaves_like_plain_execution() {
        let fx = Fx::new(4, 2, 32 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 77);
        let out = pinned(&ctx, &stripe, 0, &[], fast_policy(), rpr_obs::noop()).expect("runs");
        assert!(out.report.verified);
        assert_eq!(out.retries, 0);
        assert_eq!(out.replans, 0);
        assert_eq!(out.final_scheme, plan.scheme);
        let plain = execute(&plan, &ctx, &stripe);
        assert_eq!(out.report.cross_bytes, plain.cross_bytes);
        assert_eq!(out.report.inner_bytes, plain.inner_bytes);
    }

    impl Fx {
        fn ctx_chunked(&self, failed: Vec<BlockId>, chunk: u64) -> RepairContext<'_> {
            self.ctx(failed).with_chunk_size(chunk)
        }
    }

    #[test]
    fn streamed_execution_verifies_with_a_ragged_tail_chunk() {
        // Block size deliberately NOT a multiple of the chunk: the last
        // chunk is a 7-byte tail, exercising the ragged-range plumbing
        // end to end (checksums, GF folds, and forwarding).
        let fx = Fx::new(6, 2, 96 * 1024 + 7);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 10_000);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("valid");
        let stripe = stripe_for(&fx.codec, fx.block as usize, 101);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
        assert_eq!(
            report.cross_bytes,
            plan.stats(&fx.topo).cross_bytes,
            "chunked streaming must move exactly the planned traffic"
        );
    }

    #[test]
    fn streamed_execution_of_a_block_level_plan_verifies() {
        // A plan built WITHOUT streaming (star-shaped cross pipeline)
        // must still reconstruct correctly when executed chunked.
        let fx = Fx::new(6, 3, 64 * 1024);
        let block_ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&block_ctx);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 4 * 1024);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 13);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn chunk_at_or_above_block_size_takes_the_block_path() {
        let fx = Fx::new(4, 2, 32 * 1024);
        let plain_ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&plain_ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 19);
        let plain = execute(&plan, &plain_ctx, &stripe);
        for chunk in [fx.block, fx.block + 1, fx.block * 8] {
            let ctx = fx.ctx_chunked(vec![BlockId(1)], chunk);
            let report = execute(&plan, &ctx, &stripe);
            assert!(report.verified);
            assert_eq!(report.cross_bytes, plain.cross_bytes);
            assert_eq!(report.inner_bytes, plain.inner_bytes);
        }
    }

    #[test]
    fn streamed_trace_has_consistent_event_counts_and_summaries() {
        let fx = Fx::new(6, 2, 64 * 1024);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 8 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 23);
        let rec = rpr_obs::TraceRecorder::default();
        let report = execute_recorded(&plan, &ctx, &stripe, &rec);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);

        let stats = plan.stats(&fx.topo);
        let events = rec.take_events();
        // Event volume stays bounded: one TransferDone and ONE
        // StreamSummary per send edge, never one per chunk.
        let dones = events
            .iter()
            .filter(|e| matches!(e, Event::TransferDone { .. }))
            .count();
        assert_eq!(dones, stats.cross_transfers + stats.inner_transfers);
        let m = ctx.chunk_count();
        assert!(m > 1, "test must actually stream");
        for e in &events {
            if let Event::StreamSummary {
                xfer,
                chunks,
                chunk_bytes,
                first_chunk_latency,
                throughput,
                ..
            } = e
            {
                assert_eq!(*chunks, m);
                assert_eq!(*chunk_bytes, 8 * 1024);
                assert_eq!(xfer.bytes, fx.block);
                assert!(*first_chunk_latency >= 0.0);
                assert!(throughput.is_finite() && *throughput > 0.0);
            }
        }
        let summaries = events
            .iter()
            .filter(|e| matches!(e, Event::StreamSummary { .. }))
            .count();
        assert_eq!(summaries, stats.cross_transfers + stats.inner_transfers);
        let combines = events
            .iter()
            .filter(|e| matches!(e, Event::CombineDone { .. }))
            .count();
        assert_eq!(combines, stats.combines);
    }

    #[test]
    fn streamed_timeout_retry_resumes_and_verifies() {
        let fx = Fx::new(6, 2, 32 * 1024);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 4 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let send = plan
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
            .unwrap();
        let timeout = FaultKind::TransferTimeout { op: send };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 29);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 3, &[timeout], fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.retries, 1);
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"transfer_failed"));
        assert!(names.contains(&"retry_scheduled"));
        assert!(names.contains(&"stream_summary"));
        assert_eq!(*names.last().unwrap(), "repair_done");
    }

    #[test]
    fn streamed_corruption_is_caught_per_chunk_and_retried() {
        let fx = Fx::new(6, 2, 32 * 1024);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 4 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let interm = plan
            .ops
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
            .expect("rpr ships intermediates");
        let corrupt = FaultKind::CorruptIntermediate { op: interm };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 31);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 8, &[corrupt], fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.retries, 1);
        let corrupt_failures = rec
            .take_events()
            .iter()
            .filter(|e| {
                matches!(e, Event::TransferFailed { reason, .. } if reason == reason::CORRUPT)
            })
            .count();
        assert_eq!(corrupt_failures, 1);
    }

    #[test]
    fn streamed_helper_crash_still_replans_and_verifies() {
        let fx = Fx::new(6, 3, 16 * 1024);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 2 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let (node, step) = crash_candidates(&plan, &ctx)[0];
        let crash = FaultKind::HelperCrash {
            node,
            timestep: step,
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 37);
        let rec = rpr_obs::TraceRecorder::default();
        let out = pinned(&ctx, &stripe, 17, &[crash], fast_policy(), &rec).expect("recovers");
        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.replans, 1);
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"helper_crashed"));
        assert!(names.contains(&"replanned"));
    }

    #[test]
    fn streamed_reconstruction_is_byte_identical_across_geometries_and_chunks() {
        // Property-style sweep: for each paper code geometry and a spread
        // of chunk sizes (including non-divisors of the block), chunked
        // cut-through must reconstruct the same bytes the codec predicts
        // (the executor's verification recomputes ground truth).
        for (n, k) in [(4usize, 2usize), (6, 2), (6, 3)] {
            let fx = Fx::new(n, k, 24 * 1024 + 11);
            for &chunk in &[1_024u64, 7_777, 24 * 1024 + 11] {
                let ctx = fx.ctx_chunked(vec![BlockId(1)], chunk);
                let plan = RprPlanner::new().plan(&ctx);
                let stripe =
                    stripe_for(&fx.codec, fx.block as usize, (n * 31 + k) as u64 ^ chunk);
                let report = execute(&plan, &ctx, &stripe);
                assert!(
                    report.verified,
                    "({n},{k}) chunk {chunk}: {:?}",
                    report.mismatches
                );
                assert_eq!(report.cross_bytes, plan.stats(&fx.topo).cross_bytes);
            }
        }
    }

    #[test]
    fn streaming_collapses_the_executor_critical_path() {
        // The paper-scale acceptance check at (6, 3): under cut-through
        // streaming the measured wall clock must approach the analytical
        // `t_block + (waves - 1) * t_chunk` instead of store-and-forward's
        // `waves * t_block`. 4 MiB blocks over the fixture's 8 MB/s cross
        // links give t_block ~ 0.52 s, so the two regimes are far apart
        // relative to shaper noise (20 ms token-bucket bursts).
        let fx = Fx::new(6, 3, 4 * 1024 * 1024);
        let block_ctx = fx.ctx(vec![BlockId(1)]);
        let block_plan = RprPlanner::new().plan(&block_ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 4242);

        // 512 KiB chunks (8 per block): every TokenBucket::take that must
        // wait sleeps, and sleeps quantize at the kernel tick (~5-10 ms),
        // so each chunk carries ~20 ms of scheduler tax across the bucket
        // chain. Fewer, larger chunks keep that tax small next to the
        // 65 ms per-chunk transfer time.
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 512 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let analytical = rpr_core::simulate(&plan, &ctx).repair_time;

        // The load-bearing assertion is the RATIO: both walls inflate
        // together under a loaded test machine, while absolute bounds
        // against the analytical number would flake. The analytical
        // brackets are deliberately loose sanity rails — the tight
        // model-vs-closed-form check lives in rpr-core's sim tests.
        // A single measurement of each wall can still flake when the
        // parallel test harness steals the CPU mid-run, so take the
        // best of up to three paired measurements before failing.
        let mut last = (f64::INFINITY, f64::INFINITY);
        for attempt in 0..3 {
            let block_wall = execute(&block_plan, &block_ctx, &stripe).wall_seconds;
            let report = execute(&plan, &ctx, &stripe);
            assert!(report.verified, "mismatches: {:?}", report.mismatches);
            last = (
                last.0.min(report.wall_seconds / block_wall),
                last.1.min(report.wall_seconds),
            );
            let collapsed = last.0 < 0.85;
            let on_rails = (0.7 * analytical..2.0 * analytical).contains(&last.1);
            if collapsed && on_rails {
                return;
            }
            assert!(
                attempt < 2,
                "best streamed/block ratio {} (want < 0.85), best streamed wall {} \
                 vs analytical {analytical} (want 0.7x..2.0x)",
                last.0,
                last.1
            );
        }
    }

    use rpr_faults::CrashSite;

    fn supervised(
        fx: &Fx,
        storm: &FaultStorm,
        cfg: &SuperviseConfig,
        seed: u64,
    ) -> (SupervisedReport, Vec<Event>) {
        let ctx = fx.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&fx.codec, fx.block as usize, seed);
        let rec = rpr_obs::TraceRecorder::default();
        let mut tracker = HealthTracker::with_defaults();
        let out = execute_supervised(&ctx, &stripe, &rec, storm, cfg, &mut tracker)
            .expect("supervised repair completes");
        (out, rec.take_events())
    }

    #[test]
    fn supervised_three_fault_storm_completes_and_verifies() {
        // The acceptance storm: helper crash, crash of its replacement,
        // then a transient timeout — all on real bytes at (6,3).
        let fx = Fx::new(6, 3, 32 * 1024);
        let storm = FaultStorm::new(77)
            .with_generation(vec![StormFault::Crash(CrashSite::SeedPick)])
            .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)])
            .with_generation(vec![StormFault::Timeout]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 55);

        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.replans, 2, "two crashes, two replans");
        assert_eq!(out.generations.len(), 3);
        assert!(out.generations[0].crashed.is_some());
        assert!(out.generations[1].crashed.is_some());
        assert!(out.generations[2].crashed.is_none());
        assert!(out.retries >= 1, "the timeout fired");
        assert_eq!(out.final_tier, Tier::Full);
        assert!(out
            .fault_sites
            .iter()
            .any(|s| s.starts_with("replacement-crash")));
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "helper_crashed").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "replanned").count(), 2);
        assert_eq!(*names.last().unwrap(), "repair_done");
        // The fault sites replay deterministically: the crash set after a
        // cancelled generation is structural, not timing-dependent.
        let (out2, _) = supervised(&fx, &storm, &cfg, 55);
        assert_eq!(out.fault_sites, out2.fault_sites);
        assert!(out2.report.verified);
    }

    #[test]
    fn supervised_hedge_cancels_the_straggler_and_switches() {
        let fx = Fx::new(6, 3, 256 * 1024);
        // One helper's links run at 10%: its cross send would take 10x
        // the clean makespan, so the watchdog fires at 2x, cancels the
        // generation, and the pool-reusing alternative completes.
        let storm = FaultStorm::new(3).with_generation(vec![StormFault::Slow { factor: 0.1 }]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            hedge: Some(2.0),
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 91);

        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.hedges, 1, "the straggler must trigger exactly one hedge");
        assert_eq!(out.hedge_wins, 1, "the alternative must finish the repair");
        assert_eq!(out.replans, 0, "a hedge is not a crash replan");
        assert_eq!(out.generations.len(), 2);
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"hedge_launched"));
        assert!(names.contains(&"hedge_won"));
        // The cancelled straggler never reappears: the winning plan
        // avoids the slow node entirely.
        let slow = events
            .iter()
            .find_map(|e| match e {
                Event::HedgeLaunched { slow_node, .. } => Some(*slow_node),
                _ => None,
            })
            .expect("hedge_launched recorded");
        let last_gen = out.generations.last().unwrap();
        assert!(last_gen.completed_ops > 0);
        assert!(
            !out.fault_sites.is_empty() && out.fault_sites[0].contains("slow"),
            "sites: {:?}",
            out.fault_sites
        );
        assert_ne!(out.report.op_timings.len(), 0);
        let _ = slow;
    }

    #[test]
    fn supervised_lie_is_convicted_on_evidence_not_timeout() {
        // The acceptance storm for the proof plane: a Byzantine helper
        // sends wrong bytes under a valid FNV checksum at (6,3). The
        // transport never retries; the generation completes, proofs
        // reject, and the liar is accused and replanned around.
        let fx = Fx::new(6, 3, 32 * 1024);
        let storm = FaultStorm::new(9).with_generation(vec![StormFault::Lie]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            proof: ProofMode::Mandatory,
            ..SuperviseConfig::default()
        };
        let ctx = fx.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 13);
        let rec = rpr_obs::TraceRecorder::default();
        // Probe window far past the run so the conviction is observable
        // in the tracker after the repair returns.
        let mut tracker = HealthTracker::new(0.5, 0.4, 100);
        let out = execute_supervised(&ctx, &stripe, &rec, &storm, &cfg, &mut tracker)
            .expect("mandatory repair completes past the liar");

        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert!(out.proofs_emitted > 0);
        assert!(out.proofs_rejected > 0, "the lie must fail proof verification");
        assert_eq!(out.accusations, 1, "exactly one helper convicted");
        assert_eq!(out.retries, 0, "valid checksums: transport never retries a lie");
        assert_eq!(out.replans, 1, "conviction forces one replan");
        let liar: usize = out
            .fault_sites
            .iter()
            .find(|s| s.starts_with("lie "))
            .and_then(|s| s.trim_end_matches(')').rsplit("node ").next())
            .and_then(|n| n.parse().ok())
            .expect("site names the lying node");
        assert!(tracker.is_quarantined(liar), "the liar sits in quarantine");

        // Online conviction and offline audit agree on the culprit.
        let audit = out.ledger.audit();
        let idx = audit.first_dishonest().expect("dishonest hop localized");
        assert_eq!(out.ledger.entries[idx].proof.node, liar);

        // Evidence events in causal order; no transport-level failures.
        let names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
        let rejected = names.iter().position(|n| *n == "proof_rejected");
        let accused = names.iter().position(|n| *n == "helper_accused");
        assert!(rejected.is_some() && accused.is_some() && rejected < accused);
        assert!(!names.contains(&"transfer_failed"));
        assert!(!names.contains(&"retry_scheduled"));

        // Conviction is deterministic: a fresh same-seed run produces a
        // byte-identical ledger.
        let mut tracker2 = HealthTracker::new(0.5, 0.4, 100);
        let out2 = execute_supervised(&ctx, &stripe, &rpr_obs::NoopRecorder, &storm, &cfg, &mut tracker2)
            .expect("replay completes");
        assert_eq!(out.ledger.to_json_lines(), out2.ledger.to_json_lines());
    }

    #[test]
    fn exec_accused_helper_probe_readmission_depends_on_conduct() {
        // One tracker across repairs, probe window 3: a lie repair ticks
        // the generation counter twice, so the liar is still quarantined
        // when the next repair begins. An honest follow-up closes the
        // window and re-admits it; a persistent liar (the same seeded
        // storm replayed) is re-accused on its very first probe.
        let fx = Fx::new(6, 3, 16 * 1024);
        let ctx = fx.ctx(vec![BlockId(1)]);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 29);
        let storm = FaultStorm::new(9).with_generation(vec![StormFault::Lie]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            proof: ProofMode::Mandatory,
            ..SuperviseConfig::default()
        };

        let mut tracker = HealthTracker::new(0.5, 0.4, 3);
        let out = execute_supervised(&ctx, &stripe, &rpr_obs::NoopRecorder, &storm, &cfg, &mut tracker)
            .expect("lie repair completes");
        assert!(out.report.verified);
        assert_eq!(out.accusations, 1);
        let liar = tracker.quarantined();
        assert_eq!(liar.len(), 1, "the convicted helper is quarantined");
        let liar = liar[0];

        // Turned honest: a fault-free repair on the same tracker elapses
        // the probe window and re-admits the node.
        let clean = execute_supervised(
            &ctx,
            &stripe,
            &rpr_obs::NoopRecorder,
            &FaultStorm::new(10),
            &cfg,
            &mut tracker,
        )
        .expect("clean repair completes");
        assert!(clean.report.verified);
        assert_eq!(clean.accusations, 0);
        assert!(
            !tracker.is_quarantined(liar),
            "honest node re-admitted once the probe window elapses"
        );

        // Persistent liar: replaying the same seeded storm makes the
        // re-admitted node lie again, and evidence puts it right back in
        // quarantine — probation never becomes trust.
        let again = execute_supervised(&ctx, &stripe, &rpr_obs::NoopRecorder, &storm, &cfg, &mut tracker)
            .expect("repeat-offense repair completes");
        assert!(again.report.verified);
        assert_eq!(again.accusations, 1, "re-accused on the first probe");
        assert_eq!(again.fault_sites, out.fault_sites, "same node, same lie");
        assert!(tracker.score(liar) <= 0.4 + 1e-12, "score never recovers");
    }

    #[test]
    fn supervised_replan_budget_exhaustion_degrades_the_tier() {
        let fx = Fx::new(6, 3, 16 * 1024);
        let storm = FaultStorm::new(17).with_generation(vec![StormFault::Crash(CrashSite::SeedPick)]);
        let cfg = SuperviseConfig {
            policy: fast_policy(),
            max_replans: 0,
            ..SuperviseConfig::default()
        };
        let (out, events) = supervised(&fx, &storm, &cfg, 23);

        assert!(out.report.verified, "mismatches: {:?}", out.report.mismatches);
        assert_eq!(out.replans, 1);
        assert!(out.final_tier >= Tier::Traditional, "tier: {:?}", out.final_tier);
        assert!(events.iter().any(|e| e.name() == "degraded_fallback"));
    }
}
