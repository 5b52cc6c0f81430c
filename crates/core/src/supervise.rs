//! The repair supervisor: drives a repair to verified completion under
//! an arbitrary *sequence* of faults, on either backend.
//!
//! Every injected fault reaches a backend through one bounded
//! **supervision loop**, [`supervise`], written once and generic over a
//! [`RepairBackend`]. A single fault at an exact site (`rpr inject`) is
//! a one-generation storm of one [`StormFault::Pinned`] fault. Each
//! iteration is one *generation*: [`robust`](crate::robust) pins the
//! generation's storm bucket to the ops of its plan (the original, or a
//! replan), and the plan runs on the backend until it completes, a storm
//! fault kills one of its helpers, the proof plane convicts a lying
//! helper, or a hedge cancels a straggler. The loop then
//!
//! 1. banks every completed partial result into a **pool** keyed by
//!    `(node, symbolic coefficient vector)` — entries survive across
//!    *every* replan generation and are evicted only when their host
//!    node dies or is accused;
//! 2. feeds per-send durations into a [`HealthTracker`] so helper
//!    re-selection stops re-picking known-bad nodes (quarantined nodes
//!    are [avoided](crate::scenario::RepairContext::with_avoided), with
//!    probing re-admission);
//! 3. replans around the dead or accused node, reusing the pool,
//!    descending the RPR → CAR → traditional → degraded-read **tier
//!    ladder** when the replan budget or the repair deadline is blown;
//! 4. waits out one backoff delay before the next generation.
//!
//! A backend owns only what a virtual clock and real bytes do
//! differently: its clock and backoff, running a generation, which ops
//! count as completed when a crash fires, transfer-level events, proof
//! evidence, and hedge mechanics. The simulator backend
//! ([`supervise_injected`]) ends a crashed generation at the crash
//! instant and hedges by splicing in a counterfactual; the `rpr-exec`
//! backend lets the surviving branches of a crashed generation finish
//! and hedges by cancelling the straggler for real. That crash rule is
//! the one fact the backends do not share: on crash-free storms both
//! reach identical fault sites, generation records and traffic, while
//! after a crash only the crashed nodes, the replan count and the
//! accusations are guaranteed to agree (the banked partials, and with
//! them the replacement plans, can differ).
//!
//! On the simulator everything is bit-deterministic for a fixed seed —
//! the same storm replays to the identical trace, which is what
//! `scripts/verify.sh`'s chaos soak checks.

mod sim;

pub use sim::supervise_injected;

use crate::plan::{Op, RepairPlan};
use crate::robust::{check_retry_budget, resolve_storm_bucket, ResolvedFaults};
use crate::scenario::RepairContext;
use crate::schemes::{CarPlanner, RepairPlanner, RprPlanner, TraditionalPlanner};
use crate::trace::plan_built;
use rpr_codec::BlockId;
use rpr_faults::{FaultStorm, HealthTracker, RetryPolicy, SplitMix64, StormFault};
use rpr_obs::{Event, Recorder};
use rpr_proof::{ProofKey, ProofLedger, ProofMode, RepairProof};
use rpr_topology::{NodeId, Topology};
use std::collections::HashMap;

/// Service tier the supervisor is currently running at. Each step down
/// trades repair quality for certainty of completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full planner chain (RPR → CAR → traditional, first to validate).
    Full,
    /// Forced traditional repair: no pipeline schedule to re-derive, the
    /// most predictable plan shape.
    Traditional,
    /// Degraded read: deliver the reconstruction straight to a live
    /// client node instead of the (possibly contended) replacement.
    DegradedRead,
}

impl Tier {
    /// Stable lowercase name used in events and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Traditional => "traditional",
            Tier::DegradedRead => "degraded-read",
        }
    }
}

/// Supervisor knobs. [`Default`] gives the stock retry policy, a budget
/// of 4 replans, and no hedging or deadline.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Backoff policy between retries and replan generations.
    pub policy: RetryPolicy,
    /// Replans allowed before the tier ladder starts descending.
    pub max_replans: usize,
    /// Hedging threshold: a transfer running past this multiple of its
    /// expected duration triggers a speculative alternative. `None`
    /// disables hedging.
    pub hedge: Option<f64>,
    /// Whole-repair deadline in seconds, decomposed into per-wave budgets
    /// proportional to the clean run's wave spans. Blowing it degrades
    /// the tier instead of aborting. `None` disables deadline tracking.
    pub deadline: Option<f64>,
    /// Proof plane enforcement level. [`ProofMode::Off`] (the default)
    /// is bit-identical to the pre-proof behavior; `Advisory` emits and
    /// verifies proofs without altering control flow; `Mandatory` fails
    /// a generation on proof rejection, accuses the dishonest helper,
    /// and replans without it.
    pub proof: ProofMode,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            policy: RetryPolicy::default(),
            max_replans: 4,
            hedge: None,
            deadline: None,
            proof: ProofMode::default(),
        }
    }
}

/// What one supervision generation did — the raw material for the
/// replan-invariant property tests and the `--json` summaries.
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    /// Scheme of the plan this generation ran.
    pub scheme: String,
    /// Tier the generation ran at.
    pub tier: Tier,
    /// Ops the generation actually executed (lowered, not reused).
    pub executed_ops: usize,
    /// Ops satisfied from the partial-result pool without re-execution.
    pub reused_ops: usize,
    /// Executed ops that finished before the generation ended (all of
    /// them when it completed; fewer when a crash cut it short).
    pub completed_ops: usize,
    /// Partial-pool size when the generation started. The reuse
    /// invariant: `reused_ops <= pool_before`.
    pub pool_before: usize,
    /// Node that crashed and ended this generation, if any.
    pub crashed: Option<usize>,
    /// Names of the storm faults injected into this generation.
    pub faults: Vec<String>,
}

/// The outcome of one supervised repair.
#[derive(Debug, Clone)]
pub struct SuperviseOutcome {
    /// Total repair time including retries, backoff, and all replans.
    pub repair_time: f64,
    /// The original plan's fault-free repair time (degradation baseline;
    /// 0 on backends without a model of it).
    pub clean_time: f64,
    /// Per-generation records, in order.
    pub generations: Vec<GenerationRecord>,
    /// Transient-fault retries that actually fired.
    pub retries: usize,
    /// Replanned generations after helper crashes and proof convictions.
    pub replans: usize,
    /// Total ops satisfied from the partial pool across all generations.
    pub reused_ops: usize,
    /// Scheme of the plan that ultimately completed the repair.
    pub final_scheme: String,
    /// Tier the repair completed at.
    pub final_tier: Tier,
    /// Hedges launched.
    pub hedges: usize,
    /// Hedges that beat the original transfer.
    pub hedge_wins: usize,
    /// True when the repair deadline was exceeded at any point.
    pub deadline_hit: bool,
    /// Human-readable resolved fault sites, in injection order.
    pub fault_sites: Vec<String>,
    /// Cross-rack bytes actually moved (completed transfers only).
    pub cross_bytes: u64,
    /// Inner-rack bytes actually moved.
    pub inner_bytes: u64,
    /// Proofs emitted across all generations (0 with the proof plane off).
    pub proofs_emitted: usize,
    /// Proofs whose output hash disagreed with its expected witness.
    pub proofs_rejected: usize,
    /// Helpers accused (and quarantined) on proof evidence. Mandatory
    /// mode only — Advisory records rejections without accusing.
    pub accusations: usize,
    /// The sealed proof ledger (no entries with the proof plane off).
    pub ledger: ProofLedger,
}

/// Why a supervised repair could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SuperviseError {
    /// The faults do not apply to this repair, or they made the stripe
    /// unrecoverable (more than `k` total failures, no plan validates).
    Unrecoverable(String),
    /// A transfer's injected failures exhaust the retry budget.
    RetriesExhausted(String),
}

impl SuperviseError {
    /// The bare message, without the variant prefix [`Display`] adds.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn into_message(self) -> String {
        match self {
            SuperviseError::Unrecoverable(m) | SuperviseError::RetriesExhausted(m) => m,
        }
    }
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Unrecoverable(m) => write!(f, "unrecoverable: {m}"),
            SuperviseError::RetriesExhausted(m) => write!(f, "retries exhausted: {m}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

/// Pool key: `(node, symbolic coefficient vector)` of a banked partial.
/// Two ops with equal keys hold byte-identical values.
pub type PoolKey = (usize, Vec<u8>);

/// A pool-aware replacement plan: which ops the partial-result pool
/// already satisfies and which must actually execute.
#[derive(Debug, Clone)]
pub struct PoolReplan {
    /// The plan (built by the tier's planner chain).
    pub plan: RepairPlan,
    /// Per-op pool key `(node, symbolic vector)` satisfying it, if any.
    pub reused: Vec<Option<PoolKey>>,
    /// Per-op: whether it must actually execute (reachable from an
    /// output and not satisfied by the pool).
    pub lowered: Vec<bool>,
}

impl PoolReplan {
    /// Ops satisfied by the pool.
    pub fn reused_count(&self) -> usize {
        self.reused.iter().filter(|r| r.is_some()).count()
    }

    /// Ops that actually execute.
    pub fn executed_count(&self) -> usize {
        self.lowered.iter().filter(|l| **l).count()
    }
}

/// First validating plan along the RPR → CAR → traditional chain.
fn fallback_plan(ctx: &RepairContext<'_>) -> Result<RepairPlan, String> {
    let mut errors = Vec::new();
    let rpr = RprPlanner::new().plan(ctx);
    match rpr.validate(ctx.codec, ctx.topo, ctx.placement) {
        Ok(()) => return Ok(rpr),
        Err(e) => errors.push(format!("rpr: {e}")),
    }
    if ctx.failed.len() == 1 {
        let car = CarPlanner::new().plan(ctx);
        match car.validate(ctx.codec, ctx.topo, ctx.placement) {
            Ok(()) => return Ok(car),
            Err(e) => errors.push(format!("car: {e}")),
        }
    }
    let trad = TraditionalPlanner::new().plan(ctx);
    match trad.validate(ctx.codec, ctx.topo, ctx.placement) {
        Ok(()) => return Ok(trad),
        Err(e) => errors.push(format!("traditional: {e}")),
    }
    Err(format!("replan: no fallback validates ({})", errors.join("; ")))
}

/// Build a plan for `ctx` at `tier`, marking every op whose output the
/// partial pool already holds (same node, same symbolic coefficient
/// vector — hence byte-identical contents) as reused, and pruning the
/// DAG walk behind reused ops: an op reachable only through reused ops
/// does not execute. At [`Tier::Full`] the first plan to validate along
/// the RPR → CAR (single failure only) → traditional chain wins.
///
/// The sim pool carries only keys, the exec pool maps the same keys to
/// real byte buffers, so `V` is generic.
pub fn plan_with_pool<V>(
    ctx: &RepairContext<'_>,
    pool: &HashMap<PoolKey, V>,
    tier: Tier,
) -> Result<PoolReplan, String> {
    let usable = ctx.survivors().len();
    if usable < ctx.params().n {
        // An avoid list (quarantined helpers) can starve the planners
        // below the n survivors decoding needs; that must surface as an
        // error the supervisor can catch with an unfiltered retry, not a
        // planner panic.
        return Err(format!(
            "replan: only {usable} usable survivors (need {})",
            ctx.params().n
        ));
    }
    let plan = match tier {
        Tier::Full => fallback_plan(ctx)?,
        Tier::Traditional | Tier::DegradedRead => {
            let p = TraditionalPlanner::new().plan(ctx);
            p.validate(ctx.codec, ctx.topo, ctx.placement)
                .map_err(|e| format!("traditional: {e}"))?;
            p
        }
    };
    let vecs = plan.symbolic_vectors();
    let mut reused: Vec<Option<PoolKey>> = (0..plan.ops.len())
        .map(|i| {
            let key = (plan.ops[i].output_location().0, vecs[i].clone());
            pool.contains_key(&key).then_some(key)
        })
        .collect();
    let mut needed = vec![false; plan.ops.len()];
    let mut stack: Vec<usize> = plan.outputs.iter().map(|&(_, op)| op.0).collect();
    while let Some(i) = stack.pop() {
        if needed[i] {
            continue;
        }
        needed[i] = true;
        if reused[i].is_some() {
            continue;
        }
        for d in plan.deps_of(i) {
            stack.push(d.0);
        }
    }
    let lowered: Vec<bool> = (0..plan.ops.len())
        .map(|i| needed[i] && reused[i].is_none())
        .collect();
    for (i, r) in reused.iter_mut().enumerate() {
        if !needed[i] {
            *r = None;
        }
    }
    Ok(PoolReplan {
        plan,
        reused,
        lowered,
    })
}

/// The partial-result pool with its proof-plane side tables, kept in
/// lockstep: every purge drops a node's entries from all three.
pub(crate) struct Pool<V> {
    /// Banked partials: keys only on the simulator, bytes on the executor.
    pub(crate) values: HashMap<PoolKey, V>,
    /// The sorted `(generation, op)` lie sites tainting each banked
    /// partial (proof plane active only).
    pub(crate) taint: HashMap<PoolKey, Vec<(usize, usize)>>,
    /// Which `(generation, op)` produced each banked partial, so a
    /// re-serve's proof can name its true origin (proof plane active
    /// only).
    pub(crate) origin: HashMap<PoolKey, (usize, usize)>,
}

impl<V> Pool<V> {
    fn new() -> Pool<V> {
        Pool {
            values: HashMap::new(),
            taint: HashMap::new(),
            origin: HashMap::new(),
        }
    }

    /// Evict every partial hosted on `node`.
    fn purge(&mut self, node: usize) {
        self.values.retain(|(n, _), _| *n != node);
        self.taint.retain(|(n, _), _| *n != node);
        self.origin.retain(|(n, _), _| *n != node);
    }
}

/// One generation, as the loop hands it to a [`RepairBackend`].
pub struct Generation<'a, 'c, V> {
    /// Generation index: 0 for the original plan, +1 per replan or hedge.
    /// Backends label op `i` as `p{index}op{i}`.
    pub index: usize,
    /// This generation's context: the grown failure set and the pinned
    /// recovery node (or degraded-read client).
    pub ctx: &'a RepairContext<'c>,
    /// The plan to run.
    pub plan: &'a RepairPlan,
    /// Symbolic coefficient vector of every op
    /// ([`RepairPlan::symbolic_vectors`]).
    pub vecs: &'a [Vec<u8>],
    /// Per op: whether it executes this generation.
    pub lowered: &'a [bool],
    /// Per op: the pool key that satisfies it instead, if any.
    pub reused: &'a [Option<PoolKey>],
    /// Per op: the banked value behind `reused`.
    pub prefilled: &'a [Option<V>],
    /// The resolved storm bucket. `slow` holds every derate injected so
    /// far — degraded hardware does not heal when the supervisor
    /// replans around it.
    pub faults: &'a ResolvedFaults,
    /// Backoff between retries of a failed transfer attempt.
    pub policy: &'a RetryPolicy,
    /// Hedge multiple, when this generation may hedge a straggler.
    pub hedge: Option<f64>,
    /// Tier the plan was built at.
    pub(crate) tier: Tier,
    /// The pool as banked before this generation.
    pub(crate) pool: &'a Pool<V>,
    /// Helpers dead so far.
    pub(crate) dead: &'a [NodeId],
    /// Helpers quarantined when the generation started.
    pub(crate) quarantined: &'a [NodeId],
}

/// What a backend reports back from one generation.
pub struct GenerationRun<V> {
    /// Per op: its output, when the op counts as completed. After a crash
    /// the backend decides which ops that is.
    pub values: Vec<Option<V>>,
    /// Per op: how long a completed send took, for the health feed
    /// (`None` for combines, unfinished sends and zero-length timings).
    pub send_durations: Vec<Option<f64>>,
    /// Backend clock when the generation ended: the crash instant, the
    /// cancellation, or the completion.
    pub end: f64,
    /// Failed transfer attempts that were retried.
    pub retries: usize,
    /// A hedge the backend resolved inside the generation.
    pub splice: Option<Splice>,
    /// The straggling send op whose hedge cancelled the generation.
    pub cancelled: Option<usize>,
}

/// A hedge resolved inside one generation by running the alternative to
/// completion next to the original (the simulator's counterfactual).
pub struct Splice {
    /// The alternative finished first and its timeline was adopted.
    pub won: bool,
    /// Alternative ops satisfied from the pool.
    pub reused: usize,
    /// `(cross, inner)` bytes actually moved when the hedge won: the
    /// original plan up to detection plus the alternative.
    pub moved: (u64, u64),
}

/// A generation's proof-plane evidence.
pub struct Evidence {
    /// One proof per completed or pool-served op, in op order.
    pub proofs: Vec<RepairProof>,
    /// Per op: the `(generation, op)` lie sites corrupting its output;
    /// empty for honest outputs.
    pub taints: Vec<Vec<(usize, usize)>>,
    /// Nodes the evidence convicts, sorted and deduplicated.
    pub dishonest: Vec<usize>,
}

/// A substrate the supervision loop can run generations on. The loop
/// owns every decision; a backend only runs one generation of a plan
/// under its resolved faults and reports what happened.
pub trait RepairBackend {
    /// What a completed op leaves behind: `()` on the simulator, the
    /// real bytes on the executor.
    type Value: Clone;
    /// What the backend reports once the repair completes.
    type Report;

    /// Prepare to run the generation-0 plan. Returns its fault-free
    /// repair time, or 0 if the backend has no model of it.
    fn start(&mut self, plan: &RepairPlan, ctx: &RepairContext<'_>) -> Result<f64, SuperviseError>;

    /// Run one generation, recording its transfer-level events.
    fn run(
        &mut self,
        gen: &Generation<'_, '_, Self::Value>,
        rec: &dyn Recorder,
    ) -> Result<GenerationRun<Self::Value>, SuperviseError>;

    /// Proofs for the generation's completed and pool-served ops, keyed
    /// by `key`. Called only with the proof plane active.
    fn evidence(
        &self,
        gen: &Generation<'_, '_, Self::Value>,
        run: &GenerationRun<Self::Value>,
        key: ProofKey,
    ) -> Evidence;

    /// Wait out `delay` seconds of backoff after a failed generation
    /// that ended at `now`.
    fn backoff(&mut self, now: f64, delay: f64);

    /// The generation completed the repair: record its wave boundaries
    /// and any other end-of-repair events, and build the backend's report.
    fn complete(
        &mut self,
        gen: &Generation<'_, '_, Self::Value>,
        run: &GenerationRun<Self::Value>,
        rec: &dyn Recorder,
    ) -> Result<Self::Report, SuperviseError>;
}

/// Median of a non-empty duration list.
fn median_of(durs: &mut [f64]) -> f64 {
    durs.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let mid = durs.len() / 2;
    if durs.len() % 2 == 1 {
        durs[mid]
    } else {
        0.5 * (durs[mid - 1] + durs[mid])
    }
}

/// Feed per-sender health scores from one generation: each completed
/// helper send scores its source node against the median duration of
/// its link class (all cross sends form one group, all inner sends
/// another — peers move the same block size over the same link class),
/// so healthy-but-contended plans stay near 1.0 while a genuinely slow
/// node decays. Returns nodes *newly* quarantined.
fn feed_health(
    tracker: &mut HealthTracker,
    plan: &RepairPlan,
    topo: &Topology,
    durations: &[Option<f64>],
) -> Vec<(usize, f64)> {
    let before = tracker.quarantined();
    let mut groups: [Vec<(usize, f64)>; 2] = [Vec::new(), Vec::new()]; // [inner, cross]
    for (op, dur) in plan.ops.iter().zip(durations) {
        let (Op::Send { from, to, .. }, Some(dur)) = (op, dur) else {
            continue;
        };
        if *from != plan.recovery {
            groups[usize::from(!topo.same_rack(*from, *to))].push((from.0, *dur));
        }
    }
    for members in groups.iter().filter(|m| m.len() >= 2) {
        let mut durs: Vec<f64> = members.iter().map(|&(_, d)| d).collect();
        let median = median_of(&mut durs);
        for &(node, dur) in members {
            tracker.record_success(node, dur, median);
        }
    }
    tracker
        .quarantined()
        .into_iter()
        .filter(|n| !before.contains(n))
        .map(|n| (n, tracker.score(n)))
        .collect()
}

/// `(cross, inner)` bytes moved by the flagged sends of a plan.
fn send_bytes(plan: &RepairPlan, topo: &Topology, flags: &[bool]) -> (u64, u64) {
    let mut moved = (0, 0);
    for (op, _) in plan.ops.iter().zip(flags).filter(|(_, f)| **f) {
        if let Op::Send { from, to, .. } = op {
            if topo.same_rack(*from, *to) {
                moved.1 += plan.block_bytes;
            } else {
                moved.0 += plan.block_bytes;
            }
        }
    }
    moved
}

/// Distinct cross-rack sender nodes of a plan, sorted — the anchor for
/// [`CrashSite::NewHelper`] resolution next generation.
fn cross_senders(plan: &RepairPlan, topo: &Topology) -> Vec<usize> {
    let mut ns: Vec<usize> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Send { from, to, .. } if !topo.same_rack(*from, *to) => Some(from.0),
            _ => None,
        })
        .collect();
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// Pick the degraded-read client: the lowest-index live spare node (no
/// block of this stripe), or failing that any live non-failed host.
pub(crate) fn degraded_client(
    ctx: &RepairContext<'_>,
    dead: &[NodeId],
    recovery: NodeId,
) -> Option<NodeId> {
    let failed_hosts: Vec<NodeId> = ctx
        .failed
        .iter()
        .map(|b| ctx.placement.node_of(*b))
        .collect();
    let live = |n: NodeId| !dead.contains(&n) && !failed_hosts.contains(&n) && n != recovery;
    let spare = (0..ctx.topo.node_count())
        .map(NodeId)
        .find(|&n| live(n) && ctx.placement.block_on(n).is_none());
    spare.or_else(|| (0..ctx.topo.node_count()).map(NodeId).find(|&n| live(n)))
}

/// The next generation's context: the grown failure set, the recovery
/// node pinned — or, at [`Tier::DegradedRead`], moved to a live client.
fn next_context<'c>(
    ctx: &RepairContext<'c>,
    failed: &[BlockId],
    recovery: NodeId,
    tier: Tier,
    dead: &[NodeId],
) -> RepairContext<'c> {
    let mut next = ctx.clone();
    next.failed = failed.to_vec();
    if tier == Tier::DegradedRead {
        if let Some(client) = degraded_client(&next, dead, recovery) {
            return next.with_recovery_node(client);
        }
    }
    next.recovery_node_override = Some(recovery);
    next.recovery_override = Some(ctx.topo.rack_of(recovery));
    next
}

/// The helper a hedge's alternative plan streams from instead of
/// `slow`: its first cross-rack sender that is not `slow`, else its
/// recovery node.
fn hedge_node(alt: &RepairPlan, topo: &Topology, slow: NodeId) -> usize {
    alt.ops
        .iter()
        .find_map(|op| match op {
            Op::Send { from, to, .. } if !topo.same_rack(*from, *to) && *from != slow => {
                Some(from.0)
            }
            _ => None,
        })
        .unwrap_or(alt.recovery.0)
}

fn quarantined(tracker: &HealthTracker) -> Vec<NodeId> {
    tracker.quarantined().into_iter().map(NodeId).collect()
}

/// Flag the whole-repair deadline the first time `now` passes it.
fn check_deadline(cfg: &SuperviseConfig, now: f64, hit: &mut bool, rec: &dyn Recorder) {
    if let Some(d) = cfg.deadline {
        if now > d && !*hit {
            *hit = true;
            rec.record(Event::DeadlineExceeded {
                scope: "repair".to_string(),
                budget: d,
                elapsed: now,
                t: now,
            });
        }
    }
}

/// Drive a repair to completion on `backend` under `storm`: the one
/// supervision loop both backends share (see the module docs).
///
/// `tracker` persists across calls so a fleet recovery can share one
/// health view; pass [`HealthTracker::with_defaults`] for a one-shot
/// repair. Besides the backend's transfer-level events, `rec` receives
/// the supervisor vocabulary: `plan_built`, `replanned`,
/// `hedge_launched`, `hedge_won`, `helper_quarantined`,
/// `helper_accused`, `proof_emitted`, `proof_rejected`,
/// `deadline_exceeded`, `degraded_fallback` and `repair_done`.
///
/// Returns `Err` when the storm kills more than `k - failed` helpers
/// (unrecoverable), a fault exhausts the retry budget, or no fallback
/// plan validates.
pub fn supervise<B: RepairBackend>(
    backend: &mut B,
    ctx: &RepairContext<'_>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
    rec: &dyn Recorder,
) -> Result<(SuperviseOutcome, B::Report), SuperviseError> {
    use SuperviseError::{RetriesExhausted, Unrecoverable};
    let mandatory = cfg.proof == ProofMode::Mandatory;
    let mut rng = SplitMix64::new(storm.seed);
    // The ledger key derives from the storm seed, so the offline auditor
    // re-derives it without any side channel. The proof plane draws no
    // randomness — Off mode stays bit-identical to proof-free runs.
    let proof_key = ProofKey::from_seed(storm.seed);
    let mut pool: Pool<B::Value> = Pool::new();

    // Generation 0: health-aware plan (fall back to unfiltered helper
    // selection if quarantine starves the planner).
    let rep = plan_with_pool(
        &ctx.clone().with_avoided(quarantined(tracker)),
        &pool.values,
        Tier::Full,
    )
    .or_else(|_| plan_with_pool(ctx, &pool.values, Tier::Full))
    .map_err(Unrecoverable)?;
    let clean_time = backend.start(&rep.plan, ctx)?;
    rec.record(plan_built(&rep.plan, ctx.topo));
    let (mut plan, mut reused, mut lowered) = (rep.plan, rep.reused, rep.lowered);

    let mut out = SuperviseOutcome {
        repair_time: 0.0,
        clean_time,
        generations: Vec::new(),
        retries: 0,
        replans: 0,
        reused_ops: 0,
        final_scheme: String::new(),
        final_tier: Tier::Full,
        hedges: 0,
        hedge_wins: 0,
        deadline_hit: false,
        fault_sites: Vec::new(),
        cross_bytes: 0,
        inner_bytes: 0,
        proofs_emitted: 0,
        proofs_rejected: 0,
        accusations: 0,
        ledger: ProofLedger::new(storm.seed, cfg.proof),
    };
    let mut ctx_g = ctx.clone();
    let mut tier = Tier::Full;
    let mut failed = ctx.failed.clone();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut prev_senders: Option<Vec<usize>> = None;
    let mut carry: Vec<StormFault> = Vec::new();
    let mut slow: Vec<(NodeId, f64)> = Vec::new();
    let mut hedge_pending: Option<(String, usize)> = None; // (label, hedge node)

    let max_generations = storm.generations.len() + cfg.max_replans + 4;
    for g in 0..=max_generations {
        let pool_before = pool.values.len();
        let mut bucket = std::mem::take(&mut carry);
        if let Some(b) = storm.generations.get(g) {
            bucket.extend(b.iter().copied());
        }
        let gen_faults = resolve_storm_bucket(
            &bucket,
            &plan,
            &lowered,
            prev_senders.as_deref(),
            &ctx_g,
            &mut rng,
        )?;
        carry = gen_faults.deferred;
        out.fault_sites.extend(gen_faults.descriptions);
        let mut faults = gen_faults.resolved;
        check_retry_budget(&faults.op_faults, &cfg.policy).map_err(RetriesExhausted)?;
        slow.extend(faults.slow.iter().copied());
        faults.slow = slow.clone();
        let prefilled: Vec<Option<B::Value>> = reused
            .iter()
            .map(|k| k.as_ref().and_then(|key| pool.values.get(key).cloned()))
            .collect();
        if let Some(i) =
            (0..plan.ops.len()).find(|&i| reused[i].is_some() && prefilled[i].is_none())
        {
            return Err(Unrecoverable(format!(
                "op {i}: reused partial evicted from the pool before execution"
            )));
        }
        let vecs = plan.symbolic_vectors();
        let avoided = quarantined(tracker);
        // Hedge at most once per repair, and never in a generation a
        // crash or an enforced proof rejection will fail anyway.
        let lying = mandatory && !faults.lies.is_empty();
        let hedge = cfg
            .hedge
            .filter(|_| faults.crash.is_none() && !lying && out.hedges == 0);
        let gen = Generation {
            index: g,
            ctx: &ctx_g,
            plan: &plan,
            vecs: &vecs,
            lowered: &lowered,
            reused: &reused,
            prefilled: &prefilled,
            faults: &faults,
            policy: &cfg.policy,
            hedge,
            tier,
            pool: &pool,
            dead: &dead,
            quarantined: &avoided,
        };
        let run = backend.run(&gen, rec)?;
        let now = run.end;
        let completed: Vec<bool> = run.values.iter().map(Option::is_some).collect();
        out.retries += run.retries;
        let (cross, inner) = match &run.splice {
            Some(s) if s.won => s.moved,
            _ => send_bytes(&plan, ctx.topo, &completed),
        };
        out.cross_bytes += cross;
        out.inner_bytes += inner;
        if let Some(s) = &run.splice {
            out.hedges += 1;
            if s.won {
                out.hedge_wins += 1;
                out.reused_ops += s.reused;
            }
        }

        let evidence = if cfg.proof.active() {
            backend.evidence(&gen, &run, proof_key)
        } else {
            Evidence {
                proofs: Vec::new(),
                taints: vec![Vec::new(); plan.ops.len()],
                dishonest: Vec::new(),
            }
        };
        let crashed = faults.crash.map(|c| c.node);
        // A lie finishes at the transport level; under Mandatory proofs
        // the evidence fails the generation instead.
        let convicted = crashed.is_none() && mandatory && !evidence.dishonest.is_empty();
        // (op, sender) of the send a hedge cancelled the generation over.
        let straggler = run
            .cancelled
            .filter(|_| crashed.is_none() && !convicted)
            .map(|i| match &plan.ops[i] {
                Op::Send { from, .. } => (i, *from),
                Op::Combine { .. } => unreachable!("hedges cancel straggling sends"),
            });

        // Health: the generation's failed node scores first, then every
        // completed send against its link-class peers.
        if let Some(n) = crashed.or(straggler.map(|(_, n)| n)) {
            tracker.record_failure(n.0);
        }
        for (node, score) in feed_health(tracker, &plan, ctx.topo, &run.send_durations) {
            rec.record(Event::HelperQuarantined {
                node,
                score,
                t: now,
            });
        }
        let record = GenerationRecord {
            scheme: plan.scheme.to_string(),
            tier,
            executed_ops: lowered.iter().filter(|l| **l).count(),
            reused_ops: reused.iter().filter(|r| r.is_some()).count(),
            completed_ops: completed.iter().filter(|c| **c).count(),
            pool_before,
            crashed: crashed.map(|n| n.0),
            faults: bucket.iter().map(|f| f.name().to_string()).collect(),
        };

        if crashed.is_none() && !convicted && straggler.is_none() {
            // ---- completion ----
            let report = backend.complete(&gen, &run, rec)?;
            if let Some((label, winner_node)) = hedge_pending.take() {
                // The executor cannot run the cancelled original to
                // completion, so the saving is unknowable there.
                out.hedge_wins += 1;
                rec.record(Event::HedgeWon {
                    label,
                    winner_node,
                    saved: 0.0,
                    t: now,
                });
            }
            check_deadline(cfg, now, &mut out.deadline_hit, rec);
            out.generations.push(record);
            seal(&mut out, evidence.proofs, g, now, rec);
            rec.record(Event::RepairDone {
                t: now,
                cross_bytes: out.cross_bytes,
                inner_bytes: out.inner_bytes,
            });
            tracker.tick_generation();
            out.repair_time = now;
            out.final_scheme = plan.scheme.to_string();
            out.final_tier = tier;
            return Ok((out, report));
        }

        // ---- failed generation: bank partials, accuse, replan. ----
        seal(&mut out, evidence.proofs, g, now, rec);
        // Bank completed partials whose host is alive. Under Mandatory
        // proofs, evidence-tainted partials never bank.
        for (i, v) in run.values.into_iter().enumerate() {
            let Some(v) = v else { continue };
            let loc = plan.ops[i].output_location();
            if Some(loc) == crashed
                || dead.contains(&loc)
                || (mandatory && !evidence.taints[i].is_empty())
            {
                continue;
            }
            let key = (loc.0, vecs[i].clone());
            if cfg.proof.active() {
                pool.taint.insert(key.clone(), evidence.taints[i].clone());
                pool.origin.insert(key.clone(), (g, i));
            }
            pool.values.insert(key, v);
        }
        if let Some(n) = crashed {
            dead.push(n);
            pool.purge(n.0);
        }
        if mandatory {
            for &n in &evidence.dishonest {
                rec.record(Event::HelperAccused {
                    node: n,
                    gen: g,
                    t: now,
                });
                tracker.accuse(n);
                out.accusations += 1;
                pool.purge(n);
            }
        }
        out.generations.push(record);

        if straggler.is_none() {
            if let Some(n) = crashed {
                // The dead helper's block joins the failure set.
                failed.push(
                    ctx.placement
                        .block_on(n)
                        .expect("crash candidates host blocks"),
                );
                if failed.len() > ctx.params().k {
                    return Err(Unrecoverable(format!(
                        "supervise: {} failures exceed k = {} — stripe unrecoverable",
                        failed.len(),
                        ctx.params().k
                    )));
                }
            }
            out.replans += 1;
            check_deadline(cfg, now, &mut out.deadline_hit, rec);
            // Tier ladder: replan budget first, deadline breach second.
            let excess = out.replans.saturating_sub(cfg.max_replans);
            let mut next_tier = match excess {
                0 => Tier::Full,
                1 => Tier::Traditional,
                _ => Tier::DegradedRead,
            };
            if out.deadline_hit && next_tier < Tier::Traditional {
                next_tier = Tier::Traditional;
            }
            if next_tier > tier {
                rec.record(Event::DegradedFallback {
                    tier: next_tier.name().to_string(),
                    reason: if out.deadline_hit && excess == 0 {
                        "deadline exceeded".to_string()
                    } else {
                        format!("replan budget ({}) exhausted", cfg.max_replans)
                    },
                    t: now,
                });
                tier = next_tier;
            }
            ctx_g = next_context(ctx, &failed, plan.recovery, tier, &dead);
        }

        // Plan the next generation around the dead, accused, quarantined
        // and straggling nodes, reusing the pool.
        let mut avoid = quarantined(tracker);
        if let Some((_, n)) = straggler.filter(|(_, n)| !avoid.contains(n)) {
            avoid.push(n);
        }
        avoid.retain(|n| !dead.contains(n));
        let rep = plan_with_pool(&ctx_g.clone().with_avoided(avoid), &pool.values, tier)
            .or_else(|_| plan_with_pool(&ctx_g, &pool.values, tier))
            .map_err(Unrecoverable)?;
        out.reused_ops += rep.reused_count();
        if let Some((i, slow_node)) = straggler {
            // The alternative runs as the next generation; it wins if it
            // completes the repair.
            let hedge_node = hedge_node(&rep.plan, ctx.topo, slow_node);
            let label = format!("p{g}op{i}:send");
            rec.record(Event::HedgeLaunched {
                label: label.clone(),
                slow_node: slow_node.0,
                hedge_node,
                multiple: cfg.hedge.expect("a cancelled generation was hedged"),
                t: now,
            });
            out.hedges += 1;
            hedge_pending = Some((label, hedge_node));
        } else {
            rec.record(Event::Replanned {
                scheme: rep.plan.scheme.to_string(),
                failed: failed.len(),
                reused_ops: rep.reused_count(),
                t: now,
            });
            backend.backoff(now, cfg.policy.delay(out.replans - 1));
        }
        prev_senders = Some(cross_senders(&plan, ctx.topo));
        (plan, reused, lowered) = (rep.plan, rep.reused, rep.lowered);
        tracker.tick_generation();
    }
    Err(Unrecoverable(format!(
        "supervision loop exceeded {max_generations} generations"
    )))
}

/// Record a generation's proofs: each seals into the ledger with a
/// `proof_emitted` event, plus `proof_rejected` when its output
/// disagrees with the expected witness.
fn seal(
    out: &mut SuperviseOutcome,
    proofs: Vec<RepairProof>,
    g: usize,
    now: f64,
    rec: &dyn Recorder,
) {
    for proof in proofs {
        let (op, node, honest) = (proof.op, proof.node, proof.honest_output());
        out.ledger.push(g, proof);
        out.proofs_emitted += 1;
        rec.record(Event::ProofEmitted {
            op,
            node,
            gen: g,
            t: now,
        });
        if !honest {
            out.proofs_rejected += 1;
            rec.record(Event::ProofRejected {
                op,
                node,
                gen: g,
                t: now,
            });
        }
    }
}
