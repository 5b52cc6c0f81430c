//! The simulator backend of the supervision loop: every generation is
//! lowered onto the `rpr-netsim` flow simulator and run on a virtual
//! clock, bit-deterministically.

use super::{
    hedge_node, median_of, plan_with_pool, send_bytes, supervise, Evidence, Generation,
    GenerationRun, PoolKey, RepairBackend, Splice, SuperviseConfig, SuperviseError,
    SuperviseOutcome,
};
use crate::plan::{Input, Op, Payload, RepairPlan};
use crate::robust::ResolvedFaults;
use crate::scenario::RepairContext;
use crate::sim::{lower_op, lower_plan, network_for};
use crate::trace::{emit_stream_summaries, emit_wave_boundaries, op_span, wave_spans, PlanTagger};
use rpr_faults::{reason, FaultStorm, HealthTracker, RetryPolicy};
use rpr_netsim::{FailSpec, JobId, SimReport, Simulator};
use rpr_obs::{Event, Recorder, Transfer};
use rpr_proof::{symbolic_block_hash, symbolic_output_hash, ProofKey, ProofSource, RepairProof};
use std::collections::HashMap;

/// Time tolerance when comparing simulation instants.
const EPS: f64 = 1e-9;

/// A recorder adapter collecting events into a buffer for replay.
#[derive(Default)]
struct Collect(std::sync::Mutex<Vec<Event>>);

impl Collect {
    fn into_events(self) -> Vec<Event> {
        self.0.into_inner().expect("collector poisoned")
    }
}

impl Recorder for Collect {
    fn record(&self, event: Event) {
        self.0.lock().expect("collector poisoned").push(event);
    }
}

/// Shift every timestamp of an event by `dt` seconds (used to splice a
/// post-replan simulation, which starts its own clock at zero, into the
/// original repair timeline). Durations (`queue_wait`) are unchanged.
fn shift_event(mut event: Event, dt: f64) -> Event {
    match &mut event {
        Event::PlanBuilt { .. } => {}
        Event::TimestepStarted { t, .. }
        | Event::TimestepFinished { t, .. }
        | Event::TransferQueued { t, .. }
        | Event::TransferStarted { t, .. }
        | Event::TransferFailed { t, .. }
        | Event::RetryScheduled { t, .. }
        | Event::HelperCrashed { t, .. }
        | Event::Replanned { t, .. }
        | Event::StreamSummary { t, .. }
        | Event::HedgeLaunched { t, .. }
        | Event::HedgeWon { t, .. }
        | Event::HelperQuarantined { t, .. }
        | Event::DeadlineExceeded { t, .. }
        | Event::DegradedFallback { t, .. }
        | Event::StripeEnqueued { t, .. }
        | Event::StripeAdmitted { t, .. }
        | Event::BandwidthWaited { t, .. }
        | Event::ChurnFailure { t, .. }
        | Event::RiskEscalated { t, .. }
        | Event::StripeLost { t, .. }
        | Event::JournalCheckpoint { t, .. }
        | Event::QosThrottled { t, .. }
        | Event::RequestIssued { t, .. }
        | Event::ProofEmitted { t, .. }
        | Event::ProofRejected { t, .. }
        | Event::HelperAccused { t, .. }
        | Event::RepairDone { t, .. } => *t += dt,
        Event::TransferDone { start, end, .. } | Event::CombineDone { start, end, .. } => {
            *start += dt;
            *end += dt;
        }
        Event::RequestDone {
            first_byte: _,
            issued,
            end,
            ..
        } => {
            *issued += dt;
            *end += dt;
        }
    }
    event
}

/// Apply resolved derates and per-op attempt failures to a fresh
/// simulator. `first_jobs` yields each plan op's first chunk job, or
/// `None` for ops not lowered this run. Attempt faults land on the op's
/// *first* chunk: corruption is detected at the first verified chunk and
/// a stream resumes from its last verified chunk, so only that chunk's
/// latency is re-paid.
fn arm_simulator(
    sim: &mut Simulator,
    first_jobs: impl Iterator<Item = Option<JobId>>,
    faults: &ResolvedFaults,
    policy: &RetryPolicy,
) {
    for &(node, factor) in &faults.slow {
        sim.derate_node(node, factor);
    }
    for (fs, job) in faults.op_faults.iter().zip(first_jobs) {
        let Some(job) = job.filter(|_| !fs.is_empty()) else {
            continue;
        };
        let specs: Vec<FailSpec> = fs
            .iter()
            .enumerate()
            .map(|(a, f)| FailSpec {
                fraction: f.fraction,
                delay: policy.delay(a),
                reason: f.reason.to_string(),
            })
            .collect();
        sim.fail_attempts(job, specs);
    }
}

/// Lower only the `lowered` ops of a plan, wiring dependencies through
/// whatever subset exists (reused deps vanish — their payloads are
/// already at hand).
fn lower_partial(
    sim: &mut Simulator,
    plan: &RepairPlan,
    lowered: &[bool],
    cost: &crate::cost::CostModel,
    node_count: usize,
    tag: usize,
    chunk: Option<u64>,
) -> Vec<Option<Vec<JobId>>> {
    let mut matrix_paid = vec![false; node_count];
    let mut jobs: Vec<Option<Vec<JobId>>> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        if !lowered[i] {
            jobs.push(None);
            continue;
        }
        let data = op.dependencies();
        let data_jobs: Vec<Vec<JobId>> = data.iter().filter_map(|d| jobs[d.0].clone()).collect();
        let ordering_jobs: Vec<Vec<JobId>> = plan
            .deps_of(i)
            .iter()
            .filter(|d| !data.contains(d))
            .filter_map(|d| jobs[d.0].clone())
            .collect();
        jobs.push(Some(lower_op(
            sim,
            plan,
            i,
            cost,
            &mut matrix_paid,
            tag,
            &data_jobs,
            &ordering_jobs,
            chunk,
        )));
    }
    jobs
}

/// Which executed ops finished at or before `t`.
fn completed_at(report: &SimReport, jobs: &[Option<Vec<JobId>>], t: f64) -> Vec<bool> {
    jobs.iter()
        .map(|js| {
            js.as_ref()
                .is_some_and(|js| op_span(report, js).1 <= t + EPS)
        })
        .collect()
}

/// Per op: how long each executed send flagged in `done` took.
fn send_durations(
    plan: &RepairPlan,
    jobs: &[Option<Vec<JobId>>],
    report: &SimReport,
    done: &[bool],
) -> Vec<Option<f64>> {
    plan.ops
        .iter()
        .zip(jobs)
        .zip(done)
        .map(|((op, js), &done)| match (op, js) {
            (Op::Send { .. }, Some(js)) if done => {
                let (start, finish) = op_span(report, js);
                Some(finish - start)
            }
            _ => None,
        })
        .collect()
}

/// Find the worst straggling send: one whose duration exceeds
/// `multiple` times its peer-group median. Peers are the send's wave
/// when the wave has at least two sends, otherwise its whole link class
/// (all cross sends, or all inner sends — peers move the same block
/// size over the same link class). Returns `(op, straggler start,
/// detection instant)` where detection fires at
/// `start + multiple * median` — the earliest moment the supervisor can
/// *know* the transfer is late.
fn find_straggler(
    plan: &RepairPlan,
    waves: &[Option<usize>],
    jobs: &[Option<Vec<JobId>>],
    report: &SimReport,
    multiple: f64,
) -> Option<(usize, f64, f64)> {
    let mut sends: Vec<(usize, Option<usize>, f64, f64)> = Vec::new(); // (op, wave, start, dur)
    for (i, op) in plan.ops.iter().enumerate() {
        let Some(js) = &jobs[i] else { continue };
        if !matches!(op, Op::Send { .. }) {
            continue;
        }
        let (start, finish) = op_span(report, js);
        sends.push((i, waves[i], start, finish - start));
    }
    let mut best: Option<(f64, usize, f64, f64)> = None;
    for &(i, w, start, dur) in &sends {
        // Peer group, always excluding the candidate itself (a 10x
        // outlier must not drag its own baseline up): the send's wave
        // when it has company there, else its whole link class —
        // single-failure pipelines ship one cross block per wave, so
        // waves alone are no peer group.
        let mut peers: Vec<f64> = sends
            .iter()
            .filter(|&&(pi, pw, _, _)| pi != i && w.is_some() && pw == w)
            .map(|&(.., d)| d)
            .collect();
        if peers.is_empty() {
            peers = sends
                .iter()
                .filter(|&&(pi, pw, _, _)| pi != i && pw.is_some() == w.is_some())
                .map(|&(.., d)| d)
                .collect();
        }
        if peers.is_empty() {
            continue;
        }
        let median = median_of(&mut peers);
        if median <= 0.0 {
            continue;
        }
        if dur > multiple * median {
            let excess = dur / median;
            if best.as_ref().is_none_or(|&(e, ..)| excess > e) {
                best = Some((excess, i, start, start + multiple * median));
            }
        }
    }
    best.map(|(_, i, start, detect)| (i, start, detect))
}

/// The transfer descriptor of send op `i` under `tag`, for failure
/// events emitted by the supervisor itself.
fn send_xfer(
    plan: &RepairPlan,
    ctx: &RepairContext<'_>,
    waves: &[Option<usize>],
    tag: usize,
    i: usize,
) -> Transfer {
    let Op::Send { from, to, .. } = &plan.ops[i] else {
        unreachable!("supervisor failure events target sends");
    };
    Transfer {
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

/// Per-op taint sets for one generation: the sorted `(gen, op)` lie
/// sites corrupting each op's output. Taint enters at a lying send and
/// flows through every data dependency — cut-through folding means one
/// lied block poisons the whole downstream partial-sum chain — and
/// through pool reuse (a banked partial carries the taint it was
/// produced with).
fn gen_taints(
    plan: &RepairPlan,
    lies: &[usize],
    reused_keys: &[Option<PoolKey>],
    pool_taint: &HashMap<PoolKey, Vec<(usize, usize)>>,
    g: usize,
) -> Vec<Vec<(usize, usize)>> {
    let mut taints: Vec<Vec<(usize, usize)>> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        let mut t: Vec<(usize, usize)> = match &reused_keys[i] {
            Some(key) => pool_taint.get(key).cloned().unwrap_or_default(),
            None => {
                let mut t = Vec::new();
                for d in op.dependencies() {
                    t.extend(taints[d.0].iter().copied());
                }
                if lies.contains(&i) {
                    t.push((g, i));
                }
                t
            }
        };
        t.sort_unstable();
        t.dedup();
        taints.push(t);
    }
    taints
}

/// The proof inputs of op `i`: one `(source, hash)` pair per consumed
/// value, in consumption order. Blocks that arrive via a send reference
/// the send op (its output is what was actually consumed); locally-read
/// blocks reference the stripe block itself.
fn proof_inputs(
    key: ProofKey,
    plan: &RepairPlan,
    i: usize,
    vecs: &[Vec<u8>],
    taints: &[Vec<(usize, usize)>],
) -> Vec<(ProofSource, u128)> {
    let op_hash = |s: usize| symbolic_output_hash(key, &vecs[s], &taints[s]);
    match &plan.ops[i] {
        Op::Send { what, .. } => match what {
            Payload::Block(b) => vec![(ProofSource::Block(b.0), symbolic_block_hash(key, b.0))],
            Payload::Intermediate(src) => vec![(ProofSource::Op(src.0), op_hash(src.0))],
        },
        Op::Combine { inputs, .. } => inputs
            .iter()
            .map(|inp| match inp {
                Input::Block { via: Some(v), .. } => (ProofSource::Op(v.0), op_hash(v.0)),
                Input::Block {
                    block, via: None, ..
                } => (
                    ProofSource::Block(block.0),
                    symbolic_block_hash(key, block.0),
                ),
                Input::Intermediate(src) => (ProofSource::Op(src.0), op_hash(src.0)),
            })
            .collect(),
    }
}

/// The `rpr-netsim` backend. Each generation starts its own simulation
/// at zero; `t_base` splices it onto the repair's virtual timeline.
struct SimBackend {
    /// Whole-repair deadline, decomposed into per-wave budgets.
    deadline: Option<f64>,
    /// Virtual time at which the next generation starts.
    t_base: f64,
    /// Per-wave spans of the fault-free generation-0 run, and its
    /// makespan: the per-wave deadline budgets.
    clean_spans: Vec<(f64, f64)>,
    clean_total: f64,
    /// The last crash-free generation's run, kept for the wave
    /// boundaries, stream summaries and per-wave deadline checks a
    /// completing generation emits.
    closing: Option<Closing>,
}

/// A finished simulation on the repair timeline: the generation's own
/// run, or the hedge alternative that won it.
struct Closing {
    /// The hedge alternative's plan; `None` for the generation's own.
    alt: Option<RepairPlan>,
    /// Label tag (`p{tag}op{i}`) of the run's ops.
    tag: usize,
    /// Repair-timeline instant the run's clock started at.
    t_base: f64,
    waves: Vec<Option<usize>>,
    wave_count: usize,
    jobs: Vec<Option<Vec<JobId>>>,
    report: SimReport,
}

impl SimBackend {
    /// Hedge a straggling send by running the alternative as a
    /// counterfactual from the detection instant: a pool-reusing replan
    /// that avoids the straggler, banked with everything the original
    /// finished by detection. Returns the splice; the alternative's
    /// events on the repair timeline (empty unless it won); the instant
    /// the original's events are cut at (never, unless it won); and the
    /// generation's makespan. A winning alternative becomes the
    /// generation's [`Closing`].
    fn splice(
        &mut self,
        gen: &Generation<'_, '_, ()>,
        multiple: f64,
        waves: &[Option<usize>],
        jobs: &[Option<Vec<JobId>>],
        report: &SimReport,
        rec: &dyn Recorder,
    ) -> Option<(Splice, Vec<Event>, f64, f64)> {
        let (plan, ctx, g) = (gen.plan, gen.ctx, gen.index);
        let (slow_i, _, detect) = find_straggler(plan, waves, jobs, report, multiple)?;
        let Op::Send {
            from: slow_node, ..
        } = plan.ops[slow_i]
        else {
            unreachable!("stragglers are sends");
        };
        let done_at_detect = completed_at(report, jobs, detect);
        let mut hedge_pool = gen.pool.values.clone();
        for (i, done) in done_at_detect.iter().enumerate() {
            let loc = plan.ops[i].output_location();
            if *done && !gen.dead.contains(&loc) {
                hedge_pool.insert((loc.0, gen.vecs[i].clone()), ());
            }
        }
        let mut avoid = gen.quarantined.to_vec();
        if !avoid.contains(&slow_node) {
            avoid.push(slow_node);
        }
        avoid.retain(|n| !gen.dead.contains(n));
        // Hedge only if an alternative exists without the slow node — no
        // unfiltered fallback here, that would just rebuild the same
        // straggling plan.
        let hrep = plan_with_pool(&ctx.clone().with_avoided(avoid), &hedge_pool, gen.tier).ok()?;
        let hedge_node = hedge_node(&hrep.plan, ctx.topo, slow_node);
        let chunk = ctx.effective_chunk();
        let mut hsim = Simulator::new(network_for(ctx));
        let hjobs = lower_partial(
            &mut hsim,
            &hrep.plan,
            &hrep.lowered,
            &ctx.cost,
            ctx.topo.node_count(),
            g + 1,
            chunk,
        );
        for &(node, factor) in &gen.faults.slow {
            hsim.derate_node(node, factor);
        }
        let (hwaves, hwave_count) = hrep.plan.cross_waves(ctx.topo);
        let hbuffer = Collect::default();
        let hreport = hsim.run_recorded(&PlanTagger::new(&hrep.plan, &hwaves, chunk, &hbuffer));
        let label = format!("p{g}op{slow_i}:send");
        rec.record(Event::HedgeLaunched {
            label: label.clone(),
            slow_node: slow_node.0,
            hedge_node,
            multiple,
            t: self.t_base + detect,
        });
        let hedged = detect + hreport.makespan;
        if hedged + EPS >= report.makespan {
            let lost = Splice {
                won: false,
                reused: 0,
                moved: (0, 0),
            };
            return Some((lost, Vec::new(), f64::INFINITY, report.makespan));
        }
        // Adopt the hedged timeline: original events up to detection,
        // then the alternative's.
        let mut events: Vec<Event> = hbuffer
            .into_events()
            .into_iter()
            .map(|e| shift_event(e, self.t_base + detect))
            .collect();
        events.push(Event::HedgeWon {
            label,
            winner_node: hedge_node,
            saved: report.makespan - hedged,
            t: self.t_base + hedged,
        });
        let before = send_bytes(plan, ctx.topo, &done_at_detect);
        let alt = send_bytes(&hrep.plan, ctx.topo, &hrep.lowered);
        let won = Splice {
            won: true,
            reused: hrep.reused_count(),
            moved: (before.0 + alt.0, before.1 + alt.1),
        };
        self.closing = Some(Closing {
            alt: Some(hrep.plan),
            tag: g + 1,
            t_base: self.t_base + detect,
            waves: hwaves,
            wave_count: hwave_count,
            jobs: hjobs,
            report: hreport,
        });
        Some((won, events, detect, hedged))
    }
}

impl RepairBackend for SimBackend {
    type Value = ();
    type Report = ();

    fn start(&mut self, plan: &RepairPlan, ctx: &RepairContext<'_>) -> Result<f64, SuperviseError> {
        // Clean baseline: makespan and per-wave spans (deadline budgets).
        let mut sim = Simulator::new(network_for(ctx));
        let mut paid = vec![false; ctx.topo.node_count()];
        let jobs: Vec<Option<Vec<JobId>>> = lower_plan(
            &mut sim,
            plan,
            &ctx.cost,
            &mut paid,
            0,
            ctx.effective_chunk(),
        )
        .into_iter()
        .map(Some)
        .collect();
        let report = sim.run_recorded(rpr_obs::noop());
        let (waves, wave_count) = plan.cross_waves(ctx.topo);
        self.clean_spans = wave_spans(&waves, wave_count, &jobs, &report);
        self.clean_total = report.makespan.max(EPS);
        Ok(report.makespan)
    }

    fn run(
        &mut self,
        gen: &Generation<'_, '_, ()>,
        rec: &dyn Recorder,
    ) -> Result<GenerationRun<()>, SuperviseError> {
        let (plan, ctx, g) = (gen.plan, gen.ctx, gen.index);
        let chunk = ctx.effective_chunk();
        let (waves, wave_count) = plan.cross_waves(ctx.topo);
        self.closing = None;
        let mut sim = Simulator::new(network_for(ctx));
        let jobs = lower_partial(
            &mut sim,
            plan,
            gen.lowered,
            &ctx.cost,
            ctx.topo.node_count(),
            g,
            chunk,
        );
        let first_jobs = jobs.iter().map(|js| js.as_ref().map(|js| js[0]));
        arm_simulator(&mut sim, first_jobs, gen.faults, gen.policy);
        let buffer = Collect::default();
        let report = sim.run_recorded(&PlanTagger::new(plan, &waves, chunk, &buffer));
        let events = buffer.into_events();
        let values = |done: &[bool]| done.iter().map(|&d| d.then_some(())).collect();

        if let Some(crash) = gen.faults.crash {
            // The crash ends the generation the instant the trigger send
            // starts: only ops finished by then count as completed.
            let trigger = jobs[crash.trigger.0]
                .as_ref()
                .expect("crash triggers target executed ops");
            let t_star = op_span(&report, trigger).0;
            let completed = completed_at(&report, &jobs, t_star);
            let retries = report
                .records
                .iter()
                .map(|r| r.failures.iter().filter(|f| f.at <= t_star + EPS).count())
                .sum();
            for e in events {
                if e.time() <= t_star + EPS {
                    rec.record(shift_event(e, self.t_base));
                }
            }
            let now = self.t_base + t_star;
            rec.record(Event::TransferFailed {
                xfer: send_xfer(plan, ctx, &waves, g, crash.trigger.0),
                attempt: 0,
                reason: reason::NODE_DOWN.to_string(),
                t: now,
            });
            rec.record(Event::HelperCrashed {
                node: crash.node.0,
                rack: ctx.topo.rack_of(crash.node).0,
                t: now,
            });
            return Ok(GenerationRun {
                values: values(&completed),
                send_durations: send_durations(plan, &jobs, &report, &completed),
                end: now,
                retries,
                splice: None,
                cancelled: None,
            });
        }

        let retries = report.records.iter().map(|r| r.failures.len()).sum();
        let spliced = gen
            .hedge
            .and_then(|m| self.splice(gen, m, &waves, &jobs, &report, rec));
        let (cut, makespan) = spliced
            .as_ref()
            .map_or((f64::INFINITY, report.makespan), |s| (s.2, s.3));
        for e in events {
            if e.time() <= cut + EPS {
                rec.record(shift_event(e, self.t_base));
            }
        }
        let splice = spliced.map(|(splice, hedge_events, ..)| {
            for e in hedge_events {
                rec.record(e);
            }
            splice
        });
        let send_durations = send_durations(plan, &jobs, &report, gen.lowered);
        if self.closing.is_none() {
            self.closing = Some(Closing {
                alt: None,
                tag: g,
                t_base: self.t_base,
                waves,
                wave_count,
                jobs,
                report,
            });
        }
        Ok(GenerationRun {
            values: values(gen.lowered),
            send_durations,
            end: self.t_base + makespan,
            retries,
            splice,
            cancelled: None,
        })
    }

    fn evidence(
        &self,
        gen: &Generation<'_, '_, ()>,
        run: &GenerationRun<()>,
        key: ProofKey,
    ) -> Evidence {
        symbolic_evidence(gen, run, key)
    }

    fn backoff(&mut self, now: f64, delay: f64) {
        self.t_base = now + delay;
    }

    fn complete(
        &mut self,
        gen: &Generation<'_, '_, ()>,
        _run: &GenerationRun<()>,
        rec: &dyn Recorder,
    ) -> Result<(), SuperviseError> {
        // The completing run's stream summaries and wave boundaries.
        let c = self
            .closing
            .take()
            .expect("a completing generation ran crash-free");
        let plan = c.alt.as_ref().unwrap_or(gen.plan);
        emit_stream_summaries(
            rec, plan, gen.ctx, &c.waves, &c.jobs, &c.report, c.tag, c.t_base,
        );
        let spans = wave_spans(&c.waves, c.wave_count, &c.jobs, &c.report);
        emit_wave_boundaries(rec, &spans, c.t_base);
        // Per-wave budgets proportional to the clean run's spans.
        let Some(d) = self.deadline else {
            return Ok(());
        };
        for (&(start, finish), &(cs, cf)) in spans.iter().zip(&self.clean_spans) {
            if !start.is_finite() || !cs.is_finite() {
                continue;
            }
            let budget = d * (cf - cs) / self.clean_total;
            let actual = finish - start;
            if actual > budget + EPS {
                rec.record(Event::DeadlineExceeded {
                    scope: "wave".to_string(),
                    budget,
                    elapsed: actual,
                    t: c.t_base + finish,
                });
            }
        }
        Ok(())
    }
}

/// The simulator's proof evidence: symbolic hashes over coefficient
/// vectors and taint sets. One proof per completed op and per pool
/// re-serve (under the `"pool"` algorithm tag, with a
/// [`ProofSource::Pooled`] input naming the generation and op that
/// originally banked the partial); a node is dishonest when one of its
/// completed sends lied.
fn symbolic_evidence(
    gen: &Generation<'_, '_, ()>,
    run: &GenerationRun<()>,
    key: ProofKey,
) -> Evidence {
    let (plan, vecs, g) = (gen.plan, gen.vecs, gen.index);
    let lies = &gen.faults.lies;
    let taints = gen_taints(plan, lies, gen.reused, &gen.pool.taint, g);
    let (chunks, chunk_bytes) = match gen.ctx.effective_chunk() {
        Some(c) if c > 0 && c < plan.block_bytes => (plan.block_bytes.div_ceil(c) as usize, c),
        _ => (1, plan.block_bytes),
    };
    let mut proofs = Vec::new();
    let mut dishonest: Vec<usize> = Vec::new();
    for i in 0..plan.ops.len() {
        let reused = gen.reused[i].as_ref();
        let completed = run.values[i].is_some();
        if reused.is_none() && !completed {
            continue;
        }
        // The node under suspicion: the sender for transfers (it produced
        // the bytes on the wire), the folding node for combines, the
        // hosting node for pool re-serves.
        let node = match (&plan.ops[i], reused) {
            (_, Some(_)) => plan.ops[i].output_location().0,
            (Op::Send { from, .. }, None) => from.0,
            (Op::Combine { node, .. }, None) => node.0,
        };
        let output_hash = symbolic_output_hash(key, &vecs[i], &taints[i]);
        proofs.push(RepairProof {
            op: i,
            node,
            coeffs: vecs[i].clone(),
            inputs: match reused {
                // A re-serve's single input is the banked partial: the
                // provenance edge points at its original producer, and
                // the hash equals this op's own output (a re-serve
                // forwards the banked bytes, taint and all), so audits
                // chase taint back to the liar across generations.
                Some(k) => gen
                    .pool
                    .origin
                    .get(k)
                    .map(|&(gen, op)| vec![(ProofSource::Pooled { gen, op }, output_hash)])
                    .unwrap_or_default(),
                None => proof_inputs(key, plan, i, vecs, &taints),
            },
            output_hash,
            expected_hash: symbolic_output_hash(key, &vecs[i], &[]),
            algorithm: if reused.is_some() { "pool" } else { "sim" }.to_string(),
            chunks,
            chunk_bytes,
        });
        if completed && lies.contains(&i) {
            dishonest.push(node);
        }
    }
    dishonest.sort_unstable();
    dishonest.dedup();
    Evidence {
        proofs,
        taints,
        dishonest,
    }
}

/// Run a supervised repair on the `rpr-netsim` backend: the full
/// supervision loop ([`supervise`]) — multi-crash replanning with pooled
/// partial reuse, hedged transfers, health-aware helper re-selection,
/// and deadline-driven tier degradation — on the virtual clock,
/// bit-deterministically.
///
/// `tracker` persists across calls so a fleet recovery can share one
/// health view; pass [`HealthTracker::with_defaults`] for a one-shot
/// repair. `rec` receives each generation's netsim replay (transfers,
/// combines, `transfer_failed`, `retry_scheduled`, `helper_crashed`),
/// the completing generation's `stream_summary` and
/// `timestep_started`/`timestep_finished` events, and the supervisor
/// vocabulary (see [`supervise`]).
///
/// Returns `Err` when the storm kills more than `k - failed` helpers
/// (unrecoverable), a fault exhausts the retry budget, or no fallback
/// plan validates.
pub fn supervise_injected(
    ctx: &RepairContext<'_>,
    storm: &FaultStorm,
    cfg: &SuperviseConfig,
    tracker: &mut HealthTracker,
    rec: &dyn Recorder,
) -> Result<SuperviseOutcome, String> {
    let mut backend = SimBackend {
        deadline: cfg.deadline,
        t_base: 0.0,
        clean_spans: Vec::new(),
        clean_total: 0.0,
        closing: None,
    };
    supervise(&mut backend, ctx, storm, cfg, tracker, rec)
        .map(|(out, ())| out)
        .map_err(SuperviseError::into_message)
}
