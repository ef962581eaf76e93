//! The scheduling core both cluster engines drive.
//!
//! Every routing decision is written once, here, generic over a small
//! [`Pool`] trait: the placement slate and its ranked spill-down (breaker
//! sidelining included), the locality penalty, the residency
//! claim/commit/restore around a queue push, the re-route budget, the
//! fail/drain/kill tails, steal-victim selection and steal accounting,
//! completion and degraded-path accounting, and [`ClusterStats`]
//! assembly. The threaded [`crate::Cluster`] implements `Pool` over
//! atomics and locked queues, the discrete-event
//! [`crate::EventCluster`] over plain fields — so the two engines make
//! the same decision because they run the same code, not because a
//! test holds two copies in step. What stays in each engine is how
//! work physically moves: threads and tickets in one, the timeline and
//! witnesses in the other.
//!
//! Dispatch is static (one monomorphised copy per engine) and a
//! decision allocates nothing but the exact scan's candidate `Vec`.

use crate::placer::{self, Candidate};
use crate::stats::{ClusterInner, ClusterStats, DeviceStats};
use ctb_core::{CacheStats, OperandHome, PlanShare, Session};
use ctb_matrix::GemmShape;
use ctb_obs::{Obs, PointKind, SpanKind};
use ctb_serve::{Breaker, PushError};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A job in flight: the routing state the core reads and moves, plus
/// the engine's own payload (`body`).
#[derive(Clone, Copy)]
pub(crate) struct Job<B> {
    /// Engine-unique request id; ties the trace's `Admit` to its
    /// terminal event.
    pub id: u64,
    /// Predicted simulated µs on the device currently holding the job
    /// (re-predicted on every steal and re-route).
    pub predicted_us: f64,
    /// Times the job has been moved between devices.
    pub attempts: u32,
    /// A work steal moved the job off its placed device.
    pub stolen: bool,
    pub body: B,
}

impl<B> Job<B> {
    pub(crate) fn new(id: u64, body: B) -> Self {
        Job { id, predicted_us: 0.0, attempts: 0, stolen: false, body }
    }
}

/// Per-device counters, in [`DeviceStats`] (and checkpoint) order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tally {
    Placements,
    Completed,
    Steals,
    ReroutesOut,
    BreakerTrips,
}

/// Number of [`Tally`] counters a device keeps.
pub(crate) const TALLIES: usize = 5;

/// The engine configuration the core reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Rank candidates with the locality penalty.
    pub locality: bool,
    /// Moves a job may make before it degrades.
    pub max_reroutes: u32,
    /// Backlog floor below which a device is never stolen from.
    pub min_victim_backlog_us: f64,
}

/// How a job ended, handed to [`Pool::respond`].
pub(crate) enum End<O> {
    Done { device: usize, degraded: bool, simulated_us: f64, wall_us: f64, out: O },
    /// Terminal failure (degraded-path panic), with its message.
    Failed(String),
}

/// Why a placement attempt found no home; the job rides along to be
/// retried, re-routed or degraded.
pub(crate) struct PlaceFail<P: Pool> {
    pub job: Job<P::Body>,
    /// Some queue was full (backpressure: worth retrying).
    pub any_full: bool,
    /// Every live device failed to plan the shapes.
    pub plan_err: Option<P::PlanErr>,
}

/// One engine's device state, as the core sees it. Device ids are pool
/// indices `0..len()`.
pub(crate) trait Pool: Sized {
    /// The engine's job payload.
    type Body;
    /// What a prediction is keyed by (shapes, or an interned id).
    type Sig;
    /// Why a device could not plan a signature.
    type PlanErr;
    /// What a completed job hands its requester.
    type Out;

    fn policy(&self) -> Policy;
    fn share(&self) -> &PlanShare;
    fn stats(&self) -> &ClusterInner;
    fn obs(&self) -> Option<&Arc<Obs>>;
    fn len(&self) -> usize;
    fn session(&self, d: usize) -> &Session;
    fn breaker(&self, d: usize) -> &Breaker;
    fn alive(&self, d: usize) -> bool;
    /// Take `d` out of placement and close its queue; `false` when it
    /// was already dead.
    fn mark_dead(&mut self, d: usize) -> bool;
    /// Predicted µs queued or running on `d` (may dip below zero).
    fn backlog(&self, d: usize) -> f64;
    fn add_backlog(&mut self, d: usize, delta: f64);
    fn busy_us(&self, d: usize) -> f64;
    fn add_busy(&mut self, d: usize, us: f64);
    fn tally(&self, d: usize) -> [usize; TALLIES];
    fn bump(&mut self, d: usize, t: Tally);
    fn queue_len(&self, d: usize) -> usize;
    fn try_push(&mut self, d: usize, job: Job<Self::Body>)
        -> Result<(), (PushError, Job<Self::Body>)>;
    /// Non-blocking pop of `d`'s front job.
    fn pop(&mut self, d: usize) -> Option<Job<Self::Body>>;
    fn front_sig(&self, d: usize) -> Option<Self::Sig>;
    /// Pop `d`'s front job only if it still carries `sig`.
    fn pop_if_sig(&mut self, d: usize, sig: &Self::Sig) -> Option<Job<Self::Body>>;
    fn sig(job: &Job<Self::Body>) -> &Self::Sig;
    /// `(residency hash, operand bytes)` of a signature.
    fn sig_key(&self, sig: &Self::Sig) -> (u64, u64);
    /// The cost model's µs for `sig` on device `d`.
    fn predict(&mut self, sig: &Self::Sig, d: usize) -> Result<f64, Self::PlanErr>;
    /// Latency of `job` so far, µs.
    fn wall_us(&self, job: &Job<Self::Body>) -> f64;
    /// Run `job` on the per-kernel default baseline parametrised by
    /// `donor`'s architecture (drawing the donor's degraded-panic fault).
    fn degraded_exec(&mut self, donor: usize, job: &Job<Self::Body>) -> Result<Self::Out, String>;
    /// Deliver `job`'s end to its requester; `true` when nobody was
    /// listening any more.
    fn respond(&mut self, job: Job<Self::Body>, end: End<Self::Out>) -> bool;

    /// One placement attempt (the exact scan unless an engine has a
    /// faster equivalent). `Ok` names the device.
    fn place(
        &mut self,
        job: Job<Self::Body>,
        exclude: Option<usize>,
    ) -> Result<usize, PlaceFail<Self>> {
        place_exact(self, job, exclude)
    }
    /// `d`'s backlog or liveness changed.
    fn touched(&mut self, _d: usize) {}
    /// A re-routed job was queued on `d`.
    fn placed(&mut self, _d: usize) {}
    /// `d`'s breaker tripped and its queue was drained.
    fn tripped(&mut self, _d: usize) {}
}

/// The cost model's prediction for `shapes` on `session`'s device:
/// plan through the session (cached pool-wide per planning context),
/// read the chosen candidate's simulated µs back out of the shared memo
/// — best-of-both already simulated the winner, so a warm signature
/// never runs the simulator — and apply the share's calibration.
/// Returns `(model_us, corrected_us)`; an identity (never-calibrated)
/// handle returns the model bit for bit, so uncalibrated pools keep
/// exact prediction == execution parity.
pub(crate) fn predict(session: &Session, shapes: &[GemmShape]) -> Result<(f64, f64), String> {
    let plan = session.plan(shapes)?;
    let fw = session.framework();
    let memo = session.sim_memo();
    let model =
        memo.simulate_solution(fw.arch(), shapes, &plan.solution, plan.heuristic, fw.thresholds());
    let features = ctb_core::selector::features(shapes);
    Ok((model, session.share().calib().correct(fw.arch().name, model, &features)))
}

/// Predict the job on every live device (bar `exclude`), rank by
/// penalty-adjusted completion and land it on the best candidate that
/// is not sidelined and whose queue takes it. A device serving its
/// breaker's open window is sidelined, and each sidelining consumes one
/// open slot, so the device heals after `open_batches` placements
/// routed around it; when *every* candidate is open, routing proceeds
/// on cost alone — a suspect device beats the baseline.
pub(crate) fn place_exact<P: Pool>(
    p: &mut P,
    mut job: Job<P::Body>,
    exclude: Option<usize>,
) -> Result<usize, PlaceFail<P>> {
    let obs = p.obs().cloned();
    let _place = obs.as_deref().map(|o| o.span(SpanKind::Place));
    // One residency snapshot covers the whole slate, so every candidate
    // is judged against the same operand home. Only the penalty reads
    // it, and a blind policy never does.
    let home = p.policy().locality.then(|| {
        let (hash, op_bytes) = p.sig_key(P::sig(&job));
        (p.share().residency_of(hash), op_bytes)
    });
    let mut candidates = Vec::with_capacity(p.len());
    let mut plan_err = None;
    for d in 0..p.len() {
        if Some(d) == exclude || !p.alive(d) {
            continue;
        }
        match p.predict(P::sig(&job), d) {
            Ok(predicted_us) => candidates.push(Candidate {
                device: d,
                backlog_us: p.backlog(d).max(0.0),
                predicted_us,
                penalty_us: home.map_or(0.0, |(h, b)| locality_penalty(p, d, h, b)),
            }),
            Err(e) => plan_err = Some(e),
        }
    }
    if candidates.is_empty() {
        // The planner error is reported only when planning was the
        // reason: some live device bid and all of them failed.
        return Err(PlaceFail { job, any_full: false, plan_err });
    }
    let all_open = candidates.iter().all(|c| p.breaker(c.device).is_open());
    let mut any_full = false;
    for c in placer::rank(candidates) {
        if !all_open && p.breaker(c.device).consume_open() {
            continue;
        }
        match land(p, c.device, job, c.predicted_us) {
            Ok(()) => return Ok(c.device),
            Err((kind, j)) => {
                any_full |= kind == PushError::Full;
                job = j;
            }
        }
    }
    Err(PlaceFail { job, any_full, plan_err: None })
}

/// The locality routing penalty of device `d` when `home` holds the
/// batch's operands: zero on the resident device and on monolithic
/// topologies, otherwise the interposer-crossing cost of staging the
/// remote share of `op_bytes`. Never part of `predicted_us` — it only
/// re-ranks candidates.
fn locality_penalty<P: Pool>(p: &P, d: usize, home: Option<OperandHome>, op_bytes: u64) -> f64 {
    if home.is_some_and(|h| h.device == d) {
        return 0.0;
    }
    let topo = &p.session(d).framework().arch().topology;
    ctb_sim::locality_penalty_us(topo, ctb_sim::remote_operand_bytes(topo, op_bytes))
}

/// Queue `job` on `d` at `predicted_us`. Residency is claimed *before*
/// the push: once the job is in a threaded queue a worker may pop it,
/// fail it and re-route it, and that re-route's claim must observe this
/// landing first. A refused push rolls the claim and the backlog back
/// and hands the job back.
pub(crate) fn land<P: Pool>(
    p: &mut P,
    d: usize,
    mut job: Job<P::Body>,
    predicted_us: f64,
) -> Result<(), (PushError, Job<P::Body>)> {
    job.predicted_us = predicted_us;
    p.add_backlog(d, predicted_us);
    let (hash, op_bytes) = p.sig_key(P::sig(&job));
    let claim = claim_residency(p, d, hash, op_bytes);
    if let Err((kind, job)) = p.try_push(d, job) {
        p.share().restore_residency(hash, claim.prev);
        p.add_backlog(d, -predicted_us);
        return Err((kind, job));
    }
    p.bump(d, Tally::Placements);
    p.stats().routed.fetch_add(1, Ordering::Relaxed);
    if let Some(o) = p.obs() {
        o.point(PointKind::Routed { device: d });
    }
    commit_residency(p, d, &claim);
    p.touched(d);
    Ok(())
}

/// The map half of a residency landing on `d`.
struct ResidencyClaim {
    /// The operands were already on `d`.
    hit: bool,
    /// The home to restore if the push is refused.
    prev: Option<OperandHome>,
    /// Remote share of the operand footprint charged on a miss.
    remote_bytes: u64,
}

/// Land the signature's operands on `d` in one `PlanShare` lock
/// round-trip: a hit when they already live there, otherwise a miss
/// that re-homes them (last writer wins). Runs under aware *and* blind
/// policies, so the locality bench arms differ only in ranking.
fn claim_residency<P: Pool>(p: &P, d: usize, hash: u64, op_bytes: u64) -> ResidencyClaim {
    let topo = &p.session(d).framework().arch().topology;
    let home = OperandHome { device: d, chiplet: topo.home_chiplet(hash) };
    let prev = p.share().rehome_residency(hash, home);
    let hit = prev.is_some_and(|h| h.device == d);
    let remote_bytes = if hit { 0 } else { ctb_sim::remote_operand_bytes(topo, op_bytes) };
    ResidencyClaim { hit, prev, remote_bytes }
}

/// The counters and trace point of a claim whose landing stuck.
fn commit_residency<P: Pool>(p: &P, d: usize, claim: &ResidencyClaim) {
    let stats = p.stats();
    let point = if claim.hit {
        stats.residency_hits.fetch_add(1, Ordering::Relaxed);
        PointKind::ResidencyHit { device: d }
    } else {
        stats.residency_misses.fetch_add(1, Ordering::Relaxed);
        stats.remote_operand_bytes.fetch_add(claim.remote_bytes, Ordering::Relaxed);
        PointKind::ResidencyMiss { device: d }
    };
    if let Some(o) = p.obs() {
        o.point(point);
    }
}

/// Move `job` off `from` after a failure, breaker drain or kill. An
/// exhausted re-route budget or an empty pool degrades — never drops.
pub(crate) fn reroute<P: Pool>(p: &mut P, mut job: Job<P::Body>, from: usize) {
    job.attempts += 1;
    p.stats().reroutes.fetch_add(1, Ordering::Relaxed);
    p.bump(from, Tally::ReroutesOut);
    if let Some(o) = p.obs() {
        o.point(PointKind::Reroute { from });
    }
    if job.attempts > p.policy().max_reroutes {
        return degrade(p, job);
    }
    match p.place(job, Some(from)) {
        Ok(d) => p.placed(d),
        Err(fail) => degrade(p, fail.job),
    }
}

/// Empty `d`'s queue, re-routing every waiting job: queued work must
/// not wait behind a suspect or dead device.
pub(crate) fn drain<P: Pool>(p: &mut P, d: usize) {
    while let Some(job) = p.pop(d) {
        p.add_backlog(d, -job.predicted_us);
        reroute(p, job, d);
    }
    p.touched(d);
}

/// Mark `d` dead, close its queue and account the kill; `false` when it
/// was already dead.
pub(crate) fn retire<P: Pool>(p: &mut P, d: usize) -> bool {
    if !p.mark_dead(d) {
        return false;
    }
    p.stats().kills.fetch_add(1, Ordering::Relaxed);
    if let Some(o) = p.obs() {
        o.point(PointKind::Kill { device: d });
    }
    true
}

/// Kill `d`: retire it and re-route its queue. A job mid-execution
/// finishes where it is.
pub(crate) fn kill<P: Pool>(p: &mut P, d: usize) {
    if retire(p, d) {
        drain(p, d);
    }
}

/// `d`'s attempt at `job` failed — in planning, or by an executor panic
/// (`panicked`). Charge the breaker (a trip drains the queue onto
/// survivors *before* this job moves), release the backlog, re-route.
pub(crate) fn fail<P: Pool>(p: &mut P, d: usize, job: Job<P::Body>, panicked: bool) {
    let stats = p.stats();
    let (counter, point) = match panicked {
        true => (&stats.worker_panics, PointKind::PanicCaught),
        false => (&stats.plan_failures, PointKind::PlanFailure),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if let Some(o) = p.obs() {
        o.point(point);
        if panicked {
            o.dump_flight("worker panic");
        }
    }
    if p.breaker(d).record_failure() {
        p.bump(d, Tally::BreakerTrips);
        p.stats().breaker_trips.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = p.obs() {
            o.point(PointKind::BreakerTrip);
            o.dump_flight("breaker trip");
        }
        drain(p, d);
        p.tripped(d);
    }
    p.add_backlog(d, -job.predicted_us);
    p.touched(d);
    reroute(p, job, d);
}

/// `job` ran to completion on `d` in `simulated_us`.
pub(crate) fn complete<P: Pool>(
    p: &mut P,
    d: usize,
    job: Job<P::Body>,
    simulated_us: f64,
    out: P::Out,
) {
    p.breaker(d).record_success();
    p.add_backlog(d, -job.predicted_us);
    p.add_busy(d, simulated_us);
    p.bump(d, Tally::Completed);
    let stats = p.stats();
    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats.record_placement_err(job.predicted_us, simulated_us);
    let wall_us = p.wall_us(&job);
    p.stats().record_latency(wall_us);
    finish(p, job, End::Done { device: d, degraded: false, simulated_us, wall_us, out });
    p.touched(d);
}

/// Terminal fallback: run `job` on the per-kernel default baseline,
/// parametrised by the strongest live architecture (pools are
/// fastest-first; any architecture yields bitwise-identical results).
/// A panic *here* is terminal.
pub(crate) fn degrade<P: Pool>(p: &mut P, job: Job<P::Body>) {
    let donor = (0..p.len()).find(|&d| p.alive(d)).unwrap_or(0);
    // The span closes before any panic bookkeeping, so a panicking
    // baseline still leaves a closed span behind.
    let obs = p.obs().cloned();
    let span = obs.as_deref().map(|o| o.span(SpanKind::DegradedExec));
    let ran = p.degraded_exec(donor, &job);
    if let Some(g) = span {
        g.finish();
    }
    let end = match ran {
        Ok(out) => {
            let wall_us = p.wall_us(&job);
            let stats = p.stats();
            stats.completed.fetch_add(1, Ordering::Relaxed);
            stats.degraded.fetch_add(1, Ordering::Relaxed);
            stats.record_latency(wall_us);
            End::Done { device: donor, degraded: true, simulated_us: 0.0, wall_us, out }
        }
        Err(msg) => {
            p.stats().worker_panics.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = p.obs() {
                o.point(PointKind::PanicCaught);
                o.dump_flight("degraded worker panic");
            }
            End::Failed(msg)
        }
    };
    finish(p, job, end);
}

/// Respond, then trace the terminal event with the abandoned flag.
fn finish<P: Pool>(p: &mut P, job: Job<P::Body>, end: End<P::Out>) {
    let req = job.id;
    let done = match &end {
        End::Done { device, degraded, .. } => Some((*device, *degraded)),
        End::Failed(_) => None,
    };
    let abandoned = p.respond(job, end);
    if let Some(o) = p.obs() {
        o.point(match done {
            Some((device, degraded)) => PointKind::BatchDone { req, device, degraded, abandoned },
            None => PointKind::Failed { req, abandoned },
        });
    }
}

/// An idle `thief` looks for the most-backlogged live peer (strict `>`,
/// so ties keep the lowest id) and takes its front job when the cost
/// model says the job finishes here before it would even *start*
/// there. The front signature is read, predicted, then claimed with an
/// identity recheck, so a raced queue never yields the wrong job.
/// Returns the claimed, accounted job for the engine to start.
pub(crate) fn steal<P: Pool>(p: &mut P, thief: usize) -> Option<Job<P::Body>> {
    if !p.alive(thief) || p.breaker(thief).is_open() {
        return None;
    }
    let floor = p.policy().min_victim_backlog_us;
    let mut victim: Option<(usize, f64)> = None;
    for d in 0..p.len() {
        if d == thief || !p.alive(d) || p.queue_len(d) == 0 {
            continue;
        }
        let backlog = p.backlog(d).max(0.0);
        if backlog >= floor && victim.is_none_or(|(_, b)| backlog > b) {
            victim = Some((d, backlog));
        }
    }
    let (from, victim_backlog) = victim?;
    let sig = p.front_sig(from)?;
    let predicted_here = p.predict(&sig, thief).ok()?;
    if !placer::steal_beneficial(victim_backlog, predicted_here, floor) {
        return None;
    }
    let mut job = p.pop_if_sig(from, &sig)?;
    p.add_backlog(from, -job.predicted_us);
    p.touched(from);
    job.predicted_us = predicted_here;
    job.stolen = true;
    p.add_backlog(thief, predicted_here);
    p.bump(thief, Tally::Steals);
    p.stats().steals.fetch_add(1, Ordering::Relaxed);
    if let Some(o) = p.obs() {
        o.point(PointKind::Steal { to: thief, from });
    }
    // The steal moves the operands with the work. The job is already
    // popped, so claim and commit run back to back.
    let (hash, op_bytes) = p.sig_key(&sig);
    let claim = claim_residency(p, thief, hash, op_bytes);
    commit_residency(p, thief, &claim);
    p.touched(thief);
    Some(job)
}

/// Point-in-time [`ClusterStats`]: per-device breakdown, plan-cache
/// totals over every session and the shared simulation memo.
pub(crate) fn stats<P: Pool>(p: &P) -> ClusterStats {
    let devices = (0..p.len())
        .map(|d| {
            let [placements, completed, steals, reroutes_out, breaker_trips] = p.tally(d);
            DeviceStats {
                id: d,
                name: p.session(d).framework().arch().name,
                placements,
                completed,
                steals,
                reroutes_out,
                breaker_trips,
                busy_sim_us: p.busy_us(d),
                backlog_us: p.backlog(d).max(0.0),
                queue_depth: p.queue_len(d),
                utilization: 0.0, // filled in by the snapshot
                alive: p.alive(d),
                breaker_open: p.breaker(d).is_open(),
            }
        })
        .collect();
    let mut plan_cache = CacheStats::default();
    for d in 0..p.len() {
        let s = p.session(d).stats();
        plan_cache.hits += s.hits;
        plan_cache.misses += s.misses;
    }
    let memo = p.share().sim_memo();
    let sim_memo = CacheStats { hits: memo.hits(), misses: memo.misses() };
    p.stats().snapshot(devices, plan_cache, sim_memo)
}

#[cfg(test)]
mod tests {
    //! The core against a fake [`Pool`]: plain vectors for device state,
    //! a fixed prediction per device, and a `DeviceQueue` per device —
    //! so each decision is tested on its own, without either engine.

    use super::*;
    use crate::fifo::DeviceQueue;
    use ctb_core::Framework;
    use ctb_gpu_specs::ArchSpec;
    use ctb_serve::BreakerPolicy;

    /// The signature every fake job carries.
    const SIG: u64 = 0xC0FFEE;

    struct FakeDevice {
        session: Session,
        breaker: Breaker,
        queue: DeviceQueue<Job<u64>>,
        alive: bool,
        backlog: f64,
        busy: f64,
        tally: [usize; TALLIES],
        /// What the cost model says a job takes here.
        predicted: f64,
    }

    struct Fake {
        devices: Vec<FakeDevice>,
        share: Arc<PlanShare>,
        stats: ClusterInner,
        policy: Policy,
        /// `(job id, device, degraded)` per completed job, or `None` for
        /// a terminal failure.
        ends: Vec<(u64, Option<(usize, bool)>)>,
    }

    impl Fake {
        /// Devices with the given predictions, queue capacity `cap`.
        fn new(predicted: &[f64], cap: usize) -> Self {
            let share = Arc::new(PlanShare::new());
            let devices = ArchSpec::pool_presets(predicted.len())
                .into_iter()
                .zip(predicted)
                .map(|(arch, &predicted)| FakeDevice {
                    session: Session::with_share(Framework::new(arch), Arc::clone(&share)),
                    breaker: Breaker::new(BreakerPolicy::default()),
                    queue: DeviceQueue::new(cap),
                    alive: true,
                    backlog: 0.0,
                    busy: 0.0,
                    tally: [0; TALLIES],
                    predicted,
                })
                .collect();
            let policy = Policy { locality: true, max_reroutes: 3, min_victim_backlog_us: 50.0 };
            Fake { devices, share, stats: ClusterInner::default(), policy, ends: Vec::new() }
        }

        /// Open `d`'s breaker with `slots` open-window slots.
        fn open(&mut self, d: usize, slots: usize) {
            self.devices[d].breaker = Breaker::restore(BreakerPolicy::default(), 0, slots);
        }

        /// Queue a job straight onto `d`, as an earlier placement would.
        fn preload(&mut self, d: usize, id: u64, predicted_us: f64) {
            let mut job = Job::new(id, SIG);
            job.predicted_us = predicted_us;
            self.devices[d].backlog += predicted_us;
            assert!(self.devices[d].queue.try_push(job).is_ok(), "preload fits");
        }

        fn home(&self) -> Option<usize> {
            self.share.residency_of(SIG).map(|h| h.device)
        }
    }

    impl Pool for Fake {
        type Body = u64;
        type Sig = u64;
        type PlanErr = ();
        type Out = ();

        fn policy(&self) -> Policy {
            self.policy
        }

        fn share(&self) -> &PlanShare {
            &self.share
        }

        fn stats(&self) -> &ClusterInner {
            &self.stats
        }

        fn obs(&self) -> Option<&Arc<Obs>> {
            None
        }

        fn len(&self) -> usize {
            self.devices.len()
        }

        fn session(&self, d: usize) -> &Session {
            &self.devices[d].session
        }

        fn breaker(&self, d: usize) -> &Breaker {
            &self.devices[d].breaker
        }

        fn alive(&self, d: usize) -> bool {
            self.devices[d].alive
        }

        fn mark_dead(&mut self, d: usize) -> bool {
            self.devices[d].queue.close();
            std::mem::replace(&mut self.devices[d].alive, false)
        }

        fn backlog(&self, d: usize) -> f64 {
            self.devices[d].backlog
        }

        fn add_backlog(&mut self, d: usize, delta: f64) {
            self.devices[d].backlog += delta;
        }

        fn busy_us(&self, d: usize) -> f64 {
            self.devices[d].busy
        }

        fn add_busy(&mut self, d: usize, us: f64) {
            self.devices[d].busy += us;
        }

        fn tally(&self, d: usize) -> [usize; TALLIES] {
            self.devices[d].tally
        }

        fn bump(&mut self, d: usize, t: Tally) {
            self.devices[d].tally[t as usize] += 1;
        }

        fn queue_len(&self, d: usize) -> usize {
            self.devices[d].queue.len()
        }

        fn try_push(&mut self, d: usize, job: Job<u64>) -> Result<(), (PushError, Job<u64>)> {
            self.devices[d].queue.try_push(job)
        }

        fn pop(&mut self, d: usize) -> Option<Job<u64>> {
            self.devices[d].queue.pop()
        }

        fn front_sig(&self, d: usize) -> Option<u64> {
            self.devices[d].queue.front().map(|j| j.body)
        }

        fn pop_if_sig(&mut self, d: usize, sig: &u64) -> Option<Job<u64>> {
            self.devices[d].queue.pop_if(|j| j.body == *sig)
        }

        fn sig(job: &Job<u64>) -> &u64 {
            &job.body
        }

        fn sig_key(&self, sig: &u64) -> (u64, u64) {
            (*sig, 1 << 20)
        }

        fn predict(&mut self, _sig: &u64, d: usize) -> Result<f64, ()> {
            Ok(self.devices[d].predicted)
        }

        fn wall_us(&self, _job: &Job<u64>) -> f64 {
            1.0
        }

        fn degraded_exec(&mut self, _donor: usize, _job: &Job<u64>) -> Result<(), String> {
            Ok(())
        }

        fn respond(&mut self, job: Job<u64>, end: End<()>) -> bool {
            let done = match end {
                End::Done { device, degraded, .. } => Some((device, degraded)),
                End::Failed(_) => None,
            };
            self.ends.push((job.id, done));
            false
        }
    }

    fn placements(p: &Fake) -> Vec<usize> {
        p.devices.iter().map(|d| d.tally[Tally::Placements as usize]).collect()
    }

    #[test]
    fn spill_down_passes_a_full_best_queue() {
        // Device 0 is the cheapest but its one slot is taken.
        let mut p = Fake::new(&[10.0, 20.0, 30.0], 1);
        p.preload(0, 99, 10.0);
        assert_eq!(place_exact(&mut p, Job::new(1, SIG), None).ok(), Some(1));
        assert_eq!(p.devices[0].backlog, 10.0, "the refused push's backlog is rolled back");
        assert_eq!(p.devices[1].backlog, 20.0);
        assert_eq!(placements(&p), vec![0, 1, 0]);
        assert_eq!(p.stats.routed.load(Ordering::Relaxed), 1);
        // Every queue full: backpressure, job handed back unmoved.
        p.preload(2, 98, 30.0);
        let fail = place_exact(&mut p, Job::new(2, SIG), None).expect_err("all full");
        assert!(fail.any_full && fail.plan_err.is_none());
        assert_eq!((fail.job.id, fail.job.attempts), (2, 0));
        assert_eq!(placements(&p), vec![0, 1, 0]);
    }

    #[test]
    fn an_open_breaker_gives_up_one_slot_per_sidelining() {
        let mut p = Fake::new(&[10.0, 20.0], 8);
        p.open(0, 2);
        // Two placements route around device 0, each consuming a slot.
        assert_eq!(place_exact(&mut p, Job::new(1, SIG), None).ok(), Some(1));
        assert_eq!(p.devices[0].breaker.state(), (0, 1));
        assert_eq!(place_exact(&mut p, Job::new(2, SIG), None).ok(), Some(1));
        assert!(!p.devices[0].breaker.is_open(), "the last slot closes the breaker");
        // Healed: the cheapest device (backlog 0 + 10 < 40 + 20) wins again.
        assert_eq!(place_exact(&mut p, Job::new(3, SIG), None).ok(), Some(0));
        assert_eq!(placements(&p), vec![1, 2]);
    }

    #[test]
    fn an_all_open_slate_routes_on_cost_alone() {
        let mut p = Fake::new(&[10.0, 20.0], 8);
        p.open(0, 3);
        p.open(1, 3);
        assert_eq!(place_exact(&mut p, Job::new(1, SIG), None).ok(), Some(0));
        // No slot was consumed: nothing was routed around anything.
        assert_eq!(p.devices[0].breaker.state(), (0, 3));
        assert_eq!(p.devices[1].breaker.state(), (0, 3));
    }

    #[test]
    fn a_refused_push_restores_the_residency_it_claimed() {
        let mut p = Fake::new(&[10.0, 20.0], 1);
        // No previous home: a push refused everywhere leaves none.
        p.preload(0, 90, 10.0);
        p.preload(1, 91, 20.0);
        assert!(place_exact(&mut p, Job::new(1, SIG), None).is_err());
        assert_eq!(p.home(), None, "a refused claim must not leave a home behind");
        assert_eq!(p.stats.residency_misses.load(Ordering::Relaxed), 0);
        // A previous home on device 1: device 0 refuses, the claim rolls
        // back, and the landing on device 1 is a hit.
        p.devices[1].queue.pop();
        p.share.note_residency(SIG, OperandHome { device: 1, chiplet: 0 });
        assert_eq!(place_exact(&mut p, Job::new(2, SIG), None).ok(), Some(1));
        assert_eq!(p.home(), Some(1));
        assert_eq!(p.stats.residency_hits.load(Ordering::Relaxed), 1);
        assert_eq!(p.stats.residency_misses.load(Ordering::Relaxed), 0);
        assert_eq!(p.stats.remote_operand_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn steal_victim_ties_keep_the_lowest_id() {
        let mut p = Fake::new(&[10.0, 20.0, 20.0], 8);
        p.preload(1, 1, 100.0);
        p.preload(2, 2, 100.0);
        let job = steal(&mut p, 0).expect("a saturated peer and a faster thief");
        assert_eq!(job.id, 1, "equal backlogs: strict > keeps the lower id");
        assert!(job.stolen);
        assert_eq!(job.predicted_us, 10.0, "re-predicted on the thief");
        assert_eq!((p.devices[0].backlog, p.devices[1].backlog), (10.0, 0.0));
        assert_eq!(p.devices[0].tally[Tally::Steals as usize], 1);
        assert_eq!(p.stats.steals.load(Ordering::Relaxed), 1);
        assert_eq!(p.home(), Some(0), "the operands move with the work");
        // A victim below the floor is left alone.
        let mut p = Fake::new(&[10.0, 20.0], 8);
        p.preload(1, 1, 40.0);
        assert!(steal(&mut p, 0).is_none());
        assert_eq!(p.queue_len(1), 1);
    }

    #[test]
    fn an_exhausted_reroute_budget_degrades() {
        let mut p = Fake::new(&[10.0, 20.0], 8);
        p.policy.max_reroutes = 1;
        // Within budget: the job moves off device 0 to device 1.
        reroute(&mut p, Job::new(1, SIG), 0);
        assert_eq!(p.queue_len(1), 1);
        let mut moved = p.pop(1).expect("re-routed job");
        assert_eq!(moved.attempts, 1);
        p.add_backlog(1, -moved.predicted_us);
        // Its next move runs the budget out although device 0 could
        // take it: the degraded baseline serves it, parametrised by the
        // strongest live device's architecture.
        moved.predicted_us = 20.0;
        reroute(&mut p, moved, 1);
        assert_eq!(p.ends, vec![(1, Some((0, true)))]);
        assert_eq!(p.stats.reroutes.load(Ordering::Relaxed), 2);
        assert_eq!(p.stats.degraded.load(Ordering::Relaxed), 1);
        assert_eq!(p.stats.completed.load(Ordering::Relaxed), 1);
        assert_eq!(p.devices[1].tally[Tally::ReroutesOut as usize], 1);
        assert_eq!(p.queue_len(0) + p.queue_len(1), 0, "degraded, not queued");
    }
}
