//! The threaded multi-device cluster: admission, per-device execution
//! threads, and the ticket each caller waits on.
//!
//! Thread structure (all plain OS threads, spawned at construction):
//!
//! ```text
//!  producers ──submit(batch)──▶ sim-cost placer (argmin over devices of
//!                               backlog + predicted_us, both from the
//!                               per-arch analytical simulator)
//!                                   │ ClusterJob
//!              ┌────────────────────┼─────────────────────┐
//!         device 0 queue       device 1 queue        device D-1 queue
//!         (bounded)            (bounded)             (bounded)
//!              │                    │                      │
//!         workers 0..W         workers 0..W           workers 0..W
//!         session.plan ──▶ framework.execute (functional, bitwise-exact)
//!              ▲                    │
//!              └── work stealing: an idle device pulls the front batch
//!                  of the most-backlogged peer when the model says it
//!                  finishes sooner there than it would start here
//! ```
//!
//! This module is a thin driver over the scheduling core
//! ([`crate::core`]): every placement, steal, re-route, breaker drain,
//! kill and degraded fallback is the core's decision, made through the
//! [`Pool`] view `Threads` gives it of the atomics and locked queues
//! below. What lives here is the thread plumbing — queues, tickets, and
//! real, panic-isolated planning and execution.
//!
//! **Placement contract:** every admitted batch is predicted on every
//! live device through the shared [`ctb_core::PlanShare`] simulation
//! memo (predictions are cached; after the first sighting of a shape
//! signature a placement costs hash lookups, not simulator runs) and
//! queued on the device with the earliest predicted completion.
//!
//! **Failure contract:** device workers never die and never drop a
//! ticket. A planning failure or executor panic on one device re-routes
//! the batch to a surviving device (bounded by
//! [`ClusterConfig::max_reroutes`]); consecutive failures trip the
//! device's circuit breaker, which drains its queue onto survivors and
//! sidelines it from placement until its open window is consumed.
//! When no device can take a batch, it executes inline on the per-kernel
//! default baseline and is tagged degraded. Results are bitwise-exact on
//! every path — coordinated on any architecture, stolen, re-routed, or
//! degraded — because every executor replays the identical ascending-k
//! accumulation per GEMM.
//!
//! **Shutdown contract:** [`Cluster::shutdown`] stops admissions, lets
//! every device drain its queue, joins all workers and returns the final
//! [`ClusterStats`]. Re-routes racing a shutdown resolve inline through
//! the degraded path instead of being dropped.

use crate::core::{self, End, Job, PlaceFail, Policy, Pool, Tally, TALLIES};
use crate::placer::LocalityPolicy;
use crate::stats::{AtomicF64, ClusterInner, ClusterStats};
use ctb_core::{Framework, PlanShare, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{GemmBatch, GemmShape, MatF32};
use ctb_obs::{Obs, PointKind, SpanKind};
use ctb_serve::{
    panic_message, BoundedQueue, Breaker, BreakerPolicy, FaultInjector, FaultSite, PushError,
    INJECTED_DEGRADED_PANIC_MSG, INJECTED_PANIC_MSG,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Work-stealing policy.
#[derive(Debug, Clone)]
pub struct StealPolicy {
    /// Master switch; disabled, idle devices simply block on their own
    /// queue.
    pub enabled: bool,
    /// Minimum predicted backlog (µs of simulated work) a victim must
    /// carry before a thief will consider it — below this, moving a
    /// batch cannot shorten the makespan enough to bother.
    pub min_victim_backlog_us: f64,
    /// How long an idle worker waits on its own queue before looking
    /// for a victim.
    pub poll: Duration,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            enabled: true,
            min_victim_backlog_us: 50.0,
            poll: Duration::from_millis(1),
        }
    }
}

/// Cluster tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Executor threads per device.
    pub workers_per_device: usize,
    /// Per-device queue bound; the placer spills to the next-best
    /// device when the best one is full, and `submit` applies
    /// backpressure when every queue is.
    pub queue_capacity: usize,
    /// Work-stealing policy.
    pub steal: StealPolicy,
    /// Per-device circuit-breaker policy (same semantics as the
    /// single-device server's).
    pub breaker: BreakerPolicy,
    /// Times one batch may be moved between devices (re-routes after
    /// failures, breaker drains, kills) before it falls back to the
    /// inline degraded baseline.
    pub max_reroutes: u32,
    /// Locality-aware candidate ranking. On by default; a no-op on
    /// single-chiplet pools (the penalty is exactly zero there).
    pub locality: LocalityPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers_per_device: 1,
            queue_capacity: 64,
            steal: StealPolicy::default(),
            breaker: BreakerPolicy::default(),
            max_reroutes: 3,
            locality: LocalityPolicy::default(),
        }
    }
}

/// Why a batch did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Batch failed validation at submit time.
    Invalid(String),
    /// The cluster no longer accepts batches.
    ShuttingDown,
    /// No device could plan the batch (typed planner error surface).
    PlanFailed(String),
    /// A worker panicked and every recovery path (re-route, degraded
    /// baseline) also failed. The panic was isolated; the worker
    /// survived.
    WorkerPanic(String),
    /// [`BatchTicket::wait_for`] gave up before the cluster completed
    /// the batch. The batch is still in flight.
    WaitTimeout,
    /// The cluster dropped the response channel without completing the
    /// batch — must not happen while the drain contract holds.
    Disconnected,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Invalid(m) => write!(f, "invalid batch: {m}"),
            ClusterError::ShuttingDown => write!(f, "cluster shutting down"),
            ClusterError::PlanFailed(m) => write!(f, "no device could plan: {m}"),
            ClusterError::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            ClusterError::WaitTimeout => write!(f, "gave up waiting for the response"),
            ClusterError::Disconnected => write!(f, "cluster dropped the batch"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A completed batch: the computed `C` matrices plus routing provenance.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// One output per GEMM in the batch, in submission order. Bitwise
    /// identical regardless of which device (or the degraded baseline)
    /// produced them.
    pub results: Vec<MatF32>,
    /// Device that executed the batch (for the degraded path: the
    /// device whose architecture parametrised the baseline).
    pub device: usize,
    /// The placer's predicted simulated time on the executing device,
    /// µs (re-predicted on steal/re-route).
    pub predicted_us: f64,
    /// Simulated execution time reported by the device, µs (0 on the
    /// degraded path, which bypasses the coordinated simulator).
    pub simulated_us: f64,
    /// End-to-end wall latency from submission, µs.
    pub wall_us: f64,
    /// `true` when the per-kernel default baseline produced the result.
    pub degraded: bool,
    /// `true` when a work-steal moved the batch off its placed device.
    pub stolen: bool,
    /// Times the batch was re-routed after device failures/kills.
    pub reroutes: u32,
}

/// Handle to one in-flight batch.
#[derive(Debug)]
pub struct BatchTicket {
    rx: mpsc::Receiver<Result<ClusterResult, ClusterError>>,
}

impl BatchTicket {
    /// Block until the cluster completes the batch.
    pub fn wait(self) -> Result<ClusterResult, ClusterError> {
        self.rx.recv().map_err(|_| ClusterError::Disconnected)?
    }

    /// Block at most `timeout`; [`ClusterError::WaitTimeout`] after.
    pub fn wait_for(self, timeout: Duration) -> Result<ClusterResult, ClusterError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ClusterError::WaitTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClusterError::Disconnected),
        }
    }

    /// Non-blocking poll; `None` while the batch is in flight.
    pub fn poll(&self) -> Option<Result<ClusterResult, ClusterError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ClusterError::Disconnected)),
        }
    }
}

/// What a threaded job carries besides its routing state.
struct Ticket {
    batch: GemmBatch,
    tx: mpsc::Sender<Result<ClusterResult, ClusterError>>,
    submitted: Instant,
}

/// One batch in flight inside the cluster.
type ClusterJob = Job<Ticket>;

/// One simulated GPU: its own architecture, planning session (cache
/// shared pool-wide through [`PlanShare`]), bounded queue, breaker and
/// optional chaos schedule.
struct Device {
    session: Arc<Session>,
    queue: BoundedQueue<ClusterJob>,
    /// Predicted µs of work queued or running here (advisory).
    backlog_us: AtomicF64,
    /// Accumulated simulated execution µs (the makespan ingredient).
    busy_sim_us: AtomicF64,
    alive: AtomicBool,
    breaker: Breaker,
    fault: Option<Arc<FaultInjector>>,
    tally: [AtomicUsize; TALLIES],
}

impl Device {
    fn arch(&self) -> &ArchSpec {
        self.session.framework().arch()
    }

    fn roll(&self, site: FaultSite) -> bool {
        self.fault.as_ref().is_some_and(|f| f.roll(site))
    }
}

struct Shared {
    cfg: ClusterConfig,
    devices: Vec<Device>,
    share: Arc<PlanShare>,
    closed: AtomicBool,
    stats: ClusterInner,
    /// The observability seam; `None` (the default) costs one
    /// discriminant test per site.
    obs: Option<Arc<Obs>>,
    /// Job-id source for trace linkage.
    job_ids: AtomicU64,
}

/// A running multi-device cluster. Cheap to share: wrap it in an `Arc`
/// and hand clones to every producer thread.
pub struct Cluster {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Spawn a cluster over `pool` (one simulated device per spec; see
    /// [`ArchSpec::pool_presets`] for the canonical heterogeneous pool).
    pub fn new(pool: Vec<ArchSpec>, cfg: ClusterConfig) -> Self {
        let n = pool.len();
        Cluster::with_faults(pool, cfg, vec![None; n])
    }

    /// Spawn a cluster with a chaos schedule per device (`None` entries
    /// run fault-free). `faults` must match `pool` in length.
    pub fn with_faults(
        pool: Vec<ArchSpec>,
        cfg: ClusterConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> Self {
        Cluster::with_instrumentation(pool, cfg, faults, None)
    }

    /// Spawn a cluster with an observability bus installed: placement,
    /// stealing, re-routing, device kills and per-device plan/exec
    /// activity all land in one shared trace.
    pub fn with_observer(pool: Vec<ArchSpec>, cfg: ClusterConfig, obs: Arc<Obs>) -> Self {
        let n = pool.len();
        Cluster::with_instrumentation(pool, cfg, vec![None; n], Some(obs))
    }

    /// Spawn a cluster with any combination of per-device chaos
    /// schedules and the observability bus — the chaos suites use both
    /// at once and reconcile the trace against the fault logs exactly.
    pub fn with_instrumentation(
        pool: Vec<ArchSpec>,
        cfg: ClusterConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        assert!(!pool.is_empty(), "a cluster needs at least one device");
        assert_eq!(pool.len(), faults.len(), "one fault schedule slot per device");
        let share = Arc::new(PlanShare::new());
        let devices: Vec<Device> = pool
            .into_iter()
            .zip(faults)
            .map(|(arch, fault)| Device {
                session: {
                    let s = Session::with_share(Framework::new(arch), Arc::clone(&share));
                    Arc::new(match &obs {
                        Some(o) => s.with_obs(Arc::clone(o)),
                        None => s,
                    })
                },
                queue: BoundedQueue::new(cfg.queue_capacity),
                backlog_us: AtomicF64::default(),
                busy_sim_us: AtomicF64::default(),
                alive: AtomicBool::new(true),
                breaker: Breaker::new(cfg.breaker.clone()),
                fault,
                tally: Default::default(),
            })
            .collect();
        let shared = Arc::new(Shared {
            devices,
            share,
            closed: AtomicBool::new(false),
            stats: ClusterInner::default(),
            obs,
            job_ids: AtomicU64::new(0),
            cfg,
        });
        let mut workers = Vec::new();
        for dev_idx in 0..shared.devices.len() {
            for _ in 0..shared.cfg.workers_per_device.max(1) {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || worker_loop(&shared, dev_idx)));
            }
        }
        Cluster { shared, workers }
    }

    /// Number of devices in the pool (dead ones included).
    pub fn devices(&self) -> usize {
        self.shared.devices.len()
    }

    /// Architecture name of device `id`.
    pub fn device_name(&self, id: usize) -> &'static str {
        self.shared.devices[id].arch().name
    }

    /// Batches waiting in device `id`'s queue (racy monitoring hook).
    pub fn queue_depth(&self, id: usize) -> usize {
        self.shared.devices[id].queue.len()
    }

    /// Whether device `id` is still accepting placements.
    pub fn is_alive(&self, id: usize) -> bool {
        self.shared.devices[id].alive.load(Ordering::Relaxed)
    }

    /// The cost model's prediction for `shapes` on device `id`:
    /// simulated µs of the coordinated plan, memoized pool-wide. This is
    /// exactly the quantity the placer compares across devices.
    pub fn predicted_us(&self, id: usize, shapes: &[GemmShape]) -> Result<f64, String> {
        core::predict(&self.shared.devices[id].session, shapes).map(|(_, us)| us)
    }

    /// Submit a coordinated batch. Blocks only while *every* device
    /// queue is full (backpressure); once it returns `Ok`, the batch
    /// will be completed — by a result (coordinated or degraded) or a
    /// typed error — even if the cluster is shut down immediately after.
    pub fn submit(&self, batch: GemmBatch) -> Result<BatchTicket, ClusterError> {
        if let Err(m) = batch.validate() {
            return Err(ClusterError::Invalid(m));
        }
        let id = self.shared.job_ids.fetch_add(1, Ordering::Relaxed);
        // Admit is traced *before* placement: once the job lands on a
        // device queue a worker can emit downstream events for it, and
        // the log must never show those ahead of the admission. The
        // synchronous error returns below close the admission with a
        // job-carrying Reject, which the audit treats as terminal.
        let obs = self.shared.obs.as_deref();
        if let Some(o) = obs {
            o.point(PointKind::Admit { req: id });
        }
        let (tx, rx) = mpsc::channel();
        let mut job = Job::new(id, Ticket { batch, tx, submitted: Instant::now() });
        let pool = &mut Threads(&self.shared);
        loop {
            if self.shared.closed.load(Ordering::Relaxed) {
                if let Some(o) = obs {
                    o.point(PointKind::Reject { req: Some(id) });
                }
                return Err(ClusterError::ShuttingDown);
            }
            match pool.place(job, None) {
                Ok(_) => break,
                Err(fail) if fail.any_full => {
                    // Every candidate queue is at capacity: backpressure.
                    job = fail.job;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(PlaceFail { plan_err: Some(m), .. }) => {
                    if let Some(o) = obs {
                        o.point(PointKind::Reject { req: Some(id) });
                    }
                    return Err(ClusterError::PlanFailed(m));
                }
                Err(fail) => {
                    // No live device at all: serve inline through the
                    // degraded baseline rather than dropping the batch.
                    self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                    core::degrade(pool, fail.job);
                    return Ok(BatchTicket { rx });
                }
            }
        }
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(BatchTicket { rx })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn call(&self, batch: GemmBatch) -> Result<ClusterResult, ClusterError> {
        self.submit(batch)?.wait()
    }

    /// Point-in-time accounting across the pool.
    pub fn stats(&self) -> ClusterStats {
        core::stats(&Threads(&self.shared))
    }

    /// The pool-wide plan/simulation share (monitoring hook).
    pub fn share(&self) -> &Arc<PlanShare> {
        &self.shared.share
    }

    /// The attached observability bus, if any.
    pub fn observer(&self) -> Option<&Arc<Obs>> {
        self.shared.obs.as_ref()
    }

    /// Take device `id` out of the pool: no further placements land on
    /// it, its queued batches are re-routed to survivors, and its
    /// workers wind down. Batches *mid-execution* on the device finish
    /// normally (execution is functional — results stay bitwise-exact),
    /// mirroring how a real drain lets in-flight kernels retire.
    pub fn kill_device(&self, id: usize) {
        core::kill(&mut Threads(&self.shared), id);
    }

    /// Stop accepting new batches without waiting for the drain.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Relaxed);
    }

    /// Stop admissions, drain every queued batch, join all workers and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ClusterStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        for dev in &self.shared.devices {
            dev.queue.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The threaded engine as the scheduling core sees it. Every device
/// field is atomic or behind the queue's lock, so a shared reference
/// is all a decision needs — any worker thread may run one.
struct Threads<'a>(&'a Shared);

impl Pool for Threads<'_> {
    type Body = Ticket;
    type Sig = Vec<GemmShape>;
    type PlanErr = String;
    type Out = Vec<MatF32>;

    fn policy(&self) -> Policy {
        let cfg = &self.0.cfg;
        Policy {
            locality: cfg.locality.enabled,
            max_reroutes: cfg.max_reroutes,
            min_victim_backlog_us: cfg.steal.min_victim_backlog_us,
        }
    }

    fn share(&self) -> &PlanShare {
        &self.0.share
    }

    fn stats(&self) -> &ClusterInner {
        &self.0.stats
    }

    fn obs(&self) -> Option<&Arc<Obs>> {
        self.0.obs.as_ref()
    }

    fn len(&self) -> usize {
        self.0.devices.len()
    }

    fn session(&self, d: usize) -> &Session {
        &self.0.devices[d].session
    }

    fn breaker(&self, d: usize) -> &Breaker {
        &self.0.devices[d].breaker
    }

    fn alive(&self, d: usize) -> bool {
        self.0.devices[d].alive.load(Ordering::Relaxed)
    }

    fn mark_dead(&mut self, d: usize) -> bool {
        let dev = &self.0.devices[d];
        // Closing the queue wakes the device's workers (they exit once
        // it is drained) and makes racing placements fail over cleanly.
        let was_alive = dev.alive.swap(false, Ordering::Relaxed);
        dev.queue.close();
        was_alive
    }

    fn backlog(&self, d: usize) -> f64 {
        self.0.devices[d].backlog_us.load()
    }

    fn add_backlog(&mut self, d: usize, delta: f64) {
        self.0.devices[d].backlog_us.add(delta);
    }

    fn busy_us(&self, d: usize) -> f64 {
        self.0.devices[d].busy_sim_us.load()
    }

    fn add_busy(&mut self, d: usize, us: f64) {
        self.0.devices[d].busy_sim_us.add(us);
    }

    fn tally(&self, d: usize) -> [usize; TALLIES] {
        self.0.devices[d].tally.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    fn bump(&mut self, d: usize, t: Tally) {
        self.0.devices[d].tally[t as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn queue_len(&self, d: usize) -> usize {
        self.0.devices[d].queue.len()
    }

    fn try_push(&mut self, d: usize, job: ClusterJob) -> Result<(), (PushError, ClusterJob)> {
        self.0.devices[d].queue.try_push(job)
    }

    fn pop(&mut self, d: usize) -> Option<ClusterJob> {
        self.0.devices[d].queue.pop_if(|_| true)
    }

    fn front_sig(&self, d: usize) -> Option<Vec<GemmShape>> {
        self.0.devices[d].queue.peek_map(|j| j.body.batch.shapes.clone())
    }

    fn pop_if_sig(&mut self, d: usize, sig: &Vec<GemmShape>) -> Option<ClusterJob> {
        self.0.devices[d].queue.pop_if(|j| j.body.batch.shapes == *sig)
    }

    fn sig(job: &ClusterJob) -> &Vec<GemmShape> {
        &job.body.batch.shapes
    }

    fn sig_key(&self, sig: &Vec<GemmShape>) -> (u64, u64) {
        (ctb_core::shape_sig_hash(sig), ctb_core::operand_bytes(sig))
    }

    fn predict(&mut self, sig: &Vec<GemmShape>, d: usize) -> Result<f64, String> {
        core::predict(&self.0.devices[d].session, sig).map(|(_, us)| us)
    }

    fn wall_us(&self, job: &ClusterJob) -> f64 {
        job.body.submitted.elapsed().as_secs_f64() * 1e6
    }

    fn degraded_exec(&mut self, donor: usize, job: &ClusterJob) -> Result<Vec<MatF32>, String> {
        let dev = &self.0.devices[donor];
        let inject = dev.roll(FaultSite::DegradedPanic);
        catch_unwind(AssertUnwindSafe(|| {
            if inject {
                std::panic::panic_any(INJECTED_DEGRADED_PANIC_MSG);
            }
            ctb_baselines::default_functional(dev.arch(), &job.body.batch)
        }))
        .map_err(|payload| panic_message(&*payload))
    }

    fn respond(&mut self, job: ClusterJob, end: End<Vec<MatF32>>) -> bool {
        let r = match end {
            End::Done { device, degraded, simulated_us, wall_us, out } => Ok(ClusterResult {
                results: out,
                device,
                predicted_us: job.predicted_us,
                simulated_us,
                wall_us,
                degraded,
                stolen: job.stolen,
                reroutes: job.attempts,
            }),
            End::Failed(m) => Err(ClusterError::WorkerPanic(m)),
        };
        // An abandoned ticket (receiver dropped) is not an error: the
        // batch still counted as completed.
        job.body.tx.send(r).is_err()
    }
}

fn worker_loop(shared: &Shared, dev_idx: usize) {
    let dev = &shared.devices[dev_idx];
    loop {
        if shared.cfg.steal.enabled {
            match dev.queue.pop_until(Instant::now() + shared.cfg.steal.poll) {
                Ok(Some(job)) => run_job(shared, dev_idx, job),
                Ok(None) => break, // closed and drained
                Err(_timeout) => {
                    if let Some(job) = core::steal(&mut Threads(shared), dev_idx) {
                        run_job(shared, dev_idx, job);
                    }
                }
            }
        } else {
            match dev.queue.pop() {
                Some(job) => run_job(shared, dev_idx, job),
                None => break,
            }
        }
    }
}

fn run_job(shared: &Shared, dev_idx: usize, job: ClusterJob) {
    let dev = &shared.devices[dev_idx];
    let pool = &mut Threads(shared);

    // Injected worker stall (slow-device chaos).
    if let Some(f) = &dev.fault {
        if let Some(delay) = f.roll_slow() {
            std::thread::sleep(delay);
        }
    }

    // Plan — panic-isolated, with injected failures folded in as typed
    // planning errors.
    let planned = if dev.roll(FaultSite::PlanFail) {
        Err("injected planning failure".to_string())
    } else {
        match catch_unwind(AssertUnwindSafe(|| dev.session.plan(&job.body.batch.shapes))) {
            Ok(r) => r,
            Err(payload) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &shared.obs {
                    o.point(PointKind::PanicCaught);
                    o.dump_flight("planner panic");
                }
                Err(format!("planner panicked: {}", panic_message(&*payload)))
            }
        }
    };
    let Ok(plan) = planned else {
        return core::fail(pool, dev_idx, job, false);
    };

    // Execute — panic-isolated; a panic re-routes the batch to a
    // surviving device instead of killing the worker. The span is
    // opened outside the unwind boundary and closed before any panic
    // bookkeeping, so a panicking batch still gets a closed span in the
    // trace (and in any flight dump).
    let exec_guard = shared.obs.as_ref().map(|o| o.span(SpanKind::Exec));
    let inject_panic = dev.roll(FaultSite::ExecPanic);
    let executed = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            std::panic::panic_any(INJECTED_PANIC_MSG);
        }
        dev.session.framework().execute(&job.body.batch, &plan)
    }));
    if let Some(g) = exec_guard {
        g.finish();
    }
    match executed {
        Ok((results, report)) => core::complete(pool, dev_idx, job, report.total_us, results),
        Err(_payload) => core::fail(pool, dev_idx, job, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_matrix::assert_bitwise_eq;

    fn small_pool() -> Vec<ArchSpec> {
        ArchSpec::pool_presets(2)
    }

    fn batch(shapes: &[GemmShape], seed: u64) -> GemmBatch {
        GemmBatch::random(shapes, 1.0, 0.5, seed)
    }

    #[test]
    fn call_returns_bitwise_exact_results() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        let b = batch(&[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)], 7);
        let oracle = b.reference_result_exact();
        let out = cluster.call(b).expect("runs");
        assert!(!out.degraded);
        assert_eq!(out.results.len(), 2);
        assert_bitwise_eq(&oracle, &out.results, "cluster vs exact oracle");
        let stats = cluster.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.degraded, 0);
    }

    #[test]
    fn prediction_matches_execution_exactly_when_not_moved() {
        // The placer's prediction and the executed report read the same
        // deterministic simulator; an unmoved batch must reconcile to
        // zero placement error.
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        for seed in 0..4 {
            let b = batch(&[GemmShape::new(64, 64, 64); 3], seed);
            let out = cluster.call(b).expect("runs");
            assert_eq!(
                out.predicted_us, out.simulated_us,
                "cost model and executor disagree on device {}",
                out.device
            );
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.mean_abs_placement_err_us, 0.0);
    }

    #[test]
    fn invalid_batches_are_rejected_synchronously() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        let bad = GemmBatch {
            shapes: vec![GemmShape::new(4, 4, 4)],
            a: vec![MatF32::zeros(3, 4)], // wrong rows
            b: vec![MatF32::zeros(4, 4)],
            c: vec![MatF32::zeros(4, 4)],
            alpha: 1.0,
            beta: 0.0,
        };
        assert!(matches!(cluster.call(bad), Err(ClusterError::Invalid(_))));
    }

    #[test]
    fn submit_after_close_is_refused() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        cluster.close();
        let b = batch(&[GemmShape::new(16, 16, 16)], 1);
        assert!(matches!(cluster.submit(b), Err(ClusterError::ShuttingDown)));
    }

    #[test]
    fn kill_all_devices_still_serves_degraded() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        cluster.kill_device(0);
        cluster.kill_device(1);
        let b = batch(&[GemmShape::new(32, 32, 32)], 3);
        let oracle = b.reference_result_exact();
        let out = cluster.call(b).expect("degraded path still serves");
        assert!(out.degraded, "no live device: must be the baseline");
        assert_bitwise_eq(&oracle, &out.results, "degraded vs exact oracle");
        let stats = cluster.shutdown();
        assert_eq!(stats.kills, 2);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn kill_is_idempotent() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        cluster.kill_device(1);
        cluster.kill_device(1);
        assert!(!cluster.is_alive(1));
        assert!(cluster.is_alive(0));
        let stats = cluster.shutdown();
        assert_eq!(stats.kills, 1);
    }

    #[test]
    fn plan_cache_is_shared_across_submissions() {
        let cluster = Cluster::new(small_pool(), ClusterConfig::default());
        let shapes = vec![GemmShape::new(40, 56, 72); 2];
        for seed in 0..5 {
            cluster.call(batch(&shapes, seed)).expect("runs");
        }
        let stats = cluster.shutdown();
        // Each device plans the signature at most once (placement
        // predicts on both devices), after which every placement and
        // execution is a cache hit.
        assert!(stats.plan_cache.misses <= 2, "misses = {}", stats.plan_cache.misses);
        assert!(stats.plan_cache.hits >= 8, "hits = {}", stats.plan_cache.hits);
        assert!(stats.sim_memo.hits + stats.sim_memo.misses > 0);
    }

    #[test]
    fn shutdown_drains_queued_batches() {
        // One slow-ish device, several queued batches, immediate
        // shutdown: every ticket must still resolve.
        let cfg = ClusterConfig {
            workers_per_device: 1,
            steal: StealPolicy { enabled: false, ..StealPolicy::default() },
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(vec![ArchSpec::maxwell_m60()], cfg);
        let shapes = vec![GemmShape::new(96, 96, 96); 2];
        let tickets: Vec<_> = (0..8)
            .map(|seed| cluster.submit(batch(&shapes, seed)).expect("admitted"))
            .collect();
        let stats = cluster.shutdown();
        assert_eq!(stats.completed, 8, "drain contract: all batches complete");
        for t in tickets {
            let out = t.wait().expect("completed during drain");
            assert_eq!(out.results.len(), 2);
        }
    }
}
