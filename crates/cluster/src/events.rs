//! Discrete-event cluster core: the threaded scheduler's decisions
//! without the threads.
//!
//! The threaded [`crate::Cluster`] caps its scaling story at a handful
//! of devices because every simulated GPU owns a real worker pool — host
//! threads, not the analytical model, bound the sweep. This module
//! replaces the thread structure with a single binary-heap timeline in
//! *simulated* time: device count becomes a `Vec` length, and a 10k-
//! device pool processing a million requests is just a larger heap.
//!
//! **One core, two drivers.** Placement, work stealing, breaker trips,
//! kill and drain re-routing, completion and the degraded fallback are
//! not re-implemented here: this engine is a driver over the crate's
//! scheduling core (`core.rs`), which the threaded engine drives too.
//! The engine implements the core's `Pool` trait over plain device
//! fields and a single-threaded `DeviceQueue`, and keeps only what is its
//! own — the timeline, the job slab, fates rolled at job start,
//! witnesses, ground truth, the placement index and savestate. The
//! per-mille [`FaultInjector`] draws happen in the order a serially
//! driven threaded cluster draws them. The lockstep differential suite
//! (`tests/lockstep.rs`) drives both engines over the chaos schedules
//! and compares per-request routing decisions, reconciled
//! [`ClusterStats`] and fault logs.
//!
//! **Witness-subset bitwise checking.** Executing a million GEMM
//! batches functionally would make the host CPU the bottleneck again,
//! so most requests carry only their shape signature: cost comes from
//! the shared `SimMemo` (the identical number the placer compared), and
//! completion is pure accounting. Every `witness_every`-th request is a
//! *witness*: it materializes real matrices from its seed, runs the
//! full coordinated plan through the functional executor, and bitwise-
//! compares against `reference_result_exact`. The bitwise-exactness
//! claim is thus continuously sampled across the run instead of paid on
//! every request.
//!
//! **Determinism.** No wall clock, no OS scheduler: event order is
//! `(SimTime, seq)` where `seq` is a monotonic tie-break assigned at
//! schedule time. The same inputs therefore produce the same event
//! sequence, the same decisions, and — with an [`Obs`] attached — a
//! byte-identical trace (`tests/determinism.rs`).
//!
//! **Hot path.** The per-event path does no hashing, takes no locks
//! of its own and moves no payloads through the heap:
//!
//! * shape signatures are interned once (`submit_at` by content, a
//!   [`LoadGen`]'s mixes when it is attached) into a `SigId`, which
//!   jobs carry instead of an `Arc<[GemmShape]>`; the signature's
//!   residency hash and operand footprint are computed at intern time;
//! * predictions live in a dense `[signature][class]` table read by
//!   the indexed scan, the exact scan and the steal check alike, and
//!   the calibration version is checked once per decision;
//! * device queues are a plain single-threaded FIFO with the locked
//!   `BoundedQueue`'s exact semantics (Full reported before Closed);
//! * timeline entries are 24-byte `(at, seq, key)` triples; jobs of
//!   pending arrivals and placements sit in a slab, a running job in
//!   its device's slot;
//! * the placement index keeps one entry per device (an indexed
//!   min-heap per class), and a landing claims operand residency in
//!   one `PlanShare` lock round-trip (a refused push pays a second to
//!   roll the claim back).
//!
//! None of this changes a decision: the pop order is still
//! `(SimTime, seq)`, each table cell holds the number the hash map
//! held, and the checkpoint writes the same bytes (ids never reach the
//! blob — shapes do). `tests/golden.rs` pins the simulated output and
//! checkpoint hashes captured before the rewrite.

use crate::cluster::{ClusterConfig, StealPolicy};
use crate::core::{self, End, Job, PlaceFail, Policy, Pool, Tally, TALLIES};
use crate::drift::{GroundTruth, PlacementDecision};
use crate::fifo::DeviceQueue;
use crate::index::PlacementIndex;
use crate::placer::{Candidate, LocalityPolicy};
use crate::stats::{ClusterInner, ClusterStats};
use ctb_core::{
    AdmissionPolicy, BatchingPolicy, CacheStats, Framework, FrameworkConfig, PlanShare,
    PlanShareConfig, Session,
};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape, MatF32};
use ctb_obs::{Obs, ObsClock, PointKind, SimClock, SpanKind};
use ctb_savestate::{Reader, SavestateError, Writer};
use ctb_serve::{
    Breaker, BreakerPolicy, FaultConfig, FaultInjector, FaultLog, FaultSite, PushError,
    FAULT_SITES,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matrix fill parameters for witness batches; the lockstep harness
/// builds its threaded-side batches with the same constants so both
/// engines execute byte-identical inputs.
pub const WITNESS_ALPHA: f32 = 1.0;
/// See [`WITNESS_ALPHA`].
pub const WITNESS_BETA: f32 = 0.5;

/// Sim-time backoff before retrying an initial placement when every
/// candidate queue is full — mirrors the threaded `submit` loop's 50 µs
/// backpressure sleep.
const BACKOFF_NS: u64 = 50_000;

/// Healing-probe interval after a breaker trip.
const PROBE_NS: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// SimTime + Timeline
// ---------------------------------------------------------------------------

/// A typed simulated timestamp, in nanoseconds. Nanosecond granularity
/// keeps distinct exponential inter-arrival draws distinct even at a
/// million requests per simulated second; the [`Obs`] clock runs in
/// microseconds, so [`SimTime::as_us`] truncates on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    pub fn plus(self, ns: u64) -> Self {
        SimTime(self.0.saturating_add(ns))
    }

    pub fn as_ns(self) -> u64 {
        self.0
    }

    pub fn as_us(self) -> u64 {
        self.0 / 1_000
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The event timeline: a min-heap keyed by `(SimTime, seq)`. The `seq`
/// tie-break is assigned at schedule time, so events scheduled for the
/// same instant pop in schedule order — FIFO among equals, which is
/// what makes the engine's event order (and therefore its trace) a pure
/// function of the inputs.
///
/// Entries are `(at, seq, ev)` and every sift moves whole entries, so
/// `E` should be a small key, not a payload: the engine's `E` is an
/// 8-byte event key (24-byte entries) whose payloads live outside the
/// heap. Ordering ignores `E`, so the key's layout cannot change pop
/// order.
pub struct Timeline<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> Default for Timeline<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Timeline<E> {
    pub fn new() -> Self {
        Timeline { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `ev` at `at`; returns the tie-break seq assigned to it.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
        seq
    }

    /// Pop the earliest event (ties in schedule order).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.ev))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Serialize the pending entries sorted by `(at, seq)` — pop order,
    /// which is also the unique byte-stable order — plus the tie-break
    /// counter, via `f` for the event payloads.
    fn save_with(&self, w: &mut Writer, mut f: impl FnMut(&mut Writer, &E)) {
        w.u64(self.seq);
        let mut entries: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.len_prefix(entries.len());
        for e in entries {
            w.u64(e.at.as_ns());
            w.u64(e.seq);
            f(w, &e.ev);
        }
    }

    /// Rebuild a timeline serialized by [`Timeline::save_with`]. The
    /// restored heap holds the same `(at, seq, ev)` set, so its pop
    /// order — and every tie-break the resumed run assigns from `seq`
    /// onward — is identical to the original's.
    fn load_with(
        r: &mut Reader<'_>,
        mut f: impl FnMut(&mut Reader<'_>) -> Result<E, SavestateError>,
    ) -> Result<Self, SavestateError> {
        let seq = r.u64()?;
        let entries = r.seq(|r| {
            let at = SimTime(r.u64()?);
            let entry_seq = r.u64()?;
            let ev = f(r)?;
            Ok(Entry { at, seq: entry_seq, ev })
        })?;
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for e in entries {
            if e.seq >= seq {
                return Err(SavestateError::Corrupt(format!(
                    "timeline entry seq {} not below the tie-break counter {seq}",
                    e.seq
                )));
            }
            heap.push(Reverse(e));
        }
        Ok(Timeline { heap, seq })
    }
}

// ---------------------------------------------------------------------------
// Events + jobs
// ---------------------------------------------------------------------------

/// An interned shape signature: an index into the engine's
/// [`SigTable`]. Interning is by content, so two requests with equal
/// shapes carry equal ids — id equality is shape equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SigId(u32);

impl SigId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What every placement of a signature needs, computed once at intern
/// time instead of per request.
struct SigInfo {
    shapes: Arc<[GemmShape]>,
    /// [`ctb_core::shape_sig_hash`] — the residency key.
    hash: u64,
    /// [`ctb_core::operand_bytes`] — the locality model's footprint.
    op_bytes: u64,
}

/// One `(signature, arch class)` cell of the dense per-class tables.
#[derive(Clone, Default)]
struct SigClassCell {
    /// Corrected predicted µs, or the planner's rejection (memoized so
    /// a poisoned signature is not re-planned per device); `None` until
    /// first asked for under the current calibration version.
    pred: Option<Result<f64, String>>,
    /// Raw (uncorrected) model prediction behind `pred`, kept for
    /// [`PlacementDecision::model_us`].
    model_us: Option<f64>,
    /// Memoized true-arch time; only filled under a ground-truth pool.
    /// Bypasses the SimMemo deliberately: drifted specs share names
    /// with their nominal presets, so the memo's context key cannot
    /// tell them apart.
    actual_us: Option<f64>,
}

/// Interned signatures plus a dense `[signature][class]` table of
/// predictions. After interning, a placement across the whole pool
/// reads `classes` adjacent cells — no hashing, no locking, no `Arc`
/// traffic. Ids are engine-local and never serialized: checkpoints
/// write shapes, and a restore re-interns them.
struct SigTable {
    classes: usize,
    info: Vec<SigInfo>,
    ids: HashMap<Arc<[GemmShape]>, SigId>,
    /// `cells[sig * classes + class]`.
    cells: Vec<SigClassCell>,
}

impl SigTable {
    fn new(classes: usize) -> Self {
        SigTable { classes, info: Vec::new(), ids: HashMap::new(), cells: Vec::new() }
    }

    /// The id of `shapes`, interning them on first sight.
    fn intern(&mut self, shapes: &Arc<[GemmShape]>) -> SigId {
        if let Some(&id) = self.ids.get(shapes) {
            return id;
        }
        let id = SigId(u32::try_from(self.info.len()).expect("fewer than 2^32 signatures"));
        self.info.push(SigInfo {
            shapes: Arc::clone(shapes),
            hash: ctb_core::shape_sig_hash(shapes),
            op_bytes: ctb_core::operand_bytes(shapes),
        });
        self.ids.insert(Arc::clone(shapes), id);
        self.cells.resize(self.cells.len() + self.classes, SigClassCell::default());
        id
    }

    fn info(&self, id: SigId) -> &SigInfo {
        &self.info[id.index()]
    }

    fn shapes(&self, id: SigId) -> &Arc<[GemmShape]> {
        &self.info[id.index()].shapes
    }

    fn cell(&self, id: SigId, class: usize) -> &SigClassCell {
        &self.cells[id.index() * self.classes + class]
    }

    fn cell_mut(&mut self, id: SigId, class: usize) -> &mut SigClassCell {
        &mut self.cells[id.index() * self.classes + class]
    }

    /// Forget every cached prediction (a calibration install changed
    /// the correction they include).
    fn clear_predictions(&mut self) {
        for c in &mut self.cells {
            c.pred = None;
        }
    }
}

/// What an event-engine request carries besides its routing state.
/// Unlike the threaded engine's ticket it holds no matrices — only its
/// interned shape signature — unless it is a witness (see module docs),
/// in which case the matrices are rebuilt from `seed` at execution time.
#[derive(Clone, Copy)]
pub(crate) struct Req {
    sig: SigId,
    /// Data seed a witness materializes its matrices from.
    seed: u64,
    arrived: SimTime,
    witness: bool,
}

/// One request in flight inside the event engine.
type EvJob = Job<Req>;

/// Slab index of a job waiting on the timeline.
#[derive(Debug, Clone, Copy)]
struct JobSlot(u32);

/// Payload store for the jobs of pending `Arrive`/`PlaceDone` events,
/// so timeline entries stay small keys. Freed slots are reused.
#[derive(Default)]
struct JobSlab {
    slots: Vec<Option<EvJob>>,
    free: Vec<u32>,
}

impl JobSlab {
    fn insert(&mut self, job: EvJob) -> JobSlot {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(job);
                JobSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending jobs");
                self.slots.push(Some(job));
                JobSlot(i)
            }
        }
    }

    fn get(&self, slot: JobSlot) -> &EvJob {
        self.slots[slot.0 as usize].as_ref().expect("timeline key names a live job slot")
    }

    fn take(&mut self, slot: JobSlot) -> EvJob {
        let job = self.slots[slot.0 as usize].take().expect("timeline key names a live job slot");
        self.free.push(slot.0);
        job
    }
}

/// The fixed event vocabulary. Everything the threaded engine does with
/// threads — queue polling, steal polling, breaker healing, kill drains
/// — maps onto one of these six kinds. Each is an 8-byte key: a job
/// lives in the [`JobSlab`], a running job in its device's `running`
/// slot, and the steal/probe kinds need only the device id (their
/// one-pending-at-a-time flags live on the device).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A request enters the system (admission + placement kickoff).
    Arrive(JobSlot),
    /// A placement attempt for the job runs now (initial or backoff
    /// retry).
    PlaceDone(JobSlot),
    /// The device's currently running job finishes now.
    ExecDone(u32),
    /// An idle device looks for a saturated victim to steal from.
    StealCheck(u32),
    /// Post-trip healing probe: re-kick a recovered idle device.
    BreakerProbe(u32),
    /// Scheduled device failure (chaos schedules).
    DeviceKill(u32),
}

// The layout the timeline docs promise: 8-byte keys, 24-byte entries.
const _: () = assert!(std::mem::size_of::<Ev>() == 8);
const _: () = assert!(std::mem::size_of::<Reverse<Entry<Ev>>>() == 24);

/// Group a pool into architecture classes — predictions are identical
/// within a class. Returns each device's class and each class's first
/// device (its representative).
fn arch_classes(pool: &[ArchSpec]) -> (Vec<usize>, Vec<usize>) {
    let (mut class_of, mut rep) = (Vec::with_capacity(pool.len()), Vec::<usize>::new());
    for (id, arch) in pool.iter().enumerate() {
        let class = rep.iter().position(|&r| pool[r].name == arch.name).unwrap_or_else(|| {
            rep.push(id);
            rep.len() - 1
        });
        class_of.push(class);
    }
    (class_of, rep)
}

/// Timeline key for a device-addressed event.
fn dev_key(device: usize) -> u32 {
    u32::try_from(device).expect("device ids fit in u32")
}

/// What the fault dice decided a running job's end will look like. The
/// rolls are drawn when the job *starts* — the same order the threaded
/// worker draws them — and applied when its `ExecDone` fires.
enum Fate {
    Complete,
    PlanFailed,
    Panicked,
}

struct Running {
    job: EvJob,
    fate: Fate,
}

// ---------------------------------------------------------------------------
// Devices + config
// ---------------------------------------------------------------------------

/// One simulated GPU in the event engine: the same parts as the
/// threaded `Device` (session, bounded queue, breaker, optional chaos
/// schedule) minus the worker threads — plain fields instead of
/// atomics, and a plain [`DeviceQueue`] instead of the locked
/// `BoundedQueue`, because exactly one event handler touches them at a
/// time.
struct EvDevice {
    session: Arc<Session>,
    queue: DeviceQueue<EvJob>,
    running: Option<Running>,
    /// Predicted µs of work queued or running here. Same f64
    /// add/subtract discipline as the threaded `AtomicF64` backlog, so
    /// the two engines feed identical numbers to the placer.
    backlog_us: f64,
    busy_sim_us: f64,
    alive: bool,
    breaker: Breaker,
    fault: Option<Arc<FaultInjector>>,
    tally: [usize; TALLIES],
    /// A StealCheck event is already on the heap for this device.
    steal_pending: bool,
    /// A BreakerProbe event is already on the heap for this device.
    probe_pending: bool,
}

impl EvDevice {
    fn arch(&self) -> &ArchSpec {
        self.session.framework().arch()
    }

    fn roll(&self, site: FaultSite) -> bool {
        self.fault.as_ref().is_some_and(|f| f.roll(site))
    }

    fn idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }
}

/// How placement scans the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Exact O(devices) scan below 64 devices, indexed at or above.
    Auto,
    /// Always the exact scan the threaded engine performs — the mode
    /// the lockstep suite runs in.
    Exact,
    /// Always the per-arch-class indexed argmin (O(classes · log n)).
    Indexed,
}

/// Event-engine tuning knobs. The scheduling fields carry the same
/// semantics (and defaults) as [`ClusterConfig`]; the extra fields
/// control witness sampling and the placement index.
#[derive(Debug, Clone)]
pub struct EventConfig {
    pub queue_capacity: usize,
    pub steal: StealPolicy,
    pub breaker: BreakerPolicy,
    pub max_reroutes: u32,
    /// Every n-th request executes for real and is bitwise-checked;
    /// `0` disables witnesses, `1` checks everything.
    pub witness_every: usize,
    pub placement: PlacementMode,
    /// Keep a per-request routing outcome log (the lockstep suite's
    /// comparison payload); costs one small record per request.
    pub record_outcomes: bool,
    /// Shard/capacity/admission layout of the shared plan cache. Part
    /// of the checkpoint (v2), so a restored engine rebuilds the same
    /// cache geometry the blob's gate and shard images describe.
    pub share: PlanShareConfig,
    /// Whether placement ranks candidates with the locality routing
    /// penalty (same semantics as [`ClusterConfig::locality`]). Part of
    /// the checkpoint (v3), so a restored engine re-ranks identically.
    pub locality: LocalityPolicy,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig::from(&ClusterConfig::default())
    }
}

impl From<&ClusterConfig> for EventConfig {
    fn from(c: &ClusterConfig) -> Self {
        EventConfig {
            queue_capacity: c.queue_capacity,
            steal: c.steal.clone(),
            breaker: c.breaker.clone(),
            max_reroutes: c.max_reroutes,
            witness_every: 1,
            placement: PlacementMode::Exact,
            record_outcomes: true,
            share: PlanShareConfig::default(),
            locality: c.locality,
        }
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// SplitMix64 output mixer (the same full-avalanche hash the fault
/// injector uses; reproduced here because the injector keeps its
/// private).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A weighted shape-signature class in an open-loop workload mix.
#[derive(Debug, Clone)]
pub struct ShapeMix {
    pub name: &'static str,
    pub shapes: Arc<[GemmShape]>,
    pub weight: u32,
}

/// Open-loop load generator: seeded exponential inter-arrivals over a
/// weighted mix of batch shape signatures. Both the mix draw and the
/// inter-arrival draw are pure functions of `(seed, n)`, so a generator
/// is reproducible and two engines fed equal generators see the same
/// arrival process.
#[derive(Debug, Clone)]
pub struct LoadGen {
    seed: u64,
    mean_interarrival_ns: f64,
    mixes: Vec<ShapeMix>,
    total_weight: u64,
    remaining: usize,
    drawn: u64,
}

impl LoadGen {
    pub fn new(
        seed: u64,
        mean_interarrival_ns: f64,
        requests: usize,
        mixes: Vec<ShapeMix>,
    ) -> Self {
        assert!(!mixes.is_empty(), "a load needs at least one shape mix");
        assert!(mean_interarrival_ns > 0.0, "inter-arrival mean must be positive");
        let total_weight = mixes.iter().map(|m| m.weight as u64).sum::<u64>().max(1);
        LoadGen { seed, mean_interarrival_ns, mixes, total_weight, remaining: requests, drawn: 0 }
    }

    /// The paper's Table 2 workload classes as a serving mix: one
    /// representative batch signature per tiling-strategy regime
    /// (small / medium / large / tall / wide / huge), weighted toward
    /// the small end the way inference traffic is.
    pub fn table2(seed: u64, mean_interarrival_ns: f64, requests: usize) -> Self {
        fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
            shapes.into()
        }
        let mixes = vec![
            ShapeMix { name: "small", shapes: sig(&[GemmShape::new(32, 32, 64); 4]), weight: 30 },
            ShapeMix { name: "medium", shapes: sig(&[GemmShape::new(64, 64, 128); 3]), weight: 25 },
            ShapeMix { name: "large", shapes: sig(&[GemmShape::new(128, 128, 256); 2]), weight: 15 },
            ShapeMix { name: "tall", shapes: sig(&[GemmShape::new(256, 32, 64); 2]), weight: 12 },
            ShapeMix { name: "wide", shapes: sig(&[GemmShape::new(32, 256, 64); 2]), weight: 12 },
            ShapeMix { name: "huge", shapes: sig(&[GemmShape::new(256, 256, 512)]), weight: 6 },
        ];
        LoadGen::new(seed, mean_interarrival_ns, requests, mixes)
    }

    pub fn requests_remaining(&self) -> usize {
        self.remaining
    }

    /// Draw the next request: `(inter-arrival ns since the previous
    /// arrival, index of the drawn mix, data seed)`.
    fn next(&mut self) -> Option<(u64, usize, u64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = self.drawn;
        self.drawn += 1;
        let h_mix = mix(self.seed ^ 0xA076_1D64_78BD_642F ^ n.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let pick = h_mix % self.total_weight;
        // Zero-weight-only mixes (total weight clamped to 1) fall back
        // to the first mix.
        let mut acc = 0u64;
        let class = self
            .mixes
            .iter()
            .position(|m| {
                acc += m.weight as u64;
                pick < acc
            })
            .unwrap_or(0);
        // Exponential inter-arrival: invert a uniform draw built from
        // the hash's top 53 bits (offset half a ULP so ln never sees 0).
        let h_dt = mix(self.seed ^ 0x8EBC_6AF0_9C88_C6E3 ^ n.wrapping_mul(0x5899_65CC_7537_4CC3));
        let u = ((h_dt >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let dt = (-u.ln() * self.mean_interarrival_ns).round().max(1.0) as u64;
        Some((dt, class, mix(self.seed ^ n)))
    }
}

// ---------------------------------------------------------------------------
// Outcomes + report
// ---------------------------------------------------------------------------

/// Per-request routing outcome — the decision payload the lockstep
/// suite compares against the threaded engine's `ClusterResult`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqOutcome {
    /// Completed with a result (coordinated or degraded).
    Done { id: u64, device: usize, degraded: bool, stolen: bool, reroutes: u32 },
    /// Rejected at admission: no live device could plan the shapes.
    PlanRejected { id: u64 },
    /// Terminal failure (degraded-path panic).
    Failed { id: u64 },
}

/// What one engine run produced: the familiar [`ClusterStats`] plus the
/// engine-level figures the scaling sweep reports.
#[derive(Debug, Clone)]
pub struct EngineReport {
    pub stats: ClusterStats,
    /// Requests that entered the system (explicit submits + load).
    pub requests: usize,
    /// Events popped off the timeline over the run.
    pub events_processed: u64,
    /// Host wall seconds spent inside [`EventCluster::run`].
    pub wall_elapsed_s: f64,
    /// `events_processed / wall_elapsed_s` — the engine-throughput
    /// figure of merit for the scaling sweep.
    pub events_per_sec: f64,
    /// Requests that executed for real and were bitwise-checked.
    pub witnesses: usize,
    /// Witness results that diverged from `reference_result_exact`
    /// (must be 0; reported rather than panicked so a sweep surfaces
    /// the failure in its artifact).
    pub witness_mismatches: usize,
    /// Simulated timestamp of the last processed event.
    pub horizon: SimTime,
    /// Per-request outcomes when [`EventConfig::record_outcomes`] set.
    pub outcomes: Vec<ReqOutcome>,
    /// Completed placements when [`EventCluster::record_decisions`] was
    /// enabled — the offline calibrator's training trace.
    pub decisions: Vec<PlacementDecision>,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The discrete-event cluster engine. Single-threaded: construct,
/// enqueue work ([`submit_at`](Self::submit_at) / [`load`](Self::load)
/// / [`kill_at`](Self::kill_at)), then [`run`](Self::run) the timeline
/// to exhaustion.
pub struct EventCluster {
    cfg: EventConfig,
    devices: Vec<EvDevice>,
    share: Arc<PlanShare>,
    timeline: Timeline<Ev>,
    /// Jobs of pending `Arrive`/`PlaceDone` events.
    jobs: JobSlab,
    obs: Option<Arc<Obs>>,
    clock: Option<Arc<SimClock>>,
    stats: ClusterInner,
    outcomes: Vec<ReqOutcome>,
    /// Interned signatures and the engine-level prediction cache: one
    /// `session.plan` + `simulate_solution` per (arch class, shape
    /// signature); after that a placement across 10k devices reads
    /// `classes` table cells, not `devices` planner calls.
    sigs: SigTable,
    /// Device → arch-class index, and one representative device per
    /// class (predictions are identical within a class).
    class_of: Vec<usize>,
    class_rep: Vec<usize>,
    /// Per-class indexed min-heaps over `(backlog bits, device)`, one
    /// entry per device. An entry is the device's backlog as of its
    /// last touch; a head whose device died or whose backlog has since
    /// moved is dropped on peek.
    index: PlacementIndex,
    /// Sticky: once any breaker trips, placement falls back to the
    /// exact scan so the open-window sidelining semantics stay
    /// bit-for-bit with the threaded engine.
    breaker_active: bool,
    /// Any device in the pool is multi-chiplet. With locality enabled
    /// such a pool always places through the exact scan: the index
    /// orders devices by backlog alone and cannot see the per-device
    /// residency penalty.
    has_chiplets: bool,
    gen: Option<LoadGen>,
    /// Interned signature of each of `gen`'s mixes, in mix order.
    gen_sigs: Vec<SigId>,
    now: SimTime,
    next_job_id: u64,
    events_processed: u64,
    requests: usize,
    witnesses: usize,
    witness_mismatches: usize,
    /// Arrive events scheduled but not yet processed.
    pending_arrivals: usize,
    /// Requests admitted but not yet terminal.
    open_jobs: usize,
    /// "True silicon" specs for calibration recording runs
    /// ([`EventCluster::set_ground_truth`]); `None` (the default)
    /// charges predicted time at completion, keeping placement error
    /// zero by construction. Never serialized — ground-truth runs
    /// refuse to checkpoint.
    ground_truth: Option<GroundTruth>,
    /// When `Some`, completions append a [`PlacementDecision`]
    /// ([`EventCluster::record_decisions`]). Never serialized.
    decisions: Option<Vec<PlacementDecision>>,
    /// Calibration-handle version the prediction cache was computed
    /// under; a mismatch, checked once per placement, clears the cache.
    calib_version: u64,
    /// Device sessions run [`BatchingPolicy::Swappable`]
    /// ([`EventCluster::swappable`]). Never serialized — the blob
    /// format carries no policy, so swappable engines refuse to
    /// checkpoint.
    swappable: bool,
}

impl EventCluster {
    pub fn new(pool: Vec<ArchSpec>, cfg: EventConfig) -> Self {
        let n = pool.len();
        EventCluster::with_faults(pool, cfg, vec![None; n])
    }

    pub fn with_faults(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> Self {
        EventCluster::build(pool, cfg, faults, None, None, false)
    }

    /// Build with a fresh [`SimClock`]-backed [`Obs`] installed; the
    /// engine steps the clock as it pops the heap, so the returned bus
    /// records a deterministic trace in simulated time.
    pub fn with_instrumentation(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
    ) -> (Self, Arc<Obs>) {
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
        let eng =
            EventCluster::build(pool, cfg, faults, Some(Arc::clone(&obs)), Some(clock), false);
        (eng, obs)
    }

    /// Build with every device session on the
    /// [`BatchingPolicy::Swappable`] policy — the hot-swap seam ctb-calib
    /// installs retrained selectors through. At calibration version 0
    /// (nothing installed) a swappable session plans bit-for-bit like
    /// the default best-of-both engine, so before/after comparisons stay
    /// apples-to-apples. Pass `instrument: true` to also get the
    /// [`SimClock`]-backed [`Obs`] bus the record pass feeds the
    /// calibrator. Swappable engines are runtime-only: they refuse to
    /// checkpoint (the blob format does not carry the policy, so a
    /// restored engine could not replay the same planning fingerprints).
    pub fn swappable(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        instrument: bool,
    ) -> (Self, Option<Arc<Obs>>) {
        let n = pool.len();
        let (obs, clock) = if instrument {
            let clock = Arc::new(SimClock::new());
            (Some(Arc::new(Obs::sim(Arc::clone(&clock)))), Some(clock))
        } else {
            (None, None)
        };
        let eng = EventCluster::build(pool, cfg, vec![None; n], obs.clone(), clock, true);
        (eng, obs)
    }

    fn build(
        pool: Vec<ArchSpec>,
        cfg: EventConfig,
        faults: Vec<Option<Arc<FaultInjector>>>,
        obs: Option<Arc<Obs>>,
        clock: Option<Arc<SimClock>>,
        swappable: bool,
    ) -> Self {
        assert!(!pool.is_empty(), "a cluster needs at least one device");
        assert_eq!(pool.len(), faults.len(), "one fault schedule slot per device");
        let share = Arc::new(PlanShare::with_config(cfg.share));
        let (class_of, class_rep) = arch_classes(&pool);
        let devices: Vec<EvDevice> = pool
            .into_iter()
            .zip(faults)
            .map(|(arch, fault)| {
                let fw = if swappable {
                    Framework::with_config(
                        arch,
                        FrameworkConfig {
                            batching: BatchingPolicy::Swappable,
                            ..FrameworkConfig::default()
                        },
                    )
                } else {
                    Framework::new(arch)
                };
                let s = Session::with_share(fw, Arc::clone(&share));
                let session = Arc::new(match &obs {
                    Some(o) => s.with_obs(Arc::clone(o)),
                    None => s,
                });
                EvDevice {
                    session,
                    queue: DeviceQueue::new(cfg.queue_capacity),
                    running: None,
                    backlog_us: 0.0,
                    busy_sim_us: 0.0,
                    alive: true,
                    breaker: Breaker::new(cfg.breaker.clone()),
                    fault,
                    tally: [0; TALLIES],
                    steal_pending: false,
                    probe_pending: false,
                }
            })
            .collect();
        // Seed every class heap with the all-idle state so the indexed
        // path sees the whole pool from the first placement.
        let mut index = PlacementIndex::new(class_rep.len(), devices.len());
        for (id, class) in class_of.iter().enumerate() {
            index.set(*class, id, 0.0f64.to_bits());
        }
        let has_chiplets = devices.iter().any(|d| !d.arch().topology.is_unified());
        EventCluster {
            cfg,
            devices,
            share,
            timeline: Timeline::new(),
            jobs: JobSlab::default(),
            obs,
            clock,
            stats: ClusterInner::default(),
            outcomes: Vec::new(),
            sigs: SigTable::new(class_rep.len()),
            class_of,
            class_rep,
            index,
            breaker_active: false,
            has_chiplets,
            gen: None,
            gen_sigs: Vec::new(),
            now: SimTime::ZERO,
            next_job_id: 0,
            events_processed: 0,
            requests: 0,
            witnesses: 0,
            witness_mismatches: 0,
            pending_arrivals: 0,
            open_jobs: 0,
            ground_truth: None,
            decisions: None,
            calib_version: 0,
            swappable,
        }
    }

    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    pub fn share(&self) -> &Arc<PlanShare> {
        &self.share
    }

    pub fn observer(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Attach a "true silicon" pool for a calibration recording run:
    /// placement keeps predicting with the nominal analytical model,
    /// but completions charge the time the planned kernel takes on the
    /// drifted spec — so `mean_abs_placement_err_us` measures real
    /// model error instead of being zero by construction. Ground-truth
    /// runs cannot be checkpointed ([`checkpoint`](Self::checkpoint)
    /// panics): the pool is runtime-only state.
    pub fn set_ground_truth(&mut self, truth: GroundTruth) {
        self.ground_truth = Some(truth);
    }

    /// Record one [`PlacementDecision`] per completed request into the
    /// next [`EngineReport`] — the offline calibrator's training trace.
    /// Recording runs cannot be checkpointed.
    pub fn record_decisions(&mut self, on: bool) {
        self.decisions = if on { Some(Vec::new()) } else { None };
    }

    /// Schedule one request to arrive at `at`. Returns its job id.
    pub fn submit_at(&mut self, at: SimTime, shapes: Arc<[GemmShape]>, seed: u64) -> u64 {
        let sig = self.sigs.intern(&shapes);
        self.submit_sig(at, sig, seed)
    }

    fn submit_sig(&mut self, at: SimTime, sig: SigId, seed: u64) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        let witness = self.is_witness(id);
        self.schedule_arrival(at, Job::new(id, Req { sig, seed, arrived: at, witness }));
        id
    }

    fn schedule_arrival(&mut self, at: SimTime, job: EvJob) {
        self.pending_arrivals += 1;
        let slot = self.jobs.insert(job);
        self.timeline.schedule(at, Ev::Arrive(slot));
    }

    /// Schedule a device kill at `at` (chaos schedules / sweeps).
    pub fn kill_at(&mut self, at: SimTime, device: usize) {
        assert!(device < self.devices.len(), "no such device");
        self.timeline.schedule(at, Ev::DeviceKill(dev_key(device)));
    }

    /// Attach an open-loop load. Its mixes are interned up front, its
    /// first arrival is scheduled relative to the current sim time, and
    /// each processed arrival schedules the next — the heap never holds
    /// more than one pending generated arrival.
    pub fn load(&mut self, gen: LoadGen) {
        self.gen_sigs = gen.mixes.iter().map(|m| self.sigs.intern(&m.shapes)).collect();
        self.gen = Some(gen);
        self.next_generated_arrival();
    }

    /// Draw the load's next request, if any, and schedule its arrival.
    fn next_generated_arrival(&mut self) {
        if let Some((dt, class, seed)) = self.gen.as_mut().and_then(LoadGen::next) {
            let at = self.now.plus(dt);
            self.submit_sig(at, self.gen_sigs[class], seed);
        }
    }

    fn is_witness(&self, id: u64) -> bool {
        match self.cfg.witness_every {
            0 => false,
            k => id.is_multiple_of(k as u64),
        }
    }

    fn work_pending(&self) -> bool {
        self.pending_arrivals > 0
            || self.open_jobs > 0
            || self.gen.as_ref().is_some_and(|g| g.requests_remaining() > 0)
    }

    /// Process the next pending event. Returns `false` when the
    /// timeline is exhausted. Between any two calls the engine sits at
    /// an *event boundary* — the granularity [`checkpoint`](Self::checkpoint)
    /// snapshots at.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.timeline.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "timeline popped out of order");
        self.now = t;
        if let Some(c) = &self.clock {
            c.advance_to(t.as_us());
        }
        self.events_processed += 1;
        self.dispatch(ev);
        true
    }

    /// Process at most `max` events; returns how many actually ran
    /// (fewer only when the timeline drained first).
    pub fn run_steps(&mut self, max: u64) -> u64 {
        let mut n = 0;
        while n < max && self.step() {
            n += 1;
        }
        n
    }

    /// Run the timeline to exhaustion and report.
    pub fn run(&mut self) -> EngineReport {
        let t0 = Instant::now();
        while self.step() {}
        self.report_with_wall(t0.elapsed().as_secs_f64())
    }

    /// Assemble the report for the work processed so far without
    /// running anything — the partial-run counterpart of [`run`](Self::run)
    /// (host-throughput figures read 0; there was no timed run).
    /// Drains the recorded outcomes, like `run` does.
    pub fn report(&mut self) -> EngineReport {
        self.report_with_wall(0.0)
    }

    fn report_with_wall(&mut self, wall: f64) -> EngineReport {
        EngineReport {
            stats: self.stats_snapshot(),
            requests: self.requests,
            events_processed: self.events_processed,
            wall_elapsed_s: wall,
            events_per_sec: if wall > 0.0 { self.events_processed as f64 / wall } else { 0.0 },
            witnesses: self.witnesses,
            witness_mismatches: self.witness_mismatches,
            horizon: self.now,
            outcomes: std::mem::take(&mut self.outcomes),
            decisions: self.decisions.as_mut().map(std::mem::take).unwrap_or_default(),
        }
    }

    /// Point-in-time [`ClusterStats`] in the threaded vocabulary.
    pub fn stats_snapshot(&self) -> ClusterStats {
        core::stats(self)
    }

    // -- event dispatch ---------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive(slot) => self.on_arrive(slot),
            Ev::PlaceDone(slot) => {
                let job = self.jobs.take(slot);
                self.on_place(job)
            }
            Ev::ExecDone(device) => self.on_exec_done(device as usize),
            Ev::StealCheck(device) => self.on_steal_check(device as usize),
            Ev::BreakerProbe(device) => self.on_breaker_probe(device as usize),
            // A job mid-execution on the killed device finishes normally
            // (its ExecDone is already on the heap).
            Ev::DeviceKill(device) => core::kill(self, device as usize),
        }
    }

    fn on_arrive(&mut self, slot: JobSlot) {
        self.pending_arrivals -= 1;
        self.open_jobs += 1;
        self.requests += 1;
        // Admit is traced before placement, mirroring the threaded
        // submit path's ordering contract.
        if let Some(o) = &self.obs {
            o.point(PointKind::Admit { req: self.jobs.get(slot).id });
        }
        // Keep the open-loop source primed: one pending generated
        // arrival at a time.
        self.next_generated_arrival();
        // The job keeps its slab slot into the placement event.
        self.timeline.schedule(self.now, Ev::PlaceDone(slot));
    }

    fn on_place(&mut self, job: EvJob) {
        let id = job.id;
        match self.place(job, None) {
            Ok(device) => {
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.maybe_start(device);
            }
            Err(fail) if fail.any_full => {
                // Backpressure: every candidate queue is full. The
                // threaded submit loop sleeps 50 µs and retries; we
                // reschedule the placement the same distance out.
                let slot = self.jobs.insert(fail.job);
                self.timeline.schedule(self.now.plus(BACKOFF_NS), Ev::PlaceDone(slot));
            }
            Err(PlaceFail { plan_err: Some(()), .. }) => {
                if let Some(o) = &self.obs {
                    o.point(PointKind::Reject { req: Some(id) });
                }
                self.open_jobs -= 1;
                if self.cfg.record_outcomes {
                    self.outcomes.push(ReqOutcome::PlanRejected { id });
                }
            }
            Err(fail) => {
                // No live device at all: degraded inline, like the
                // threaded submit path.
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                core::degrade(self, fail.job);
            }
        }
    }

    fn on_exec_done(&mut self, device: usize) {
        let Some(Running { job, fate }) = self.devices[device].running.take() else {
            return;
        };
        match fate {
            Fate::Complete => self.complete_job(device, job),
            Fate::PlanFailed => core::fail(self, device, job, false),
            Fate::Panicked => core::fail(self, device, job, true),
        }
        self.maybe_start(device);
        self.maybe_schedule_steal(device);
    }

    fn on_steal_check(&mut self, thief: usize) {
        self.devices[thief].steal_pending = false;
        let dev = &self.devices[thief];
        if !dev.alive || dev.breaker.is_open() || !dev.idle() {
            return;
        }
        self.sync_calib();
        if let Some(job) = core::steal(self, thief) {
            // Busy now; the next idle transition re-arms the check.
            self.start_job(thief, job);
            return;
        }
        self.maybe_schedule_steal(thief);
    }

    fn on_breaker_probe(&mut self, device: usize) {
        self.devices[device].probe_pending = false;
        if !self.devices[device].alive {
            return;
        }
        if self.devices[device].breaker.is_open() {
            // Still serving the open window: probe again later.
            self.schedule_probe(device);
            return;
        }
        // Healed: an idle recovered device goes back to stealing.
        self.maybe_schedule_steal(device);
    }

    fn schedule_probe(&mut self, device: usize) {
        if !self.devices[device].probe_pending && self.work_pending() {
            self.devices[device].probe_pending = true;
            self.timeline.schedule(self.now.plus(PROBE_NS), Ev::BreakerProbe(dev_key(device)));
        }
    }

    // -- placement --------------------------------------------------------

    /// Drop the prediction cache when the share's calibration handle
    /// moved: cached values include the installed correction, so a
    /// profile install (version bump) invalidates all of them. Checked
    /// once per placement or steal decision, not per lookup.
    fn sync_calib(&mut self) {
        let version = self.share.calib().version();
        if version != self.calib_version {
            self.sigs.clear_predictions();
            self.calib_version = version;
        }
    }

    /// Memoized prediction for `sig` on arch class `class` — the
    /// [`core::predict`] number the threaded engine computes per
    /// placement, shared across all devices of the class. `None` when
    /// the class's planner rejects the shapes.
    fn class_prediction(&mut self, sig: SigId, class: usize) -> Option<f64> {
        match &self.sigs.cell(sig, class).pred {
            Some(Ok(us)) => Some(*us),
            Some(Err(_)) => None,
            None => self.compute_prediction(sig, class),
        }
    }

    #[cold]
    fn compute_prediction(&mut self, sig: SigId, class: usize) -> Option<f64> {
        let session = &self.devices[self.class_rep[class]].session;
        let raw = core::predict(session, self.sigs.shapes(sig));
        let cell = self.sigs.cell_mut(sig, class);
        if let Ok((model, _)) = raw {
            cell.model_us = Some(model);
        }
        let out = raw.as_ref().ok().map(|&(_, us)| us);
        cell.pred = Some(raw.map(|(_, us)| us));
        out
    }

    /// Whether this placement may take the indexed path. Both paths
    /// stay because each is needed somewhere:
    ///
    /// * [`PlacementMode::Exact`] — the core's exact scan — is the
    ///   lockstep reference (the threaded engine runs the same code) and
    ///   the fallback whenever the index cannot see the decision: after
    ///   any breaker trip (open-window sidelining consumes slots per
    ///   candidate), on re-routes (they exclude a device) and on
    ///   locality-aware chiplet pools (the penalty depends on which
    ///   device holds the operands, which a backlog-keyed class index
    ///   cannot express).
    /// * [`PlacementMode::Indexed`] is the O(classes · log n) argmin that
    ///   makes a 1024-device pool cheap to place on.
    ///
    /// Known corner, kept bit for bit: when the indexed path's chosen
    /// queue refuses a push, the backlog's add-then-subtract round trip
    /// need not restore its exact bits, and the device is not re-keyed —
    /// so its index entry reads as stale and drops out until the device
    /// is next touched. Re-keying it would change seeded outputs
    /// (`tests/golden.rs`); ROADMAP carries that fix as its own change.
    fn use_index(&self, exclude: Option<usize>) -> bool {
        if self.breaker_active || exclude.is_some() {
            return false;
        }
        if self.cfg.locality.enabled && self.has_chiplets {
            return false;
        }
        match self.cfg.placement {
            PlacementMode::Exact => false,
            PlacementMode::Indexed => true,
            PlacementMode::Auto => self.devices.len() >= 64,
        }
    }

    fn index_key(&self, device: usize) -> u64 {
        // Backlogs are clamped non-negative, and non-negative IEEE
        // doubles order identically to their bit patterns.
        self.devices[device].backlog_us.max(0.0).to_bits()
    }

    /// Re-key `device` in its class index at its current backlog; a
    /// dead device leaves the index for good.
    fn index_touch(&mut self, device: usize) {
        let class = self.class_of[device];
        if self.devices[device].alive {
            let key = self.index_key(device);
            self.index.set(class, device, key);
        } else {
            self.index.remove(class, device);
        }
    }

    /// Indexed argmin placement: peek each class heap's valid head
    /// (same within-class order as the global ranking, because the
    /// predicted time is constant within a class), then compare class
    /// winners with the identical completion-then-id ordering, and land
    /// the job through the core. `Err(job)` hands back a job the chosen
    /// queue refused, for the exact scan's spill-down.
    fn place_indexed(&mut self, job: EvJob) -> Result<Result<usize, PlaceFail<Self>>, EvJob> {
        let obs = self.obs.clone();
        let _place = obs.as_ref().map(|o| o.span(SpanKind::Place));
        let mut plan_rejected = false;
        let mut best: Option<Candidate> = None;
        for class in 0..self.class_rep.len() {
            let Some(predicted_us) = self.class_prediction(job.body.sig, class) else {
                plan_rejected = true;
                continue;
            };
            // Drop a head whose device died or whose backlog moved
            // since its last touch, then peek the class argmin.
            let head = loop {
                let Some((key, device)) = self.index.peek(class) else {
                    break None;
                };
                if self.devices[device].alive && self.index_key(device) == key {
                    break Some((key, device));
                }
                self.index.remove(class, device);
            };
            let Some((key, device)) = head else { continue };
            // `use_index` keeps this path off locality-relevant pools,
            // so the penalty here is identically zero.
            let cand =
                Candidate { device, backlog_us: f64::from_bits(key), predicted_us, penalty_us: 0.0 };
            let better = match &best {
                None => true,
                Some(b) => cand
                    .completion_us()
                    .total_cmp(&b.completion_us())
                    .then(cand.device.cmp(&b.device))
                    .is_lt(),
            };
            if better {
                best = Some(cand);
            }
        }
        let Some(c) = best else {
            let plan_err = plan_rejected.then_some(());
            return Ok(Err(PlaceFail { job, any_full: false, plan_err }));
        };
        match core::land(self, c.device, job, c.predicted_us) {
            Ok(()) => Ok(Ok(c.device)),
            Err((_, job)) => Err(job),
        }
    }

    // -- execution --------------------------------------------------------

    /// If `device` is idle and has queued work, start its front job.
    fn maybe_start(&mut self, device: usize) {
        if self.devices[device].running.is_some() {
            return;
        }
        let Some(job) = self.devices[device].queue.pop() else {
            return;
        };
        self.start_job(device, job);
    }

    /// Roll the job's fate (threaded worker order: slow stall → plan
    /// failure → exec panic) and schedule its `ExecDone`.
    fn start_job(&mut self, device: usize, job: EvJob) {
        let dev = &self.devices[device];
        // Injected worker stall: the threaded engine sleeps wall time;
        // here the stall is sim time ahead of the work.
        let stall_ns = match &dev.fault {
            Some(f) => {
                f.roll_slow().map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64).unwrap_or(0)
            }
            None => 0,
        };
        let fate = if dev.roll(FaultSite::PlanFail) {
            Fate::PlanFailed
        } else if dev.roll(FaultSite::ExecPanic) {
            Fate::Panicked
        } else {
            Fate::Complete
        };
        let exec_ns = match fate {
            // Never zero, so a completion cannot share its timestamp
            // with the placement that caused it. Under a ground-truth
            // pool the device occupies its true (drifted) time, not the
            // predicted one.
            Fate::Complete => {
                let us = self.charged_us(device, &job);
                ((us * 1_000.0).round() as u64).max(1)
            }
            // Failures surface almost immediately; the threaded engine
            // charges no simulated time for them either.
            Fate::PlanFailed | Fate::Panicked => 1,
        };
        let done = self.now.plus(stall_ns + exec_ns);
        self.devices[device].running = Some(Running { job, fate });
        self.timeline.schedule(done, Ev::ExecDone(dev_key(device)));
    }

    /// The simulated time a completing job occupies `device`: the
    /// placer's prediction normally (zero placement error by
    /// construction), the true-arch simulation when a ground-truth pool
    /// is attached.
    fn charged_us(&mut self, device: usize, job: &EvJob) -> f64 {
        if self.ground_truth.is_none() {
            return job.predicted_us;
        }
        self.actual_us(device, job.body.sig)
    }

    /// Memoized "what the true silicon takes" for `shapes` on
    /// `device`'s arch class. Simulates the *planned* kernel directly on
    /// the drifted spec — deliberately outside the SimMemo, whose
    /// context key is the arch name and so cannot distinguish nominal
    /// from drifted. Classes the pool does not drift charge the nominal
    /// simulation (the model is their truth).
    fn actual_us(&mut self, device: usize, sig: SigId) -> f64 {
        let class = self.class_of[device];
        if let Some(us) = self.sigs.cell(sig, class).actual_us {
            return us;
        }
        let rep = self.class_rep[class];
        let name = self.devices[rep].arch().name;
        let plan = self.devices[rep]
            .session
            .plan(self.sigs.shapes(sig))
            .expect("ground-truth timing is only charged for placed jobs, whose plan is warm");
        let truth = self.ground_truth.as_ref().expect("checked by charged_us");
        let spec = truth.spec(name).unwrap_or_else(|| self.devices[rep].arch());
        let us =
            ctb_sim::simulate(spec, &ctb_sim::LaunchSequence::Single(plan.kernel.clone())).total_us;
        self.sigs.cell_mut(sig, class).actual_us = Some(us);
        us
    }

    /// A witness's matrices, rebuilt from its data seed.
    fn witness_batch(&self, job: &EvJob) -> GemmBatch {
        GemmBatch::random(self.sigs.shapes(job.body.sig), WITNESS_ALPHA, WITNESS_BETA, job.body.seed)
    }

    /// Count a witness and bitwise-check its results against the oracle.
    fn check_witness(&mut self, batch: &GemmBatch, results: &[MatF32]) {
        self.witnesses += 1;
        if bitwise_mismatch(&batch.reference_result_exact(), results).is_some() {
            self.witness_mismatches += 1;
        }
    }

    /// Coordinated completion. Witnesses execute for real and are
    /// bitwise-checked; everyone else completes by accounting, charging
    /// the simulated time the placer predicted — which is the identical
    /// number `SimReport::total_us` would report, because both read the
    /// same memo entry. That shared source of truth is why
    /// `mean_abs_placement_err_us` stays 0 on both engines. A
    /// ground-truth pool replaces only the *charged time* with the
    /// true-arch simulation (making the error real); witness execution
    /// and its bitwise check are timing-independent and unchanged.
    fn complete_job(&mut self, device: usize, job: EvJob) {
        let model_time = if job.body.witness {
            let batch = self.witness_batch(&job);
            // Plan first (warm cache), then the Exec span — the same
            // span order the threaded worker produces.
            let plan = self.devices[device]
                .session
                .plan(&batch.shapes)
                .expect("witness plan is warm: placement already planned this signature");
            let obs = self.obs.clone();
            let guard = obs.as_ref().map(|o| o.span(SpanKind::Exec));
            let (results, report) = self.devices[device].session.framework().execute(&batch, &plan);
            if let Some(g) = guard {
                g.finish();
            }
            self.check_witness(&batch, &results);
            report.total_us
        } else {
            if let Some(o) = &self.obs {
                o.span(SpanKind::Exec).finish();
            }
            job.predicted_us
        };
        let executed_us = if self.ground_truth.is_some() {
            self.actual_us(device, job.body.sig)
        } else {
            model_time
        };
        if let Some(log) = &mut self.decisions {
            let cell = self.sigs.cell(job.body.sig, self.class_of[device]);
            log.push(PlacementDecision {
                id: job.id,
                device,
                arch: self.devices[device].arch().name,
                shapes: Arc::clone(self.sigs.shapes(job.body.sig)),
                model_us: cell.model_us.unwrap_or(job.predicted_us),
                predicted_us: job.predicted_us,
                actual_us: executed_us,
            });
        }
        core::complete(self, device, job, executed_us, ());
    }

    // -- stealing ---------------------------------------------------------

    fn maybe_schedule_steal(&mut self, device: usize) {
        if !self.cfg.steal.enabled {
            return;
        }
        let dev = &self.devices[device];
        if !dev.alive || !dev.idle() || dev.steal_pending || !self.work_pending() {
            return;
        }
        let poll_ns = self.cfg.steal.poll.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.devices[device].steal_pending = true;
        self.timeline.schedule(self.now.plus(poll_ns.max(1)), Ev::StealCheck(dev_key(device)));
    }
}

/// The event engine as the scheduling core sees it: plain device fields
/// and single-threaded queues, touched by one event handler at a time.
/// The accessors the core calls per event are `#[inline]`: the core's
/// generic code may be instantiated in another codegen unit, where a
/// plain method stays an out-of-line call on the per-event path.
impl Pool for EventCluster {
    type Body = Req;
    type Sig = SigId;
    type PlanErr = ();
    type Out = ();

    #[inline]
    fn policy(&self) -> Policy {
        Policy {
            locality: self.cfg.locality.enabled,
            max_reroutes: self.cfg.max_reroutes,
            min_victim_backlog_us: self.cfg.steal.min_victim_backlog_us,
        }
    }

    #[inline]
    fn share(&self) -> &PlanShare {
        &self.share
    }

    #[inline]
    fn stats(&self) -> &ClusterInner {
        &self.stats
    }

    #[inline]
    fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    #[inline]
    fn len(&self) -> usize {
        self.devices.len()
    }

    #[inline]
    fn session(&self, d: usize) -> &Session {
        &self.devices[d].session
    }

    #[inline]
    fn breaker(&self, d: usize) -> &Breaker {
        &self.devices[d].breaker
    }

    #[inline]
    fn alive(&self, d: usize) -> bool {
        self.devices[d].alive
    }

    fn mark_dead(&mut self, d: usize) -> bool {
        let dev = &mut self.devices[d];
        dev.queue.close();
        std::mem::replace(&mut dev.alive, false)
    }

    #[inline]
    fn backlog(&self, d: usize) -> f64 {
        self.devices[d].backlog_us
    }

    #[inline]
    fn add_backlog(&mut self, d: usize, delta: f64) {
        self.devices[d].backlog_us += delta;
    }

    fn busy_us(&self, d: usize) -> f64 {
        self.devices[d].busy_sim_us
    }

    #[inline]
    fn add_busy(&mut self, d: usize, us: f64) {
        self.devices[d].busy_sim_us += us;
    }

    fn tally(&self, d: usize) -> [usize; TALLIES] {
        self.devices[d].tally
    }

    #[inline]
    fn bump(&mut self, d: usize, t: Tally) {
        self.devices[d].tally[t as usize] += 1;
    }

    fn queue_len(&self, d: usize) -> usize {
        self.devices[d].queue.len()
    }

    #[inline]
    fn try_push(&mut self, d: usize, job: EvJob) -> Result<(), (PushError, EvJob)> {
        self.devices[d].queue.try_push(job)
    }

    fn pop(&mut self, d: usize) -> Option<EvJob> {
        self.devices[d].queue.pop()
    }

    fn front_sig(&self, d: usize) -> Option<SigId> {
        self.devices[d].queue.front().map(|j| j.body.sig)
    }

    fn pop_if_sig(&mut self, d: usize, sig: &SigId) -> Option<EvJob> {
        self.devices[d].queue.pop_if(|j| j.body.sig == *sig)
    }

    #[inline]
    fn sig(job: &EvJob) -> &SigId {
        &job.body.sig
    }

    #[inline]
    fn sig_key(&self, sig: &SigId) -> (u64, u64) {
        let info = self.sigs.info(*sig);
        (info.hash, info.op_bytes)
    }

    #[inline]
    fn predict(&mut self, sig: &SigId, d: usize) -> Result<f64, ()> {
        self.class_prediction(*sig, self.class_of[d]).ok_or(())
    }

    #[inline]
    fn wall_us(&self, job: &EvJob) -> f64 {
        self.now.as_ns().saturating_sub(job.body.arrived.as_ns()) as f64 / 1_000.0
    }

    /// Only witnesses actually run the baseline: degraded results are
    /// bitwise-exact too, so the sample proves the path.
    fn degraded_exec(&mut self, donor: usize, job: &EvJob) -> Result<(), String> {
        if self.devices[donor].roll(FaultSite::DegradedPanic) {
            return Err(String::new());
        }
        if job.body.witness {
            let batch = self.witness_batch(job);
            let results = ctb_baselines::default_functional(self.devices[donor].arch(), &batch);
            self.check_witness(&batch, &results);
        }
        Ok(())
    }

    #[inline]
    fn respond(&mut self, job: EvJob, end: End<()>) -> bool {
        self.open_jobs -= 1;
        if self.cfg.record_outcomes {
            self.outcomes.push(match end {
                End::Done { device, degraded, .. } => ReqOutcome::Done {
                    id: job.id,
                    device,
                    degraded,
                    stolen: job.stolen,
                    reroutes: job.attempts,
                },
                End::Failed(_) => ReqOutcome::Failed { id: job.id },
            });
        }
        false
    }

    /// The indexed fast path when [`EventCluster::use_index`] allows it,
    /// falling back to the core's exact scan when its queue refuses.
    fn place(&mut self, job: EvJob, exclude: Option<usize>) -> Result<usize, PlaceFail<Self>> {
        self.sync_calib();
        if !self.use_index(exclude) {
            return core::place_exact(self, job, exclude);
        }
        match self.place_indexed(job) {
            Ok(placed) => placed,
            Err(job) => core::place_exact(self, job, exclude),
        }
    }

    #[inline]
    fn touched(&mut self, d: usize) {
        self.index_touch(d);
    }

    fn placed(&mut self, d: usize) {
        self.maybe_start(d);
    }

    /// Placement stays on the exact scan from the first trip on (the
    /// open-window sidelining is per candidate), and a healing probe
    /// re-kicks the device once its window is served.
    fn tripped(&mut self, d: usize) {
        self.breaker_active = true;
        self.schedule_probe(d);
    }
}

// ---------------------------------------------------------------------------
// Savestate
// ---------------------------------------------------------------------------

fn save_shapes(w: &mut Writer, shapes: &[GemmShape]) {
    w.len_prefix(shapes.len());
    for s in shapes {
        w.u64(s.m as u64);
        w.u64(s.n as u64);
        w.u64(s.k as u64);
    }
}

fn load_shapes(r: &mut Reader<'_>) -> Result<Arc<[GemmShape]>, SavestateError> {
    let v = r.seq(|r| {
        Ok(GemmShape::new(r.u64()? as usize, r.u64()? as usize, r.u64()? as usize))
    })?;
    Ok(v.into())
}

fn save_job(w: &mut Writer, j: &EvJob, sigs: &SigTable) {
    w.u64(j.id);
    save_shapes(w, sigs.shapes(j.body.sig));
    w.u64(j.body.seed);
    w.u64(j.body.arrived.as_ns());
    w.f64(j.predicted_us);
    w.u32(j.attempts);
    w.bool(j.stolen);
    w.bool(j.body.witness);
}

fn load_job(r: &mut Reader<'_>, sigs: &mut SigTable) -> Result<EvJob, SavestateError> {
    let id = r.u64()?;
    let sig = sigs.intern(&load_shapes(r)?);
    let (seed, arrived) = (r.u64()?, SimTime(r.u64()?));
    let (predicted_us, attempts, stolen) = (r.f64()?, r.u32()?, r.bool()?);
    let body = Req { sig, seed, arrived, witness: r.bool()? };
    Ok(Job { id, predicted_us, attempts, stolen, body })
}

/// Serialize an event in the blob's historical layout: job-carrying
/// events inline their job (read through the slab), device events
/// their device id.
fn save_ev(w: &mut Writer, ev: &Ev, jobs: &JobSlab, sigs: &SigTable) {
    match *ev {
        Ev::Arrive(slot) => {
            w.u8(0);
            save_job(w, jobs.get(slot), sigs);
        }
        Ev::PlaceDone(slot) => {
            w.u8(1);
            save_job(w, jobs.get(slot), sigs);
        }
        Ev::ExecDone(device) => {
            w.u8(2);
            w.len_prefix(device as usize);
        }
        Ev::StealCheck(device) => {
            w.u8(3);
            w.len_prefix(device as usize);
        }
        Ev::BreakerProbe(device) => {
            w.u8(4);
            w.len_prefix(device as usize);
        }
        Ev::DeviceKill(device) => {
            w.u8(5);
            w.len_prefix(device as usize);
        }
    }
}

fn load_ev(
    r: &mut Reader<'_>,
    jobs: &mut JobSlab,
    sigs: &mut SigTable,
    devices: usize,
) -> Result<Ev, SavestateError> {
    let device = |r: &mut Reader<'_>| {
        let d = r.len_prefix()?;
        if d >= devices {
            return Err(SavestateError::Corrupt(format!(
                "event names device {d}, pool holds {devices}"
            )));
        }
        Ok(dev_key(d))
    };
    Ok(match r.u8()? {
        0 => Ev::Arrive(jobs.insert(load_job(r, sigs)?)),
        1 => Ev::PlaceDone(jobs.insert(load_job(r, sigs)?)),
        2 => Ev::ExecDone(device(r)?),
        3 => Ev::StealCheck(device(r)?),
        4 => Ev::BreakerProbe(device(r)?),
        5 => Ev::DeviceKill(device(r)?),
        t => return Err(SavestateError::Corrupt(format!("bad event tag {t}"))),
    })
}

fn save_fate(w: &mut Writer, f: &Fate) {
    w.u8(match f {
        Fate::Complete => 0,
        Fate::PlanFailed => 1,
        Fate::Panicked => 2,
    });
}

fn load_fate(r: &mut Reader<'_>) -> Result<Fate, SavestateError> {
    Ok(match r.u8()? {
        0 => Fate::Complete,
        1 => Fate::PlanFailed,
        2 => Fate::Panicked,
        t => return Err(SavestateError::Corrupt(format!("bad fate tag {t}"))),
    })
}

fn save_outcome(w: &mut Writer, o: &ReqOutcome) {
    match o {
        ReqOutcome::Done { id, device, degraded, stolen, reroutes } => {
            w.u8(0);
            w.u64(*id);
            w.len_prefix(*device);
            w.bool(*degraded);
            w.bool(*stolen);
            w.u32(*reroutes);
        }
        ReqOutcome::PlanRejected { id } => {
            w.u8(1);
            w.u64(*id);
        }
        ReqOutcome::Failed { id } => {
            w.u8(2);
            w.u64(*id);
        }
    }
}

fn load_outcome(r: &mut Reader<'_>) -> Result<ReqOutcome, SavestateError> {
    Ok(match r.u8()? {
        0 => ReqOutcome::Done {
            id: r.u64()?,
            device: r.len_prefix()?,
            degraded: r.bool()?,
            stolen: r.bool()?,
            reroutes: r.u32()?,
        },
        1 => ReqOutcome::PlanRejected { id: r.u64()? },
        2 => ReqOutcome::Failed { id: r.u64()? },
        t => return Err(SavestateError::Corrupt(format!("bad outcome tag {t}"))),
    })
}

fn save_cfg(w: &mut Writer, c: &EventConfig) {
    w.len_prefix(c.queue_capacity);
    w.bool(c.steal.enabled);
    w.f64(c.steal.min_victim_backlog_us);
    w.u64(c.steal.poll.as_nanos().min(u128::from(u64::MAX)) as u64);
    w.len_prefix(c.breaker.trip_threshold);
    w.len_prefix(c.breaker.open_batches);
    w.u32(c.max_reroutes);
    w.len_prefix(c.witness_every);
    w.u8(match c.placement {
        PlacementMode::Auto => 0,
        PlacementMode::Exact => 1,
        PlacementMode::Indexed => 2,
    });
    w.bool(c.record_outcomes);
    w.len_prefix(c.share.shards);
    match c.share.capacity_per_shard {
        Some(cap) => {
            w.bool(true);
            w.len_prefix(cap);
        }
        None => w.bool(false),
    }
    match c.share.admission {
        AdmissionPolicy::AdmitAll => w.u8(0),
        AdmissionPolicy::SeenTwice { seed, slots_log2 } => {
            w.u8(1);
            w.u64(seed);
            w.u32(slots_log2);
        }
    }
    // v3: locality-aware ranking flag.
    w.bool(c.locality.enabled);
}

fn load_cfg(r: &mut Reader<'_>) -> Result<EventConfig, SavestateError> {
    Ok(EventConfig {
        queue_capacity: r.len_prefix()?,
        steal: StealPolicy {
            enabled: r.bool()?,
            min_victim_backlog_us: r.f64()?,
            poll: Duration::from_nanos(r.u64()?),
        },
        breaker: BreakerPolicy {
            trip_threshold: r.len_prefix()?,
            open_batches: r.len_prefix()?,
        },
        max_reroutes: r.u32()?,
        witness_every: r.len_prefix()?,
        placement: match r.u8()? {
            0 => PlacementMode::Auto,
            1 => PlacementMode::Exact,
            2 => PlacementMode::Indexed,
            t => return Err(SavestateError::Corrupt(format!("bad placement tag {t}"))),
        },
        record_outcomes: r.bool()?,
        share: PlanShareConfig {
            shards: r.len_prefix()?,
            capacity_per_shard: if r.bool()? { Some(r.len_prefix()?) } else { None },
            admission: match r.u8()? {
                0 => AdmissionPolicy::AdmitAll,
                1 => AdmissionPolicy::SeenTwice { seed: r.u64()?, slots_log2: r.u32()? },
                t => return Err(SavestateError::Corrupt(format!("bad admission tag {t}"))),
            },
        },
        locality: LocalityPolicy { enabled: r.bool()? },
    })
}

fn save_fault(w: &mut Writer, f: &FaultInjector) {
    let cfg = f.config();
    w.u64(cfg.seed);
    w.u32(cfg.admit_reject_per_mille);
    w.u32(cfg.expire_per_mille);
    w.u32(cfg.plan_fail_per_mille);
    w.u32(cfg.exec_panic_per_mille);
    w.u32(cfg.degraded_panic_per_mille);
    w.u32(cfg.slow_worker_per_mille);
    w.u64(cfg.slow_delay.as_nanos().min(u128::from(u64::MAX)) as u64);
    let (draws, fired) = f.state();
    for v in draws {
        w.len_prefix(v);
    }
    for v in fired {
        w.len_prefix(v);
    }
}

fn load_fault(r: &mut Reader<'_>) -> Result<FaultInjector, SavestateError> {
    let mut cfg = FaultConfig::new(r.u64()?);
    cfg.admit_reject_per_mille = r.u32()?;
    cfg.expire_per_mille = r.u32()?;
    cfg.plan_fail_per_mille = r.u32()?;
    cfg.exec_panic_per_mille = r.u32()?;
    cfg.degraded_panic_per_mille = r.u32()?;
    cfg.slow_worker_per_mille = r.u32()?;
    cfg.slow_delay = Duration::from_nanos(r.u64()?);
    let mut draws = [0usize; FAULT_SITES];
    for v in &mut draws {
        *v = r.len_prefix()?;
    }
    let mut fired = [0usize; FAULT_SITES];
    for v in &mut fired {
        *v = r.len_prefix()?;
    }
    Ok(FaultInjector::with_state(cfg, draws, fired))
}

fn save_gen(w: &mut Writer, g: &LoadGen) {
    w.u64(g.seed);
    w.f64(g.mean_interarrival_ns);
    w.len_prefix(g.mixes.len());
    for m in &g.mixes {
        w.str(m.name);
        save_shapes(w, &m.shapes);
        w.u32(m.weight);
    }
    w.u64(g.total_weight);
    w.len_prefix(g.remaining);
    w.u64(g.drawn);
}

/// Map a restored mix-class name back to a `&'static str`: the known
/// [`LoadGen::table2`] classes intern for free; anything else leaks one
/// small allocation per distinct name per process — bounded by the
/// restore call sites, which are test/replay harnesses.
fn intern_mix_name(s: String) -> &'static str {
    for known in ["small", "medium", "large", "tall", "wide", "huge"] {
        if known == s {
            return known;
        }
    }
    Box::leak(s.into_boxed_str())
}

fn load_gen(r: &mut Reader<'_>) -> Result<LoadGen, SavestateError> {
    Ok(LoadGen {
        seed: r.u64()?,
        mean_interarrival_ns: r.f64()?,
        mixes: r.seq(|r| {
            Ok(ShapeMix {
                name: intern_mix_name(r.str()?),
                shapes: load_shapes(r)?,
                weight: r.u32()?,
            })
        })?,
        total_weight: r.u64()?,
        remaining: r.len_prefix()?,
        drawn: r.u64()?,
    })
}

fn save_stats(w: &mut Writer, s: &ClusterInner) {
    for v in [
        &s.submitted,
        &s.completed,
        &s.degraded,
        &s.routed,
        &s.steals,
        &s.reroutes,
        &s.worker_panics,
        &s.plan_failures,
        &s.breaker_trips,
        &s.kills,
    ] {
        w.len_prefix(v.load(Ordering::Relaxed));
    }
    w.f64(s.err_abs_sum_us.load());
    w.len_prefix(s.err_count.load(Ordering::Relaxed));
    let lat = s.latencies();
    w.len_prefix(lat.len());
    for v in lat {
        w.f64(v);
    }
    // v3: residency accounting.
    w.len_prefix(s.residency_hits.load(Ordering::Relaxed));
    w.len_prefix(s.residency_misses.load(Ordering::Relaxed));
    w.u64(s.remote_operand_bytes.load(Ordering::Relaxed));
}

fn load_stats(r: &mut Reader<'_>, s: &ClusterInner) -> Result<(), SavestateError> {
    for slot in [
        &s.submitted,
        &s.completed,
        &s.degraded,
        &s.routed,
        &s.steals,
        &s.reroutes,
        &s.worker_panics,
        &s.plan_failures,
        &s.breaker_trips,
        &s.kills,
    ] {
        slot.store(r.len_prefix()?, Ordering::Relaxed);
    }
    s.err_abs_sum_us.set(r.f64()?);
    s.err_count.store(r.len_prefix()?, Ordering::Relaxed);
    s.set_latencies(r.seq(|r| r.f64())?);
    s.residency_hits.store(r.len_prefix()?, Ordering::Relaxed);
    s.residency_misses.store(r.len_prefix()?, Ordering::Relaxed);
    s.remote_operand_bytes.store(r.u64()?, Ordering::Relaxed);
    Ok(())
}

/// Checkpoint / restore / migration. The engine is single-threaded, so
/// any moment between [`EventCluster::step`] calls is a consistent
/// *event boundary*: no half-dispatched event exists, every pending
/// cause lives on the timeline, and every decision source (fault
/// cursors, breaker runs, memoized sims, the tie-break counter) is a
/// plain value. [`checkpoint`](Self::checkpoint) serializes exactly
/// those values — no wall-clock, no addresses — which is why a restored
/// engine re-runs the remainder of the schedule decision-for-decision
/// and byte-for-byte (trace included); `tests/savestate.rs` enforces
/// this differentially at swept crash points over the chaos schedules.
impl EventCluster {
    /// Serialize the engine's complete state at the current event
    /// boundary into a versioned blob.
    ///
    /// # Panics
    ///
    /// Calibration runs are not checkpointable: a ground-truth pool,
    /// an open decision log, or an installed calibration profile are
    /// runtime-only state the pinned blob format deliberately excludes
    /// (a restored engine could not replay the same charged times or
    /// corrected predictions). Record and calibrate first, checkpoint
    /// after.
    pub fn checkpoint(&self) -> Vec<u8> {
        assert!(
            self.ground_truth.is_none()
                && self.decisions.is_none()
                && !self.swappable
                && self.share.calib().version() == 0,
            "calibration runs are not checkpointable: detach the ground-truth pool, stop \
             decision recording, use a non-swappable engine and leave the share's \
             CalibHandle at version 0 before checkpointing"
        );
        let mut w = Writer::with_header();
        save_cfg(&mut w, &self.cfg);
        w.bool(self.obs.is_some());
        // -- engine scalars
        w.u64(self.now.as_ns());
        w.u64(self.next_job_id);
        w.u64(self.events_processed);
        w.len_prefix(self.requests);
        w.len_prefix(self.witnesses);
        w.len_prefix(self.witness_mismatches);
        w.len_prefix(self.pending_arrivals);
        w.len_prefix(self.open_jobs);
        w.bool(self.breaker_active);
        // -- open-loop load source
        match &self.gen {
            Some(g) => {
                w.bool(true);
                save_gen(&mut w, g);
            }
            None => w.bool(false),
        }
        // -- devices (pool order)
        w.len_prefix(self.devices.len());
        for d in &self.devices {
            w.str(d.arch().name);
            w.bool(d.alive);
            w.bool(d.queue.is_closed());
            w.len_prefix(d.queue.len());
            for j in d.queue.iter() {
                save_job(&mut w, j, &self.sigs);
            }
            match &d.running {
                Some(Running { job, fate }) => {
                    w.bool(true);
                    save_job(&mut w, job, &self.sigs);
                    save_fate(&mut w, fate);
                }
                None => w.bool(false),
            }
            w.f64(d.backlog_us);
            w.f64(d.busy_sim_us);
            let (consecutive, open_remaining) = d.breaker.state();
            w.len_prefix(consecutive);
            w.len_prefix(open_remaining);
            match &d.fault {
                Some(f) => {
                    w.bool(true);
                    save_fault(&mut w, f);
                }
                None => w.bool(false),
            }
            for v in d.tally {
                w.len_prefix(v);
            }
            w.bool(d.steal_pending);
            w.bool(d.probe_pending);
            // Plan-cache accounting, pinned back after the restore
            // replans (replanning would otherwise count as misses).
            let s = d.session.stats();
            w.len_prefix(s.hits);
            w.len_prefix(s.misses);
            w.len_prefix(d.session.plan_failures());
            // v3: chiplet topology, validated against the restore pool
            // so a resumed run ranks with the same locality penalties.
            let topo = d.arch().topology;
            w.u32(topo.chiplets);
            w.f64(topo.local_bandwidth_gbps);
            w.f64(topo.remote_bandwidth_gbps);
            w.f64(topo.interposer_latency_us);
        }
        // -- timeline (pending events + tie-break counter)
        self.timeline.save_with(&mut w, |w, ev| save_ev(w, ev, &self.jobs, &self.sigs));
        // -- shared plans + simulation memo
        self.share.save(&mut w);
        // -- engine prediction cache as `(arch name, shapes) → result`,
        // sorted for byte-stable output (ids are engine-local)
        type PredEntry<'a> = (&'static str, &'a Arc<[GemmShape]>, &'a Result<f64, String>);
        let mut preds: Vec<PredEntry<'_>> = Vec::new();
        for (i, info) in self.sigs.info.iter().enumerate() {
            for (class, &rep) in self.class_rep.iter().enumerate() {
                if let Some(res) = &self.sigs.cell(SigId(i as u32), class).pred {
                    preds.push((self.devices[rep].arch().name, &info.shapes, res));
                }
            }
        }
        preds.sort_by_key(|(name, shapes, _)| {
            (*name, shapes.iter().map(|s| (s.m, s.n, s.k)).collect::<Vec<_>>())
        });
        w.len_prefix(preds.len());
        for (name, shapes, res) in preds {
            w.str(name);
            save_shapes(&mut w, shapes);
            match res {
                Ok(us) => {
                    w.u8(0);
                    w.f64(*us);
                }
                Err(m) => {
                    w.u8(1);
                    w.str(m);
                }
            }
        }
        // -- recorded outcomes
        w.len_prefix(self.outcomes.len());
        for o in &self.outcomes {
            save_outcome(&mut w, o);
        }
        // -- cluster-wide counters + latency log
        save_stats(&mut w, &self.stats);
        // -- instrumentation state, last: restore replays plans first
        // (which emits events), then overwrites the log with this.
        if let (Some(clock), Some(obs)) = (&self.clock, &self.obs) {
            w.u64(clock.now_us());
            obs.save_state(&mut w);
        }
        w.into_bytes()
    }

    /// Rebuild an engine from a [`checkpoint`](Self::checkpoint) blob.
    /// `pool` must be the same architecture sequence the checkpointed
    /// engine was built over (checked by name, per device — a typed
    /// [`SavestateError::Mismatch`] otherwise). Returns the engine and,
    /// when the checkpoint was instrumented, its freshly attached
    /// [`Obs`] (the caller's handle for trace comparison).
    ///
    /// Restore order matters and is fixed: sessions are rebuilt first,
    /// the shared memo loads, plans are *replanned* through their
    /// fingerprint-matched sessions (every candidate simulation hits
    /// the restored memo, so this is cheap and bitwise-faithful), then
    /// the cache counters are pinned back over the replanning traffic,
    /// and the obs log is overwritten last — discarding the plan spans
    /// replanning just emitted.
    pub fn restore(
        pool: Vec<ArchSpec>,
        bytes: &[u8],
    ) -> Result<(Self, Option<Arc<Obs>>), SavestateError> {
        let (mut r, version) = Reader::with_header(bytes)?;
        // v2 extended the embedded `PlanShare` image (shard layout,
        // capacity bound, admission gate); v3 added chiplet topology,
        // the locality ranking flag, operand residency and its
        // counters. Either way an older checkpoint no longer describes
        // a decodable engine. `import_jobs` still accepts older exports
        // — the job layout is unchanged.
        if version < 3 {
            return Err(SavestateError::Mismatch(format!(
                "cluster checkpoint format v{version} predates the chiplet-topology \
                 and residency layout (v3); re-checkpoint with the current engine"
            )));
        }
        let cfg = load_cfg(&mut r)?;
        let (clock, obs) = if r.bool()? {
            let clock = Arc::new(SimClock::new());
            let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
            (Some(clock), Some(obs))
        } else {
            (None, None)
        };
        if pool.is_empty() {
            return Err(SavestateError::Mismatch("the restore pool is empty".into()));
        }
        // A fresh engine over the pool: its sessions, share (the cfg
        // carries the shard/capacity/admission layout the blob's share
        // image describes) and class tables; the blob then overwrites
        // every piece of state it carries.
        let n_devices = pool.len();
        let mut eng = EventCluster::build(pool, cfg, vec![None; n_devices], obs.clone(), clock, false);
        eng.now = SimTime(r.u64()?);
        eng.next_job_id = r.u64()?;
        eng.events_processed = r.u64()?;
        eng.requests = r.len_prefix()?;
        eng.witnesses = r.len_prefix()?;
        eng.witness_mismatches = r.len_prefix()?;
        eng.pending_arrivals = r.len_prefix()?;
        eng.open_jobs = r.len_prefix()?;
        eng.breaker_active = r.bool()?;
        if r.bool()? {
            let gen = load_gen(&mut r)?;
            eng.gen_sigs = gen.mixes.iter().map(|m| eng.sigs.intern(&m.shapes)).collect();
            eng.gen = Some(gen);
        }
        let saved_devices = r.len_prefix()?;
        if saved_devices != n_devices {
            return Err(SavestateError::Mismatch(format!(
                "checkpoint holds {saved_devices} devices, restore pool holds {n_devices}"
            )));
        }
        let mut session_stats = Vec::with_capacity(n_devices);
        for id in 0..n_devices {
            let saved_name = r.str()?;
            let arch = eng.devices[id].arch();
            if saved_name != arch.name {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint arch {saved_name:?}, restore pool has {:?}",
                    arch.name
                )));
            }
            let alive = r.bool()?;
            let closed = r.bool()?;
            let items = r.seq(|r| load_job(r, &mut eng.sigs))?;
            let running = if r.bool()? {
                let job = load_job(&mut r, &mut eng.sigs)?;
                Some(Running { job, fate: load_fate(&mut r)? })
            } else {
                None
            };
            let (cap, policy) = (eng.cfg.queue_capacity, eng.cfg.breaker.clone());
            let d = &mut eng.devices[id];
            d.alive = alive;
            d.queue = DeviceQueue::restore(cap, closed, items);
            d.running = running;
            d.backlog_us = r.f64()?;
            d.busy_sim_us = r.f64()?;
            d.breaker = Breaker::restore(policy, r.len_prefix()?, r.len_prefix()?);
            d.fault = if r.bool()? { Some(Arc::new(load_fault(&mut r)?)) } else { None };
            for v in &mut d.tally {
                *v = r.len_prefix()?;
            }
            d.steal_pending = r.bool()?;
            d.probe_pending = r.bool()?;
            session_stats.push((r.len_prefix()?, r.len_prefix()?, r.len_prefix()?));
            let topo = ctb_gpu_specs::ChipletTopology {
                chiplets: r.u32()?,
                local_bandwidth_gbps: r.f64()?,
                remote_bandwidth_gbps: r.f64()?,
                interposer_latency_us: r.f64()?,
            };
            let pool_topo = d.arch().topology;
            if topo != pool_topo {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint topology {topo:?}, restore pool has {pool_topo:?}"
                )));
            }
        }
        let (jobs, sigs) = (&mut eng.jobs, &mut eng.sigs);
        eng.timeline = Timeline::load_with(&mut r, |r| load_ev(r, jobs, sigs, n_devices))?;
        {
            let sessions: Vec<&Session> = eng.devices.iter().map(|d| &*d.session).collect();
            eng.share.restore_with_sessions(&mut r, &sessions)?;
        }
        for (d, (hits, misses, plan_failures)) in eng.devices.iter().zip(session_stats) {
            d.session.set_stats(CacheStats { hits, misses });
            d.session.set_plan_failures(plan_failures);
        }
        let n_preds = r.len_prefix()?;
        for _ in 0..n_preds {
            let name = r.str()?;
            let class_rep = &eng.class_rep;
            let Some(class) = class_rep.iter().position(|&d| eng.devices[d].arch().name == name)
            else {
                return Err(SavestateError::Mismatch(format!(
                    "prediction cache names arch {name:?}, absent from the restore pool"
                )));
            };
            let sig = eng.sigs.intern(&load_shapes(&mut r)?);
            let res = match r.u8()? {
                0 => Ok(r.f64()?),
                1 => Err(r.str()?),
                t => return Err(SavestateError::Corrupt(format!("bad prediction tag {t}"))),
            };
            eng.sigs.cell_mut(sig, class).pred = Some(res);
        }
        eng.outcomes = r.seq(load_outcome)?;
        load_stats(&mut r, &eng.stats)?;
        if let (Some(clock), Some(obs)) = (&eng.clock, &eng.obs) {
            clock.set(r.u64()?);
            obs.restore_state(&mut r)?;
        }
        r.expect_end()?;
        // The per-class index restarts from the live backlogs: one fresh
        // entry per alive device reproduces the same argmin choices.
        for id in 0..n_devices {
            eng.index_touch(id);
        }
        Ok((eng, obs))
    }

    /// Take `device` out of service and export its *queued* jobs as a
    /// portable blob — the migration half of a planned drain. Like
    /// [`kill_at`](Self::kill_at) the device is marked dead, its queue
    /// closed, and a job mid-execution still completes here (its
    /// `ExecDone` is already on the heap); unlike a kill, the queued
    /// work leaves this engine instead of re-routing, so a peer can
    /// [`import_jobs`](Self::import_jobs) it with zero drops.
    pub fn halt_and_export(&mut self, device: usize) -> Vec<u8> {
        assert!(device < self.devices.len(), "no such device");
        core::retire(self, device);
        // Dead devices leave the placement index.
        self.index_touch(device);
        let mut jobs = Vec::new();
        while let Some(job) = self.devices[device].queue.pop() {
            self.devices[device].backlog_us -= job.predicted_us;
            self.open_jobs -= 1;
            jobs.push(job);
        }
        let mut w = Writer::with_header();
        w.len_prefix(jobs.len());
        for j in &jobs {
            save_job(&mut w, j, &self.sigs);
        }
        w.into_bytes()
    }

    /// Admit jobs exported by a peer's [`halt_and_export`](Self::halt_and_export):
    /// each re-enters through the normal arrival path at the current
    /// sim time under a fresh engine-local id (ids are engine-scoped),
    /// keeping its shape signature, data seed and witness flag. Returns
    /// how many jobs were admitted.
    pub fn import_jobs(&mut self, bytes: &[u8]) -> Result<usize, SavestateError> {
        let (mut r, _version) = Reader::with_header(bytes)?;
        let jobs = r.seq(|r| load_job(r, &mut self.sigs))?;
        r.expect_end()?;
        let n = jobs.len();
        for mut job in jobs {
            job.id = self.next_job_id;
            self.next_job_id += 1;
            job.body.arrived = self.now;
            job.attempts = 0;
            self.schedule_arrival(self.now, job);
        }
        Ok(n)
    }

    /// Per-device injected-fault accounting (`None` where no chaos
    /// schedule is attached). A restored engine owns *fresh* injectors
    /// rebuilt from serialized cursors, so differential suites compare
    /// fault history through this seam rather than through the `Arc`s
    /// they passed at construction.
    pub fn fault_logs(&self) -> Vec<Option<FaultLog>> {
        self.devices.iter().map(|d| d.fault.as_ref().map(|f| f.log())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_serve::FaultConfig;
    use std::time::Duration;

    fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
        shapes.into()
    }

    fn quiet_cfg() -> EventConfig {
        EventConfig::default()
    }

    #[test]
    fn timeline_orders_by_time_then_schedule_order() {
        let mut t: Timeline<u32> = Timeline::new();
        t.schedule(SimTime(50), 1);
        t.schedule(SimTime(10), 2);
        t.schedule(SimTime(50), 3);
        t.schedule(SimTime(10), 4);
        assert_eq!(t.peek_time(), Some(SimTime(10)));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| t.pop())
            .map(|(at, ev)| (at.as_ns(), ev))
            .collect();
        // Equal timestamps pop FIFO in schedule order.
        assert_eq!(order, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        assert!(t.is_empty());
    }

    #[test]
    fn sim_time_units_convert() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime(1_500).as_us(), 1);
        assert_eq!(SimTime(1_500).plus(500).as_us(), 2);
    }

    #[test]
    fn single_request_is_witnessed_and_bitwise_exact() {
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), quiet_cfg());
        eng.submit_at(
            SimTime::ZERO,
            sig(&[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128)]),
            7,
        );
        let report = eng.run();
        assert_eq!(report.requests, 1);
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.degraded, 0);
        assert_eq!(report.witnesses, 1);
        assert_eq!(report.witness_mismatches, 0, "witness must be bitwise-exact");
        assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
        assert!(matches!(
            report.outcomes[..],
            [ReqOutcome::Done { id: 0, degraded: false, stolen: false, reroutes: 0, .. }]
        ));
    }

    #[test]
    fn loadgen_is_deterministic_and_conserves_requests() {
        let mut a = LoadGen::table2(11, 40_000.0, 64);
        let mut b = LoadGen::table2(11, 40_000.0, 64);
        let da: Vec<_> = std::iter::from_fn(|| a.next()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next()).collect();
        assert_eq!(da.len(), 64);
        assert_eq!(da, db, "same seed, same arrival process");
        assert!(da.iter().all(|(dt, _, _)| *dt >= 1));
        // More than one mix class gets drawn at 64 requests.
        let distinct: std::collections::HashSet<usize> =
            da.iter().map(|(_, class, _)| *class).collect();
        assert!(distinct.len() > 1, "mix draws collapse to one class");
    }

    #[test]
    fn open_loop_load_completes_every_request() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 97;
        let mut eng = EventCluster::new(ArchSpec::pool_presets(4), cfg);
        eng.load(LoadGen::table2(3, 30_000.0, 400));
        let report = eng.run();
        assert_eq!(report.requests, 400);
        assert_eq!(report.stats.submitted, 400);
        assert_eq!(report.stats.completed, 400);
        assert_eq!(report.stats.degraded, 0);
        assert!(report.witnesses >= 4);
        assert_eq!(report.witness_mismatches, 0);
        assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
        assert!(report.events_processed as usize >= 3 * 400);
    }

    #[test]
    fn same_inputs_same_outcomes_and_trace() {
        let build = || {
            let mut cfg = quiet_cfg();
            cfg.witness_every = 5;
            let (mut eng, obs) =
                EventCluster::with_instrumentation(ArchSpec::pool_presets(3), cfg, vec![None; 3]);
            eng.load(LoadGen::table2(21, 25_000.0, 120));
            let report = eng.run();
            (report, obs.render())
        };
        let (ra, ta) = build();
        let (rb, tb) = build();
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.events_processed, rb.events_processed);
        assert_eq!(ra.stats.makespan_sim_us, rb.stats.makespan_sim_us);
        assert_eq!(ta, tb, "same inputs must render a byte-identical trace");
    }

    #[test]
    fn indexed_placement_matches_exact_scan() {
        let run = |mode: PlacementMode| {
            let mut cfg = quiet_cfg();
            cfg.witness_every = 0;
            cfg.placement = mode;
            let mut eng = EventCluster::new(ArchSpec::pool_presets(12), cfg);
            // Tight inter-arrivals so queues build and spill-down and
            // steals actually exercise the index.
            eng.load(LoadGen::table2(9, 4_000.0, 500));
            eng.run()
        };
        let exact = run(PlacementMode::Exact);
        let indexed = run(PlacementMode::Indexed);
        assert_eq!(exact.outcomes, indexed.outcomes, "index changed a routing decision");
        assert_eq!(exact.stats.makespan_sim_us, indexed.stats.makespan_sim_us);
        assert_eq!(exact.stats.steals, indexed.stats.steals);
        assert_eq!(exact.stats.completed, 500);
    }

    #[test]
    fn kill_reroutes_queued_work_to_survivors() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 3;
        cfg.steal.enabled = false;
        let mut eng = EventCluster::new(ArchSpec::pool_presets(2), cfg);
        let shapes = sig(&[GemmShape::new(64, 64, 320); 2]);
        for i in 0..10 {
            eng.submit_at(SimTime::ZERO, shapes.clone(), i);
        }
        // Kill device 0 while its queue still holds work.
        eng.kill_at(SimTime(5), 0);
        let report = eng.run();
        assert_eq!(report.stats.kills, 1);
        assert_eq!(report.stats.completed, 10, "kill must not drop work");
        assert!(report.stats.reroutes > 0, "queued batches re-route off the dead device");
        assert_eq!(report.witness_mismatches, 0);
        // Everything after the kill lands on (or finishes on) device 1
        // or the degraded baseline — never the corpse.
        let late_on_dead = report.outcomes.iter().any(|o| {
            matches!(o, ReqOutcome::Done { device: 0, degraded: false, reroutes, .. } if *reroutes > 0)
        });
        assert!(!late_on_dead, "re-routed work must avoid the killed device");
    }

    #[test]
    fn stalled_victim_gets_relieved_by_steals() {
        // Device 0 stalls 2 ms (sim) per job, so its queue outlives
        // device 1's; once device 1 idles, the model says moving the
        // front batch wins and the steal fires.
        let mut cfg = quiet_cfg();
        cfg.witness_every = 0;
        let fault = Arc::new(FaultInjector::new(
            FaultConfig::new(5).slow_worker(1000, Duration::from_millis(2)),
        ));
        let mut eng = EventCluster::with_faults(
            ArchSpec::pool_presets(2),
            cfg,
            vec![Some(fault), None],
        );
        let shapes = sig(&[GemmShape::new(64, 64, 128); 3]);
        for i in 0..20 {
            eng.submit_at(SimTime::ZERO, shapes.clone(), i);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 20);
        assert!(report.stats.steals >= 1, "expected at least one steal, got stats {:?}", report.stats.steals);
        let stolen = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, ReqOutcome::Done { stolen: true, .. }))
            .count();
        assert_eq!(stolen, report.stats.steals);
    }

    #[test]
    fn exec_panics_trip_the_breaker_and_work_survives() {
        let mut cfg = quiet_cfg();
        cfg.witness_every = 4;
        let fault = Arc::new(FaultInjector::new(FaultConfig::new(2).exec_panic(1000)));
        let mut eng = EventCluster::with_faults(
            ArchSpec::pool_presets(2),
            cfg,
            vec![Some(Arc::clone(&fault)), None],
        );
        let shapes = sig(&[GemmShape::new(48, 48, 256); 2]);
        for i in 0..30 {
            eng.submit_at(SimTime(i * 1_000), shapes.clone(), i);
        }
        let report = eng.run();
        assert_eq!(report.stats.completed, 30, "every request still completes");
        assert_eq!(report.stats.worker_panics, fault.log().exec_panics);
        assert!(report.stats.breaker_trips >= 1, "8 consecutive panics must trip");
        assert_eq!(report.witness_mismatches, 0);
        // Jobs that failed on device 0 finish elsewhere.
        assert!(report.stats.reroutes >= report.stats.worker_panics);
    }

    /// Every class index holds exactly its live devices, each at its
    /// current backlog key, and its head is the brute-force argmin.
    fn assert_index_exact(eng: &EventCluster) {
        for class in 0..eng.class_rep.len() {
            let mut got: Vec<(u64, usize)> = eng.index.entries(class).collect();
            got.sort_unstable();
            let mut want: Vec<(u64, usize)> = (0..eng.devices.len())
                .filter(|&d| eng.class_of[d] == class && eng.devices[d].alive)
                .map(|d| (eng.index_key(d), d))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "class {class} index drifted from its live devices");
            assert_eq!(eng.index.peek(class), want.first().copied(), "class {class} argmin");
        }
    }

    #[test]
    fn placement_index_holds_exactly_the_live_devices_and_scans_to_the_argmin() {
        let devices = 96;
        let mut cfg = quiet_cfg();
        cfg.witness_every = 0;
        cfg.placement = PlacementMode::Indexed;
        cfg.queue_capacity = 1 << 12;
        cfg.steal = StealPolicy {
            enabled: true,
            min_victim_backlog_us: 10.0,
            poll: Duration::from_micros(20),
        };
        let mut faults = vec![None; devices];
        faults[0] = Some(Arc::new(FaultInjector::new(
            FaultConfig::new(9).slow_worker(500, Duration::from_micros(400)),
        )));
        let mut eng = EventCluster::with_faults(ArchSpec::pool_presets(devices), cfg, faults);
        eng.load(LoadGen::table2(5, 80.0, 6_000));
        eng.kill_at(SimTime::from_us(40), 7);
        eng.kill_at(SimTime::from_us(160), 50);
        assert_index_exact(&eng);
        while eng.step() {
            if eng.events_processed.is_multiple_of(61) {
                assert_index_exact(&eng);
            }
        }
        assert_index_exact(&eng);
        let report = eng.report();
        assert_eq!(report.stats.kills, 2);
        assert!(report.stats.steals > 0, "the stalled device must be stolen from");
        assert_eq!(report.stats.completed, 6_000);
        // Bounded: one entry per live device, however long the run.
        let entries: usize = (0..eng.class_rep.len()).map(|c| eng.index.entries(c).count()).sum();
        assert_eq!(entries, devices - 2);
    }

    fn job(id: u64) -> EvJob {
        Job::new(id, Req { sig: SigId(0), seed: 0, arrived: SimTime::ZERO, witness: false })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The key-only timeline with slab-held payloads against a
        /// reference `BinaryHeap<(at, seq)>` with a side table, under
        /// random schedule/pop interleavings. Small time deltas force
        /// timestamp ties; popped jobs are often rescheduled, which
        /// reuses their freed slab slots. Pop order, payloads, pending
        /// counts and the serialized bytes must all agree, and a
        /// save → load round trip must drain identically.
        #[test]
        fn timeline_matches_reference_heap_under_random_interleavings(
            ops in proptest::collection::vec((0u32..5, 0u64..4), 1..=160),
        ) {
            /// The timeline under test, its slab, and the reference.
            struct Pair {
                timeline: Timeline<JobSlot>,
                slab: JobSlab,
                reference: BinaryHeap<Reverse<(SimTime, u64)>>,
                payload: HashMap<u64, u64>,
                next_seq: u64,
            }
            impl Pair {
                fn schedule(&mut self, at: SimTime, id: u64) {
                    let seq = self.timeline.schedule(at, self.slab.insert(job(id)));
                    assert_eq!(seq, self.next_seq, "seq is the schedule counter");
                    self.next_seq += 1;
                    self.reference.push(Reverse((at, seq)));
                    self.payload.insert(seq, id);
                }
            }
            let mut p = Pair {
                timeline: Timeline::new(),
                slab: JobSlab::default(),
                reference: BinaryHeap::new(),
                payload: HashMap::new(),
                next_seq: 0,
            };
            let (mut now, mut next_id) = (SimTime::ZERO, 0u64);
            for (op, dt) in ops {
                if op < 3 {
                    p.schedule(now.plus(dt), next_id);
                    next_id += 1;
                    continue;
                }
                let got = p.timeline.pop().map(|(at, slot)| (at, p.slab.take(slot).id));
                let want = p.reference.pop().map(|Reverse((at, seq))| (at, p.payload[&seq]));
                assert_eq!(got, want, "pop order");
                if let Some((at, id)) = got {
                    now = at;
                    if op == 4 {
                        // Reschedule the popped job, as a backoff retry
                        // or a device's next ExecDone would.
                        p.schedule(now.plus(dt), id);
                    }
                }
            }
            let Pair { timeline, slab, reference, payload, next_seq } = p;
            assert_eq!(timeline.len(), reference.len());
            assert_eq!(timeline.peek_time(), reference.peek().map(|Reverse((at, _))| *at));

            let mut w = Writer::new();
            timeline.save_with(&mut w, |w, slot| w.u64(slab.get(*slot).id));
            let bytes = w.into_bytes();
            let mut sorted: Vec<(SimTime, u64)> =
                reference.iter().map(|Reverse(k)| *k).collect();
            sorted.sort_unstable();
            let mut w = Writer::new();
            w.u64(next_seq);
            w.len_prefix(sorted.len());
            for (at, seq) in &sorted {
                w.u64(at.as_ns());
                w.u64(*seq);
                w.u64(payload[seq]);
            }
            assert_eq!(bytes, w.into_bytes(), "save_with writes pop order");

            let mut r = Reader::new(&bytes);
            let mut restored = Timeline::load_with(&mut r, |r| r.u64()).expect("round trip");
            r.expect_end().expect("no trailing bytes");
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| restored.pop()).collect();
            let expect: Vec<(SimTime, u64)> =
                sorted.iter().map(|(at, seq)| (*at, payload[seq])).collect();
            assert_eq!(drained, expect, "restored timeline pops in the same order");
        }
    }
}
