//! The serving workloads: open-loop Poisson traffic and saturating
//! bursts into `ctb_serve::Server` through its `AsyncFront`.

use crate::layers::replay_planning;
use crate::mixes::hot_pool;
use crate::report::{absent, Metrics, Outcome};
use crate::stats::{mean, median, overhead_pct, peak_rss_mb, require_percentile, Rng};
use crate::trace::Tracer;
use ctb_core::{AdmissionPolicy, Framework, PlanShare, PlanShareConfig, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{GemmBatch, GemmShape, MatF32};
use ctb_serve::{
    AsyncFront, GemmRequest, GemmResult, ServeConfig, ServeError, ServeStats, Server, Ticket,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALPHA: f32 = 1.0;
const BETA: f32 = 0.5;
/// Input sets per `serve_hot` pool shape.
const HOT_VARIANTS: usize = 4;
/// `serve_churn`'s signature space: M, N, K each in 1..=100.
const CHURN_SPACE: usize = 1_000_000;
const CHURN_HOT_SHAPES: usize = 32;
const CHURN_HOT_PER_MILLE: u64 = 500;
/// Repeated set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// How often the generator wakes to look for delivered results.
const POLL: Duration = Duration::from_micros(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Mid-size GEMMs from a small pool, coalescing on: the executor
    /// and the coalescer do the work, the plan cache is read.
    Hot,
    /// Tiny GEMMs from a 10^6-signature space over a bounded, sharded,
    /// seen-twice plan cache, one GEMM per batch: the planner does a
    /// third of the work and the cache is written.
    Churn,
}

struct Spec {
    /// Offered open-loop rate, requests per second.
    rate: f64,
    /// Requests in one saturating burst, and how many of them may be
    /// outstanding at once.
    burst: (usize, usize),
    cfg: ServeConfig,
}

impl Kind {
    fn spec(self) -> Spec {
        // At most one executor per core: the open loop keeps both
        // mostly idle, so a request rarely waits behind another one.
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, 2);
        match self {
            Kind::Hot => Spec {
                rate: 250.0,
                burst: (512, 128),
                cfg: ServeConfig {
                    max_batch: 32,
                    batch_window: Duration::from_micros(300),
                    queue_capacity: 256,
                    workers,
                    ..ServeConfig::default()
                },
            },
            Kind::Churn => Spec {
                rate: 1_000.0,
                burst: (2_000, 256),
                cfg: ServeConfig {
                    max_batch: 1,
                    batch_window: Duration::from_micros(50),
                    queue_capacity: 256,
                    workers,
                    ..ServeConfig::default()
                },
            },
        }
    }

    fn server(self, cfg: ServeConfig) -> Server {
        let fw = Framework::new(ArchSpec::volta_v100());
        match self {
            Kind::Hot => Server::new(fw, cfg),
            Kind::Churn => {
                let share = PlanShare::with_config(PlanShareConfig {
                    shards: 16,
                    capacity_per_shard: Some(4),
                    admission: AdmissionPolicy::SeenTwice {
                        seed: 0xC4_0C4E,
                        slots_log2: 12,
                    },
                });
                Server::with_session(Arc::new(Session::with_share(fw, Arc::new(share))), cfg)
            }
        }
    }
}

/// Which input set a request carries: its reference digest is shared
/// by every request with the same key.
type DataKey = (GemmShape, u64);

/// The seeded request stream. Draws depend only on the seed and the
/// order of calls, never on timing.
struct Stream {
    kind: Kind,
    rng: Rng,
    data_salt: u64,
    hot: Vec<GemmShape>,
    /// Pre-generated `serve_hot` inputs, by pool index and variant.
    hot_inputs: Vec<Vec<GemmBatch>>,
    churn_hot: Vec<GemmShape>,
}

fn churn_shape(index: usize) -> GemmShape {
    GemmShape::new(
        1 + index % 100,
        1 + (index / 100) % 100,
        1 + (index / 10_000) % 100,
    )
}

impl Stream {
    fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let data_salt = rng.next_u64();
        let hot = hot_pool();
        let hot_inputs = match kind {
            Kind::Hot => hot
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (0..HOT_VARIANTS)
                        .map(|v| {
                            let data = data_salt ^ ((i * HOT_VARIANTS + v) as u64);
                            GemmBatch::random(&[*s], ALPHA, BETA, data)
                        })
                        .collect()
                })
                .collect(),
            Kind::Churn => Vec::new(),
        };
        let churn_hot = (0..CHURN_HOT_SHAPES)
            .map(|_| churn_shape(rng.below(CHURN_SPACE)))
            .collect();
        Stream {
            kind,
            rng,
            data_salt,
            hot,
            hot_inputs,
            churn_hot,
        }
    }

    /// The next request's shape and input key.
    fn next_key(&mut self) -> DataKey {
        match self.kind {
            Kind::Hot => {
                let i = self.rng.below(self.hot.len());
                let v = self.rng.below(HOT_VARIANTS);
                (self.hot[i], (i * HOT_VARIANTS + v) as u64)
            }
            Kind::Churn => {
                let shape = if self.rng.below(1000) < CHURN_HOT_PER_MILLE as usize {
                    self.churn_hot[self.rng.below(CHURN_HOT_SHAPES)]
                } else {
                    churn_shape(self.rng.below(CHURN_SPACE))
                };
                (shape, self.rng.next_u64())
            }
        }
    }

    /// Keys of one saturating burst. A `serve_hot` burst holds every
    /// pool shape equally often, in seeded order, so bursts of different
    /// seeds carry the same work.
    fn burst_keys(&mut self, n: usize) -> Vec<DataKey> {
        match self.kind {
            Kind::Hot => {
                let mut keys: Vec<DataKey> = (0..n)
                    .map(|j| {
                        let i = j % self.hot.len();
                        let v = self.rng.below(HOT_VARIANTS);
                        (self.hot[i], (i * HOT_VARIANTS + v) as u64)
                    })
                    .collect();
                for j in (1..keys.len()).rev() {
                    keys.swap(j, self.rng.below(j + 1));
                }
                keys
            }
            Kind::Churn => (0..n).map(|_| self.next_key()).collect(),
        }
    }

    fn exp(&mut self, mean: f64) -> f64 {
        self.rng.exp(mean)
    }

    fn batch(&self, key: DataKey) -> GemmBatch {
        match self.kind {
            Kind::Hot => {
                let (i, v) = (key.1 as usize / HOT_VARIANTS, key.1 as usize % HOT_VARIANTS);
                self.hot_inputs[i][v].clone()
            }
            Kind::Churn => GemmBatch::random(&[key.0], ALPHA, BETA, self.data_salt ^ key.1),
        }
    }

    fn request(&self, key: DataKey) -> GemmRequest {
        let mut b = self.batch(key);
        GemmRequest {
            a: b.a.pop().expect("one GEMM"),
            b: b.b.pop().expect("one GEMM"),
            c: b.c.pop().expect("one GEMM"),
            alpha: b.alpha,
            beta: b.beta,
            deadline: None,
        }
    }

    /// Digest of the exact reference result for `key`.
    fn reference_digest(&self, key: DataKey) -> u64 {
        digest(&self.batch(key).reference_result_exact()[0])
    }
}

/// Digest of the first requests of a stream: keys and inter-arrivals.
pub fn stream_digest(kind: Kind, seed: u64) -> u64 {
    let mut stream = Stream::new(kind, seed);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..2_000 {
        let (shape, data) = stream.next_key();
        for x in [
            shape.m as u64,
            shape.n as u64,
            shape.k as u64,
            data,
            stream.exp(1.0).to_bits(),
        ] {
            h = (h ^ x).wrapping_mul(0x100_0000_01B3);
        }
    }
    h
}

/// FNV-1a over the dimensions and every element's bit pattern: equal
/// digests mean bitwise-equal results (up to a 2^-64 collision).
fn digest(m: &MatF32) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100_0000_01B3);
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for v in m.as_slice() {
        eat(v.to_bits() as u64);
    }
    h
}

/// One delivered response, recorded during the timed window and
/// checked against the reference after it.
struct Served {
    key: DataKey,
    /// Digest of the delivered result; `None` for a failed request.
    digest: Option<u64>,
}

#[derive(Default)]
struct OpenLoop {
    latency_us: Vec<f64>,
    /// When each latency sample was due, seconds into the loop.
    due_s: Vec<f64>,
    lag_us: Vec<f64>,
    queue_us: Vec<f64>,
    plan_us: Vec<f64>,
    exec_us: Vec<f64>,
    batch_size: Vec<f64>,
    flops: Vec<f64>,
    bytes: Vec<f64>,
}

fn record(served: &mut Vec<Served>, key: DataKey, res: Result<GemmResult, ServeError>) {
    if let Err(e) = &res {
        eprintln!("request {key:?} failed: {e}");
    }
    served.push(Served {
        key,
        digest: res.ok().map(|r| digest(&r.c)),
    });
}

/// Poisson arrivals at `spec.rate` for `dur`, each request timed from
/// its due time to the moment the generator sees its result.
fn open_loop(
    front: &AsyncFront,
    stream: &mut Stream,
    rate: f64,
    dur: Duration,
    tracer: &Tracer,
    served: &mut Vec<Served>,
) -> OpenLoop {
    struct Pending {
        ticket: Ticket,
        due: Instant,
        key: DataKey,
    }
    let mean_gap_s = 1.0 / rate;
    let mut ol = OpenLoop::default();
    let start = Instant::now();
    let end = start + dur;
    let mut next_due = start + Duration::from_secs_f64(stream.exp(mean_gap_s));
    let mut issuing = true;
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut id = 0u64;
    loop {
        let now = Instant::now();
        while issuing && next_due <= now {
            if next_due >= end {
                issuing = false;
                break;
            }
            let key = stream.next_key();
            let req = stream.request(key);
            ol.lag_us.push(next_due.elapsed().as_secs_f64() * 1e6);
            let submitted = tracer.span("serve.try_submit", id, None, |_| front.try_submit(req));
            id += 1;
            match submitted {
                Ok(ticket) => outstanding.push(Pending {
                    ticket,
                    due: next_due,
                    key,
                }),
                Err(e) => record(served, key, Err(e)),
            }
            next_due += Duration::from_secs_f64(stream.exp(mean_gap_s));
        }
        // Stamp every finished request of this sweep before checking any
        // of them, so checking one never delays another's stamp.
        let mut done = Vec::new();
        let mut i = 0;
        while i < outstanding.len() {
            match outstanding[i].ticket.poll() {
                Some(res) => {
                    let p = outstanding.swap_remove(i);
                    ol.latency_us.push(p.due.elapsed().as_secs_f64() * 1e6);
                    ol.due_s.push((p.due - start).as_secs_f64());
                    done.push((p.key, res));
                }
                None => i += 1,
            }
        }
        for (key, res) in done {
            if let Ok(r) = &res {
                ol.queue_us.push(r.timing.queue_us);
                ol.plan_us.push(r.timing.plan_us);
                ol.exec_us.push(r.timing.exec_us);
                ol.batch_size.push(r.timing.batch_size as f64);
                ol.flops.push(key.0.flops() as f64);
                ol.bytes.push(key.0.bytes() as f64);
            }
            record(served, key, res);
        }
        if !issuing && outstanding.is_empty() {
            return ol;
        }
        // Poll only while something is in flight; otherwise sleep until
        // the next arrival is due.
        let now = Instant::now();
        let wake = match (issuing, outstanding.is_empty()) {
            (true, true) => next_due,
            (true, false) => next_due.min(now + POLL),
            (false, _) => now + POLL,
        };
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
}

/// An offline batch of `n` requests, at most `in_flight` outstanding at
/// a time (enough to keep every worker fed with full batches); returns
/// requests per second from the first submission to the last result.
fn burst(
    front: &AsyncFront,
    stream: &mut Stream,
    (n, in_flight): (usize, usize),
    tracer: &Tracer,
    burst_id: u64,
    served: &mut Vec<Served>,
) -> f64 {
    let keys = stream.burst_keys(n);
    let mut results = Vec::with_capacity(n);
    let t0 = Instant::now();
    tracer.span("serve.burst", burst_id, None, |parent| {
        let mut pending = std::collections::VecDeque::new();
        let mut next = keys.iter();
        loop {
            while pending.len() < in_flight {
                let Some(&k) = next.next() else { break };
                let req = stream.request(k);
                let t = tracer.span("serve.try_submit", burst_id, parent, |_| {
                    front.try_submit(req)
                });
                pending.push_back((k, t));
            }
            let Some((k, t)) = pending.pop_front() else {
                break;
            };
            results.push((k, t.and_then(Ticket::wait)));
        }
    });
    let rate = n as f64 / t0.elapsed().as_secs_f64();
    // Results are checked after the clock stops.
    for (k, res) in results {
        record(served, k, res);
    }
    rate
}

/// Served results that failed or differ from the exact reference.
fn check_results(stream: &Stream, served: &[Served]) -> u64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = served.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut refs: HashMap<DataKey, u64> = HashMap::new();
                    part.iter()
                        .filter(|s| match s.digest {
                            Some(got) => {
                                *refs
                                    .entry(s.key)
                                    .or_insert_with(|| stream.reference_digest(s.key))
                                    != got
                            }
                            None => true,
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("checker thread panicked"))
            .sum()
    })
}

/// Seconds of arrivals per latency window.
const WINDOW_S: f64 = 2.0;

/// The latency percentile `q` of the quietest two-second window (by due
/// time). Other tenants of a shared host stall the server's threads for
/// milliseconds at a time, in bursts that can cover most of a run; only
/// the best window reads the same from run to run, and a slower server
/// raises every window, the best one too.
fn windowed(ol: &OpenLoop, q: f64) -> f64 {
    // Whole windows only: a partial last window joins the one before.
    let last_due = ol.due_s.iter().fold(0.0f64, |a, &b| a.max(b));
    let windows = ((last_due / WINDOW_S) as usize).max(1);
    let mut lat = vec![Vec::new(); windows];
    for (l, d) in ol.latency_us.iter().zip(&ol.due_s) {
        lat[((d / WINDOW_S) as usize).min(windows - 1)].push(*l);
    }
    let per_window: Vec<f64> = lat
        .iter()
        .map(|w| require_percentile("latency window", w, q))
        .collect();
    println!("  latency p{} per window (us): {per_window:.0?}", q * 100.0);
    per_window.into_iter().fold(f64::INFINITY, f64::min)
}

fn warm_up(kind: Kind, server: &Server, stream: &Stream) {
    match kind {
        Kind::Hot => {
            let front = server.front();
            for (i, s) in stream.hot.iter().enumerate() {
                let req = stream.request((*s, (i * HOT_VARIANTS) as u64));
                server.call(req).expect("warm-up request");
            }
            let tickets: Vec<Ticket> = (0..64)
                .map(|j| {
                    let i = j % stream.hot.len();
                    let key = (stream.hot[i], (i * HOT_VARIANTS + j % HOT_VARIANTS) as u64);
                    front
                        .try_submit(stream.request(key))
                        .expect("warm-up submit")
                })
                .collect();
            for t in tickets {
                t.wait().expect("warm-up request");
            }
        }
        Kind::Churn => {
            // Two sightings admit each hot shape past the seen-twice gate.
            for _ in 0..2 {
                for s in &stream.churn_hot {
                    server
                        .call(stream.request((*s, 0)))
                        .expect("warm-up request");
                }
            }
        }
    }
}

/// Build the server and warm it, `SETUP_REPEATS` times; keep the last.
fn set_up(kind: Kind, spec: &Spec, stream: &Stream) -> (Server, f64) {
    let mut times = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let s = kind.server(spec.cfg.clone());
        warm_up(kind, &s, stream);
        times.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    (server.expect("at least one set-up"), median(&times))
}

pub fn run(kind: Kind, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let spec = kind.spec();
    let mut stream = Stream::new(kind, seed);
    let (server, setup_s) = set_up(kind, &spec, &stream);
    let before = (
        server.stats(),
        server.session().share().cached_plans_total(),
    );
    let front = server.front();
    let mut served = Vec::new();

    let traced = tracer.enabled();
    let (open_share, burst_share) = if traced { (0.5, 0.3) } else { (0.6, 0.4) };
    let ol = open_loop(
        &front,
        &mut stream,
        spec.rate,
        Duration::from_secs_f64(seconds * open_share),
        tracer,
        &mut served,
    );
    // Peak memory after a fixed amount of work (set-up and the open
    // loop), so it does not depend on how many batches the host's speed
    // allows or on which shapes they held.
    let rss = peak_rss_mb();

    // Saturating bursts; a traced run alternates untraced and traced
    // bursts so the tracing overhead is measured on equal work.
    let quiet = Tracer::new(false);
    let (mut tput, mut tput_traced) = (Vec::new(), Vec::new());
    let t_burst = Instant::now();
    let mut b = 0u64;
    while b < 2 || t_burst.elapsed().as_secs_f64() < seconds * burst_share {
        let with = if traced && b % 2 == 1 { tracer } else { &quiet };
        let r = burst(&front, &mut stream, spec.burst, with, b, &mut served);
        if with.enabled() {
            tput_traced.push(r)
        } else {
            tput.push(r)
        }
        b += 1;
    }
    drop(front);
    let after = (
        server.stats(),
        server.session().share().cached_plans_total(),
    );
    let _ = server.shutdown();

    // Correctness, off the timed path: every served result against the
    // exact reference of its inputs, on every core.
    let failed = check_results(&stream, &served);
    let attempted = served.len() as u64;

    println!("  bursts (1/s): {tput:.0?}");
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("throughput_rps", median(&tput), "1/s");
    m.set("latency_p50_us", windowed(&ol, 0.50), "us");
    m.set("latency_p95_us", windowed(&ol, 0.95), "us");
    m.set("serve.latency.samples", ol.latency_us.len() as f64, "count");
    m.set(
        "serve.queue_us.p50",
        require_percentile("queue", &ol.queue_us, 0.50),
        "us",
    );
    m.set(
        "serve.queue_us.p99",
        require_percentile("queue", &ol.queue_us, 0.99),
        "us",
    );
    m.set("serve.timing.samples", ol.queue_us.len() as f64, "count");
    m.set("serve.batch_size.mean", mean(&ol.batch_size), "count");
    m.set(
        "loadgen.lag_us.p99",
        require_percentile("lag", &ol.lag_us, 0.99),
        "us",
    );
    m.set("loadgen.lag_us.samples", ol.lag_us.len() as f64, "count");
    m.set(
        "core.plan_us.p50",
        require_percentile("plan", &ol.plan_us, 0.50),
        "us",
    );
    m.set(
        "core.plan_us.p99",
        require_percentile("plan", &ol.plan_us, 0.99),
        "us",
    );
    m.set(
        "core.exec_us.p50",
        require_percentile("exec", &ol.exec_us, 0.50),
        "us",
    );
    m.set(
        "core.exec_us.p99",
        require_percentile("exec", &ol.exec_us, 0.99),
        "us",
    );
    m.set("core.exec_flops", mean(&ol.flops), "flop");
    m.set("core.exec_bytes", mean(&ol.bytes), "B");

    let d = |f: fn(&ServeStats) -> usize| (f(&after.0) - f(&before.0)) as f64;
    m.set("serve.rejected", d(|s| s.rejected), "count");
    m.set("serve.expired", d(|s| s.expired), "count");
    m.set("serve.retries", d(|s| s.retries), "count");
    m.set("serve.degraded", d(|s| s.degraded), "count");
    let hits = d(|s| s.plan_cache.hits);
    let lookups = hits + d(|s| s.plan_cache.misses);
    let hit_rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
    m.set("core.plan_cache.hit_rate", hit_rate, "ratio");
    m.set(
        "core.plan_cache.misses",
        d(|s| s.plan_cache.misses),
        "count",
    );
    m.set(
        "core.plan_cache.denied",
        d(|s| s.cache_admission.denied),
        "count",
    );
    // Admitted inserts minus the growth of the cache are the plans its
    // FIFO pushed out (0 for the unbounded admit-all cache).
    let grown = after.1 as f64 - before.1 as f64;
    m.set(
        "core.plan_cache.evicted",
        (d(|s| s.cache_admission.admitted) - grown).max(0.0),
        "count",
    );
    let memo_hits = d(|s| s.sim_memo.hits);
    let memo_lookups = memo_hits + d(|s| s.sim_memo.misses);
    let memo_rate = if memo_lookups > 0.0 {
        memo_hits / memo_lookups
    } else {
        0.0
    };
    m.set("core.sim_memo.hit_rate", memo_rate, "ratio");
    m.set("property.cached_plan_share", hit_rate, "ratio");
    let completed = d(|s| s.completed).max(1.0);
    m.set(
        "property.degraded_share",
        d(|s| s.degraded) / completed,
        "ratio",
    );
    m.set(
        "check.error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.set("obs.overhead_pct", overhead_pct(&tput, &tput_traced), "%");

    if traced {
        let signatures: Vec<Vec<GemmShape>> = {
            let mut replay = Stream::new(kind, seed);
            (0..20_000).map(|_| vec![replay.next_key().0]).collect()
        };
        let budget = Duration::from_secs_f64(seconds * 0.2);
        replay_planning(&ArchSpec::volta_v100(), &signatures, budget, tracer, &mut m);
        absent(&mut m, &["cluster.", "savestate.", "plan."]);
    }
    m.set("peak_rss_mb", rss, "MB");
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}
