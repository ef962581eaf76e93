//! The cluster workloads: open-loop `LoadGen` traffic through the
//! discrete-event `EventCluster`.

use crate::layers::{plan_table, replay_planning};
use crate::mixes::{as_mixes, chiplet_classes, table2_classes};
use crate::report::{absent, Metrics, Outcome};
use crate::stats::{median, overhead_pct, peak_rss_mb, Rng};
use crate::trace::Tracer;
use ctb_cluster::{EngineReport, EventCluster, EventConfig, LoadGen, PlacementMode};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1024 monolithic devices, indexed placement, Table 2 traffic,
    /// sampled witnesses and periodic checkpoints.
    Scale,
    /// A small mixed chiplet pool with locality-aware exact placement
    /// and a mix of Table 2, inception and single large GEMMs.
    Chiplet,
}

struct Spec {
    pool: Vec<ArchSpec>,
    requests: usize,
    mean_interarrival_ns: f64,
    cfg: EventConfig,
    /// Events between checkpoints; `None` takes none.
    checkpoint_every: Option<u64>,
}

/// Engine builds per repetition; `setup_s` is their median.
const BUILDS_PER_REP: usize = 5;

/// Events simulated between two host-clock reads when no checkpoint is
/// due.
const CHUNK_EVENTS: u64 = 1 << 18;

impl Kind {
    fn spec(self) -> Spec {
        let mut spec = self.full_spec();
        if crate::stats::smoke() {
            spec.requests /= 50;
            spec.checkpoint_every = spec.checkpoint_every.map(|e| e / 50);
        }
        spec
    }

    fn full_spec(self) -> Spec {
        match self {
            Kind::Scale => {
                let devices = 1024;
                Spec {
                    pool: ArchSpec::pool_presets(devices),
                    requests: 1_000_000,
                    mean_interarrival_ns: 8_000.0 / devices as f64,
                    cfg: EventConfig {
                        queue_capacity: 1 << 16,
                        witness_every: 100_000,
                        placement: PlacementMode::Auto,
                        record_outcomes: false,
                        ..EventConfig::default()
                    },
                    checkpoint_every: Some(1_000_000),
                }
            }
            Kind::Chiplet => Spec {
                pool: ArchSpec::chiplet_pool_presets(6),
                requests: 1_000_000,
                mean_interarrival_ns: 1400.0,
                cfg: EventConfig {
                    queue_capacity: 1 << 16,
                    witness_every: 100_000,
                    placement: PlacementMode::Auto,
                    record_outcomes: false,
                    ..EventConfig::default()
                },
                checkpoint_every: None,
            },
        }
    }

    fn load(self, spec: &Spec, seed: u64) -> LoadGen {
        match self {
            Kind::Scale => LoadGen::table2(seed, spec.mean_interarrival_ns, spec.requests),
            Kind::Chiplet => LoadGen::new(
                seed,
                spec.mean_interarrival_ns,
                spec.requests,
                as_mixes(&chiplet_classes()),
            ),
        }
    }

    fn classes(self) -> Vec<(&'static str, Vec<GemmShape>, u32)> {
        match self {
            Kind::Scale => table2_classes(),
            Kind::Chiplet => chiplet_classes(),
        }
    }
}

/// One engine run: set-up and host times plus what it simulated.
struct Rep {
    setup_s: f64,
    host_s: f64,
    checkpoint_s: Vec<f64>,
    checkpoint_bytes: usize,
    report: EngineReport,
}

fn one_rep(kind: Kind, spec: &Spec, seed: u64, tracer: &Tracer, rep: u64) -> Rep {
    // Building an engine takes microseconds on the small pool: build it
    // several times and keep the median so set-up time is not noise.
    let mut builds = Vec::new();
    let mut eng = None;
    for _ in 0..BUILDS_PER_REP {
        let t0 = Instant::now();
        eng = Some(EventCluster::new(spec.pool.clone(), spec.cfg.clone()));
        builds.push(t0.elapsed().as_secs_f64());
    }
    let mut eng = eng.expect("at least one build");
    let setup_s = median(&builds);
    eng.load(kind.load(spec, seed));
    let chunk = spec.checkpoint_every.unwrap_or(CHUNK_EVENTS);
    let (mut host_s, mut checkpoint_s, mut checkpoint_bytes) = (0.0, Vec::new(), 0);
    loop {
        let t = Instant::now();
        let ran = tracer.span("cluster.run_steps", rep, None, |_| eng.run_steps(chunk));
        host_s += t.elapsed().as_secs_f64();
        if ran < chunk {
            break;
        }
        if spec.checkpoint_every.is_some() {
            // Only the latest blob is kept, as a rolling checkpoint would.
            let t = Instant::now();
            let blob = tracer.span("savestate.checkpoint", rep, None, |_| eng.checkpoint());
            checkpoint_s.push(t.elapsed().as_secs_f64());
            checkpoint_bytes = blob.len();
        }
    }
    Rep {
        setup_s,
        host_s,
        checkpoint_s,
        checkpoint_bytes,
        report: eng.report(),
    }
}

/// Everything a run simulates, as bits: two runs of one seed must agree
/// exactly.
fn simulated_fingerprint(rep: &Rep) -> Vec<u64> {
    let s = &rep.report.stats;
    vec![
        s.makespan_sim_us.to_bits(),
        s.total_sim_us.to_bits(),
        s.p50_wall_us.to_bits(),
        s.p95_wall_us.to_bits(),
        s.remote_operand_bytes,
        s.completed as u64,
        s.steals as u64,
        rep.report.events_processed,
        rep.report.witnesses as u64,
        rep.checkpoint_bytes as u64,
    ]
}

/// Same seed twice and another seed once, at smoke size: whether the
/// first two simulated bit-identically and the third differently.
pub fn determinism(kind: Kind) -> (bool, bool) {
    crate::stats::set_smoke(true);
    let spec = kind.spec();
    let quiet = Tracer::new(false);
    let a = simulated_fingerprint(&one_rep(kind, &spec, 7, &quiet, 0));
    let b = simulated_fingerprint(&one_rep(kind, &spec, 7, &quiet, 1));
    let c = simulated_fingerprint(&one_rep(kind, &spec, 8, &quiet, 2));
    (a == b, a != c)
}

pub fn run(kind: Kind, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let spec = kind.spec();
    let quiet = Tracer::new(false);
    let traced = tracer.enabled();
    let budget = seconds * if traced { 0.7 } else { 1.0 };
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let (mut tput, mut tput_traced) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut rss = 0.0;
    // At least three repetitions, so the medians have something to
    // choose from; a traced run alternates untraced and traced ones.
    while reps.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let with = if traced && reps.len() % 2 == 1 {
            tracer
        } else {
            &quiet
        };
        let rep = one_rep(kind, &spec, seed, with, reps.len() as u64);
        let r = &rep.report;
        attempted += spec.requests as u64;
        failed += (spec.requests - r.stats.completed) as u64 + r.witness_mismatches as u64;
        assert_eq!(
            simulated_fingerprint(&rep),
            simulated_fingerprint(reps.first().unwrap_or(&rep)),
            "two runs of one seed simulated different things"
        );
        let rps = r.requests as f64 / rep.host_s;
        if reps.is_empty() {
            // Peak memory of one simulation run, whatever the number of
            // repetitions the host's speed allows.
            rss = peak_rss_mb();
        }
        if with.enabled() {
            tput_traced.push(rps)
        } else {
            tput.push(rps)
        }
        reps.push(rep);
    }

    let first = &reps[0];
    let r = &first.report;
    let s = &r.stats;
    assert!(
        s.completed >= 20 * crate::stats::MIN_TAIL_SAMPLES,
        "too few completions for a p95"
    );
    let mut m = Metrics::default();
    m.set(
        "setup_s",
        median(&reps.iter().map(|x| x.setup_s).collect::<Vec<_>>()),
        "s",
    );
    m.set("throughput_rps", median(&tput), "1/s");
    // Simulated request latency: arrival to completion in sim time.
    m.set("latency_p50_us", s.p50_wall_us, "us");
    m.set("latency_p95_us", s.p95_wall_us, "us");

    m.set("cluster.requests", r.requests as f64, "count");
    m.set(
        "cluster.events_per_request",
        r.events_processed as f64 / r.requests as f64,
        "count",
    );
    let host = median(&reps.iter().map(|x| x.host_s).collect::<Vec<_>>());
    m.set(
        "cluster.events_per_s",
        r.events_processed as f64 / host,
        "1/s",
    );
    m.set("cluster.utilization.mean", s.mean_utilization(), "ratio");
    m.set("cluster.steals", s.steals as f64, "count");
    m.set("cluster.reroutes", s.reroutes as f64, "count");
    let landings = (s.residency_hits + s.residency_misses) as f64;
    let residency = if landings > 0.0 {
        s.residency_hits as f64 / landings
    } else {
        0.0
    };
    m.set("cluster.residency_hit_rate", residency, "ratio");
    m.set(
        "cluster.remote_operand_bytes",
        s.remote_operand_bytes as f64,
        "B",
    );
    m.set(
        "cluster.placement_err_us",
        s.mean_abs_placement_err_us,
        "us",
    );
    m.set("cluster.witnesses", r.witnesses as f64, "count");
    m.set(
        "cluster.witness_mismatches",
        r.witness_mismatches as f64,
        "count",
    );
    m.set("cluster.sim_makespan_us", s.makespan_sim_us, "us");
    m.set("cluster.sim_device_us", s.total_sim_us, "us");
    let ckpt: Vec<f64> = reps
        .iter()
        .flat_map(|x| x.checkpoint_s.iter().map(|t| t * 1e3))
        .collect();
    m.set(
        "savestate.checkpoint_ms",
        if ckpt.is_empty() { 0.0 } else { median(&ckpt) },
        "ms",
    );
    m.set(
        "savestate.checkpoint_bytes",
        first.checkpoint_bytes as f64,
        "B",
    );
    m.set("core.plan_cache.hit_rate", s.plan_cache.hit_rate(), "ratio");
    m.set(
        "core.plan_cache.misses",
        s.plan_cache.misses as f64,
        "count",
    );
    m.set("core.sim_memo.hit_rate", s.sim_memo.hit_rate(), "ratio");
    m.set(
        "property.cached_plan_share",
        s.plan_cache.hit_rate(),
        "ratio",
    );
    m.set(
        "property.degraded_share",
        s.degraded as f64 / s.completed.max(1) as f64,
        "ratio",
    );
    m.set(
        "check.error_rate",
        failed as f64 / attempted as f64,
        "ratio",
    );
    m.set("obs.overhead_pct", overhead_pct(&tput, &tput_traced), "%");

    if traced {
        let classes = kind.classes();
        let mut rng = Rng::new(seed);
        let total: u32 = classes.iter().map(|c| c.2).sum();
        let signatures: Vec<Vec<GemmShape>> = (0..20_000)
            .map(|_| {
                let mut pick = rng.below(total as usize) as u32;
                let class = classes.iter().find(|c| {
                    let hit = pick < c.2;
                    pick = pick.saturating_sub(c.2);
                    hit
                });
                class.expect("weights cover the draw").1.clone()
            })
            .collect();
        let left = Duration::from_secs_f64((seconds - start.elapsed().as_secs_f64()).max(0.5));
        replay_planning(&spec.pool[0], &signatures, left, tracer, &mut m);
        plan_table(&mut m);
        absent(
            &mut m,
            &[
                "serve.",
                "loadgen.",
                "core.plan_us",
                "core.exec_",
                "core.plan_cache.denied",
                "core.plan_cache.evicted",
            ],
        );
    }
    m.set("peak_rss_mb", rss, "MB");
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}
