//! Golden fingerprints of the event engine's simulated output.
//!
//! Two fixed scenarios — a 256-device Table 2 run through the indexed
//! placement path (with kills, so re-routes take the exact scan) and a
//! 6-device multi-chiplet run through the locality-aware exact scan —
//! are reduced to the bits of everything they simulate: makespan and
//! device-time aggregates, latency quantiles, event count, steals,
//! interposer traffic, and the length and hash of a mid-run and a final
//! `checkpoint()` blob.
//!
//! The pinned values were captured from the engine as it stood before
//! its hot path was rewritten (payload-carrying heap entries, locked
//! device queues, hashed prediction cache). Any change to event order,
//! placement, stealing or the checkpoint bytes moves at least one of
//! them, so a decision drift fails here by name.

use ctb_cluster::{EventCluster, EventConfig, LoadGen, PlacementMode, SimTime, StealPolicy};
use ctb_gpu_specs::ArchSpec;
use ctb_serve::{FaultConfig, FaultInjector};
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over the checkpoint bytes: stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    makespan_sim_us: u64,
    total_sim_us: u64,
    p50_wall_us: u64,
    p95_wall_us: u64,
    events_processed: u64,
    steals: usize,
    remote_operand_bytes: u64,
    mid_checkpoint: (usize, u64),
    end_checkpoint: (usize, u64),
}

/// Eager stealing, so idle devices relieve the stalled ones.
fn eager_steal() -> StealPolicy {
    StealPolicy { enabled: true, min_victim_backlog_us: 10.0, poll: Duration::from_micros(20) }
}

fn faults(n: usize, at: &[(usize, FaultConfig)]) -> Vec<Option<Arc<FaultInjector>>> {
    let mut v = vec![None; n];
    for (device, cfg) in at {
        v[*device] = Some(Arc::new(FaultInjector::new(cfg.clone())));
    }
    v
}

/// Run `eng` for `mid` events, checkpoint, run to exhaustion and
/// checkpoint again.
fn fingerprint(mut eng: EventCluster, mid: u64) -> Fingerprint {
    assert_eq!(eng.run_steps(mid), mid, "scenario drained before the mid-run checkpoint");
    let blob = eng.checkpoint();
    let mid_checkpoint = (blob.len(), fnv1a(&blob));
    let report = eng.run();
    assert_eq!(report.witness_mismatches, 0);
    let blob = eng.checkpoint();
    let s = &report.stats;
    Fingerprint {
        makespan_sim_us: s.makespan_sim_us.to_bits(),
        total_sim_us: s.total_sim_us.to_bits(),
        p50_wall_us: s.p50_wall_us.to_bits(),
        p95_wall_us: s.p95_wall_us.to_bits(),
        events_processed: report.events_processed,
        steals: s.steals,
        remote_operand_bytes: s.remote_operand_bytes,
        mid_checkpoint,
        end_checkpoint: (blob.len(), fnv1a(&blob)),
    }
}

/// 256 monolithic devices, Table 2 traffic above capacity, queues
/// small enough to fill (full-queue fallbacks, backoff retries), two
/// stalling devices (so idle peers steal from them), one panicking
/// device (so failed jobs re-route) and two kills mid-run.
fn indexed_table2() -> Fingerprint {
    let devices = 256;
    let cfg = EventConfig {
        queue_capacity: 6,
        witness_every: 4_999,
        placement: PlacementMode::Indexed,
        record_outcomes: false,
        steal: eager_steal(),
        ..EventConfig::default()
    };
    let faults = faults(
        devices,
        &[
            (0, FaultConfig::new(1).slow_worker(400, Duration::from_micros(300))),
            (77, FaultConfig::new(2).slow_worker(250, Duration::from_micros(120))),
            (5, FaultConfig::new(3).exec_panic(30)),
        ],
    );
    let mut eng = EventCluster::with_faults(ArchSpec::pool_presets(devices), cfg, faults);
    eng.load(LoadGen::table2(7, 8_000.0 / devices as f64, 20_000));
    eng.kill_at(SimTime::from_us(150), 3);
    eng.kill_at(SimTime::from_us(400), 130);
    fingerprint(eng, 30_000)
}

/// Six multi-chiplet devices, locality-aware exact placement with the
/// default queue bound, one stalling device, outcome recording on.
fn exact_chiplet() -> Fingerprint {
    let cfg = EventConfig {
        witness_every: 997,
        placement: PlacementMode::Exact,
        steal: eager_steal(),
        ..EventConfig::default()
    };
    let faults = faults(6, &[(1, FaultConfig::new(4).slow_worker(300, Duration::from_micros(50)))]);
    let mut eng = EventCluster::with_faults(ArchSpec::chiplet_pool_presets(6), cfg, faults);
    eng.load(LoadGen::table2(11, 1_400.0, 4_000));
    fingerprint(eng, 5_000)
}

#[test]
fn golden_fingerprint_indexed_256_device_table2_run() {
    let got = indexed_table2();
    let want = Fingerprint {
        makespan_sim_us: 4649566210188060853,
        total_sim_us: 4685253429851022890,
        p50_wall_us: 4631105821495586193,
        p95_wall_us: 4635239563003558887,
        events_processed: 65396,
        steals: 11,
        remote_operand_bytes: 0,
        mid_checkpoint: (266398, 13756046204786564283),
        end_checkpoint: (210598, 2067859665957934356),
    };
    assert_eq!(got, want, "indexed 256-device run drifted from its golden fingerprint");
}

#[test]
fn golden_fingerprint_exact_6_device_chiplet_run() {
    let got = exact_chiplet();
    let want = Fingerprint {
        makespan_sim_us: 4662311489614533134,
        total_sim_us: 4671891313110173441,
        p50_wall_us: 4620202325322745512,
        p95_wall_us: 4626226734249283682,
        events_processed: 12941,
        steals: 91,
        remote_operand_bytes: 323706880,
        mid_checkpoint: (55901, 5559957783375877921),
        end_checkpoint: (38677, 1223765372313448371),
    };
    assert_eq!(got, want, "exact 6-device chiplet run drifted from its golden fingerprint");
}
