//! # ctb-cluster — heterogeneous multi-GPU scheduling for coordinated GEMM
//!
//! The paper evaluates its coordinated tiling/batching framework on six
//! NVIDIA GPUs, one device at a time; this crate scales the same
//! framework *across* a pool of simulated devices. The design premise is
//! the paper's own methodology turned sideways: if the analytical
//! hardware model is accurate enough to choose tilings and batchings, it
//! is accurate enough to choose **devices**. Placement therefore asks
//! the per-architecture simulator (through the pool-wide memoized
//! [`ctb_core::PlanShare`]) what each live device would need for the
//! batch, adds the device's current predicted backlog, and queues the
//! batch on the argmin — and an idle device steals queued work from a
//! saturated peer only when that same model says the move wins.
//!
//! Built from audited parts: each device is its own
//! [`ctb_core::Session`] + bounded queue + worker pool (the `ctb-serve`
//! primitives), with a per-device circuit breaker and optional
//! deterministic fault injection composing the PR 3 resilience
//! machinery. Execution everywhere is the functional executor, so
//! results are bitwise-exact no matter which device — or how many
//! re-routes — produced them.
//!
//! ```
//! use ctb_cluster::{Cluster, ClusterConfig};
//! use ctb_gpu_specs::ArchSpec;
//! use ctb_matrix::{GemmBatch, GemmShape};
//!
//! // A V100 + Titan Xp pool, routed by the cost model.
//! let cluster = Cluster::new(ArchSpec::pool_presets(2), ClusterConfig::default());
//! let batch = GemmBatch::random(&[GemmShape::new(64, 64, 64); 4], 1.0, 0.0, 1);
//! let oracle = batch.reference_result_exact();
//! let out = cluster.call(batch).unwrap();
//! assert_eq!(out.results.len(), 4);
//! ctb_matrix::assert_bitwise_eq(&oracle, &out.results, "routed result");
//! let stats = cluster.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

mod cluster;
mod core;
pub mod drift;
pub mod events;
mod fifo;
mod index;
pub mod placer;
mod stats;

pub use cluster::{
    BatchTicket, Cluster, ClusterConfig, ClusterError, ClusterResult, StealPolicy,
};
pub use drift::{GroundTruth, PlacementDecision};
pub use events::{
    EngineReport, EventCluster, EventConfig, LoadGen, PlacementMode, ReqOutcome, ShapeMix,
    SimTime, Timeline, WITNESS_ALPHA, WITNESS_BETA,
};
pub use placer::{choose, steal_beneficial, Candidate, LocalityPolicy};
pub use stats::{AtomicF64, ClusterInner, ClusterStats, DeviceStats};
