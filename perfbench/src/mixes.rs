//! Shape pools, signature classes and architectures the workloads draw
//! from. Everything here is a constant of the benchmark; only the
//! `--seed` decides which of them a run draws and when.

use ctb_cluster::ShapeMix;
use ctb_convnet::googlenet::googlenet_v1;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use std::sync::Arc;

/// The paper's Table 2 tiling regimes, one representative batch each,
/// with the weights `LoadGen::table2` serves them at.
pub fn table2_classes() -> Vec<(&'static str, Vec<GemmShape>, u32)> {
    vec![
        ("small", vec![GemmShape::new(32, 32, 64); 4], 30),
        ("medium", vec![GemmShape::new(64, 64, 128); 3], 25),
        ("large", vec![GemmShape::new(128, 128, 256); 2], 15),
        ("tall", vec![GemmShape::new(256, 32, 64); 2], 12),
        ("wide", vec![GemmShape::new(32, 256, 64); 2], 12),
        ("huge", vec![GemmShape::new(256, 256, 512)], 6),
    ]
}

/// Stage-1 batch (the four branch heads) of a GoogleNet inception
/// module for one image: a heterogeneous batch.
fn inception_stage1(module: &str) -> Vec<GemmShape> {
    googlenet_v1()
        .modules
        .iter()
        .find(|m| m.name == module)
        .expect("module of GoogleNet v1")
        .stage1_shapes(1)
}

/// `cluster_chiplet`'s classes: Table 2, two inception stage-1 batches,
/// and a low-weight single large GEMM (the few-huge-GEMMs regime).
pub fn chiplet_classes() -> Vec<(&'static str, Vec<GemmShape>, u32)> {
    let mut classes = table2_classes();
    classes.push(("inception3a", inception_stage1("inception3a"), 10));
    classes.push(("inception5b", inception_stage1("inception5b"), 10));
    classes.push(("single_large", vec![GemmShape::new(512, 512, 256)], 2));
    classes
}

pub fn as_mixes(classes: &[(&'static str, Vec<GemmShape>, u32)]) -> Vec<ShapeMix> {
    classes
        .iter()
        .map(|(name, shapes, weight)| ShapeMix {
            name,
            shapes: Arc::from(shapes.as_slice()),
            weight: *weight,
        })
        .collect()
}

/// `serve_hot`'s pool: a dozen mid-size single GEMMs, the Table 2
/// classes but `huge`, plus 5x5-reduce and pool-projection GEMMs of
/// GoogleNet inception modules at one image.
pub fn hot_pool() -> Vec<GemmShape> {
    let net = googlenet_v1();
    // Table 2's `huge` GEMM is left out: at 7x the next-largest it would
    // put the p95 on the edge of its own small population.
    let mut pool: Vec<GemmShape> = table2_classes()
        .into_iter()
        .filter(|(name, _, _)| *name != "huge")
        .map(|(_, shapes, _)| shapes[0])
        .collect();
    for module in ["inception3a", "inception4a", "inception4e", "inception5b"] {
        let m = net
            .modules
            .iter()
            .find(|m| m.name == module)
            .expect("GoogleNet module");
        pool.push(m.reduce5x5.gemm_shape(1));
        // 4e's projection (26 MFLOP) would be the new outlier.
        if module != "inception4e" {
            pool.push(m.pool_proj.gemm_shape(1));
        }
    }
    pool
}

/// The architectures the plan-quality table covers, with metric-safe
/// short names: the paper's V100 (the lead of the `cluster_scale` pool)
/// and the three devices of the `cluster_chiplet` pool.
pub fn table_archs() -> Vec<(&'static str, ArchSpec)> {
    vec![
        ("v100", ArchSpec::volta_v100()),
        ("h100", ArchSpec::hopper_h100()),
        ("b200", ArchSpec::blackwell_b200()),
        ("mcm4", ArchSpec::mcm_gpu_4die()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_have_the_documented_sizes() {
        assert_eq!(hot_pool().len(), 12);
        assert_eq!(chiplet_classes().len(), 9);
        assert!(chiplet_classes()
            .iter()
            .all(|(_, s, w)| !s.is_empty() && *w > 0));
    }
}
