#!/usr/bin/env sh
# Tier-1 gate: everything CI (and the next contributor) needs to pass
# before merging. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# Test gates run under a watchdog (`timeout`, seconds) so a deadlocked
# protocol fails its gate instead of stalling the whole script. The
# limits are generous multiples of a debug-build run and include the
# compile of the test binary.

echo "== cargo build --release =="
cargo build --release

echo "== cargo build --release --examples =="
cargo build --release --examples

echo "== cargo test -q =="
cargo test -q

echo "== differential conformance suite =="
cargo test -q --test differential

echo "== rayon shim (persistent pool: ordering, exactly-once, concurrent callers, nesting, panics; seeded stress) =="
timeout 600 cargo test -q -p rayon

echo "== executor ISA differential property (AVX2 / portable tile kernels vs exact oracle) =="
cargo test -q -p ctb-core --lib isa_kernels_match_reference_exact_bitwise

echo "== crate unit tests (every library's own tests, each under the watchdog) =="
for crate in ctb-serve ctb-core ctb-matrix ctb-tiling ctb-batching ctb-sim ctb-forest \
    ctb-gpu-specs ctb-convnet ctb-baselines; do
    echo "-- $crate --lib"
    timeout 900 cargo test -q -p "$crate" --lib
done
echo "-- ctb-bench --lib (cluster_bench sweeps dominate)"
timeout 1800 cargo test -q -p ctb-bench --lib

echo "== concurrency suites (serve stress + planning determinism) =="
cargo test -q -p ctb-serve --test stress
cargo test -q --test determinism

echo "== chaos suite (seeded fault injection against ctb-serve) =="
cargo test -q -p ctb-serve --test chaos

echo "== async front door differential suite (blocking vs buffered admission) =="
cargo test -q -p ctb-serve --test async_front

echo "== property suites (bounded-queue invariants) =="
cargo test -q -p ctb-serve invariant_props

echo "== property suites (Bloom admission-gate invariants) =="
cargo test -q --test properties bloom_gate

echo "== property regression corpus (pinned shrunk cases) =="
cargo test -q --test properties regression_corpus_replays_recorded_cases

echo "== cluster suite (multi-device routing + device-level chaos) =="
timeout 1200 cargo test -q -p ctb-cluster

echo "== observability suite (event bus + trace audit + histogram props) =="
cargo build --release -p ctb-obs
cargo test -q -p ctb-obs
cargo test -q -p ctb-serve --test obs

echo "== observability harness + BENCH_obs.json schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- obs

echo "== cluster lockstep suite (event engine vs threaded, decision parity) =="
timeout 900 cargo test -q -p ctb-cluster --test lockstep

echo "== scheduling core against a fake pool (spill-down, breaker slots, residency rollback, steal ties, reroute budget) =="
timeout 600 cargo test -q -p ctb-cluster --lib core::tests

echo "== event-engine golden fingerprints (simulated output + checkpoint hashes pinned) =="
timeout 900 cargo test -q -p ctb-cluster --test golden

echo "== event-engine timeline differential property (vs reference BinaryHeap<(at, seq)>) =="
timeout 600 cargo test -q -p ctb-cluster --lib timeline_matches_reference_heap_under_random_interleavings

echo "== event-engine device FIFO differential property (vs ctb_serve::BoundedQueue) =="
timeout 600 cargo test -q -p ctb-cluster --lib device_queue_matches_bounded_queue

echo "== event-engine placement index (one entry per live device, argmin = brute-force scan) =="
timeout 600 cargo test -q -p ctb-cluster --lib placement_index_holds_exactly_the_live_devices_and_scans_to_the_argmin
timeout 600 cargo test -q -p ctb-cluster --lib index_head_is_the_brute_force_minimum

echo "== savestate codec (versioned binary reader/writer) =="
cargo test -q -p ctb-savestate

echo "== savestate crash-point differential suite (checkpoint/restore replay) =="
timeout 900 cargo test -q -p ctb-cluster --test savestate

echo "== savestate regression corpus (pinned crash-boundary cases) =="
timeout 900 cargo test -q -p ctb-cluster --test savestate regression_corpus_replays_recorded_boundary_cases

echo "== differential locality suite (aware vs blind on multi-chiplet pools) =="
timeout 900 cargo test -q -p ctb-cluster --test locality

echo "== locality differential smoke (aware vs blind traffic gate) + BENCH_locality schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- locality --smoke

echo "== cluster smoke sweep (256 devices / 100k requests) + BENCH_cluster schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- cluster --smoke

echo "== replay harness smoke (record -> re-run -> crash/restore) + BENCH_replay schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- replay --smoke

echo "== storm harness smoke (plan-cache admission under distinct-shape storm) + BENCH_storm schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- storm --smoke

echo "== calibration suite (offline fit + retrain + hot-swap under load) =="
cargo test -q -p ctb-calib

echo "== calibration loop smoke (record -> fit -> replay -> swap) + BENCH_calibrate schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- calibrate --smoke

echo "== cluster demo compiles against the release profile =="
cargo build --release --example cluster_demo

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo clippy -p ctb-core --all-targets -- -D warnings =="
cargo clippy -p ctb-core --all-targets -- -D warnings

echo "== cargo clippy -p ctb-matrix --all-targets -- -D warnings =="
cargo clippy -p ctb-matrix --all-targets -- -D warnings

echo "== cargo clippy -p ctb-serve --all-targets -- -D warnings =="
cargo clippy -p ctb-serve --all-targets -- -D warnings

echo "== cargo clippy -p ctb-cluster --all-targets -- -D warnings =="
cargo clippy -p ctb-cluster --all-targets -- -D warnings

echo "== cargo clippy -p ctb-obs --all-targets -- -D warnings =="
cargo clippy -p ctb-obs --all-targets -- -D warnings

echo "== cargo clippy -p ctb-savestate --all-targets -- -D warnings =="
cargo clippy -p ctb-savestate --all-targets -- -D warnings

echo "== cargo clippy -p ctb-calib --all-targets -- -D warnings =="
cargo clippy -p ctb-calib --all-targets -- -D warnings

echo "== cargo clippy -p ctb-gpu-specs --all-targets -- -D warnings =="
cargo clippy -p ctb-gpu-specs --all-targets -- -D warnings

echo "== cargo clippy -p ctb-sim --all-targets -- -D warnings =="
cargo clippy -p ctb-sim --all-targets -- -D warnings

echo "== cargo clippy -p ctb-bench --all-targets -- -D warnings =="
cargo clippy -p ctb-bench --all-targets -- -D warnings

echo "== cargo clippy -p rayon --all-targets -- -D warnings =="
cargo clippy -p rayon --all-targets -- -D warnings

echo "check.sh: all gates passed"
