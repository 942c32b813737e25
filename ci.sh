#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order it fails fastest.
#   ./ci.sh          full gate (build, tests, clippy -D warnings, fmt check)
#   ./ci.sh quick    skip the release build (debug build + tests + lints)
set -euo pipefail
cd "$(dirname "$0")"

quick=${1:-}

echo "==> cargo build"
if [ "$quick" = "quick" ]; then
    cargo build --workspace --all-targets
else
    cargo build --workspace --all-targets --release
fi

# The repository benchmark (perfbench/) is a package of its own, outside the
# workspace, so the workspace build never compiles it: build and test it
# here so an API change in crates/* that breaks the benchmark fails CI.
echo "==> perfbench build + tests"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml --quiet

# The parallel engine must behave identically at any thread count: run the
# suite once pinned to a single worker and once with a multi-thread pool.
echo "==> cargo test (AGING_THREADS=1)"
AGING_THREADS=1 cargo test --workspace --quiet

echo "==> cargo test (AGING_THREADS=4)"
AGING_THREADS=4 cargo test --workspace --quiet

# The streaming spectrum kernel: bounded-memory Δα(t) must be bit-identical
# to the offline batch estimator on every window — scalar pushes, chunked
# slices with post-slice state probes, and any pool size
# (crates/fractal/tests/spectrum_props.rs).
echo "==> spectrum streaming-vs-batch parity (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-fractal --test spectrum_props --quiet

echo "==> spectrum streaming-vs-batch parity (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-fractal --test spectrum_props --quiet

# The robustness contract: every memsim scenario through the fleet
# supervisor, clean vs. chaos-wrapped, at two fixed seeds (see
# crates/chaos/tests/differential.rs — no panic, exact reconciliation,
# ordered watermarks, bounded lead-time loss).
echo "==> chaos differential suite (two fixed seeds)"
cargo test -p aging-chaos --test differential --quiet

# The networked path: alarms ingested over loopback TCP — in both wire
# modes, v1 record-at-a-time batches and protocol-v2 columnar frames —
# must be byte-identical to the offline supervisor at two fixed seeds,
# at both thread settings (crates/serve/tests/loopback_differential.rs).
echo "==> serve loopback differential (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-serve --test loopback_differential --quiet

echo "==> serve loopback differential (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-serve --test loopback_differential --quiet

# Crash safety: a store-backed server killed at seed-deterministic points
# and recovered from its WAL + snapshot must match the uninterrupted
# offline supervisor byte for byte, duplicates deduped
# (crates/serve/tests/kill_recover.rs).
echo "==> serve kill-and-recover differential (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-serve --test kill_recover --quiet

echo "==> serve kill-and-recover differential (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-serve --test kill_recover --quiet

# The cluster tier: machine ids ring-partitioned across shard servers,
# each shard's watermark-ordered alarm stream k-way merged by the
# aggregator — the merged global history must be byte-identical to the
# offline whole-fleet supervisor, including a kill-and-recover run
# (crates/cluster/tests/cluster_parity.rs). This is the quick E16 gate:
# 2-shard topology, reduced machine count, both thread settings.
echo "==> cluster parity differential (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-cluster --test cluster_parity --quiet

echo "==> cluster parity differential (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-cluster --test cluster_parity --quiet

# The closed rejuvenation loop: restart decisions must be bit-identical
# across worker-pool sizes and scalar-vs-columnar ingestion
# (crates/stream/tests/rejuv_parity.rs), must match the committed golden
# decision fixtures (crates/stream/tests/golden_rejuv.rs), and the bare
# controller's safety envelope must hold on generated request streams
# (crates/rejuv/tests/controller_props.rs).
echo "==> rejuv decision-parity suite (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-stream --test rejuv_parity --test golden_rejuv --quiet
AGING_THREADS=1 cargo test -p aging-rejuv --quiet

echo "==> rejuv decision-parity suite (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-stream --test rejuv_parity --test golden_rejuv --quiet
AGING_THREADS=4 cargo test -p aging-rejuv --quiet

# The hot-path allocation contract: once warm, the steady-state ingest
# loops (columnar trend pipeline, streaming Hölder/dimension pushes,
# non-emitting spectrum pushes) must perform zero heap allocations,
# counted by a wrapping #[global_allocator]
# (crates/stream/tests/alloc_regression.rs).
echo "==> allocation-regression guard (AGING_THREADS=1)"
AGING_THREADS=1 cargo test -p aging-stream --test alloc_regression --quiet

echo "==> allocation-regression guard (AGING_THREADS=4)"
AGING_THREADS=4 cargo test -p aging-stream --test alloc_regression --quiet

# The E17 differential: Δα(t) drifts upward on aging memsim runs and stays
# flat on healthy controls, with streaming-vs-batch parity checked inside
# the experiment at pool sizes 1 and 4 (crates/bench/src/experiments.rs).
# --no-trajectory keeps CI probe runs out of the committed BENCH histories.
echo "==> repro e17 differential (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e17
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e17
fi

# The E18 differential: the full closed loop over both scenario families —
# alarm-driven rejuvenation must strictly beat fixed-interval restarts and
# no-op on availability, with the false-alarm and lead-time budgets held
# and kill-and-recover replaying byte-identical restart decisions.
echo "==> repro e18 differential (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e18
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e18
fi

# The E19 micro-gate: each StreamingSpectrum emission must cost ≥2× less
# than the honest batch recompute, stay bit-identical to the batch trace
# at pool sizes 1 and 4, and drift ≤1e-9 relative from a from-scratch
# recompute of every window (crates/bench/src/experiments.rs).
echo "==> repro e19 kernel micro-gate (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e19
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e19
fi

echo "==> cargo test --doc"
cargo test --workspace --doc --quiet

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI gate passed."
