#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format. All offline — the workspace
# vendors shims for external crates (see shims/) and never hits the network.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release --offline
run cargo test --workspace --offline -q
# Dedicated threaded-backend pass: real OS threads (the suite bounds itself
# to <= 4 processes per run), wrapped in a hard timeout so a protocol
# deadlock fails the gate quickly instead of hanging it. The per-run
# wall-timeout valve inside the backend turns most hangs into typed errors
# already; this is the backstop.
run timeout 300 cargo test --offline --test threaded_backend -q
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --check
# Rustdoc: broken or ambiguous intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps --offline
# The benchmark package (perfbench/, outside the workspace) builds with
# --locked against its own lock file and calls the crates' public API; its
# self-test runs every workload's code path at tiny scale (~20 s), so an API
# or dependency-edge change that would break the benchmark fails here.
CARGO_TARGET_DIR=.bench_build run cargo test --release --offline --locked \
    --manifest-path perfbench/Cargo.toml -q
# Strict protocol-invariant audit over one seeded run per mechanism: the
# auditor replays the recorded event stream and any violation (snapshot
# pairing, clock monotonicity, reservation totals, ...) fails the gate.
for mech in naive increments snapshot; do
    run cargo run --release --offline -p loadex-bench --bin run -- \
        --matrix TWOTONE --procs 8 --mech "$mech" --audit
done

# Deterministic tables: `tables --all` (everything but the wall-clock §4.5
# table, which only `--threaded` prints) must match the committed
# tables_output.txt byte for byte (~10 s).
echo "==> tables --all vs tables_output.txt"
cargo run --release --offline -q -p loadex-bench --bin tables -- --all |
    diff -u tables_output.txt -

echo "All checks passed."
