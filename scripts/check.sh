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
# Strict protocol-invariant audit over one seeded run per mechanism: the
# auditor replays the recorded event stream and any violation (snapshot
# pairing, clock monotonicity, reservation totals, ...) fails the gate.
for mech in naive increments snapshot; do
    run cargo run --release --offline -p loadex-bench --bin run -- \
        --matrix TWOTONE --procs 8 --mech "$mech" --audit
done

# Deterministic tables: every section of `tables --all` except the wall-clock
# §4.5 threaded-backend table must match the committed tables_output.txt byte
# for byte (about a minute, most of it spent in that threaded table).
echo "==> tables --all vs tables_output.txt (threaded-backend table excluded)"
cargo run --release --offline -q -p loadex-bench --bin tables -- --all |
    awk '/^== §4.5 threaded execution backend/ {skip = 1}
         skip && /^$/ {skip = 0; next}
         !skip' |
    diff -u tables_output.txt -

echo "All checks passed."
