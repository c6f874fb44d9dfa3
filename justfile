# Development recipes. `just check` is the full local CI gate.

# Build, test, lint, format-check — everything CI would run.
check:
    ./scripts/check.sh

# Release build of the whole workspace.
build:
    cargo build --workspace --release --offline

# All unit, integration, property and doc tests.
test:
    cargo test --workspace --offline -q

# The real-thread execution backend suite alone (bounded thread counts,
# timeout-guarded).
test-threaded:
    timeout 300 cargo test --offline --test threaded_backend -q

# Lints as errors.
clippy:
    cargo clippy --workspace --all-targets --offline -- -D warnings

# Apply formatting.
fmt:
    cargo fmt

# Regenerate every table/figure of the paper.
tables:
    cargo run --release --offline -p loadex-bench --bin tables -- --all

# The one benchmark: one untimed pass (`--seconds 0`) of a perfbench
# workload, checked against its reference (see perfbench/NOTES.md).
perfbench workload="paper-tables":
    python3 perfbench/run.py --workload {{workload}} --seed 1 --seconds 0

# The accuracy-vs-cost table: view error, staleness and decision regret
# against state-message cost for each mechanism.
accuracy-tables:
    cargo run --release --offline -p loadex-bench --bin tables -- --accuracy

# Same table at smoke-test size.
accuracy-tables-quick:
    cargo run --release --offline -p loadex-bench --bin tables -- --accuracy --quick

# One observed experiment with full trace/metrics/event exports.
trace matrix="TWOTONE" procs="16" mech="snapshot":
    cargo run --release --offline -p loadex-bench --bin run -- \
        --matrix {{matrix}} --procs {{procs}} --mech {{mech}} \
        --trace-out trace.json --metrics-out metrics.json --events-out events.jsonl
