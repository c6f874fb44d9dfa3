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
# The mechanism and simulator tests again in the release profile: a
# word-update form in `RankSet` (crates/sim/src/rankset.rs), which the
# mechanisms use, was once miscompiled at -O only.
run cargo test --release --offline -p loadex-core -q
run cargo test --release --offline -p loadex-sim -q
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
# Byte identity at full scale: one untimed pass of each benchmark workload
# checks the run fingerprints at P=512 and P=1024 and Tables 3-7 cell by
# cell, sizes `tables --all` (P <= 128) never reaches (~14 s in all). The
# traced passes (`--trace 1`) of the two large runs also check that the
# per-destination `World::handle_fanout` of perfbench's timed world and
# `SolverWorld`'s one-loop override agree on 511- and 1023-wide fan-outs.
for pass in paper-tables:0 incr-p512:0 incr-p512:1 snap-p1024:0 snap-p1024:1 \
    observed-p128:0; do
    workload=${pass%:*} trace=${pass#*:}
    echo "==> perfbench --workload $workload --seconds 0 --trace $trace"
    result=$(CARGO_TARGET_DIR=.bench_build python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 0 --trace "$trace" | tail -n 1)
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
        echo "perfbench $workload --trace $trace is not correct: $result"
        exit 1
    fi
done
# Strict protocol-invariant audit over one seeded run per mechanism (the
# paper's three and the periodic and gossip extensions), in the sim's
# main-loop and modeled comm-thread modes: the auditor replays the recorded
# event stream and any violation (snapshot pairing, clock monotonicity,
# reservation totals, ...) fails the gate.
for mech in naive increments snapshot periodic gossip; do
    for comm in off on; do
        run cargo run --release --offline -p loadex-bench --bin run -- \
            --matrix TWOTONE --procs 8 --mech "$mech" --comm-thread "$comm" --audit
    done
done
# The same audit at P = 130, where the snapshot mechanism's sets of ranks
# span three 64-bit words.
for comm in off on; do
    run cargo run --release --offline -p loadex-bench --bin run -- \
        --matrix TWOTONE --procs 130 --mech snapshot --comm-thread "$comm" --audit
done

# Golden exports through the CLI's own file path: the release `run` binary's
# JSONL and Chrome trace for TWOTONE/8 snapshot must match, byte for byte,
# the files tests/obs_golden.rs pins the library's exporters to.
golden=$(mktemp -d)
trap 'rm -rf "$golden"' EXIT
run cargo run --release --offline -q -p loadex-bench --bin run -- \
    --matrix TWOTONE --procs 8 --mech snapshot \
    --events-out "$golden/events.jsonl" --trace-out "$golden/trace.json"
run cmp tests/golden/twotone8_snapshot.jsonl "$golden/events.jsonl"
run cmp tests/golden/twotone8_snapshot.chrome.json "$golden/trace.json"

# Larger JSONL exports pinned by digest (~2 s): the CONV3D64/32 streams carry
# timestamps of 12 digits and 64 fractional `entries` each, which the
# TWOTONE/8 golden file lacks (30.5 MB and 3.5 MB, too large to commit). Both
# comm modes: the modeled comm thread buffers every state message and
# treats one per poll tick, the main loop only while a process computes.
for pinned in \
    "increments off 82c0f591b987417647dccab514ee80a84f3cb7dc25ffa63d87e0b744f1bad03f" \
    "increments on d8159fc6ae28325cbb1628047c5c3900508fce3f4011b0ffdfd447e80d44feca" \
    "snapshot off 2abcf39f1e86e057249631f5a55503f2aa703de8d124118a971ce9db4e7ac2cf" \
    "snapshot on 960324aa27fe96d360d3d0b28a4ce68500b22032aa557ca849e4b6dc5b8c6226"; do
    read -r mech comm digest <<<"$pinned"
    run cargo run --release --offline -q -p loadex-bench --bin run -- \
        --matrix CONV3D64 --procs 32 --mech "$mech" --comm-thread "$comm" \
        --events-out "$golden/conv3d64_${mech}_$comm.jsonl"
    echo "$digest  $golden/conv3d64_${mech}_$comm.jsonl" | run sha256sum -c -
done

# The event streams of the two multicasting mechanisms at P = 130, where a
# rank set spans three 64-bit words, pinned by digest in both comm modes:
# naive sends to its shared set of interested peers, and gossip is the one
# mechanism whose multicast order is not rank order (3-13 MB each). The
# periodic mechanism, naive's absolute loads sent on a timer, is pinned the
# same way (7-8 MB each).
for pinned in \
    "gossip off bf698853a719385c3027b281eea3e8fbf28e69c633a30e44f5afedf2b9e0409a" \
    "gossip on fcd0dcb7e33d1090084273bd7cc696fb17980d320812474765d6e1dc8ea6779b" \
    "naive off 497f37ca2092fee18c564769db327e63951e630dd721e9f6a904d1e5f52937b9" \
    "naive on 6f8960271bd850d0881258f3ddc984647b353a713c7dc244a5d4a10c327b593c" \
    "periodic off ec10ea6a8b2e68999cd3a7cdea5e471388fa43d03e5f2342ac320ba17e3bf95d" \
    "periodic on 4bac135c29362609a07e8935ad034cfbc043cc1b1a8e439d0cff6ac0c6708e98"; do
    read -r mech comm digest <<<"$pinned"
    run cargo run --release --offline -q -p loadex-bench --bin run -- \
        --matrix TWOTONE --procs 130 --mech "$mech" --comm-thread "$comm" \
        --events-out "$golden/twotone130_${mech}_$comm.jsonl"
    echo "$digest  $golden/twotone130_${mech}_$comm.jsonl" | run sha256sum -c -
done

# Run summaries where state-channel FIFO order often holds a copy back
# behind a larger message on its link (a hundred to over a thousand
# held-back multicasts per run), pinned by digest: CONV3D64/256 under each
# paper mechanism, and AUDIKW_1/64 snapshot on a 100 us network (~1 s).
for pinned in \
    "be4e243870b7722d2ced2e9d9dc93dafe0011ee003327956d215fbbb757acf13 CONV3D64 256 naive" \
    "624611be79bdfb0360f2d935d92626eb9da9bcb3eea60d954406a05bad9d5ffa CONV3D64 256 increments" \
    "10c8cf40a59728ec02854a3bab08adf38ddf855268358918154a9c6008feb68d CONV3D64 256 snapshot" \
    "5fa1524712db9b1daedfb160f81ffb1bde513b439bb5d7183784014be9d481e8 AUDIKW_1 64 snapshot --latency-us 100"; do
    read -r digest matrix procs mech extra <<<"$pinned"
    out="$golden/${matrix}_${procs}_$mech.txt"
    echo "==> run --matrix $matrix --procs $procs --mech $mech $extra >$out"
    cargo run --release --offline -q -p loadex-bench --bin run -- \
        --matrix "$matrix" --procs "$procs" --mech "$mech" $extra >"$out"
    echo "$digest  $out" | run sha256sum -c -
done

# The observed-p128 benchmark's configuration at full scale, pinned by digest
# (~2 s): CONV3D64/128 snapshot's JSONL and Chrome exports (22 MB and
# 2.5 MB) and the Chrome trace of increments' 3.08M events, then the strict
# `--audit` output of both runs, stdout and stderr together (snapshot's
# lists 34 violations and exits 1).
run cargo run --release --offline -q -p loadex-bench --bin run -- \
    --matrix CONV3D64 --procs 128 --mech snapshot \
    --events-out "$golden/conv3d64_128_snapshot.jsonl" \
    --trace-out "$golden/conv3d64_128_snapshot.trace.json"
run cargo run --release --offline -q -p loadex-bench --bin run -- \
    --matrix CONV3D64 --procs 128 --mech increments \
    --trace-out "$golden/conv3d64_128_increments.trace.json"
for pinned in \
    "5d2bbba12bc460e83c87a88449c7d0b3e9cf4f051aeb909b48c76af570e8f4b7 snapshot.jsonl" \
    "b1e02d8f2b6cf90446c7da06d858618bb990788b0e22eafc5da0eb6d56e9a30d snapshot.trace.json" \
    "249e5441862ded78fb309acfa5ae46643f07d00d162d697726c7e88dbd34d7c9 increments.trace.json"; do
    read -r digest file <<<"$pinned"
    echo "$digest  $golden/conv3d64_128_$file" | run sha256sum -c -
done
for pinned in \
    "67754412769df567a5b275a358b1dab318e2096f3323bfb1e1b477e647f45bcc snapshot 1" \
    "72e42c4787d6649f5092db36cda6c5cf3986e6fdb4d1f6433d489b9d028c655a increments 0"; do
    read -r digest mech want <<<"$pinned"
    out="$golden/conv3d64_128_${mech}_audit.txt"
    echo "==> run --matrix CONV3D64 --procs 128 --mech $mech --audit >$out 2>&1"
    status=0
    target/release/run --matrix CONV3D64 --procs 128 --mech "$mech" --audit \
        >"$out" 2>&1 || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "run --audit exited with $status, expected $want"
        exit 1
    fi
    echo "$digest  $out" | run sha256sum -c -
done

# Deterministic tables: `tables --all` (everything but the wall-clock §4.5
# table, which only `--threaded` prints) must match the committed
# tables_output.txt byte for byte (~1.2 s on 2 cores). Each table runs its
# simulations on every available core, so the diff repeats on one core
# (`taskset -c 0`, ~2 s): both the multi-worker and the one-worker pool must
# print the same bytes.
echo "==> tables --all vs tables_output.txt"
cargo run --release --offline -q -p loadex-bench --bin tables -- --all |
    diff -u tables_output.txt -
echo "==> taskset -c 0 tables --all vs tables_output.txt"
taskset -c 0 target/release/tables --all | diff -u tables_output.txt -

# Every example once (the test steps compile them but never run them); a
# nonzero exit fails the gate.
for file in examples/*.rs; do
    example=$(basename "$file" .rs)
    echo "==> example $example"
    cargo run --release --offline -q --example "$example" >/dev/null
done

# Size of the program: the lines of each .rs file under crates/, src/ and
# examples/ (outside tests/ directories) before its first `#[cfg(test)]`.
loc=$(find crates src examples -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { stop = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 }
        !stop { n++ } END { print n }')
echo "==> non-test lines of Rust: $loc"

echo "All checks passed."
