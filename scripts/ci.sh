#!/usr/bin/env bash
# The local gate — run before every push. CI runs exactly this script.
#
# Steps:
#   1. cargo fmt --check      formatting is not negotiable
#   2. cargo clippy           all targets, warnings are errors, plus
#                             clippy::format_collect (no per-item format!
#                             collected into a String, e.g. per-byte hex)
#   3. cargo test -q          the full workspace suite
#   4. perfbench self-tests   the benchmark package sits outside the
#                             workspace but builds on crates/* by path,
#                             so a fact-serve API change that breaks it
#                             fails here
#   5. cargo doc              workspace rustdoc, warnings are errors
#   6. exp_e12 --smoke        parallel kernels bit-identical to sequential
#   7. audit_recovery smoke   kill the audit writer mid-batch, restart,
#                             assert the hash chain verifies and loss is
#                             bounded by one batch (tests + exp_e13 --smoke)
#   8. exp_e14 --smoke        feature cache: >=5x steady-state speedup,
#                             warm keys bridge a store outage, negative
#                             cache bounds upstream probes
#   9. exp_e15 --smoke        segmented audit rotation: recovery bytes-read
#                             stays one segment as the log grows 10x, every
#                             segment verifies standalone, a kill at the
#                             segment boundary loses nothing silently
#  10. exp_e16 --smoke        cross-process serving: spawn a fact-shardd
#                             worker over a tempdir Unix socket, SIGKILL it
#                             under load, respawn, assert the fairness
#                             window + ε ledger resume from checkpoint with
#                             bounded loss and the audit chain verifies
#                             across the crash
#  11. exp_e17 --smoke        columnar segments: roundtrip + aggregates
#                             bit-identical at 1/2/4 workers, zone maps
#                             prune >=half the segments under a selective
#                             predicate, column-pruned scans read <half
#                             the stored bytes (byte-counter asserts)
#  12. exp_e18 --smoke        adaptive admission: open-loop overload where
#                             the static queue bound blows p99 >=4x past
#                             target while the AIMD controller holds <=2x,
#                             a flooding tenant is throttled while a quiet
#                             one completes >=95%, and a spawned
#                             fact-shardd enforces quotas with typed
#                             Throttled errors across the wire
#  13. exp_e19 --smoke        live resharding: 4 -> 8 -> 3 cutovers under
#                             concurrent load with zero lost decisions,
#                             cell-exact fairness-window + ε-ledger
#                             conservation across the transform, and a
#                             continuous audit chain
#  14. exp_e20 --smoke        audit archiving: background compaction of a
#                             10x-rotated log keeps the writer batch p99
#                             within 5% of the archiver-off baseline,
#                             every archive decodes byte-identically
#                             (sha256-checked), and a SIGKILL mid-archive
#                             recovers with zero provably-lost entries —
#                             original xor verified archive, never neither
#  15. doc-link check         every PROTOCOL.md / OPERATIONS.md section
#                             anchor referenced from the crate rustdoc
#                             resolves to a real heading
#  16. harness-kit check      no experiment binary or root integration test
#                             defines a helper fact_bench::kit owns again
#                             (worker spawn, models, lending workloads)
#
# Everything runs --offline: the workspace vendors its dependencies and
# must build with no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings -D clippy::format_collect"
cargo clippy --offline --all-targets -- -D warnings -D clippy::format_collect

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> perfbench self-tests (benchmark builds against the crates)"
cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --workspace --no-deps

echo "==> exp_e12 --smoke (parallel-kernel determinism gate)"
cargo run --offline -q -p fact-bench --bin exp_e12 -- --smoke

echo "==> audit_recovery --smoke (crash-recovery gate)"
cargo test --offline -q --test audit_recovery -- kill_mid_batch_recovery_is_deterministic
cargo run --offline -q -p fact-bench --bin exp_e13 -- --smoke

echo "==> exp_e14 --smoke (feature-cache speedup + outage-bridging gate)"
cargo run --offline -q -p fact-bench --bin exp_e14 -- --smoke

echo "==> exp_e15 --smoke (segmented-rotation O(segment)-recovery gate)"
cargo run --offline -q -p fact-bench --bin exp_e15 -- --smoke

echo "==> exp_e16 --smoke (cross-process checkpoint-resume gate)"
# exp_e16 spawns fact-shardd as a sibling of its own binary, so build the
# worker explicitly first — `cargo run` alone would not produce it.
cargo build --offline -q -p responsible-data-science --bin fact-shardd
cargo run --offline -q -p fact-bench --bin exp_e16 -- --smoke

echo "==> exp_e17 --smoke (columnar-segment pruning + determinism gate)"
cargo run --offline -q -p fact-bench --bin exp_e17 -- --smoke

echo "==> exp_e18 --smoke (adaptive-admission overload + fairness gate)"
# exp_e18's remote phase spawns fact-shardd like exp_e16's does; the
# explicit worker build above covers it.
cargo run --offline -q -p fact-bench --bin exp_e18 -- --smoke

echo "==> exp_e19 --smoke (live-reshard conservation gate)"
cargo run --offline -q -p fact-bench --bin exp_e19 -- --smoke

echo "==> exp_e20 --smoke (audit-archiver hot-path + crash-safety gate)"
# exp_e20's crash phase spawns fact-shardd like exp_e16's does; the
# explicit worker build above covers it.
cargo run --offline -q -p fact-bench --bin exp_e20 -- --smoke

echo "==> doc-link check (rustdoc -> PROTOCOL.md / OPERATIONS.md anchors)"
# The crate rustdoc points readers at PROTOCOL.md sections by their
# literal headings ("§N — Title"). If a heading is renamed, the pointer
# rots silently — so: every "§N — ..." reference that appears in crate
# sources must match a "## §N — ..." heading in PROTOCOL.md, and the two
# operator documents must exist where README links them.
for doc in PROTOCOL.md OPERATIONS.md; do
    [ -f "$doc" ] || { echo "doc-link check: $doc is missing" >&2; exit 1; }
done
refs=$(grep -rhoE '§[0-9]+ — [A-Za-z][A-Za-z -]*' crates/*/src src/bin 2>/dev/null | sort -u)
[ -n "$refs" ] || { echo "doc-link check: no §-references found in crate sources (expected some)" >&2; exit 1; }
while IFS= read -r ref; do
    grep -qF "## $ref" PROTOCOL.md || {
        echo "doc-link check: rustdoc references \"$ref\" but PROTOCOL.md has no heading \"## $ref\"" >&2
        exit 1
    }
done <<< "$refs"
echo "    all $(echo "$refs" | wc -l) §-references resolve"

echo "==> harness-kit check (kit-owned helpers are defined once)"
# The worker handle, the models and the lending workloads live in
# crates/bench/src/kit.rs. A harness that grows its own copy again drifts
# (two p99 rules, an orphaned worker), so a redefinition fails the gate.
kit_owned='fn (shardd_path|wait_listening|lending_request|train_model)\b|struct (MeanScorer|PassThrough)\b'
if dups=$(grep -rnE "$kit_owned" crates/bench/src/bin tests); then
    echo "harness-kit check: use bench::kit instead of redefining:" >&2
    echo "$dups" >&2
    exit 1
fi
echo "    no kit-owned helper redefined under crates/bench/src/bin or tests/"

echo "==> ci.sh: all green"
