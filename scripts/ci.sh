#!/usr/bin/env bash
# The local gate — run before every push. CI runs exactly this script.
#
# Steps:
#   1. cargo fmt --check      formatting is not negotiable
#   2. cargo clippy           all targets, warnings are errors, plus
#                             clippy::format_collect (no per-item format!
#                             collected into a String, e.g. per-byte hex)
#   3. cargo test -q          the full workspace suite
#   4. release kernels        fact-data and fact-fairness tests again in
#                             release: perfbench and the experiments run
#                             the segment-scan and fairness kernels there,
#                             where an overflowing index wraps silently
#                             instead of panicking as it does in debug
#   5. one core               the fact-net suite and fact-serve's unit
#                             tests again under taskset -c 0: multi-frame
#                             writes and multi-frame buffered reads, and
#                             races between a decision handle and the
#                             worker that answers it, mostly happen when
#                             the threads share a core, which a multi-core
#                             run seldom reaches
#   6. perfbench self-tests   the benchmark package sits outside the
#                             workspace but builds on crates/* by path,
#                             so a fact-serve API change that breaks it
#                             fails here
#   7. cargo doc              workspace rustdoc, warnings are errors
#   8. exp_e3 --smoke         multiple testing on noise: Holm keeps FWER
#                             within alpha + 3 binomial sigma at every m,
#                             uncorrected FWER reaches 0.9 by m = 400, and
#                             naive discoveries at m = 5000 sit within
#                             4 sigma of alpha*m
#   9. exp_e4 --smoke         Simpson's paradox: the aggregate gap favors
#                             men by >8pp, the department-adjusted gap
#                             favors women, the department stratifier
#                             reports the reversal and a placebo coin
#                             does not
#  10. exp_e9 --smoke         guarded stream: exact debounced fairness-alert
#                             and DP-release counts, sampled audit entries
#                             and the last alert's DI bit for bit
#  11. guard examples         run examples/production_monitoring.rs and
#                             examples/serving.rs, the two examples that
#                             drive the guard API; a non-zero exit fails
#  12. exp_e12 --smoke        parallel kernels bit-identical to sequential
#  13. exp_e11 --smoke        guarded serving under open-loop load: every
#                             submit of every trial is either served or
#                             refused at admission (a conservation check)
#  14. audit_recovery smoke   kill the audit writer mid-batch, restart,
#                             assert the hash chain verifies and loss is
#                             bounded by one batch (tests + exp_e13 --smoke)
#  15. exp_e14 --smoke        feature cache: >=5x steady-state speedup,
#                             warm keys bridge a store outage, negative
#                             cache bounds upstream probes
#  16. exp_e15 --smoke        segmented audit rotation: recovery bytes-read
#                             stays one segment as the log grows 10x, every
#                             segment verifies standalone, a kill at the
#                             segment boundary loses nothing silently
#  17. exp_e16 --smoke        cross-process serving: spawn a fact-shardd
#                             worker over a tempdir Unix socket, SIGKILL it
#                             under load, respawn, assert the fairness
#                             window + ε ledger resume from checkpoint with
#                             bounded loss and the audit chain verifies
#                             across the crash
#  18. exp_e17 --smoke        columnar segments: roundtrip + aggregates
#                             bit-identical at 1/2/4 workers, zone maps
#                             prune >=half the segments under a selective
#                             predicate, column-pruned scans read <half
#                             the stored bytes (byte-counter asserts),
#                             and the intersectional audit over segments
#                             equals the in-memory one while reading
#                             <half the stored bytes
#  19. exp_e18 --smoke        adaptive admission: open-loop overload where
#                             the static queue bound blows p99 >=4x past
#                             target while the AIMD controller holds <=2x,
#                             a flooding tenant is throttled while a quiet
#                             one completes >=95%, and a spawned
#                             fact-shardd enforces quotas with typed
#                             Throttled errors across the wire
#  20. exp_e19 --smoke        live resharding: 4 -> 8 -> 3 cutovers under
#                             concurrent load with zero lost decisions,
#                             cell-exact fairness-window + ε-ledger
#                             conservation across the transform, and a
#                             continuous audit chain
#  21. exp_e20 --smoke        audit archiving: background compaction of a
#                             10x-rotated log keeps the writer batch p99
#                             within 5% of the archiver-off baseline,
#                             every archive decodes byte-identically
#                             (sha256-checked), and a SIGKILL mid-archive
#                             recovers with zero provably-lost entries —
#                             original xor verified archive, never neither
#  22. doc-link check         every PROTOCOL.md / OPERATIONS.md section
#                             anchor referenced from the crate rustdoc
#                             resolves to a real heading
#  23. harness-kit check      no experiment binary or root integration test
#                             defines a helper fact_bench::kit owns again
#                             (worker spawn, models, lending workloads),
#                             and every exp_* binary with a `fn main`
#                             parses its arguments with kit::Mode
#  24. storage-seam check     no non-test code under crates/serve/src
#                             touches std::fs outside checkpoint.rs (guard
#                             state) and audit_sink/storage.rs (audit
#                             segments), so on-disk state has two owners
#  25. surface report         non-test LoC, crate-root `pub use` names and
#                             public types per crate (scripts/surface.sh);
#                             report only, it fails nothing
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

echo "==> fact-data and fact-fairness tests in release (overflow wraps there)"
cargo test --offline --release -q -p fact-data -p fact-fairness

echo "==> fact-net and fact-serve --lib on one core (coalesced frame I/O, reply races)"
taskset -c 0 cargo test --offline -q -p fact-net
taskset -c 0 cargo test --offline -q -p fact-serve --lib

echo "==> perfbench self-tests (benchmark builds against the crates)"
cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --workspace --no-deps

echo "==> exp_e3 --smoke (multiple-testing FWER claim gate)"
cargo run --offline -q -p fact-bench --bin exp_e3 -- --smoke

echo "==> exp_e4 --smoke (Simpson's-paradox reversal claim gate)"
cargo run --offline -q -p fact-bench --bin exp_e4 -- --smoke

echo "==> exp_e9 --smoke (guarded-stream exact-verdict gate)"
cargo run --offline -q -p fact-bench --bin exp_e9 -- --smoke

echo "==> guard examples (production_monitoring, serving)"
cargo run --offline --release -q -p responsible-data-science --example production_monitoring
cargo run --offline --release -q -p responsible-data-science --example serving

echo "==> exp_e12 --smoke (parallel-kernel determinism gate)"
cargo run --offline -q -p fact-bench --bin exp_e12 -- --smoke

echo "==> exp_e11 --smoke (guarded-serving conservation gate)"
cargo run --offline -q -p fact-bench --bin exp_e11 -- --smoke

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

echo "==> exp_e17 --smoke (columnar-segment pruning + intersectional + determinism gate)"
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
# Every experiment binary takes its arguments through kit::Mode, so a
# stray argument exits 2 with the usage line instead of running in full.
for bin in crates/bench/src/bin/exp_*.rs; do
    if grep -qE '\bfn main\b' "$bin" && ! grep -q 'Mode::from_args' "$bin"; then
        echo "harness-kit check: $bin defines fn main without kit::Mode::from_args" >&2
        exit 1
    fi
done
echo "    every exp_* binary parses its arguments with kit::Mode"

echo "==> storage-seam check (std::fs only in checkpoint.rs and audit_sink/storage.rs)"
# Each file is cut at its first #[cfg(test)] line, as scripts/surface.sh
# cuts it, and comment lines are skipped; what is left may not name
# std::fs, import fs from std, or call through an `fs::` path.
fs_uses=$(find crates/serve/src -name '*.rs' \
        ! -path crates/serve/src/checkpoint.rs ! -path crates/serve/src/audit_sink/storage.rs \
        -exec awk '
            FNR == 1 { live = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
            live && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' {} + |
    grep -E 'std::fs|use std::\{[^}]*\<fs\>|(^|[^[:alnum:]_:])fs::' || true)
if [ -n "$fs_uses" ]; then
    echo "storage-seam check: std::fs outside the two storage seams:" >&2
    echo "$fs_uses" >&2
    exit 1
fi
echo "    std::fs appears only in checkpoint.rs and audit_sink/storage.rs"

echo "==> surface report (non-test LoC, root exports and public types per crate; report only)"
scripts/surface.sh

echo "==> ci.sh: all green"
