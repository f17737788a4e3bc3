#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test suite, the
# ignored-test gate, and the benchmark regression gate.
#
# Unlike a fail-fast script, every stage runs even after a failure so one
# pass reports everything that is broken; the final summary table shows
# per-stage pass/fail and the script exits non-zero if any stage failed.
#
# Usage: ci.sh [--quick] [--stage NAME] [--list]
#   --quick        skip the release build and the (release-built) bench
#                  gates — the fast pre-push configuration.
#   --stage NAME   run exactly one named stage (see ALL_STAGES below);
#                  exits 2 on an unknown name. Stages that drive the debug
#                  binary get it built on demand.
#   --list         print the stage table (name + what it guards) and exit
#                  without running anything.
set -uo pipefail
cd "$(dirname "$0")"

ALL_STAGES="fmt clippy build-release test diag-gate ignore-gate serve-gate chaos-gate triage-gate isolation-gate bench-gate"

QUICK=0
ONLY_STAGE=""
EXPECT_STAGE=0
LIST=0
for arg in "$@"; do
    if [ "$EXPECT_STAGE" -eq 1 ]; then
        ONLY_STAGE="$arg"; EXPECT_STAGE=0; continue
    fi
    case "$arg" in
        --quick) QUICK=1 ;;
        --stage) EXPECT_STAGE=1 ;;
        --list) LIST=1 ;;
        -h|--help) echo "usage: ci.sh [--quick] [--stage NAME] [--list]"; echo "stages: $ALL_STAGES"; exit 0 ;;
        *) echo "ci.sh: unknown argument '$arg' (usage: ci.sh [--quick] [--stage NAME] [--list])" >&2; exit 2 ;;
    esac
done
if [ "$EXPECT_STAGE" -eq 1 ]; then
    echo "ci.sh: --stage needs a name (one of: $ALL_STAGES)" >&2; exit 2
fi
if [ "$LIST" -eq 1 ]; then
    echo "ci.sh stages, in run order (* = skipped under --quick):"
    printf '  %-18s %s\n' \
        "fmt"              "rustfmt check over the whole workspace" \
        "clippy"           "clippy with -D warnings, all targets" \
        "build-release *"  "release build (tier-1)" \
        "test"             "cargo test -q: the full tier-1 suite" \
        "diag-gate"        "CLI baseline self-diff over the golden alarm corpus" \
        "ignore-gate"      "no #[ignore] in the precision suite; ignored tests pass" \
        "serve-gate"       "daemon over a real socket: diff events + convergence" \
        "chaos-gate"       "kill -9 the daemon, restart --resume, convergence" \
        "triage-gate"      "--triage both strictly grows discharges; definite alarms untouched" \
        "isolation-gate"   "process workers byte-identical; abort/oom/spin survived" \
        "bench-gate *"     "repo-benchmark checks + BENCH_counts.txt ledger + allocation ceilings"
    exit 0
fi
if [ -n "$ONLY_STAGE" ]; then
    case " $ALL_STAGES " in
        *" $ONLY_STAGE "*) ;;
        *) echo "ci.sh: unknown stage '$ONLY_STAGE' (one of: $ALL_STAGES)" >&2; exit 2 ;;
    esac
    # The binary-driven gates normally ride on the debug build the `test`
    # stage leaves behind; a single-stage run must provide it itself.
    case "$ONLY_STAGE" in
        diag-gate|serve-gate|chaos-gate|triage-gate|isolation-gate)
            [ -x target/debug/sga ] || cargo build -q -p sga || exit 1 ;;
    esac
fi

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_TIMES=()
FAILED=0

run_stage() {
    local name="$1"; shift
    if [ -n "$ONLY_STAGE" ] && [ "$name" != "$ONLY_STAGE" ]; then
        return 0
    fi
    echo
    echo "== $name"
    local start=$SECONDS
    if "$@"; then
        STAGE_RESULTS+=("pass")
    else
        STAGE_RESULTS+=("FAIL")
        FAILED=1
    fi
    STAGE_NAMES+=("$name")
    STAGE_TIMES+=("$((SECONDS - start))")
}

diag_gate() {
    # The `--baseline` surface through the CLI, over the golden alarm corpus
    # (whose fingerprints, discharges and SARIF export the `test` stage
    # checks): diffing a run against itself must classify zero new and zero
    # fixed diagnostics.
    local bin=./target/debug/sga
    local tmp
    tmp=$(mktemp -d) || return 1
    "$bin" analyze tests/alarms --canonical --no-cache > "$tmp/base.json" || { rm -rf "$tmp"; return 1; }
    "$bin" analyze tests/alarms --canonical --no-cache --baseline "$tmp/base.json" > "$tmp/diff.json"
    local code=$?
    if [ "$code" -ne 0 ]; then
        echo "diag-gate: baseline-vs-self run exited $code" >&2
        rm -rf "$tmp"; return 1
    fi
    if ! grep -q '"new_definite": 0' "$tmp/diff.json" \
       || ! grep -q '"new": \[\]' "$tmp/diff.json" \
       || ! grep -q '"fixed": \[\]' "$tmp/diff.json"; then
        echo "diag-gate: baseline-vs-self diff is not empty" >&2
        rm -rf "$tmp"; return 1
    fi
    rm -rf "$tmp"
}

serve_gate() {
    # The incremental daemon, end to end over a real socket: start
    # `sga serve` on an ephemeral port, subscribe with `sga watch --once`,
    # script an alarm-swapping edit through `sga watch --edit`, and assert
    # the streamed diff event carries both a fixed and a new fingerprint.
    # Then the convergence invariant, over the wire: the daemon's
    # accumulated report must match a cold `sga analyze --no-cache
    # --canonical` batch run of the edited corpus (whitespace-normalized
    # here; the byte-exact comparison lives in the serve test suite).
    local bin=./target/debug/sga
    local tmp daemon watcher addr
    tmp=$(mktemp -d) || return 1
    mkdir "$tmp/corpus"
    printf 'int main() { int *buf = malloc(4); buf[9] = 1; return 0; }\n' \
        > "$tmp/corpus/lib.c"
    printf 'int main() { return 3; }\n' > "$tmp/corpus/app.c"
    "$bin" serve "$tmp/corpus" --no-cache --port-file "$tmp/port" \
        > "$tmp/serve.log" 2>&1 &
    daemon=$!
    for _ in $(seq 1 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    if [ ! -s "$tmp/port" ]; then
        echo "serve-gate: daemon never wrote its port file" >&2
        cat "$tmp/serve.log" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    addr=$(tr -d '[:space:]' < "$tmp/port")
    timeout 120 "$bin" watch "$addr" --once > "$tmp/event.json" &
    watcher=$!
    # The daemon acknowledges a subscription before registering it for
    # broadcast, and `sga watch` prints that ack line before any event —
    # wait for it instead of sleeping, so the edit round cannot fire
    # before the subscriber is in the broadcast set.
    for _ in $(seq 1 100); do
        grep -q '"subscribed"' "$tmp/event.json" 2>/dev/null && break
        sleep 0.1
    done
    if ! grep -q '"subscribed"' "$tmp/event.json" 2>/dev/null; then
        echo "serve-gate: watcher never acknowledged its subscription" >&2
        kill "$daemon" "$watcher" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    printf 'int main() { int *buf = malloc(4); buf[0] = 1; return 0; }\nint other() { int *b = malloc(4); b[6] = 1; return 0; }\n' \
        > "$tmp/lib_v2.c"
    if ! "$bin" watch "$addr" --edit lib.c "$tmp/lib_v2.c" > /dev/null; then
        echo "serve-gate: scripted edit failed" >&2
        kill "$daemon" "$watcher" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    if ! wait "$watcher"; then
        echo "serve-gate: subscriber never received the diff event" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    if ! grep -qF '"event":"diff"' "$tmp/event.json" \
       || ! grep -qF '"fixed":["' "$tmp/event.json" \
       || ! grep -qF '"new":["' "$tmp/event.json"; then
        echo "serve-gate: diff event lacks the swapped alarm fingerprints:" >&2
        cat "$tmp/event.json" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    "$bin" watch "$addr" --report > "$tmp/live.json" || {
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    "$bin" analyze "$tmp/corpus" --no-cache --canonical > "$tmp/cold.json" || {
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    if ! cmp -s <(tr -d '[:space:]' < "$tmp/live.json") \
                <(tr -d '[:space:]' < "$tmp/cold.json"); then
        echo "serve-gate: daemon report diverged from the cold batch run" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    "$bin" watch "$addr" --shutdown > /dev/null
    if ! wait "$daemon"; then
        echo "serve-gate: daemon exited non-zero" >&2
        cat "$tmp/serve.log" >&2
        rm -rf "$tmp"; return 1
    fi
    rm -rf "$tmp"
}

chaos_gate() {
    # Crash safety, operator-style: start the daemon with a cache (the
    # round journal lives under it), script an edit, quiesce with a
    # report, `kill -9` the process, restart with `--resume`, edit again,
    # and require the resumed daemon's report to match a cold batch run
    # (whitespace-normalized, as in serve-gate). The fine-grained
    # kill-point sweep — including kills aimed inside a stalled round —
    # lives in tests/serve_chaos.rs; this stage proves the same story for
    # the shipped binary driven exactly as an operator would drive it.
    local bin=./target/debug/sga
    local tmp daemon addr
    tmp=$(mktemp -d) || return 1
    mkdir "$tmp/corpus"
    printf 'int main() { int *buf = malloc(4); buf[9] = 1; return 0; }\n' \
        > "$tmp/corpus/lib.c"
    printf 'int main() { return 3; }\n' > "$tmp/corpus/app.c"
    "$bin" serve "$tmp/corpus" --cache-dir "$tmp/cache" --port-file "$tmp/port" \
        > "$tmp/serve1.log" 2>&1 &
    daemon=$!
    for _ in $(seq 1 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    if [ ! -s "$tmp/port" ]; then
        echo "chaos-gate: daemon never wrote its port file" >&2
        cat "$tmp/serve1.log" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    addr=$(tr -d '[:space:]' < "$tmp/port")
    printf 'int main() { return 41; }\n' > "$tmp/app_v2.c"
    "$bin" watch "$addr" --edit app.c "$tmp/app_v2.c" > /dev/null || {
        echo "chaos-gate: pre-kill edit failed" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    # A report is served by the same engine thread, strictly after the
    # edit round — once it answers, the round is journaled.
    "$bin" watch "$addr" --report > /dev/null || {
        echo "chaos-gate: pre-kill report failed" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    kill -9 "$daemon" 2>/dev/null
    wait "$daemon" 2>/dev/null
    rm -f "$tmp/port"
    "$bin" serve "$tmp/corpus" --cache-dir "$tmp/cache" --port-file "$tmp/port" \
        --resume > "$tmp/serve2.log" 2>&1 &
    daemon=$!
    for _ in $(seq 1 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    if [ ! -s "$tmp/port" ]; then
        echo "chaos-gate: resumed daemon never wrote its port file" >&2
        cat "$tmp/serve2.log" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    addr=$(tr -d '[:space:]' < "$tmp/port")
    # The restart must be warm: both units replayed from the journal, no
    # re-analysis.
    if ! grep -q "2 resumed from journal" "$tmp/serve2.log"; then
        echo "chaos-gate: restart did not warm-resume from the journal:" >&2
        cat "$tmp/serve2.log" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    printf 'int main() { int *buf = malloc(4); buf[0] = 1; return 0; }\n' \
        > "$tmp/lib_v2.c"
    "$bin" watch "$addr" --edit lib.c "$tmp/lib_v2.c" > /dev/null || {
        echo "chaos-gate: post-resume edit failed" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    "$bin" watch "$addr" --report > "$tmp/live.json" || {
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    "$bin" analyze "$tmp/corpus" --no-cache --canonical > "$tmp/cold.json" || {
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1; }
    if ! cmp -s <(tr -d '[:space:]' < "$tmp/live.json") \
                <(tr -d '[:space:]' < "$tmp/cold.json"); then
        echo "chaos-gate: resumed daemon diverged from the cold batch run" >&2
        kill "$daemon" 2>/dev/null; rm -rf "$tmp"; return 1
    fi
    "$bin" watch "$addr" --shutdown > /dev/null
    if ! wait "$daemon"; then
        echo "chaos-gate: resumed daemon exited non-zero" >&2
        cat "$tmp/serve2.log" >&2
        rm -rf "$tmp"; return 1
    fi
    rm -rf "$tmp"
}

triage_gate() {
    # The path-condition layer's contract, end to end: over the golden
    # alarm corpus, `--triage both` must discharge *strictly more* alarms
    # than `--triage octagon` (the path_*.c cases exist precisely to keep
    # this strict), the octagon-method discharges must be identical in
    # both runs (the path pass only ever adds), every added discharge must
    # carry a path_infeasible proving pack, and the definite alarms —
    # which no triage layer may ever touch — must be byte-identical.
    local bin=./target/debug/sga
    local tmp oct both oct_methods both_oct_methods path_methods
    tmp=$(mktemp -d) || return 1
    "$bin" analyze tests/alarms --canonical --no-cache --triage octagon \
        > "$tmp/oct.json" || { rm -rf "$tmp"; return 1; }
    "$bin" analyze tests/alarms --canonical --no-cache --triage both \
        > "$tmp/both.json" || { rm -rf "$tmp"; return 1; }
    oct=$(grep -c '"status": "discharged"' "$tmp/oct.json")
    both=$(grep -c '"status": "discharged"' "$tmp/both.json")
    if [ "$both" -le "$oct" ]; then
        echo "triage-gate: both mode discharged $both, octagon $oct — want strictly more" >&2
        rm -rf "$tmp"; return 1
    fi
    oct_methods=$(grep -c '"method": "octagon"' "$tmp/oct.json")
    both_oct_methods=$(grep -c '"method": "octagon"' "$tmp/both.json")
    if [ "$oct_methods" -ne "$both_oct_methods" ]; then
        echo "triage-gate: octagon discharges changed under both mode ($oct_methods -> $both_oct_methods)" >&2
        rm -rf "$tmp"; return 1
    fi
    path_methods=$(grep -c '"method": "path_infeasible"' "$tmp/both.json")
    if [ "$path_methods" -ne "$((both - oct))" ]; then
        echo "triage-gate: $((both - oct)) added discharges but $path_methods path_infeasible packs" >&2
        rm -rf "$tmp"; return 1
    fi
    # Every definite alarm, identified by its kind/cp/line/proc/subject
    # block, must survive both runs untouched.
    grep -B7 '"definite": true' "$tmp/oct.json"  > "$tmp/oct-definite.txt"
    grep -B7 '"definite": true' "$tmp/both.json" > "$tmp/both-definite.txt"
    if ! cmp -s "$tmp/oct-definite.txt" "$tmp/both-definite.txt"; then
        echo "triage-gate: definite alarms differ across triage modes:" >&2
        diff "$tmp/oct-definite.txt" "$tmp/both-definite.txt" | head -20 >&2
        rm -rf "$tmp"; return 1
    fi
    if [ ! -s "$tmp/oct-definite.txt" ]; then
        echo "triage-gate: corpus holds no definite alarms to protect" >&2
        rm -rf "$tmp"; return 1
    fi
    rm -rf "$tmp"
}

isolation_gate() {
    # The process-isolated worker pool, driven as an operator would: the
    # canonical report must be byte-identical to the in-thread engine at
    # --jobs 1 and 4, and a batch seeded with an abort, a 4 GiB OOM, and a
    # spinning worker must finish with exactly those three units crashed
    # (exit 3) while the parent stays alive to render the report. Finally
    # a hard stall: a worker spinning past --worker-timeout-ms must be
    # SIGKILLed by the supervisor and counted as a stall.
    local bin=./target/debug/sga
    local tmp code
    tmp=$(mktemp -d) || return 1
    for jobs in 1 4; do
        "$bin" analyze --corpus units=4,kloc=1,seed=11 --canonical --no-cache \
            --jobs "$jobs" > "$tmp/thread$jobs.json" || { rm -rf "$tmp"; return 1; }
        "$bin" analyze --corpus units=4,kloc=1,seed=11 --canonical --no-cache \
            --jobs "$jobs" --isolation process > "$tmp/process$jobs.json" \
            || { rm -rf "$tmp"; return 1; }
        if ! cmp -s "$tmp/thread$jobs.json" "$tmp/process$jobs.json"; then
            echo "isolation-gate: thread/process reports differ at --jobs $jobs:" >&2
            diff "$tmp/thread$jobs.json" "$tmp/process$jobs.json" | head -20 >&2
            rm -rf "$tmp"; return 1
        fi
    done
    if ! cmp -s "$tmp/thread1.json" "$tmp/thread4.json"; then
        echo "isolation-gate: reports differ across --jobs" >&2
        rm -rf "$tmp"; return 1
    fi
    "$bin" analyze --corpus units=8,kloc=1,seed=11 --no-cache --jobs 2 \
        --isolation process --worker-mem-mb 512 --worker-timeout-ms 60000 \
        --faults abort@2,oom@4=4096,spin@6=500 > "$tmp/faulted.json"
    code=$?
    if [ "$code" -ne 3 ]; then
        echo "isolation-gate: fault mix exited $code, want 3 (crashed units)" >&2
        rm -rf "$tmp"; return 1
    fi
    if ! grep -q '"crashed": 3' "$tmp/faulted.json"; then
        echo "isolation-gate: fault mix did not crash exactly 3 units:" >&2
        grep '"crashed"' "$tmp/faulted.json" >&2
        rm -rf "$tmp"; return 1
    fi
    timeout 60 "$bin" analyze --corpus units=1,kloc=1,seed=11 --no-cache \
        --isolation process --worker-timeout-ms 1500 \
        --faults spin@0=120000 > "$tmp/stall.json"
    code=$?
    if [ "$code" -ne 3 ]; then
        echo "isolation-gate: stalled run exited $code, want 3" >&2
        rm -rf "$tmp"; return 1
    fi
    if ! grep -q '"stalls": [1-9]' "$tmp/stall.json"; then
        echo "isolation-gate: supervisor recorded no stall kills:" >&2
        grep '"isolation"' -A6 "$tmp/stall.json" >&2
        rm -rf "$tmp"; return 1
    fi
    rm -rf "$tmp"
}

ignore_gate() {
    # The precision suite must run in full: no test may be #[ignore]d, and
    # anything marked ignored elsewhere must still pass when forced.
    if grep -n '#\[ignore' tests/precision_preservation.rs; then
        echo "ignore-gate: #[ignore] found in tests/precision_preservation.rs" >&2
        return 1
    fi
    cargo test -q -- --ignored
}

# The rows of a traced benchmark run that BENCH_counts.txt pins: deterministic
# counts describing answers and trajectories. Not the `allocs` rows, which a
# change is allowed to lower.
COUNT_ROWS="cfront.tokens cfront.ir_points core.defuse.locs core.depgen.edges_raw \
core.depgen.edges_final core.sparse.iterations core.sparse.narrowing_rounds \
core.checker.alarms core.triage.candidates core.triage.discharged_octagon \
core.triage.discharged_path core.octagon.packs core.octagon.iterations diag.diagnostics"
# The interval fixpoint's and the pre-analysis' allocation rows are held under
# the ceilings of BENCH_alloc_ceilings.txt instead (the values of the PR that
# last lowered them, plus a tenth): they fall freely and cannot rise unnoticed.
# With the sparse engine's forwarding off — an instance's `forwards` back at
# the trait's default, say — every pinned count stays equal and the fixpoint's
# rise by 28 % to sixfold.
ALLOC_ROWS="core.sparse.allocs core.sparse.alloc_bytes core.preanalysis.allocs"

# What the every-unit-a-hit workload pins: its one non-zero answer row, exactly,
# and the bytes its cache entries take, under a ceiling (an entry holds what a
# hit returns; a field written but never read back, or pretty-printing, would
# push them over).
WARM_ROWS="diag.diagnostics pipeline.cache.entry_bytes"

# What the daemon workload pins: how many units a body and an interface edit
# re-analyse, the share of the corpus a round spares, and that nothing was
# shed or evicted. Its timing rows (ack, event lag, rounds) are not read.
SERVE_ROWS="serve.engine.invalidated_body serve.engine.invalidated_iface \
serve.engine.spared_ratio serve.server.shed serve.server.evicted_slow"

traced_rows() {
    # One traced (fixed-work) run of workload $1 at the default seed, its
    # rows named in $2 (default: the count and allocation rows) printed as
    # "workload row value" lines (a ratio as the run prints it, anything
    # else as an integer); fails when the run does.
    local out
    out=$(cargo run --release -p sga-bench --bin benchmark -- run --workload "$1" --trace 1) || {
        printf '%s\n' "$out" | tail -n 20 >&2; return 1; }
    printf '%s\n' "$out" | awk -v w="$1" -v rows="${2:-$COUNT_ROWS $ALLOC_ROWS}" '
        BEGIN { n = split(rows, r, " "); for (i = 1; i <= n; i++) want[r[i]] = 1 }
        ($1 in want) && ($3 == "count" || $3 == "bytes") { printf "%s %s %d\n", w, $1, $2 }
        ($1 in want) && $3 == "ratio" { printf "%s %s %s\n", w, $1, $2 }'
}

under_ceilings() {
    # Every "workload row ceiling" line of BENCH_alloc_ceilings.txt must
    # have its row among the "workload row value" lines on stdin, at or
    # below the ceiling.
    awk '
        NR == FNR { ceiling[$1 " " $2] = $3; rows++; next }
        ($1 " " $2) in ceiling {
            seen++
            if ($3 + 0 > ceiling[$1 " " $2] + 0) {
                printf "bench-gate: %s %s is %d, over its ceiling %d\n", $1, $2, $3, ceiling[$1 " " $2]
                bad = 1
            }
        }
        END {
            if (seen != rows) { print "bench-gate: a row of BENCH_alloc_ceilings.txt was not reported"; bad = 1 }
            exit bad
        }' BENCH_alloc_ceilings.txt - >&2
}

bench_gate() {
    # The repository benchmark: traced runs over flat units, over one large
    # dependency cycle and over a warm cache — fixed work, the golden corpus / oracle /
    # per-unit identity checks, every count equal between their own two
    # passes — whose answer-and-trajectory counts must equal the committed
    # ledger exactly and whose fixpoint allocation rows and cache entry
    # bytes must stay under their ceilings; the daemon workload's traced run
    # (the same edits in process and over the socket, convergence checked)
    # pins its invalidation, shed and eviction rows in the same ledger, and a
    # 2-second smoke takes the untraced path through the daemon. No timing
    # is read.
    local rows
    rows=$(traced_rows batch_flat && traced_rows batch_scc &&
        traced_rows warm_rerun "$WARM_ROWS" &&
        traced_rows serve_edits "$SERVE_ROWS") &&
        diff -u BENCH_counts.txt <(printf '%s\n' "$rows" |
            grep -vFf <(cut -d' ' -f1,2 BENCH_alloc_ceilings.txt)) &&
        printf '%s\n' "$rows" | under_ceilings &&
        cargo run --release -p sga-bench --bin benchmark -- run --workload serve_edits --seconds 2
}

run_stage "fmt"    cargo fmt --all -- --check
run_stage "clippy" cargo clippy --workspace --all-targets -- -D warnings
if [ "$QUICK" -eq 0 ] || [ -n "$ONLY_STAGE" ]; then
    run_stage "build-release" cargo build --release
fi
run_stage "test"        cargo test -q
run_stage "diag-gate"   diag_gate
run_stage "ignore-gate" ignore_gate
# The daemon gate drives the debug binary (built by the test stage) over a
# real socket, so it is cheap enough for --quick too.
run_stage "serve-gate"  serve_gate
# The chaos gate proves crash-safe warm restart (kill -9, --resume,
# convergence) with the same cheap debug-binary recipe, so it runs in
# --quick too.
run_stage "chaos-gate"  chaos_gate
# The triage gate pins the path layer's superset/definite contract with
# the same cheap debug-binary recipe, so it runs in --quick too.
run_stage "triage-gate" triage_gate
# The isolation gate proves the process worker pool reproduces the thread
# engine byte-for-byte and survives fatal faults; it drives the debug
# binary and runs in --quick too.
run_stage "isolation-gate" isolation_gate
if [ "$QUICK" -eq 0 ] || [ -n "$ONLY_STAGE" ]; then
    run_stage "bench-gate" bench_gate
fi

echo
echo "ci.sh summary:"
printf '  %-14s %-5s %ss\n' "stage" "result" "time"
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-14s %-5s %3ss\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" "${STAGE_TIMES[$i]}"
done

if [ "$FAILED" -ne 0 ]; then
    echo "ci.sh: FAILED"
    exit 1
fi
echo "ci.sh: all green"
