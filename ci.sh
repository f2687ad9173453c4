#!/usr/bin/env sh
# CI gate, 14 steps: offline build, full test suite, the reach census's
# self-check, fixed-seed chaos baselines, the golden figures, and one
# wall-clock gate against one ledger.
#
# The workspace builds with no network access (all external deps are
# path-shimmed under shims/), so `cargo fetch` is a fast no-op that fails
# loudly if a registry dependency ever sneaks in.
#
# Every step is timed so slowdowns are visible in the CI log itself, and
# the last line carries the gate's own wall time as one number.
set -eu

cd "$(dirname "$0")"
gate_t0=$(date +%s)

step() {
    step_name="$1"
    shift
    echo "==> $step_name"
    t0=$(date +%s)
    "$@"
    echo "==> $step_name: done in $(( $(date +%s) - t0 ))s"
}

# No step writes into results/. Goldens are regenerated under target/ —
# the bench bins from the scratch working directory target/golden, since
# `Table::write_csv` writes ./results/ relative to the cwd — and diffed
# against the committed files: a step that wrote the golden itself could
# only ever be compared with itself.
root=$(pwd)
scratch=target/golden
rm -rf "$scratch"
mkdir -p "$scratch"

# bench_bin <bin> [args...]: runs a release bin from $scratch, stdout dropped.
bench_bin() {
    bin="$1"
    shift
    (cd "$scratch" && "$root/target/release/$bin" "$@" > /dev/null)
}

# same_csv <name>...: each regenerated CSV equals the committed one.
same_csv() {
    for name in "$@"; do
        diff "results/$name.csv" "$scratch/results/$name.csv"
    done
}

# The paper's own table and figures, the ablations and the extensions:
# one `figures` run writes 23 CSVs and exits nonzero if a claim about them
# fails. fig10.csv is the only pin of the RDD block manager's eviction
# order outside its unit tests.
figures() {
    bench_bin figures
    same_csv table3 fig3 fig4 fig5 fig6 fig7_50 fig7_75 fig8 fig9 fig10 \
        ablation_batching ablation_costmodel ablation_groups \
        ablation_groups_arithmetic ablation_placement ablation_replication \
        ext_qos ext_qos_alerts ext_kv_cache ext_llm_serving ext_obj_alloc \
        ext_crossover fig4_rack
}

# no_warnings <cmd...>: runs a cargo command, prints its output, and fails
# if the output holds a compiler warning. Cargo replays the warnings of
# crates it does not rebuild, so a cached build is checked as well; the
# workspace builds warning-free, and this keeps dead code from coming back.
no_warnings() {
    log=target/ci_step.log
    status=0
    "$@" > "$log" 2>&1 || status=$?
    cat "$log"
    if grep -q '^warning:' "$log"; then
        echo "==> compiler warnings above; the build must be warning-free"
        return 1
    fi
    return "$status"
}

step "cargo fetch" cargo fetch

step "cargo build --release (no warnings)" no_warnings cargo build --release

step "cargo test -q (no warnings)" no_warnings cargo test -q

# The function-level reachability census (tools/reach.sh, ROADMAP [reach])
# runs dev-profile `figures` and takes too long for the gate; its
# self-check builds a toy crate with the same instrumentation and fails
# unless the used function reads reached and the unused one unreached.
step "reach census self-check (toy crate)" tools/reach.sh check

# The chaos smoke: every seed passes, and its fault-free output is pinned
# byte-for-byte against the committed baseline: the fault-injection layer
# must cost exactly nothing — no RNG draws, no clock advances, no metric
# keys — when it is not installed.
step "chaos smoke + fault-free baseline (seeds 0..32, byte-identical)" sh -c '
    set -e
    cargo run --release --quiet --bin chaos -- --seeds 0..32 \
        > target/chaos_smoke_baseline.txt
    diff results/chaos_smoke_baseline.txt target/chaos_smoke_baseline.txt
'

# The chaos modes, alone and composed: --qos adds the tenant-quota and
# priority-eviction invariants; --faults arms the fabric fault layer (verb
# drops/delays/duplication, partitions, QP breaks) and the fault-reads and
# suspect-resolution invariants; --cxl adds pool-node outage windows and
# remote atomics, judged by the shadow-read and atomics-exact invariants.
# Each mode runs at --jobs 1 and --jobs 4 and the two outputs are diffed:
# injections, retries, failovers, the per-seed alert logs and every digest
# must be byte-identical however the seeds fan across cores. Every mode's
# --jobs 1 output is also pinned byte-for-byte against a committed
# baseline: the three single modes, each under a `## <mode>` header, in
# one file, and the composed mode, run last, in its own, so a change under
# any layer cannot move them unseen.
chaos_modes() {
    : > target/chaos_modes.txt
    for mode in "--qos" "--faults" "--cxl" "--qos --faults --cxl"; do
        for jobs in 1 4; do
            target/release/chaos --seeds 0..32 $mode --jobs $jobs > target/chaos_mode_$jobs.txt
        done
        diff target/chaos_mode_1.txt target/chaos_mode_4.txt
        if [ "$mode" != "--qos --faults --cxl" ]; then
            { echo "## $mode"; cat target/chaos_mode_1.txt; } >> target/chaos_modes.txt
        fi
    done
    diff results/chaos_modes_baseline.txt target/chaos_modes.txt
    diff results/chaos_composed_baseline.txt target/chaos_mode_1.txt
}
step "chaos modes, alone and composed (seeds 0..32, --jobs 1 vs 4 determinism gate, single-mode and composed baselines)" chaos_modes

# Flight-recorder dump smoke: force a known invariant failure (factor-1
# data lost to a node crash) from a pinned seed and byte-diff the dump —
# violation line, recent-event ring, metric windows — against the
# committed golden. The dump path must stay deterministic or it is
# useless for debugging chaos failures.
step "chaos flight-recorder fixture (golden dump)" sh -c '
    cargo run --release --quiet --bin chaos -- --flight-fixture \
        > target/chaos_flight_fixture.txt
    diff results/chaos_flight_fixture.txt target/chaos_flight_fixture.txt
'

# The reproduction proper: every committed table/figure/ablation/extension
# CSV must come out of `figures` byte for byte, and every claim must hold.
step "paper figures and extensions (23 golden CSVs + claims)" figures

# Sharded-engine determinism gate, rack side: the rack-scale smoke must
# be byte-identical at 1, 2 and 4 worker threads (same logical shards,
# different parallelism) AND match the committed golden CSV, and so must
# its merged per-window metric timeline (per-shard samplers stitched in
# (window, shard) order). Two is the count the benchmark's traced run
# uses and the first at which the barrier and the parity-buffered
# mailboxes do anything. Every run writes the timeline to the same path,
# because stdout names it.
rack_smoke() {
    for workers in 1 2 4; do
        (cd "$scratch" && "$root/target/release/fig4_rack" --workers $workers \
            --timeline-out fig4_rack_timeline.csv > fig4_rack_smoke_$workers.txt)
        diff "$scratch/fig4_rack_smoke_1.txt" "$scratch/fig4_rack_smoke_$workers.txt"
        same_csv fig4_rack_smoke
        diff results/fig4_rack_timeline.csv "$scratch/fig4_rack_timeline.csv"
    done
}
step "fig4_rack smoke + timeline (workers 1, 2, 4 vs golden CSVs)" rack_smoke

# Traced dmem_top (fig4 (a) at 3.0x; its report is pinned by a test):
# export the Chrome-trace JSON, then validate the artifact (parses,
# trace-event shaped, spans from >= 4 simulation layers). Guards the
# zero-cost-when-disabled contract's other half: tracing, when on,
# actually observes the whole stack.
traced_dmem_top() {
    bench_bin dmem_top --trace-out dmem_top_trace.json
    target/release/dmem_top --check-trace "$scratch/dmem_top_trace.json"
}
step "traced dmem_top + trace check" traced_dmem_top

# The one wall-clock gate: the twelve scenarios of the perf bin (paging,
# RDD, chaos, LLM serving, object allocator, crossover, and the 256-host
# rack at 1 and 2 workers) against the one committed ledger
# results/BENCH_perf.json with a 3x tolerance — catches gross algorithmic
# regressions, not percent-level noise. A ledger row that no scenario
# measures fails too, and --check writes nothing. The rack rows also
# carry the per-worker split of a profiled round, which must account for
# that round's wall time within 2 %, and, where each worker has a core,
# ROADMAP [par]'s >= 1.3x parallel speedup at 2 workers (best of up to
# eight attempts: a busy neighbour only lowers the ratio); on a 1-core
# machine the speedup gate prints a skip note and the rest still holds.
step "perf (12 wall-clock scenarios vs one ledger, 3x tolerance + rack speedup gate)" \
    cargo run --release --quiet -p dmem-bench --bin perf -- --check

# The two-clock benchmark is a package of its own outside the workspace,
# so nothing above compiles it: an API change in core/net/cluster could
# break it silently. Run its unit tests, then three rounds of each
# workload; the result line must report every operation correct.
step "benchmark package tests" \
    cargo test -q --manifest-path benchmark/Cargo.toml --offline

step "benchmark quick runs (correct, 0 failed)" sh -c '
    set -e
    for w in paging tier_read tier_write rack; do
        bash benchmark/run.sh --workload "$w" --quick | tail -n 1 > target/bench_quick.json
        grep -q "\"correct\": true" target/bench_quick.json
        grep -q "\"failed\": 0," target/bench_quick.json
    done
'

# Backstop: every step above writes under target/ only (the dmem_top
# reports are pinned by the dmem_top_golden test inside `cargo test`, and
# the perf check writes nothing), so results/ is exactly as committed.
# Outside a git checkout (an exported tree) there is nothing to diff
# against: say so instead of failing on git's own usage error.
results_unchanged() {
    if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
        git diff --exit-code -- results/
    else
        echo "skipped: not a git checkout"
    fi
}
step "results/ unchanged" results_unchanged

echo "==> ci.sh: all green in $(( $(date +%s) - gate_t0 ))s"
