#!/usr/bin/env sh
# CI gate: offline build, full test suite, fixed-seed chaos smoke, and a
# wall-clock perf smoke.
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

step "cargo fetch" cargo fetch

step "cargo build --release" cargo build --release

step "cargo test -q" cargo test -q

# The chaos sweep with the multi-tenant QoS engine installed: the two
# extra invariants (tenant-quota, priority-eviction) run on every seed,
# and admission/eviction decisions are digest-checked for determinism by
# the test suite.
step "qos chaos smoke (seeds 0..32)" \
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --qos

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

# The same sweep with the fabric fault layer armed: verb drops/delays/
# duplication, partitions and QP breaks on every seed, judged by the
# fault-reads and suspect-resolution invariants on top of the original
# five. Run at --jobs 1 vs --jobs 4 and diffed: the whole fault schedule
# — injections, retries, failovers, suspicions, and the per-seed alert
# logs with their digests — must be byte-identical regardless of how the
# seeds fan across cores.
step "faults chaos smoke (seeds 0..32, --jobs 1 vs 4 determinism gate)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --faults --jobs 1 \
        > target/chaos_faults_a.txt
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --faults --jobs 4 \
        > target/chaos_faults_b.txt
    diff target/chaos_faults_a.txt target/chaos_faults_b.txt
'

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

# Rack perf smoke: wall-clock at 1 vs 2 workers against the committed
# ledger results/BENCH_rack.json (3x tolerance; --check writes nothing),
# plus the per-worker split of a profiled round, which must account for
# that round's wall time within 2 %. Where each worker has a core the
# binary additionally enforces ROADMAP [par]'s >= 1.3x parallel speedup
# (best of up to eight attempts: a busy neighbour only lowers the ratio);
# on a 1-core machine it prints a skip note and still checks the rest.
step "fig4_rack perf smoke (speedup gate + 3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --perf --check

# LLM serving perf smoke: wall-clock of the three engines against the
# committed ledger results/BENCH_llm.json, same gross 3x tolerance.
step "ext_llm_serving perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_llm_serving -- --perf --check

# Object-allocator perf smoke: wall-clock of both granularities against
# the committed ledger results/BENCH_alloc.json, same 3x tolerance.
step "ext_obj_alloc perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_obj_alloc -- --perf --check

# Crossover perf smoke: wall-clock of the page-granularity column on all
# three transports against the committed ledger results/BENCH_cxl.json,
# same 3x tolerance.
step "ext_crossover perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_crossover -- --perf --check

# The chaos sweep with the CXL pool tier armed: pool-node outage windows
# and remote atomics on every seed, judged by the shadow-read and
# atomics-exact invariants on top of the originals. Run at --jobs 1 vs
# --jobs 4 and diffed — outages, failover reads, atomic sums and the
# cxl.* metric digests must be byte-identical regardless of fan-out.
step "cxl chaos smoke (seeds 0..32, --jobs 1 vs 4 determinism gate)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --cxl --jobs 1 \
        > target/chaos_cxl_a.txt
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --cxl --jobs 4 \
        > target/chaos_cxl_b.txt
    diff target/chaos_cxl_a.txt target/chaos_cxl_b.txt
'

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

# Perf smoke: quick variants of the three wall-clock scenarios, compared
# against the committed quick-mode ledger results/BENCH_perf_quick.json
# with a 3x tolerance — catches gross algorithmic regressions, not
# percent-level noise.
step "perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin perf -- --quick --check

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
# the perf checks write nothing), so results/ is exactly as committed.
step "results/ unchanged" git diff --exit-code -- results/

echo "==> ci.sh: all green in $(( $(date +%s) - gate_t0 ))s"
