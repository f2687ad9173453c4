#!/usr/bin/env bash
# Function-level reachability census (ROADMAP [reach]): builds the workspace and the benchmark with
# SanitizerCoverage (dev profile, target/reach), runs every gate producer and every example from a
# temp dir, and prints per file under crates/*/src and src/ the functions, those the gate reaches,
# those only examples reach, the unreached, and the last two's names. Fails unless the runs' pinned
# outputs equal results/ byte for byte. ~20 min.   Usage: tools/reach.sh [check]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd) && cd "$root"
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
# build <target dir> <cargo args...>: an instrumented dev-profile cargo command.
build() {
    mkdir -p "$1" && gcc -O2 -c tools/reach_rt.c -o "$1/reach_rt.o"
    RUSTFLAGS="-C passes=sancov-module -C llvm-args=-sanitizer-coverage-level=1 \
-C llvm-args=-sanitizer-coverage-trace-pc-guard -C llvm-args=-sanitizer-coverage-pc-table \
-C link-arg=$(realpath "$1")/reach_rt.o" CARGO_TARGET_DIR="$1" cargo "${@:2}" --offline -q
}
# run <class> <cmd...>: runs cmd from $tmp/cwd; its processes dump into $tmp/<class>.
run() { mkdir -p "$tmp/$1" "$tmp/cwd/results" && (cd "$tmp/cwd" && REACH_OUT="$tmp/$1" "${@:2}"); }
# census <source root>: symbolises the dumps (class "all" only adds functions to the count).
census() {
    for class in all gate examples; do
        for exe in $(head -qn1 "$tmp/$class"/* 2> /dev/null | sort -u); do
            awk 'FNR > 1 { hit[$1] = hit[$1] || $2 } END { for (pc in hit) print pc, hit[pc] }' \
                $(grep -lxF "$exe" "$tmp/$class"/*) > "$tmp/pcs"
            cut -d' ' -f1 "$tmp/pcs" | addr2line -f -C -e "$exe" | paste - - |
                paste <(sed "s/^[^ ]* /$class\t/" "$tmp/pcs") -
        done
    done | awk -F'\t' -v root="$1/" '
        { sub(/:[0-9?]+( \(discriminator [0-9]+\))?$/, "", $4); f = substr($4, length(root) + 1) }
        index($4, root) != 1 || f !~ /^(crates\/[^\/]+\/)?src\// || $3 ~ /::tests::|\{\{closure\}\}/ || f$3 ~ /lib\.rs.*::main$/ { next }
        { key = f "\t" $3; fns[key] = 1 }
        $2 && $1 == "gate" { gate[key] = 1 }
        $2 && $1 == "examples" { ex[key] = 1 }
        END {
            for (key in fns) {
                split(key, k, "\t"); f = k[1]; n[f]++
                if (key in gate) g[f]++; else if (key in ex) { e[f]++; print f "\t1\t    examples only: " k[2] }
                else { u[f]++; print f "\t2\t    unreached: " k[2] }
            }
            for (f in n) {
                c = f; sub(/src\/.*/, "src", c); N[c] += n[f]; G[c] += g[f]; E[c] += e[f]; U[c] += u[f]
                printf "%s\t0\t%5d %5d %5d %5d  %s\n", f, n[f], g[f], e[f], u[f], f
            }
            for (c in N) printf "~\t%s\t%5d %5d %5d %5d  crate %s\n", c, N[c], G[c], E[c], U[c], c
        }' | sort -t$'\t' -k1,1 -k2,2 -k3 | cut -f3- | sed '1i\  fns  gate  exam unrch  file'
}
if [ "${1:-}" = check ]; then  # seconds: a toy crate's used function must read 1, its unused one 0
    toy=target/reach-check && mkdir -p "$toy/src"
    printf '[package]\nname = "toy"\nversion = "0.1.0"\nedition = "2021"\n[workspace]\n' > "$toy/Cargo.toml"
    printf 'fn used() {}\nfn unused() {}\nfn main() {\n    used();\n    if std::env::args().count() > 9 {\n        unused();\n    }\n}\n' > "$toy/src/main.rs"
    build "$toy/target" build --manifest-path "$toy/Cargo.toml"
    run gate "$root/$toy/target/debug/toy" && census "$root/$toy" | tee "$tmp/census"
    grep -qx '    3     2     0     1  src/main.rs' "$tmp/census" && grep -qx '    unreached: toy::unused' "$tmp/census"
    exit
fi
cp benchmark/Cargo.lock "$tmp/Cargo.lock" && trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
bin=$root/target/reach/debug out=$tmp/cwd/results
build target/reach build --workspace --bins --examples
build target/reach build --manifest-path benchmark/Cargo.toml
for manifest in Cargo.toml benchmark/Cargo.toml; do
    build target/reach test --workspace --manifest-path "$manifest" --no-run --message-format=json |
        jq -r 'select(.profile.test? and .executable) | .executable' >> "$tmp/tests"
done
# Test binaries only list their tests, to count their functions, but the benchmark's is a ci.sh step; so are
# the runs below (all ci.sh's but `cargo test`), as are dmem_top_golden.rs's and the --quick workloads'.
while read -r t; do
    case $t in */dmem_benchmark-*) run gate "$t" -q > /dev/null ;; *) run all "$t" --list > /dev/null ;; esac
done < "$tmp/tests"
for mode in "" --qos --faults --cxl "--qos --faults --cxl"; do
    for jobs in 1 4; do run gate "$bin/chaos" --seeds 0..32 $mode --jobs $jobs > "$tmp/chaos_$jobs"; done
    cmp "$tmp/chaos_1" "$tmp/chaos_4"; [ -n "$mode" ] || cp "$tmp/chaos_1" "$out/chaos_smoke_baseline.txt"
done
cp "$tmp/chaos_1" "$out/chaos_composed_baseline.txt"
run gate "$bin/chaos" --flight-fixture > "$out/chaos_flight_fixture.txt"
run gate "$bin/figures" > /dev/null
for w in 1 2 4; do run gate "$bin/fig4_rack" --workers $w --timeline-out results/fig4_rack_timeline.csv > /dev/null; done
run gate "$bin/dmem_top" > "$out/dmem_top.txt"
run gate "$bin/dmem_top" --trace-out trace.json > /dev/null; run gate "$bin/dmem_top" --check-trace trace.json > /dev/null
for flag in --qos --kv --timeline --alerts --alloc --cxl; do run gate "$bin/dmem_top" $flag; echo; done |
    head -c -1 > "$out/dmem_top_all.txt"
run gate "$bin/dmem_top" --all | cmp - results/dmem_top_all.txt
# perf --check fails its 3x wall-time bounds in the dev profile; any other failure counts.
REACH_OUT=$tmp/gate "$bin/perf" --check > /dev/null 2> "$tmp/perf.err" || true
if sed -n 's/.*FAILED — //p' "$tmp/perf.err" | tr ';' '\n' | grep -v 'x the recorded'; then exit 1; fi
for w in paging tier_read tier_write rack; do
    DMEM_BENCH_DIR=$root/benchmark run gate "$bin/dmem-benchmark" --workload $w --quick > "$tmp/bench"
    tail -n1 "$tmp/bench" | grep -q '"correct": true, .*"failed": 0,'
done
for f in "$out"/*; do cmp "$f" "results/${f##*/}"; done
for ex in examples/*.rs; do run examples "$bin/examples/$(basename "$ex" .rs)" > /dev/null; done
census "$root"
