#!/usr/bin/env bash
# Alternating-pair benchmark comparison of two checkouts (the rule in
# ROADMAP [bench2] and the choosing-metrics guide, section 8).
#
#   tools/bench_pairs.sh <workload> <pairs> <base-checkout> <change-checkout>
#                        [--seconds S] [--layers a,b,c]
#
# Pair i runs seed 13+i on both sides, each through its own
# benchmark/run.sh, and the side that goes first alternates. Prints every
# run, then for each end-to-end metric of the change's BENCHMARK.json each
# side's quartiles and median, the change of the median, the base's own
# spread (q3 - q1), the benchmark's bound, and how many pairs the change
# won (ties count for neither side).
#
# With --layers the runs are traced ones (--trace 1, which report no
# end-to-end metric) and the table holds the named per-layer metrics
# instead, each with the direction BENCHMARK.json gives it and no bound.
#
# Exits 1 if any run reports failed != 0 or correct != true, or if
# virt_ops_per_s / virt_p99_us differ between the sides at any seed: a
# host-only change must leave them identical to the last digit.
#
# Bash and coreutils only; arithmetic is integer, in millionths.
set -euo pipefail

usage() {
    echo "usage: $0 <workload> <pairs> <base-checkout> <change-checkout>" \
        "[--seconds S] [--layers a,b,c]" >&2
    exit 2
}

[ $# -ge 4 ] || usage
workload=$1
pairs=$2
base=$3
change=$4
shift 4
extra=()
layers=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --seconds) extra+=(--seconds "$2") ;;
    --layers) layers=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -z "$layers" ] || extra+=(--trace 1)
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
for side in "$base" "$change"; do
    [ -f "$side/benchmark/run.sh" ] || { echo "$side: no benchmark/run.sh" >&2; exit 2; }
done

FIRST_SEED=13

# The metrics of the table with their direction and bound, as the
# change's benchmark declares them: the end-to-end ones, which are the
# lines with a bound, or the per-layer ones --layers names.
names=()
better=()
bound=()
if [ -z "$layers" ]; then
    declared=$(grep '"bound"' "$change/BENCHMARK.json")
else
    declared=
    for layer in ${layers//,/ }; do
        line=$(grep -F "\"name\": \"$layer\"" "$change/BENCHMARK.json") ||
            { echo "$change/BENCHMARK.json: no metric $layer" >&2; exit 2; }
        declared+=$line$'\n'
    done
fi
while IFS= read -r line; do
    [ -n "$line" ] || continue
    names+=("$(sed -E 's/.*"name": "([^"]+)".*/\1/' <<<"$line")")
    better+=("$(sed -E 's/.*"better": "([^"]+)".*/\1/' <<<"$line")")
    bound+=("$(sed -nE 's/.*"bound": ([0-9.]+).*/\1/p' <<<"$line")")
done <<<"$declared"
[ ${#names[@]} -gt 0 ] || { echo "$change/BENCHMARK.json: no end-to-end metrics" >&2; exit 2; }

# "12.5" -> 12500000. The benchmark prints plain decimals, no exponents.
micro() {
    local v=$1 int frac=
    int=${v%%.*}
    case $v in *.*) frac=${v#*.} ;; esac
    frac=${frac}000000
    echo $((10#$int * 1000000 + 10#${frac:0:6}))
}

# 12500000 -> "12.500"; whole numbers from 100 000 up.
show() {
    local v=$1
    if [ "$v" -ge 100000000000 ]; then
        echo $(((v + 500000) / 1000000))
    else
        printf '%d.%03d' $((v / 1000000)) $((v % 1000000 / 1000))
    fi
}

# A signed ratio in basis points -> "+12.34%".
percent() {
    local bp=$1 sign=+
    if [ "$bp" -lt 0 ]; then
        sign=-
        bp=$((-bp))
    fi
    printf '%s%d.%02d%%' "$sign" $((bp / 100)) $((bp % 100))
}

# Quantile k/4 of the sorted values given as arguments, interpolated.
quartile() {
    local k=$1
    shift
    local n=$# pos lo rem
    pos=$(((n - 1) * k))
    lo=$((pos / 4))
    rem=$((pos % 4))
    local sorted=("$@")
    if [ "$rem" -eq 0 ]; then
        echo "${sorted[lo]}"
    else
        echo $((sorted[lo] + (sorted[lo + 1] - sorted[lo]) * rem / 4))
    fi
}

# Runs one side on one seed; prints the result line (the last line).
run_side() {
    bash "$1/benchmark/run.sh" --workload "$workload" --seed "$2" "${extra[@]}" 2>/dev/null | tail -n 1
}

field() {
    sed -nE "s/.*\"$2\": \\{\"value\": ([0-9.]+).*/\\1/p" <<<"$1"
}

echo "# $workload, $pairs alternating pairs from seed $FIRST_SEED, $(nproc) cores${extra[*]:+, ${extra[*]}}"
echo "# base   = $base"
echo "# change = $change"
# Build both sides before anything is timed.
bash "$base/benchmark/run.sh" manifest >/dev/null
bash "$change/benchmark/run.sh" manifest >/dev/null

status=0
declare -A values # values[side,metric] = space-separated millionths
declare -A wins   # wins[metric] = pairs the change won
declare -A ties
for ((i = 0; i < pairs; i++)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then
        order="base change"
    else
        order="change base"
    fi
    declare -A result=()
    for side in $order; do
        if [ "$side" = base ]; then dir=$base; else dir=$change; fi
        result[$side]=$(run_side "$dir" "$seed")
    done
    echo "seed $seed (${order%% *} first)"
    for side in base change; do
        line=${result[$side]}
        printf '  %-6s' "$side"
        for name in "${names[@]}"; do
            printf ' %s=%s' "$name" "$(field "$line" "$name")"
        done
        echo
        case $line in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "  FAIL: $side run is not correct with failed = 0: $line"
            status=1
            ;;
        esac
    done
    for m in "${!names[@]}"; do
        name=${names[m]}
        b=$(field "${result[base]}" "$name")
        c=$(field "${result[change]}" "$name")
        if [ -z "$b" ] || [ -z "$c" ]; then
            echo "  FAIL: $name missing from a result line"
            status=1
            continue
        fi
        case $name in
        virt_*)
            if [ "$b" != "$c" ]; then
                echo "  FAIL: $name differs at seed $seed: base $b, change $c"
                status=1
            fi
            ;;
        esac
        bm=$(micro "$b")
        cm=$(micro "$c")
        values[base,$name]+=" $bm"
        values[change,$name]+=" $cm"
        if [ "$bm" -eq "$cm" ]; then
            ties[$name]=$((${ties[$name]:-0} + 1))
        elif { [ "${better[m]}" = higher ] && [ "$cm" -gt "$bm" ]; } ||
            { [ "${better[m]}" = lower ] && [ "$cm" -lt "$bm" ]; }; then
            wins[$name]=$((${wins[$name]:-0} + 1))
        fi
    done
done

echo
width=16
for name in "${names[@]}"; do
    [ ${#name} -le "$width" ] || width=${#name}
done
printf "%-${width}s %-6s %12s %12s %12s %10s %10s %8s  %s\n" \
    metric side q1 median q3 'Δmedian' 'base iqr' bound 'wins/pairs'
for m in "${!names[@]}"; do
    name=${names[m]}
    declare -A med=()
    for side in base change; do
        # shellcheck disable=SC2086
        sorted=($(printf '%s\n' ${values[$side,$name]} | sort -n))
        q1=$(quartile 1 "${sorted[@]}")
        med[$side]=$(quartile 2 "${sorted[@]}")
        q3=$(quartile 3 "${sorted[@]}")
        if [ "$side" = base ]; then
            base_iqr=$((q3 - q1))
            printf "%-${width}s %-6s %12s %12s %12s\n" "$name" base \
                "$(show "$q1")" "$(show "${med[base]}")" "$(show "$q3")"
            continue
        fi
        if [ "${med[base]}" -eq 0 ]; then
            delta=n/a
            spread=n/a
        else
            delta=$(percent $(((med[change] - med[base]) * 10000 / med[base])))
            spread=$(percent $((base_iqr * 10000 / med[base])))
        fi
        limit=-
        [ -z "${bound[m]}" ] || limit=$(percent $(($(micro "${bound[m]}") / 100)) | tr -d +)
        printf "%-${width}s %-6s %12s %12s %12s %10s %10s %8s  %s\n" "" change \
            "$(show "$q1")" "$(show "${med[change]}")" "$(show "$q3")" \
            "$delta" "${spread#+}" "$limit" \
            "${wins[$name]:-0}/$pairs (${better[m]} is better${ties[$name]:+, ${ties[$name]} tied})"
    done
done
[ "$status" -eq 0 ] || echo "FAILED: see the FAIL lines above"
exit "$status"
