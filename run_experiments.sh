#!/bin/bash
# Regenerate every paper table/figure (see DESIGN.md per-experiment index).
# Writes text outputs to bench_results/. Tuned for a single-core machine:
# --iters trades precision for wall clock; use --iters 100 for
# paper-strength minima.
#
# --smoke: run every driver on ct128 only with minimal iterations, so the
# whole driver set is exercised in seconds (CI / sanity check). The perf
# gate diffs two such runs made on one machine; their numbers compare
# commits, they are not measurements in their own right.
#
# --smoke-trace: same smoke set built with --features trace; each driver
# also dumps its NDJSON trace to bench_results/smoke-trace/trace/ (for
# `cscv-xtask perf-report --export-dir` and the CI overhead gate).
set -u
cd "$(dirname "$0")"
OUT=bench_results
R="cargo run --release -q -p cscv-bench --bin"
# Call sites redirect each driver's output into its table file, so keep a
# dup of the console for failure reporting.
exec 3>&1
# Run one driver; a non-zero exit aborts the whole script with that
# driver's status. A missing table discovered at paper-assembly time is
# far worse than a red run — never continue past a failed driver.
run() {
    local name=$1; shift
    echo "== $name =="
    local t0=$SECONDS status=0
    "$@" || status=$?
    echo "[elapsed $((SECONDS-t0))s]"
    if [ "$status" -ne 0 ]; then
        echo "run_experiments.sh: driver '$name' failed with exit $status (see its output file under $OUT/)" >&3
        exit "$status"
    fi
}
# Like `run`, but routes the driver's trace dump to $OUT/trace/<name>.ndjson
# in --smoke-trace mode.
runt() {
    if [ "$TRACE" = 1 ]; then export CSCV_TRACE_OUT="$OUT/trace/$1.ndjson"; fi
    run "$@"
}

SMOKE=0
TRACE=0
case "${1:-}" in
    --smoke) SMOKE=1 ;;
    --smoke-trace) SMOKE=1; TRACE=1 ;;
esac

if [ "$SMOKE" = 1 ]; then
    # Smoke outputs go to their own directory so the recorded
    # full-scale artifacts in bench_results/ are never clobbered; the
    # traced variant gets yet another so trace-on and trace-off numbers
    # can be diffed against each other.
    if [ "$TRACE" = 1 ]; then
        OUT=$OUT/smoke-trace
        R="cargo run --release -q -p cscv-bench --features trace --bin"
    else
        OUT=$OUT/smoke
    fi
    mkdir -p $OUT
    # Clean stale outputs from previous smoke runs: manifests and traces
    # are appended to / accumulated, so leftovers would mix old and new
    # measurements and confuse the perf gate.
    rm -f "$OUT"/*.txt
    rm -rf "$OUT/manifests" "$OUT/trace"
    # Every measurement is also recorded to an NDJSON manifest per
    # driver, consumed by `cscv-xtask perf-report`; the perf gate diffs
    # the manifests of two smoke runs (ci.sh --perf-smoke).
    export CSCV_MANIFEST_DIR="$OUT/manifests"
    mkdir -p "$CSCV_MANIFEST_DIR"
    [ "$TRACE" = 1 ] && mkdir -p "$OUT/trace"
    runt table1   $R table1_sample_block                                          > $OUT/table1.txt  2>&1
    runt table2   $R table2_datasets     -- --dataset ct128                       > $OUT/table2.txt  2>&1
    runt fig4     $R fig4_simd_efficiency                                         > $OUT/fig4.txt    2>&1
    runt fig5     $R fig5_padding_dist                                            > $OUT/fig5.txt    2>&1
    runt fig8     $R fig8_param_sweep    -- --dataset ct128                       > $OUT/fig8.txt    2>&1
    runt fig9     $R fig9_param_perf     -- --dataset ct128 --threads 1 --iters 2 > $OUT/fig9.txt    2>&1
    runt table3   $R table3_params       -- --dataset ct128 --threads 1 --iters 2 > $OUT/table3.txt  2>&1
    runt fig10    $R fig10_scalability   -- --dataset ct128 --threads 1,2 --iters 2 > $OUT/fig10.txt  2>&1
    runt fig11    $R fig11_membw         -- --dataset ct128 --threads 1 --iters 2 > $OUT/fig11.txt   2>&1
    runt table4   $R table4_best_perf    -- --dataset ct128 --threads 1 --iters 2 > $OUT/table4.txt  2>&1
    runt ablation $R ablation            -- --dataset ct128 --threads 1 --iters 2 > $OUT/ablation.txt 2>&1
    runt backproj $R backprojection      -- --dataset ct128 --threads 1 --iters 2 > $OUT/backprojection.txt 2>&1
    runt batched  $R batched_spmm        -- --dataset ct128 --threads 1 --iters 2 --k 1,2,4,8 > $OUT/batched_spmm.txt 2>&1
    echo SMOKE_DONE
    exit 0
fi

run table1  $R table1_sample_block                          > $OUT/table1.txt 2>&1
run table2  $R table2_datasets                              > $OUT/table2.txt 2>&1
run fig4    $R fig4_simd_efficiency                         > $OUT/fig4.txt   2>&1
run fig5    $R fig5_padding_dist                            > $OUT/fig5.txt   2>&1
run fig8    $R fig8_param_sweep    -- --dataset ct256       > $OUT/fig8.txt   2>&1
run fig9    $R fig9_param_perf     -- --dataset ct256 --threads 1,4 --iters 6  > $OUT/fig9.txt 2>&1
run table3  $R table3_params       -- --dataset ct256 --threads 4 --iters 6    > $OUT/table3.txt 2>&1
run fig10   $R fig10_scalability   -- --threads 1,2,4 --iters 12               > $OUT/fig10.txt 2>&1
run fig11   $R fig11_membw         -- --dataset ct256 --threads 4 --iters 12   > $OUT/fig11.txt 2>&1
run table4  $R table4_best_perf    -- --threads 1,4 --iters 12                 > $OUT/table4.txt 2>&1
run ablation $R ablation           -- --dataset ct256 --threads 1,4 --iters 10 > $OUT/ablation.txt 2>&1
run backproj $R backprojection     -- --threads 1,4 --iters 10                 > $OUT/backprojection.txt 2>&1
run batched  $R batched_spmm       -- --threads 1,4 --iters 20                 > $OUT/batched_spmm.txt 2>&1
echo ALL_DONE
