#!/usr/bin/env bash
# benchmark/aa.sh [N] [run.sh options]: the full benchmark N times (default
# 5) on one commit, workloads interleaved, seeds 1..N; prints per-metric
# median, quartiles and spread against the bound in BENCHMARK.json.
#   --rows <file>      also write the detail rows (input of run.sh --compare)
#   --baseline <file>  also write the summary in BASELINE.json's form
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "${1:-5}" "${@:2}"
