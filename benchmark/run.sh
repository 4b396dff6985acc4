#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   benchmark/run.sh [--workload <name>] [--seed <u64>] [--seconds <n>]
#                    [--trace 0|1] [--quick]
#   benchmark/run.sh --self-test          driver unit tests + negative check
#   benchmark/run.sh --aa <runs> [...]    same-code spread (see aa.sh)
#   benchmark/run.sh --summary <run output> [--rows <file>] [--baseline <file>]
#   benchmark/run.sh --compare <base rows> <candidate rows>
#
# Builds the `v2v` binary from the repo's sources and the driver from this
# directory, then runs the workload(s); README.md has the details. Reads
# and writes only inside the checkout it sits in.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds: the caller's, or the repo's own.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# The layer probes run workspace code in this process; keep its info log
# out of the output, as the `v2v` children's is.
export V2V_LOG="${V2V_LOG:-error}"

build() {
    # Build output goes to stderr: stdout carries results only.
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p v2v-cli 1>&2
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
}

mode=run
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --self-test) mode=self-test ;;
        --aa) mode=aa; args+=(--runs "$2"); shift ;;
        --summary) mode=summary ;;
        --compare) mode=compare ;;
        *) args+=("$1") ;;
    esac
    shift
done

# Provenance is read here, at run time, never from a hand-set variable.
rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=0
if [ "$rev" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then dirty=1; fi

driver="$target/release/v2v-benchmark"
common=(--v2v "$target/release/v2v" --tmp "$target/bench-tmp" --rev "$rev" --dirty "$dirty"
        --benchmark-json "$root/BENCHMARK.json")

case "$mode" in
    run)
        build
        exec "$driver" run "${common[@]}" "${args[@]}"
        ;;
    aa)
        build
        exec "$driver" aa "${common[@]}" "${args[@]}"
        ;;
    summary | compare)
        cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
        exec "$driver" "$mode" --benchmark-json "$root/BENCHMARK.json" "${args[@]}"
        ;;
    self-test)
        build
        cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
        # Negative test: one edge more expected than was streamed must fail
        # the workload and the command.
        if "$driver" run "${common[@]}" --workload serve_ingest --quick --sabotage >/dev/null; then
            echo "self-test FAILED: a wrong expected edge count did not fail the run" >&2
            exit 1
        fi
        echo "self-test ok: unit tests pass and a wrong expected edge count fails the run"
        ;;
esac
