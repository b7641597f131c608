#!/usr/bin/env bash
# Builds lithohd-serve and the benchmark from source, then runs one
# workload. From the repository root:
#
#   bash lithobench/run.sh --workload <campaign|score|session> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The last stdout line is the JSON result; the exit status is non-zero
# when the build fails or an output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hotspot-serve --bin lithohd-serve >&2
cargo build --release --offline --quiet --manifest-path lithobench/Cargo.toml >&2
work=.bench_work
rm -rf "$work"
mkdir -p "$work"
status=0
"$CARGO_TARGET_DIR/release/lithobench" \
    --serve-bin "$CARGO_TARGET_DIR/release/lithohd-serve" --work-dir "$work" "$@" || status=$?
rm -rf "$work"
exit "$status"
