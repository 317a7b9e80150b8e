#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash benchmark/bench.sh --workload W --seed N --seconds S --trace 0|1
# `--trace 1` runs the traced binary, whose layer probes call finer program
# APIs than the end-to-end path does.
set -euo pipefail
bin=podium-bench
prev=
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
    bin=podium-trace
  fi
  prev=$arg
done
exec cargo run --release --offline --quiet \
  --manifest-path "$(dirname "$0")/Cargo.toml" --bin "$bin" -- "$@"
