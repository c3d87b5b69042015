#!/usr/bin/env bash
# All four workloads at 1/50 scale, untraced and traced, with every
# correctness check on and the printed metric names validated against
# BENCHMARK.json; under 60 s after the build. Ready for CI to call.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- smoke "$@"
