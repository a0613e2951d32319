#!/usr/bin/env bash
# Builds dogmatixd (root workspace) and dxbench (its own package) from
# source, then runs dxbench with the given arguments, e.g.
#   bash dxbench/run.sh --workload serve-mixed --seed 7 --seconds 15 --trace 0
# Run from the repository root. Both builds share $CARGO_TARGET_DIR
# (default: target), where dxbench also looks for dogmatixd.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p dogmatix_server --bin dogmatixd
cargo build --release --offline --quiet --manifest-path dxbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/dxbench" "$@"
