#!/usr/bin/env bash
# CI gate: tier-1 verify (ROADMAP.md) plus lint, format, docs, and
# example checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> core unit tests in release (debug-only assertions must not decide a verdict)"
cargo test --release -q -p dogmatix_core --lib

echo "==> dxbench tests (the benchmark's own package: its replay of the probe"
echo "    and stage APIs must keep building and passing)"
cargo test -q --manifest-path dxbench/Cargo.toml

echo "==> dxlint self-test (fixture corpus must produce the pinned findings)"
cargo run -q -p dogmatix_lint -- --self-test

echo "==> dxlint (workspace must be free of findings)"
cargo run -q -p dogmatix_lint

echo "==> store audit mutation suite (cargo test --features audit)"
cargo test -q --features audit --test audit

echo "==> streaming differential suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test incremental

echo "==> worker-pool differential suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test parallel

echo "==> snapshot round-trip + refusal suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test snapshot

echo "==> WAL kill-and-recover differential + log-tear matrix at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test wal

echo "==> sealed-record corruption suite: snapshot file, checkpoint, store checkpoint"
echo "    (flips, cuts, appended bytes, every envelope byte) at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test corruption

echo "==> probe overlay vs append-last interning differential at CI depth (PROPTEST_CASES=512)"
PROPTEST_CASES=512 cargo test -q --test probe_overlay

echo "==> zero-score skip soundness suite at CI depth (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q --test similar_graph

echo "==> edit-distance kernel differential suite at CI depth (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q -p dogmatix_textsim --test kernel_differential

echo "==> streaming bench sanity (delta replay must beat full re-detection)"
cargo bench -q -p dogmatix_bench --bench streaming >/dev/null

echo "==> scaling bench sanity (columnar comparison phase must not regress"
echo "    past the recorded baseline; the threads group only reports)"
cargo bench -q -p dogmatix_bench --bench scaling >/dev/null

echo "==> probe bench sanity (probe cost on a 4x corpus must stay under 2x;"
echo "    mixed probe+ingest load: p99 gated against the recorded baseline,"
echo "    candidate sets must stay sublinear in |Omega|)"
cargo bench -q -p dogmatix_bench --bench probe >/dev/null
test -s BENCH_probe.json || { echo "BENCH_probe.json was not written"; exit 1; }

echo "==> WAL bench sanity (group commit must amortise the fsync >= 5x and"
echo "    stay within the recorded throughput baseline)"
cargo bench -q -p dogmatix_bench --bench wal >/dev/null
test -s BENCH_wal.json || { echo "BENCH_wal.json was not written"; exit 1; }

echo "==> snapshot warm-start sanity (a sealed v3 snapshot must save and warm-start"
echo "    bit-identically on one worker and on all cores; records the best-of-9 load time)"
cargo bench -q -p dogmatix_bench --bench paged >/dev/null
test -s BENCH_paged.json || { echo "BENCH_paged.json was not written"; exit 1; }

echo "==> edit-distance kernel gate (bit-parallel must be bit-identical to the"
echo "    scalar DP and >= 3x faster on the comparison-phase distribution)"
cargo bench -q -p dogmatix_bench --bench editdist >/dev/null
test -s BENCH_editdist.json || { echo "BENCH_editdist.json was not written"; exit 1; }

echo "==> dogmatixd smoke (boot on an ephemeral port, probe + ingest, shutdown)"
smoke_dir="$(mktemp -d)"
printf '<moviedoc><movie><title>The Matrix</title><year>1999</year></movie>%s%s</moviedoc>' \
    '<movie><title>The Matrrix</title><year>1999</year></movie>' \
    '<movie><title>Signs</title><year>2002</year></movie>' > "$smoke_dir/movies.xml"
printf 'MOVIE: $doc/moviedoc/movie\n' > "$smoke_dir/mapping.txt"
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 > "$smoke_dir/boot.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot.log")"
[ -n "$addr" ] || { echo "dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect() { # <request> <expected-prefix>
    printf '%s\n' "$1" >&3
    IFS= read -r -t 30 reply <&3 || { echo "no response to: $1"; exit 1; }
    case "$reply" in
        "$2"*) echo "    --> $1  =>  $reply" ;;
        *) echo "smoke failed: '$1' answered '$reply' (wanted '$2…')"; exit 1 ;;
    esac
}
smoke_expect 'PROBE 5 <movie><title>The Matrix</title><year>1999</year></movie>' 'OK n='
smoke_expect 'INGEST insert /moviedoc <movie><title>The Mutrix</title><year>1999</year></movie>' 'OK ingested seq=2'
smoke_expect 'PROBE 5 <movie><title>The Matrix</title><year>1999</year></movie>' 'OK n='
smoke_expect 'FROBNICATE' 'ERR protocol:'
smoke_expect 'STATS' 'OK seq=2'
smoke_expect 'SHUTDOWN' 'OK bye'
exec 3<&- 3>&-
wait "$server_pid"

echo "==> dogmatixd crash-recover smoke (kill -9 mid-ingest, restart --recover,"
echo "    pre-kill ingest must answer probes)"
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 --wal "$smoke_dir/movies.wal" > "$smoke_dir/boot2.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot2.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot2.log")"
[ -n "$addr" ] || { echo "durable dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect 'INGEST insert /moviedoc <movie><title>The Maatrix</title><year>1999</year></movie>' 'OK ingested seq=2'
exec 3<&- 3>&-
# The crash: no shutdown, no drain — the acked delta must already be durable.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 --wal "$smoke_dir/movies.wal" --recover \
    > "$smoke_dir/boot3.log" 2> "$smoke_dir/recover.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot3.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot3.log")"
[ -n "$addr" ] || { echo "recovered dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
grep -q 'recovered from .* replayed=1' "$smoke_dir/recover.log" \
    || { echo "recovery did not replay the pre-kill delta:"; cat "$smoke_dir/recover.log"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect 'STATS' 'OK seq=1 objects=4 '
smoke_expect 'PROBE 5 <movie><title>The Maatrix</title><year>1999</year></movie>' 'OK n='
probe_matches="$(printf '%s' "$reply" | sed -n 's/^OK n=\([0-9]*\).*/\1/p')"
[ "$probe_matches" -ge 1 ] || { echo "pre-kill ingest lost: recovered probe found nothing"; exit 1; }
smoke_expect 'CHECKPOINT' 'OK checkpoint lsn='
smoke_expect 'SHUTDOWN' 'OK bye'
exec 3<&- 3>&-
wait "$server_pid"

echo "==> dogmatixd checkpoint-recover smoke (restart --recover from a checkpoint"
echo "    that embeds the store image; the record must survive the format switch)"
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 --wal "$smoke_dir/movies.wal" --recover \
    > "$smoke_dir/boot4.log" 2> "$smoke_dir/recover2.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot4.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot4.log")"
[ -n "$addr" ] || { echo "checkpoint-recovered dogmatixd never reported its address"; cat "$smoke_dir/recover2.log"; kill "$server_pid"; exit 1; }
grep -q 'recovered from .* checkpoint lsn=1 replayed=0' "$smoke_dir/recover2.log" \
    || { echo "recovery did not start from the store checkpoint:"; cat "$smoke_dir/recover2.log"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect 'STATS' 'OK seq='
case "$reply" in
    *' objects=4 '*) ;;
    *) echo "checkpoint recovery lost objects: $reply"; exit 1 ;;
esac
smoke_expect 'PROBE 5 <movie><title>The Maatrix</title><year>1999</year></movie>' 'OK n='
probe_matches="$(printf '%s' "$reply" | sed -n 's/^OK n=\([0-9]*\).*/\1/p')"
[ "$probe_matches" -ge 1 ] || { echo "pre-kill ingest lost across the checkpoint: probe found nothing"; exit 1; }
smoke_expect 'SHUTDOWN' 'OK bye'
exec 3<&- 3>&-
wait "$server_pid"
rm -rf "$smoke_dir"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> build and run all examples"
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    --> $name"
    cargo run --release --quiet --example "$name" >/dev/null
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p dogmatix-repro -p dogmatix_core -p dogmatix_xml -p dogmatix_textsim \
    -p dogmatix_datagen -p dogmatix_eval -p dogmatix_bench -p dogmatix_server

echo "CI green."
