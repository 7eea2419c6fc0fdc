#!/usr/bin/env bash
# Rendered-sequence-cache smoke test: two OS processes cooperate on one
# campaign through a shared store root, its checkpoints AND the shared
# content-addressed sequence cache in its seqcache subdirectory; one
# process is SIGKILLed mid-run and one cache artifact is corrupted in
# place while the campaign is live. The survivor must still finish with
# a report byte-identical to an uncached single-process run — corruption
# is a silent re-render, the dead renderer's sequence lease is
# reclaimed, and no temp or lease files may be left behind. In-process
# tests cover the same invariants under -race; this script covers real
# processes, a real kill and real on-disk damage.
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=.campaign-cache-smoke
BIN=$DIR/experiments
CACHE=$DIR/store/seqcache
FLAGS=(-campaign -quick
  -campaign-scenes lr_kt0,of_kt0
  -campaign-devices odroid-xu3,pixel-adreno530
  -random 6 -active 1 -batch 2
  -mf-stride 2 -mf-promote 0.5)

rm -rf "$DIR"
mkdir -p "$DIR"
trap 'rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/experiments

# Reference: uninterrupted single-process run with no store, so no
# checkpoints and no disk cache.
"$BIN" "${FLAGS[@]}" -o "$DIR/reference.txt" 2>/dev/null

# Two cooperating workers share the store root: its checkpoints and the
# rendered-sequence cache at <root>/seqcache, with a short lease TTL so
# the survivor reclaims the victim's cell and sequence leases quickly
# after the kill.
"$BIN" "${FLAGS[@]}" \
  -campaign-store "$DIR/store" -campaign-worker-id victim \
  -campaign-lease-ttl 2s -o "$DIR/victim.txt" 2>"$DIR/victim.log" &
VICTIM=$!
"$BIN" "${FLAGS[@]}" \
  -campaign-store "$DIR/store" -campaign-worker-id survivor \
  -campaign-lease-ttl 2s -o "$DIR/survivor.txt" 2>"$DIR/survivor.log" &
SURVIVOR=$!

# As soon as the first artifact lands in the shared cache, damage it in
# place: the embedded checksum must turn the damage into a silent miss
# and re-render, never an error or a wrong report.
ARTIFACT=""
for _ in $(seq 1 200); do
  ARTIFACT=$(ls "$CACHE"/*.seq 2>/dev/null | head -n 1 || true)
  [ -n "$ARTIFACT" ] && break
  sleep 0.05
done
if [ -n "$ARTIFACT" ]; then
  printf 'CORRUPT!' | dd of="$ARTIFACT" bs=1 seek=128 conv=notrunc 2>/dev/null
  echo "cache-smoke: corrupted $(basename "$ARTIFACT") mid-run"
else
  echo "cache-smoke: no cache artifact appeared to corrupt" >&2
  exit 1
fi

# SIGKILL the victim mid-campaign: no cleanup, no lease release — its
# cell leases AND any sequence render lease it held must be reclaimed.
sleep 2
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true

if ! wait "$SURVIVOR"; then
  echo "cache-smoke: surviving worker failed" >&2
  cat "$DIR/survivor.log" >&2
  exit 1
fi

diff "$DIR/reference.txt" "$DIR/survivor.txt"

# The survivor's provenance (stderr only) must show the cache was live.
grep -q 'seqcache: renders=' "$DIR/survivor.log" || {
  echo "cache-smoke: survivor provenance missing seqcache counters" >&2
  cat "$DIR/survivor.log" >&2
  exit 1
}

# Crash + corruption must not leak temp files into the store. (A .lease
# the victim held at kill time may legally persist until the next
# open's age-based sweep, so only temp files are a hard failure.)
LEAKED=$(find "$CACHE" -name '.tmp-*' 2>/dev/null || true)
if [ -n "$LEAKED" ]; then
  echo "cache-smoke: cache leaked temp files:" >&2
  echo "$LEAKED" >&2
  exit 1
fi

echo "campaign-cache-smoke: survivor's report byte-identical to uncached run despite kill + corrupted artifact"
