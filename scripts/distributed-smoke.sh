#!/usr/bin/env bash
# Distributed-campaign smoke test: two OS processes share one store root
# as cooperating workers, one of them is SIGKILLed mid-run, and the
# survivor (plus the takeover protocol) must still finish the
# campaign with a report byte-identical to an uninterrupted
# single-process run. This is the end-to-end proof of the worker-lease
# protocol: in-process tests cover the same invariants under -race, this
# script covers real processes and a real kill.
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=.campaign-distributed-smoke
BIN=$DIR/experiments
FLAGS=(-campaign -quick
  -campaign-scenes lr_kt0,of_kt0
  -campaign-devices odroid-xu3,pixel-adreno530
  -random 6 -active 1 -batch 2
  -mf-stride 2 -mf-promote 0.5)

rm -rf "$DIR"
mkdir -p "$DIR"
trap 'rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/experiments

# Reference: uninterrupted single-process run, no store.
"$BIN" "${FLAGS[@]}" -o "$DIR/reference.txt" 2>/dev/null

# Two cooperating workers, short lease TTL so the survivor reclaims the
# victim's cells quickly after the kill.
"$BIN" "${FLAGS[@]}" \
  -campaign-store "$DIR/store" -campaign-worker-id victim \
  -campaign-lease-ttl 2s -o "$DIR/victim.txt" 2>"$DIR/victim.log" &
VICTIM=$!
"$BIN" "${FLAGS[@]}" \
  -campaign-store "$DIR/store" -campaign-worker-id survivor \
  -campaign-lease-ttl 2s -o "$DIR/survivor.txt" 2>"$DIR/survivor.log" &
SURVIVOR=$!

# SIGKILL the victim mid-campaign: no cleanup, no lease release — the
# worst crash the protocol must absorb.
sleep 2
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true

if ! wait "$SURVIVOR"; then
  echo "distributed-smoke: surviving worker failed" >&2
  cat "$DIR/survivor.log" >&2
  exit 1
fi

diff "$DIR/reference.txt" "$DIR/survivor.txt"
echo "campaign-distributed-smoke: survivor's report byte-identical to uninterrupted run"
