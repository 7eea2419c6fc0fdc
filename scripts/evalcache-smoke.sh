#!/usr/bin/env bash
# Evaluation-store smoke test: real processes against a real on-disk
# store. A cold campaign run fills the persistent evaluation store, a
# warm re-run of the same campaign must simulate NOTHING (every
# configuration served from disk) while rendering a byte-identical
# report, and a record corrupted in place must be silently repaired by
# exactly one re-simulation — never an error, never a changed report.
# In-process tests cover the same invariants under -race; this script
# covers separate OS processes sharing the store across runs.
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=.campaign-evalcache-smoke
BIN=$DIR/experiments
STORE="$PWD/$DIR/store"
CACHE=$DIR/store/evalcache
FLAGS=(-campaign -quick
  -campaign-scenes lr_kt0,of_kt0
  -campaign-devices odroid-xu3,pixel-adreno530
  -random 6 -active 1 -batch 2
  -campaign-cell-stride 2 -campaign-cell-promote 0.5)

rm -rf "$DIR"
mkdir -p "$DIR"
trap 'rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/experiments

# Reference: plain run, no store — the report every cached run must
# reproduce byte for byte.
"$BIN" "${FLAGS[@]}" -o "$DIR/reference.txt" 2>/dev/null

# Cold run fills the store root, whose evaluation store is <root>/evalcache;
# the report must already be unchanged.
"$BIN" "${FLAGS[@]}" -campaign-store "$STORE" \
  -o "$DIR/cold.txt" 2>"$DIR/cold.log"
diff "$DIR/reference.txt" "$DIR/cold.txt"
grep -q 'evalstore: simulations=' "$DIR/cold.log" || {
  echo "evalcache-smoke: cold run provenance missing evalstore counters" >&2
  cat "$DIR/cold.log" >&2
  exit 1
}
if grep -q 'evalstore: simulations=0 ' "$DIR/cold.log"; then
  echo "evalcache-smoke: cold run simulated nothing?" >&2
  exit 1
fi

RECORDS=$(find "$CACHE" -name '*.evr' | wc -l)
if [ "$RECORDS" -eq 0 ]; then
  echo "evalcache-smoke: cold run published no records" >&2
  exit 1
fi
echo "evalcache-smoke: cold run published $RECORDS records"

# Warm re-run in a fresh process: zero simulations, identical report.
"$BIN" "${FLAGS[@]}" -campaign-store "$STORE" \
  -o "$DIR/warm.txt" 2>"$DIR/warm.log"
diff "$DIR/reference.txt" "$DIR/warm.txt"
grep -q 'evalstore: simulations=0 ' "$DIR/warm.log" || {
  echo "evalcache-smoke: warm run re-simulated despite a full store:" >&2
  grep 'evalstore:' "$DIR/warm.log" >&2 || cat "$DIR/warm.log" >&2
  exit 1
}
echo "evalcache-smoke: warm re-run served entirely from disk"

# Damage one record in place: the embedded checksum must turn it into a
# silent miss, repaired by exactly one re-simulation and re-publish.
# sed reads all of sort's output: head would exit after one line and
# let a later write of sort die of SIGPIPE, failing the pipeline.
VICTIM=$(find "$CACHE" -name '*.evr' | sort | sed -n 1p)
printf 'CORRUPT!' | dd of="$VICTIM" bs=1 seek=16 conv=notrunc 2>/dev/null
echo "evalcache-smoke: corrupted $(basename "$VICTIM")"

"$BIN" "${FLAGS[@]}" -campaign-store "$STORE" \
  -o "$DIR/repair.txt" 2>"$DIR/repair.log"
diff "$DIR/reference.txt" "$DIR/repair.txt"
grep -Eq 'evalstore: simulations=1 disk-hits=[0-9]+ published=1 ' "$DIR/repair.log" || {
  echo "evalcache-smoke: corrupt record not repaired by exactly one simulation:" >&2
  grep 'evalstore:' "$DIR/repair.log" >&2 || cat "$DIR/repair.log" >&2
  exit 1
}

# The repair must have re-published a valid record: one more run, zero
# simulations again.
"$BIN" "${FLAGS[@]}" -campaign-store "$STORE" \
  -o "$DIR/verify.txt" 2>"$DIR/verify.log"
diff "$DIR/reference.txt" "$DIR/verify.txt"
grep -q 'evalstore: simulations=0 ' "$DIR/verify.log" || {
  echo "evalcache-smoke: repaired record not served on the next run:" >&2
  grep 'evalstore:' "$DIR/verify.log" >&2
  exit 1
}

# Clean completion must leave no temp or lease files in the store.
LEAKED=$(find "$CACHE" -name '.tmp-*' -o -name '*.lease' 2>/dev/null || true)
if [ -n "$LEAKED" ]; then
  echo "evalcache-smoke: store leaked temp/lease files:" >&2
  echo "$LEAKED" >&2
  exit 1
fi

echo "campaign-evalcache-smoke: warm re-runs simulate nothing and corruption is silently repaired, reports byte-identical throughout"
