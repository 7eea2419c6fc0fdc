#!/usr/bin/env bash
# Benchmark snapshot + regression check, modelled on wand's bench
# scripts: run the figure/kernel benchmarks into benchmarks/latest.txt,
# compare against a baseline with benchstat when one is installed, and
# distill the run into BENCH_<index>.json for tooling.
#
# The baseline is timed in the same run when BENCH_BASE names a commit
# in the history (e.g. BENCH_BASE=HEAD, or a PR's base sha): the same
# benchmark command runs on that commit, checked out detached into a
# temporary git worktree that is removed afterwards, so the gate
# compares two builds on one host on one day. When BENCH_BASE is unset
# or names no commit, the committed benchmarks/baseline.txt stands. The
# script never rewrites benchmarks/baseline.txt ('make bench-save'
# does).
#
# The output index is the first argument (or $BENCH_INDEX); each PR
# bumps it so the JSON snapshots form a per-PR series next to the
# BENCH_*.json of earlier PRs.
#
#   ./scripts/bench-compare.sh 2
#   BENCH_PATTERN=Kernel BENCH_COUNT=10 ./scripts/bench-compare.sh 2
#   BENCH_BASE=HEAD ./scripts/bench-compare.sh 2
#
# The script is also a performance-regression gate over the gated
# benchmarks (BENCH_GATE_PATTERN, default the Kernel_ microbenchmarks
# plus the DSE-level Fig2_ benchmarks). The primary gate is
# statistical: with benchstat installed and BENCH_COUNT >= 5 samples,
# a gated benchmark fails the run iff benchstat reports a
# statistically significant sec/op or allocs/op increase — noise shows
# up as '~' and passes, real slowdowns show up as '+N.NN%' and fail,
# with no hand-tuned tolerance to mask small-but-real drifts. When
# benchstat is missing or the sample count is too small for a
# significance test, the gate falls back to mean thresholds
# (BENCH_GATE_PCT percent ns/op, default 20; BENCH_GATE_ALLOC_PCT
# percent allocs/op, default 10). Independently of either gate, a
# gated benchmark pinned at zero allocs/op fails on ANY allocation —
# zero is an invariant, not a statistic. BENCH_GATE=off disables all
# gating (e.g. when comparing across different hardware).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH_INDEX="${1:-${BENCH_INDEX:-2}}"
BENCH_PATTERN="${BENCH_PATTERN:-.}"
BENCH_COUNT="${BENCH_COUNT:-3}"
OUT_DIR="benchmarks"
OUT_JSON="BENCH_${BENCH_INDEX}.json"
mkdir -p "$OUT_DIR"

bench() {
  go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count "$BENCH_COUNT" .
}

BASE_FILE="$OUT_DIR/baseline.txt"
if [ -n "${BENCH_BASE:-}" ] && git cat-file -e "$BENCH_BASE^{commit}" 2>/dev/null; then
  BASE_TMP=$(mktemp -d)
  trap 'git worktree remove --force "$BASE_TMP/tree" 2>/dev/null || true; rm -rf "$BASE_TMP"' EXIT
  git worktree add --quiet --detach "$BASE_TMP/tree" "$BENCH_BASE"
  BASE_FILE="$BASE_TMP/base.txt"
  echo "running benchmarks on base $BENCH_BASE (pattern '$BENCH_PATTERN', count $BENCH_COUNT)..."
  (cd "$BASE_TMP/tree" && bench) > "$BASE_FILE"
  git worktree remove --force "$BASE_TMP/tree"
elif [ -n "${BENCH_BASE:-}" ]; then
  echo "BENCH_BASE '$BENCH_BASE' names no commit; gating against the committed $BASE_FILE"
fi

echo "running benchmarks (pattern '$BENCH_PATTERN', count $BENCH_COUNT)..."
bench | tee "$OUT_DIR/latest.txt"

HAVE_BENCHSTAT=0
if command -v benchstat >/dev/null 2>&1; then
  HAVE_BENCHSTAT=1
fi

if [ -f "$BASE_FILE" ]; then
  if [ "$HAVE_BENCHSTAT" = 1 ]; then
    echo
    echo "benchstat baseline vs latest:"
    benchstat "$BASE_FILE" "$OUT_DIR/latest.txt" | tee "$OUT_DIR/compare.txt"
  else
    echo "benchstat not installed; skipping statistical compare" >&2
    echo "(go install golang.org/x/perf/cmd/benchstat@latest when networked)" >&2
  fi
else
  echo "no $OUT_DIR/baseline.txt; run 'make bench-save' to pin this run as the baseline"
fi

# ---- regression gate ----
BENCH_GATE="${BENCH_GATE:-on}"
BENCH_GATE_PCT="${BENCH_GATE_PCT:-20}"
BENCH_GATE_ALLOC_PCT="${BENCH_GATE_ALLOC_PCT:-10}"
BENCH_GATE_PATTERN="${BENCH_GATE_PATTERN:-Kernel_|Fig2_}"

# gate_zero_alloc: unconditionally fail any gated benchmark whose
# baseline allocs/op is zero but which now allocates. A zero-alloc
# steady state is an engineered invariant (pools, cached renderings);
# the first allocation is a bug no significance test should excuse.
gate_zero_alloc() {
  awk -v pattern="$BENCH_GATE_PATTERN" '
    $1 ~ "^Benchmark" && $1 ~ pattern {
      name = $1
      for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "allocs/op") {
          if (FNR == NR) { bsum[name] += $i; bn[name]++ }
          else           { lsum[name] += $i; ln_[name]++ }
        }
      }
    }
    END {
      failed = 0
      for (name in lsum) {
        if (!(name in bsum)) continue
        if (bsum[name] / bn[name] == 0 && lsum[name] / ln_[name] > 0) {
          printf "  %-40s zero-alloc baseline now allocates %.1f allocs/op  FAIL\n",
                 name, lsum[name] / ln_[name]
          failed++
        }
      }
      exit failed > 0 ? 1 : 0
    }
  ' "$BASE_FILE" "$OUT_DIR/latest.txt"
}

# gate_benchstat: parse the benchstat table. Rows live under metric
# section headers (sec/op / time/op for wall clock, allocs/op for
# allocations; B/op is reported but not gated). benchstat prints '~'
# for statistically insignificant deltas and a signed percentage for
# significant ones, in both its old (old/new/delta columns) and new
# (vs-base column) output formats — so the rule is simply: a gated,
# non-geomean row carrying a '+N%' delta in a gated section fails.
gate_benchstat() {
  awk -v pattern="$BENCH_GATE_PATTERN" '
    # Section headers name the metric; remember whether it is gated.
    /sec\/op|time\/op/ { metric = "time" }
    /allocs\/op/       { metric = "allocs" }
    /B\/op|bytes\/op/ && !/allocs/ { metric = "bytes" }
    {
      if ($1 !~ pattern || $1 ~ /^geomean/) next
      if (metric != "time" && metric != "allocs") next
      for (i = 2; i <= NF; i++) {
        if ($i ~ /^\+[0-9.]+%$/) {
          printf "  %-40s %s significantly regressed: %s  FAIL\n", $1, metric, $i
          failed++
          break
        }
      }
    }
    END { exit failed > 0 ? 1 : 0 }
  ' "$OUT_DIR/compare.txt"
}

# gate_thresholds: the pre-benchstat fallback — compare per-benchmark
# means against fixed tolerances. Used when benchstat is unavailable
# or the sample count is too small for a significance test.
gate_thresholds() {
  awk -v pct="$BENCH_GATE_PCT" -v apct="$BENCH_GATE_ALLOC_PCT" -v pattern="$BENCH_GATE_PATTERN" '
    # Mean ns/op and allocs/op per benchmark name, baseline first then
    # latest (FNR==NR selects the first file).
    $1 ~ "^Benchmark" && $1 ~ pattern {
      name = $1
      for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/op") {
          if (FNR == NR) { bsum[name] += $i; bn[name]++ }
          else           { lsum[name] += $i; ln_[name]++ }
        } else if ($(i + 1) == "allocs/op") {
          if (FNR == NR) { basum[name] += $i; ban[name]++ }
          else           { lasum[name] += $i; lan[name]++ }
        }
      }
    }
    END {
      failed = 0; compared = 0
      for (name in lsum) {
        if (!(name in bsum)) continue
        compared++
        base = bsum[name] / bn[name]
        latest = lsum[name] / ln_[name]
        delta = 100 * (latest - base) / base
        verdict = "ok"
        if (delta > pct) { verdict = "FAIL"; failed++ }
        printf "  %-40s %12.0f -> %12.0f ns/op      %+6.1f%%  %s\n", name, base, latest, delta, verdict
        if ((name in lasum) && (name in basum)) {
          abase = basum[name] / ban[name]
          alatest = lasum[name] / lan[name]
          if (abase == 0) { adelta = (alatest > 0) ? apct + 1 : 0 }
          else            { adelta = 100 * (alatest - abase) / abase }
          averdict = "ok"
          if (adelta > apct) { averdict = "FAIL"; failed++ }
          printf "  %-40s %12.1f -> %12.1f allocs/op  %+6.1f%%  %s\n", name, abase, alatest, adelta, averdict
        }
      }
      if (compared == 0) {
        print "  no benchmarks matching " pattern " in both runs; nothing gated"
        exit 0
      }
      if (failed > 0) {
        printf "gate: %d benchmark metric(s) regressed beyond tolerance\n", failed
        exit 1
      }
    }
  ' "$BASE_FILE" "$OUT_DIR/latest.txt"
}

if [ "$BENCH_GATE" != "off" ] && [ -f "$BASE_FILE" ]; then
  echo
  GATE_OK=1
  if [ "$HAVE_BENCHSTAT" = 1 ] && [ "$BENCH_COUNT" -ge 5 ]; then
    echo "gate: benchstat significance test over '$BENCH_GATE_PATTERN' (fail on significant sec/op or allocs/op increase)"
    gate_benchstat || GATE_OK=0
    [ "$GATE_OK" = 1 ] && echo "  no statistically significant regressions"
  else
    [ "$HAVE_BENCHSTAT" = 1 ] && \
      echo "gate: only $BENCH_COUNT sample(s) — too few for a significance test; using mean thresholds (BENCH_COUNT>=5 enables benchstat gating)"
    echo "gate: '$BENCH_GATE_PATTERN' vs $BASE_FILE (fail >${BENCH_GATE_PCT}% slower or >${BENCH_GATE_ALLOC_PCT}% more allocs/op)"
    gate_thresholds || GATE_OK=0
  fi
  gate_zero_alloc || GATE_OK=0
  if [ "$GATE_OK" != 1 ]; then
    echo "bench-compare: benchmark regression gate FAILED (set BENCH_GATE=off to bypass, or 'make bench-save' to accept)" >&2
    exit 1
  fi
fi

# Distill the raw 'go test -bench' output into a JSON array so CI and
# the next PR can diff allocation counts without parsing benchmark text.
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  name = $1; iters = $2
  ns = ""; bytes = ""; allocs = ""
  extras = ""
  for (i = 3; i < NF; i += 2) {
    val = $i; unit = $(i + 1)
    if (unit == "ns/op") ns = val
    else if (unit == "B/op") bytes = val
    else if (unit == "allocs/op") allocs = val
    else {
      gsub(/"/, "", unit)
      extras = extras sprintf(", \"%s\": %s", unit, val)
    }
  }
  if (!first) print ","
  first = 0
  printf "  {\"name\": \"%s\", \"iters\": %s", name, iters
  if (ns != "") printf ", \"ns_per_op\": %s", ns
  if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  printf "%s}", extras
}
END { print ""; print "]" }
' "$OUT_DIR/latest.txt" > "$OUT_JSON"
echo "wrote $OUT_JSON ($(grep -c '"name"' "$OUT_JSON") benchmarks)"
