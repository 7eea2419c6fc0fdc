#!/usr/bin/env bash
# Campaign-service smoke test: the HTTP front-end must be a transparent
# skin over the campaign engine. Phase A proves the report surface —
# a campaign submitted over HTTP, followed to completion via SSE, must
# produce a JSON report byte-identical to the same campaign run through
# cmd/experiments. Phase B proves durability — a server SIGTERMed
# mid-campaign checkpoints its in-flight work, a restarted server
# resumes the job to completion with a byte-identical report, and the
# evalstore counters prove no configuration was ever simulated twice:
# the resumed run simulates strictly less than a cold run, and a warm
# CLI run against the server's shared evaluation store simulates
# nothing at all.
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=.serve-smoke
DATA=$DIR/data
SERVE=$DIR/dseserve
CLI=$DIR/experiments
SERVER_PID=""
SERVER_LOG=""

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

rm -rf "$DIR"
mkdir -p "$DIR"

go build -o "$SERVE" ./cmd/dseserve
go build -o "$CLI" ./cmd/experiments

start_server() { # $1 = log file
  SERVER_LOG=$1
  rm -f "$DIR/addr"
  "$SERVE" -addr 127.0.0.1:0 -data "$DATA" -jobs 2 \
    -addr-file "$DIR/addr" -access-log off 2>"$SERVER_LOG" &
  SERVER_PID=$!
  for _ in $(seq 100); do
    [ -s "$DIR/addr" ] && break
    sleep 0.1
  done
  if ! [ -s "$DIR/addr" ]; then
    echo "serve-smoke: server wrote no address file" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  ADDR=$(head -n1 "$DIR/addr")
}

stop_server() { # graceful SIGTERM drain; the server must exit cleanly
  kill -TERM "$SERVER_PID"
  if ! wait "$SERVER_PID"; then
    echo "serve-smoke: server did not drain cleanly" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  SERVER_PID=""
}

json_field() { # $1 = json (on stdin is awkward in subshells), $2 = field
  printf '%s' "$1" | sed -n "s/.*\"$2\":\"\\{0,1\\}\\([a-z0-9_]*\\)\"\\{0,1\\}[,}].*/\\1/p" | head -n1
}

submit() { # $1 = spec json -> job id on stdout
  local resp
  resp=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$1" "http://$ADDR/campaigns")
  local id
  id=$(json_field "$resp" id)
  if [ -z "$id" ]; then
    echo "serve-smoke: submit returned no job id: $resp" >&2
    exit 1
  fi
  printf '%s' "$id"
}

follow_to_done() { # $1 = job id, $2 = events capture file
  # The server ends the SSE stream at the job's terminal state, so a
  # plain blocking read suffices; --max-time guards against a hang.
  curl -fsS -N --max-time 600 \
    "http://$ADDR/campaigns/$1/events" >"$2"
  if ! grep -q '"state":"done"' "$2"; then
    echo "serve-smoke: job $1 did not reach done; last frames:" >&2
    tail -n 6 "$2" >&2
    exit 1
  fi
}

status_number() { # $1 = job id, $2 = numeric field
  curl -fsS "http://$ADDR/campaigns/$1" \
    | sed -n "s/.*\"$2\":\\([0-9]*\\).*/\\1/p"
}

# ---- Phase A: HTTP report byte-identical to the CLI ----

SPEC_A='{"quick":true,"scenarios":["lr_kt0"],"devices":["odroid-xu3"],"random_samples":4,"active_iterations":1,"batch_per_iteration":2}'

start_server "$DIR/server_a.log"
ID_A=$(submit "$SPEC_A")
follow_to_done "$ID_A" "$DIR/events_a.txt"
curl -fsS "http://$ADDR/campaigns/$ID_A/report?format=json" -o "$DIR/http_a.json"

"$CLI" -campaign -quick \
  -campaign-scenes lr_kt0 -campaign-devices odroid-xu3 \
  -random 4 -active 1 -batch 2 \
  -campaign-format json -o "$DIR/cli_a.json" 2>"$DIR/cli_a.log"

diff "$DIR/cli_a.json" "$DIR/http_a.json"
echo "serve-smoke phase A: served JSON report byte-identical to cmd/experiments"

# ---- Phase B: SIGTERM mid-campaign, restart, resume ----

SPEC_B='{"quick":true,"scenarios":["lr_kt0","of_kt0"],"devices":["odroid-xu3"],"random_samples":6,"active_iterations":1,"batch_per_iteration":2}'

# Cold CLI reference with its own store root: the report the resumed
# server must reproduce, and the total simulation count a cold run needs
# (from the provenance on stderr).
"$CLI" -campaign -quick \
  -campaign-scenes lr_kt0,of_kt0 -campaign-devices odroid-xu3 \
  -random 6 -active 1 -batch 2 \
  -campaign-store "$PWD/$DIR/cli-store" \
  -campaign-format json -o "$DIR/cli_b.json" 2>"$DIR/cli_b.log"
TOTAL_SIMS=$(sed -n 's/.*evalstore: simulations=\([0-9]*\).*/\1/p' "$DIR/cli_b.log" | head -n1)
if [ -z "$TOTAL_SIMS" ] || [ "$TOTAL_SIMS" -eq 0 ]; then
  echo "serve-smoke: cold CLI run reported no simulation count" >&2
  cat "$DIR/cli_b.log" >&2
  exit 1
fi

ID_B=$(submit "$SPEC_B")

# Wait for real progress (a first checkpointed cell), then SIGTERM the
# server mid-campaign.
for _ in $(seq 600); do
  events=$(status_number "$ID_B" cell_events)
  [ -n "$events" ] && [ "$events" -ge 1 ] && break
  sleep 0.1
done
if [ -z "$events" ] || [ "$events" -lt 1 ]; then
  echo "serve-smoke: job $ID_B made no progress before the kill window" >&2
  exit 1
fi
stop_server

# Restart over the same data directory: the interrupted job must
# resume from its checkpoints and finish.
start_server "$DIR/server_b.log"
if ! grep -q 'resumed 1 interrupted job' "$SERVER_LOG"; then
  # The job may legitimately have finished during the drain; accept a
  # done job on disk, reject anything else.
  state=$(curl -fsS "http://$ADDR/campaigns/$ID_B" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  if [ "$state" != "done" ]; then
    echo "serve-smoke: restarted server neither resumed nor completed job $ID_B (state '$state')" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
fi
follow_to_done "$ID_B" "$DIR/events_b.txt"
curl -fsS "http://$ADDR/campaigns/$ID_B/report?format=json" -o "$DIR/http_b.json"
diff "$DIR/cli_b.json" "$DIR/http_b.json"

# Evalstore proof, part 1: the resumed run simulated strictly less
# than a cold run — the pre-SIGTERM work was not repeated.
RESUMED_SIMS=$(status_number "$ID_B" eval_simulations)
if [ -z "$RESUMED_SIMS" ] || [ "$RESUMED_SIMS" -ge "$TOTAL_SIMS" ]; then
  echo "serve-smoke: resumed run simulated $RESUMED_SIMS, want < cold total $TOTAL_SIMS" >&2
  exit 1
fi
stop_server

# Evalstore proof, part 2: the server's shared evaluation store now
# covers the whole campaign. The server's data directory is a store
# root (<data>/evalcache, <data>/seqcache), so a warm CLI run pointed at
# it simulates nothing and still renders identical bytes.
"$CLI" -campaign -quick \
  -campaign-scenes lr_kt0,of_kt0 -campaign-devices odroid-xu3 \
  -random 6 -active 1 -batch 2 \
  -campaign-store "$PWD/$DATA" \
  -campaign-format json -o "$DIR/cli_warm.json" 2>"$DIR/cli_warm.log"
WARM_SIMS=$(sed -n 's/.*evalstore: simulations=\([0-9]*\).*/\1/p' "$DIR/cli_warm.log" | head -n1)
if [ "$WARM_SIMS" != "0" ]; then
  echo "serve-smoke: warm CLI run against the server store simulated $WARM_SIMS, want 0" >&2
  cat "$DIR/cli_warm.log" >&2
  exit 1
fi
diff "$DIR/cli_b.json" "$DIR/cli_warm.json"

echo "serve-smoke phase B: SIGTERMed server resumed from checkpoint (resumed sims $RESUMED_SIMS < cold $TOTAL_SIMS, warm re-run 0) with byte-identical report"
