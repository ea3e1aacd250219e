#!/usr/bin/env bash
# Wire-protocol integration: real resin-server processes (primary + WAL-
# shipping follower), forum smoke over TCP, graceful SIGTERM drain, and the
# taint round-trip assertion built into loadgen's smoke mode. CI runs this
# script; run it yourself instead of hand-starting `resin-server &` — the
# EXIT trap is set before the first server starts and reaps both, however
# the script ends. Binaries, logs and WAL files go to a fresh
# directory under ${TMPDIR:-/tmp}, removed on exit. Ends with the leak
# check, so a server that outlives the drain fails the run.
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
PRIMARY= FOLLOWER=
cleanup() {
  kill $PRIMARY $FOLLOWER 2>/dev/null || true
  wait $PRIMARY $FOLLOWER 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/resin-server" ./cmd/resin-server
go build -o "$work/resin-loadgen" ./cmd/resin-loadgen
"$work/resin-server" -addr 127.0.0.1:7634 -wal "$work/primary.wal" -seed-forum &
PRIMARY=$!
sleep 1
"$work/resin-server" -addr 127.0.0.1:7635 -wal "$work/replica.wal" -follow 127.0.0.1:7634 &
FOLLOWER=$!
sleep 1
"$work/resin-loadgen" -smoke -audit -addr 127.0.0.1:7634 -replica 127.0.0.1:7635
kill -TERM $FOLLOWER && wait $FOLLOWER
kill -TERM $PRIMARY && wait $PRIMARY
bash scripts/no-stray-procs.sh
