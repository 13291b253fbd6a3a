#!/usr/bin/env bash
# Overload-control end-to-end on the real binaries: shadowd CLI hardening
# (malformed flags die with one-line errors and exit 2, never a silently
# misconfigured daemon) and SIGTERM graceful drain (parked group-commit
# records reach the disk before exit; a restart recovers them).
set -u

BUILD_DIR="$1"
D="$BUILD_DIR/tools/shadowd"
LOG=$(mktemp)

fail() { echo "FAIL: $1"; echo "--- log ---"; cat "$LOG" 2>/dev/null; exit 1; }

# --- CLI hardening ------------------------------------------------------
expect_rc2() {  # every malformed invocation: exit 2 + a single shadowd: line
  "$D" "$@" > "$LOG" 2>&1
  RC=$?
  [ "$RC" -eq 2 ] || fail "'shadowd $*' exited $RC, want 2"
  grep -q "^shadowd: " "$LOG" || fail "'shadowd $*' printed no shadowd: error"
  [ "$(wc -l < "$LOG")" -eq 1 ] || fail "'shadowd $*' error was not one line"
}
expect_rc2 --port 78x88           # trailing garbage
expect_rc2 --port 99999           # out of range
expect_rc2 --port                 # missing value
expect_rc2 --name                 # missing value (string flag)
expect_rc2 --lease-usec abc
expect_rc2 --max-conn-bytes -5
expect_rc2 --threads 0
expect_rc2 --drain-deadline ""
expect_rc2 --commit-window 200    # commit flags require --journal
expect_rc2 --eviction sideways
expect_rc2 --bogus-flag
expect_rc2 --state /tmp/x         # retired: durability is --journal only

# Bind failure: one-line error, exit 1.
PORT=$((20000 + RANDOM % 20000))
"$D" --port "$PORT" > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
BINDLOG=$(mktemp)
"$D" --port "$PORT" > "$BINDLOG" 2>&1
RC=$?
[ "$RC" -eq 1 ] || fail "second bind on port $PORT exited $RC, want 1"
grep -q "^shadowd: " "$BINDLOG" || fail "bind failure printed no error"
rm -f "$BINDLOG"
kill "$DPID" 2>/dev/null; wait "$DPID" 2>/dev/null

# --- SIGTERM drain, default (one-shard) daemon ---------------------------
# A 60 s commit window guarantees the client's update is still parked in
# the open batch when the signal lands; the drain must flush it (never
# silently dropped) and exit well inside the deadline.
PORT=$((20000 + RANDOM % 20000))
JOURNAL=$(mktemp -d)
"$D" --port "$PORT" --journal "$JOURNAL" --commit-window 60000000 \
     --drain-deadline 8000000 > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
printf 'gen /home/user/d 2000 5\nquit\n' \
  | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1 \
  || fail "client session against draining-daemon candidate failed"

kill -TERM "$DPID"
for _ in $(seq 1 60); do kill -0 "$DPID" 2>/dev/null || break; sleep 0.1; done
kill -0 "$DPID" 2>/dev/null && fail "default daemon still alive 6s after SIGTERM"
wait "$DPID"
RC=$?
[ "$RC" -eq 0 ] || fail "default drain exit code $RC"
grep -q "draining (deadline" "$LOG" || fail "default daemon never announced drain"
grep -q "drained cleanly" "$LOG" || fail "default drain did not complete"

# The parked record survived: a restart replays it from the journal.
"$D" --port "$PORT" --journal "$JOURNAL" --once > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
grep -Eq "recovered 1 shards from .*\([1-9][0-9]* journal records" "$LOG" \
  || fail "restart recovered no journal records — drain lost the batch"
printf 'quit\n' | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1
wait "$DPID" 2>/dev/null

# State left at the top of DIR (the layout before shards) is never
# silently ignored: recovery compacted the journal into shard0/'s
# snapshot, and with that file one level up the daemon refuses to start
# with one line naming the move; moved back, it recovers the file again.
mv "$JOURNAL/shard0/snapshot.bin" "$JOURNAL/snapshot.bin" \
  || fail "recovery left no shard0/snapshot.bin to move"
"$D" --port "$PORT" --journal "$JOURNAL" --once > "$LOG" 2>&1
RC=$?
[ "$RC" -eq 1 ] || fail "snapshot outside shard0/ exited $RC, want 1"
[ "$(wc -l < "$LOG")" -eq 1 ] || fail "wrong-layout error was not one line"
grep -q "^shadowd: .*snapshot.bin.*shard0/" "$LOG" \
  || fail "wrong-layout error does not name the move to shard0/"
mv "$JOURNAL/snapshot.bin" "$JOURNAL/shard0/snapshot.bin"
"$D" --port "$PORT" --journal "$JOURNAL" --once > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
grep -q "recovered 1 shards from .*, 1 cached files)" "$LOG" \
  || fail "restart after moving the snapshot back lost the file"
printf 'quit\n' | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1
wait "$DPID" 2>/dev/null
rm -rf "$JOURNAL"

# --- SIGTERM drain, thread-per-core daemon ------------------------------
PORT=$((20000 + RANDOM % 20000))
JOURNAL=$(mktemp -d)
"$D" --port "$PORT" --threads 2 --journal "$JOURNAL" --commit-window 60000000 \
     --drain-deadline 8000000 --lease-usec 30000000 > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
printf 'gen /home/user/d 2000 6\nquit\n' \
  | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1 \
  || fail "client session against sharded daemon failed"

kill -TERM "$DPID"
for _ in $(seq 1 60); do kill -0 "$DPID" 2>/dev/null || break; sleep 0.1; done
kill -0 "$DPID" 2>/dev/null && fail "sharded daemon still alive 6s after SIGTERM"
wait "$DPID"
RC=$?
[ "$RC" -eq 0 ] || fail "sharded drain exit code $RC"
grep -q "draining (deadline" "$LOG" || fail "sharded daemon never announced drain"
grep -q "drained cleanly" "$LOG" || fail "sharded drain did not complete"

"$D" --port "$PORT" --threads 2 --journal "$JOURNAL" --once > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
grep -Eq "recovered 2 shards from .*\([1-9][0-9]* journal records" "$LOG" \
  || fail "sharded restart recovered no journal records"
printf 'quit\n' | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1
wait "$DPID" 2>/dev/null
rm -rf "$JOURNAL" "$LOG"

echo "PASS: overload end-to-end"
