#!/usr/bin/env bash
# Server smoke: start nf2d on an ephemeral port, drive it with
# nf2_client (DDL, DML, reads, metrics), then SIGTERM it and assert a
# clean graceful-shutdown exit — the CI job that proves the daemon
# actually serves and stops outside the unit-test harness.
#
#   usage: tools/server_smoke.sh <build_dir>
set -euo pipefail

BUILD_DIR="${1:?usage: $0 <build_dir>}"
NF2D="$BUILD_DIR/tools/nf2d"
CLIENT="$BUILD_DIR/tools/nf2_client"
DB_DIR="$(mktemp -d)"
LOG="$DB_DIR/nf2d.log"

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [[ -n "${FOLLOWER_PID:-}" ]] && kill -9 "$FOLLOWER_PID" 2>/dev/null || true
  [[ -n "${SHARDED_PID:-}" ]] && kill -9 "$SHARDED_PID" 2>/dev/null || true
  rm -rf "$DB_DIR"
}
trap cleanup EXIT

"$NF2D" "$DB_DIR/db" --port 0 --workers 2 >"$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the "listening on HOST:PORT" line (the kernel picked the port).
PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$LOG" | head -1)
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG"; echo "nf2d died"; exit 1; }
  sleep 0.2
done
[[ -n "$PORT" ]] || { cat "$LOG"; echo "nf2d never reported a port"; exit 1; }
echo "nf2d up on port $PORT (pid $SERVER_PID)"

"$CLIENT" --port "$PORT" --ping

OUT=$("$CLIENT" --port "$PORT" \
  -e "CREATE RELATION takes (Student STRING, Course STRING, Club STRING) MVD Student ->-> Course" \
  -e "INSERT INTO takes VALUES (ada, algebra, chess), (ada, crypto, chess), (bob, algebra, go)" \
  -e "SELECT COUNT(*) FROM takes" \
  -e "SHOW takes" \
  -e "\\metrics prom")
echo "$OUT" | grep -q "^3$" || { echo "COUNT mismatch"; echo "$OUT"; exit 1; }
echo "$OUT" | grep -q "nf2_server_requests_total" || {
  echo "metrics missing"; echo "$OUT"; exit 1; }

# Several statements through stdin mode, including an expected error.
# A statement the server answers with an error must exit exactly 1.
EXIT_CODE=0
printf 'LIST\nSELECT * FROM nonesuch\n' | "$CLIENT" --port "$PORT" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 1 ]] || {
  echo "statement error exited $EXIT_CODE, want 1"; exit 1; }

# A connect failure (nothing listens on port 1) must exit exactly 2.
EXIT_CODE=0
"$CLIENT" --port 1 -e "LIST" 2>/dev/null || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 2 ]] || {
  echo "connect failure exited $EXIT_CODE, want 2"; exit 1; }

# Protocol v1: the same workload through one kBatch frame, mixed
# reads/writes, plus a mid-batch error that must not stop the batch
# (exit 1, but the trailing statements still ran and printed).
BATCH_OUT=$("$CLIENT" --port "$PORT" --batch \
  -e "INSERT INTO takes VALUES (eve, logic, chess)" \
  -e "SELECT COUNT(*) FROM takes" \
  -e "SELECT COUNT(*) FROM takes") || {
    echo "batch failed"; echo "$BATCH_OUT"; exit 1; }
echo "$BATCH_OUT" | grep -q "^4$" || {
  echo "batch COUNT mismatch"; echo "$BATCH_OUT"; exit 1; }
EXIT_CODE=0
BATCH_OUT=$("$CLIENT" --port "$PORT" --batch \
  -e "SELECT * FROM nonesuch" \
  -e "SELECT COUNT(*) FROM takes") || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 1 ]] || {
  echo "mid-batch error exited $EXIT_CODE, want 1"; exit 1; }
echo "$BATCH_OUT" | grep -q "^4$" || {
  echo "batch did not continue past the error"; echo "$BATCH_OUT"; exit 1; }

# The statement cache saw those repeated COUNTs: counters are live.
# (Capture, then grep: grep -q quitting early would SIGPIPE the client
# and fail the pipeline under pipefail even on a match.)
METRICS=$("$CLIENT" --port "$PORT" -e "\\metrics prom")
echo "$METRICS" | grep -q "^nf2_stmtcache_hits_total [1-9]" || {
  echo "statement cache hits missing from metrics"; exit 1; }

# --- WAL-shipped follower leg ----------------------------------------
# Boot a follower of the live primary from an empty datadir, wait for
# catch-up, tail a live write, and assert the read-only contract.
"$NF2D" "$DB_DIR/replica" --follow 127.0.0.1:"$PORT" --port 0 \
  >"$LOG.follower" 2>&1 &
FOLLOWER_PID=$!
FPORT=""
for _ in $(seq 1 50); do
  FPORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    "$LOG.follower" | head -1)
  [[ -n "$FPORT" ]] && break
  kill -0 "$FOLLOWER_PID" 2>/dev/null || {
    cat "$LOG.follower"; echo "follower died"; exit 1; }
  sleep 0.2
done
[[ -n "$FPORT" ]] || {
  cat "$LOG.follower"; echo "follower never listened"; exit 1; }
echo "follower up on port $FPORT (pid $FOLLOWER_PID)"

# Catch-up from empty: poll until the replicated rows are all visible.
COUNT=""
for _ in $(seq 1 100); do
  COUNT=$("$CLIENT" --port "$FPORT" -e "SELECT COUNT(*) FROM takes" \
    2>/dev/null) || true
  [[ "$COUNT" == "4" ]] && break
  sleep 0.2
done
[[ "$COUNT" == "4" ]] || {
  cat "$LOG.follower"
  echo "follower never caught up (last count '$COUNT')"; exit 1; }

# A write on the primary reaches the follower while it tails live.
"$CLIENT" --port "$PORT" \
  -e "INSERT INTO takes VALUES (mia, logic, go)" >/dev/null
COUNT=""
for _ in $(seq 1 100); do
  COUNT=$("$CLIENT" --port "$FPORT" -e "SELECT COUNT(*) FROM takes" \
    2>/dev/null) || true
  [[ "$COUNT" == "5" ]] && break
  sleep 0.2
done
[[ "$COUNT" == "5" ]] || {
  echo "live write never reached the follower"; exit 1; }

# Writes and transactions on the follower bounce (statement error = 1)
# and point the caller at the primary.
EXIT_CODE=0
OUT=$("$CLIENT" --port "$FPORT" \
  -e "INSERT INTO takes VALUES (zoe, zk, go)" 2>&1) || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 1 ]] || {
  echo "follower write exited $EXIT_CODE, want 1"; exit 1; }
echo "$OUT" | grep -qi "read-only" || {
  echo "follower write error did not say read-only:"; echo "$OUT"; exit 1; }
EXIT_CODE=0
"$CLIENT" --port "$FPORT" -e "BEGIN" >/dev/null 2>&1 || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 1 ]] || {
  echo "follower BEGIN exited $EXIT_CODE, want 1"; exit 1; }

# \replica reports the live stream; replication metrics are exported.
# (Capture, then grep — see the SIGPIPE note above.)
REPLICA=$("$CLIENT" --port "$FPORT" -e "\\replica")
echo "$REPLICA" | grep -q "connected: yes" || {
  echo "\\replica does not report a connected stream:"
  echo "$REPLICA"; exit 1; }
FMETRICS=$("$CLIENT" --port "$FPORT" -e "\\metrics prom")
echo "$FMETRICS" | grep -q "nf2_repl_lag_records" || {
  echo "replication metrics missing from follower \\metrics"; exit 1; }

# The follower shuts down cleanly too.
kill -TERM "$FOLLOWER_PID"
EXIT_CODE=0
wait "$FOLLOWER_PID" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 0 ]] || {
  cat "$LOG.follower"; echo "follower exited $EXIT_CODE"; exit 1; }
FOLLOWER_PID=""
echo "follower leg OK"

# Graceful shutdown: SIGTERM must checkpoint and exit 0.
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 0 ]] || { cat "$LOG"; echo "nf2d exited $EXIT_CODE"; exit 1; }
SERVER_PID=""
grep -q "shutting down" "$LOG" || { cat "$LOG"; echo "no shutdown line"; exit 1; }

# That checkpoint mapped takes.tbl in MANIFEST.nf2, the only view
# nf2_dump reads: 3 rows from the first leg + eve + mia.
DUMP=$("$BUILD_DIR/tools/nf2_dump" "$DB_DIR/db/takes.tbl") || {
  echo "nf2_dump failed"; echo "$DUMP"; exit 1; }
echo "$DUMP" | grep -q "^view       : MANIFEST.nf2 mapping" || {
  echo "nf2_dump did not read through the manifest"; echo "$DUMP"; exit 1; }
echo "$DUMP" | grep -q "^|R\*|       : 5$" || {
  echo "nf2_dump tuple count mismatch"; echo "$DUMP"; exit 1; }

# The shutdown checkpoint made the data durable: a fresh daemon serves it.
"$NF2D" "$DB_DIR/db" --port 0 >"$LOG.2" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$LOG.2" | head -1)
  [[ -n "$PORT" ]] && break
  sleep 0.2
done
[[ -n "$PORT" ]] || { cat "$LOG.2"; echo "restarted nf2d never listened"; exit 1; }
# 3 rows from the first leg + eve from the batch leg + mia from the
# follower leg's live-tail write.
COUNT=$("$CLIENT" --port "$PORT" -e "SELECT COUNT(*) FROM takes")
[[ "$COUNT" == "5" ]] || { echo "post-restart count '$COUNT' != 5"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""

# --- Sharded leg -------------------------------------------------------
# A 4-shard daemon on a fresh datadir: scattered reads and a JOIN (whose
# rows live on different shards) answer with the single engine's exact
# text.
"$NF2D" "$DB_DIR/sharded" --shards 4 --port 0 --workers 2 \
  >"$LOG.sharded" 2>&1 &
SHARDED_PID=$!
SPORT=""
for _ in $(seq 1 50); do
  SPORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    "$LOG.sharded" | head -1)
  [[ -n "$SPORT" ]] && break
  kill -0 "$SHARDED_PID" 2>/dev/null || {
    cat "$LOG.sharded"; echo "sharded nf2d died"; exit 1; }
  sleep 0.2
done
[[ -n "$SPORT" ]] || {
  cat "$LOG.sharded"; echo "sharded nf2d never listened"; exit 1; }
echo "sharded nf2d up on port $SPORT (pid $SHARDED_PID)"

"$CLIENT" --port "$SPORT" \
  -e "CREATE RELATION emp (Name STRING, Dept STRING, Age INT) FD Name -> Dept, Age" \
  -e "CREATE RELATION dept (Dept STRING, Floor INT) FD Dept -> Floor" \
  -e "INSERT INTO emp VALUES (ada, eng, 36), (bob, ops, 41), (cy, eng, 29)" \
  -e "INSERT INTO emp VALUES (dee, ops, 33), (eve, law, 50)" \
  -e "INSERT INTO dept VALUES (eng, 3), (ops, 1), (law, 2)" >/dev/null

# expect_reply <statement> <exact reply>
expect_reply() {
  local got
  got=$("$CLIENT" --port "$SPORT" -e "$1") || {
    echo "sharded '$1' failed: $got"; exit 1; }
  [[ "$got" == "$2" ]] || {
    echo "sharded '$1' replied:"; echo "$got"; echo "want:"; echo "$2"
    exit 1; }
}
expect_reply "SELECT COUNT(*) FROM emp" "5"
expect_reply "SELECT Dept, COUNT(*), SUM(Age) FROM emp GROUP BY Dept" \
  $'eng\t2\t65\nlaw\t1\t50\nops\t2\t74\n3 group(s)'
expect_reply "SELECT Name, Age FROM emp ORDER BY Age DESC LIMIT 2" \
"+------+-----+
| Name | Age |
+------+-----+
| eve  | 50  |
| bob  | 41  |
+------+-----+
2 row(s)"
expect_reply "SELECT Name, Floor FROM emp JOIN dept WHERE Floor > 1" \
"+------+-------+
| Name | Floor |
+------+-------+
| ada  | 3     |
| cy   | 3     |
| eve  | 2     |
+------+-------+
3 row(s)"

kill -TERM "$SHARDED_PID"
EXIT_CODE=0
wait "$SHARDED_PID" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 0 ]] || {
  cat "$LOG.sharded"; echo "sharded nf2d exited $EXIT_CODE"; exit 1; }
SHARDED_PID=""
echo "sharded leg OK"

echo "server smoke OK"
