#!/usr/bin/env bash
# CLI robustness gate (registered as the `cli_robustness` ctest).
#
# Contract under test: jury_cli must never abort. Malformed flags,
# unreadable or truncated input files, unknown solver names, and bad
# numeric values all exit non-zero with an error on stderr; valid runs
# exit zero; and --stats emits a registry export matching the checked-in
# schema manifest (scripts/check_stats_schema.py).
#
# With a third argument (the jury_serve binary) the same contract is
# enforced over HTTP: malformed request bodies, unknown solvers,
# oversized JSON, and every checked-in malformed-JSON corpus document
# get structured {"error":...} responses, and no request bytes kill the
# serving process — it still answers /healthz afterwards and drains
# cleanly on SIGTERM with exit 0.
#
# Usage: cli_robustness_test.sh <jury_cli-binary> <repo-root> [jury_serve-binary]
set -u

CLI="${1:?usage: cli_robustness_test.sh <jury_cli-binary> <repo-root>}"
REPO="${2:?usage: cli_robustness_test.sh <jury_cli-binary> <repo-root>}"
SERVE="${3:-}"

failures=0
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# expect_fail NAME -- ARGS...: the run must exit non-zero (but not via a
# signal — an abort is exactly the bug class this script exists to catch)
# and say something on stderr.
expect_fail() {
  local name="$1"; shift; shift  # drop NAME and "--"
  "$CLI" "$@" >"$tmpdir/out" 2>"$tmpdir/err"
  local status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL($name): expected non-zero exit, got 0" >&2
    failures=$((failures + 1))
  elif [ "$status" -ge 128 ]; then
    echo "FAIL($name): killed by signal $((status - 128)) — an abort, not a Status" >&2
    failures=$((failures + 1))
  elif [ ! -s "$tmpdir/err" ]; then
    echo "FAIL($name): non-zero exit but empty stderr" >&2
    failures=$((failures + 1))
  else
    echo "ok($name)"
  fi
}

expect_ok() {
  local name="$1"; shift; shift
  if ! "$CLI" "$@" >"$tmpdir/out" 2>"$tmpdir/err"; then
    echo "FAIL($name): expected exit 0, got $? (stderr: $(cat "$tmpdir/err"))" >&2
    failures=$((failures + 1))
  else
    echo "ok($name)"
  fi
}

# --- flag parsing ---------------------------------------------------------
expect_fail unknown_flag      -- --no-such-flag
expect_fail alpha_garbage     -- --alpha=abc
expect_fail alpha_trailing    -- --alpha=0.5x
expect_fail alpha_empty       -- --alpha=
expect_fail seed_garbage      -- --seed=xyz
expect_fail seed_negative     -- --seed=-3
expect_fail seed_trailing     -- --seed=12three
expect_fail deadline_garbage  -- --deadline-ms=soon
expect_fail deadline_negative -- --deadline-ms=-10
expect_fail work_garbage      -- --max-work-units=lots
expect_fail work_negative     -- --max-work-units=-1

# --- input files ----------------------------------------------------------
expect_fail missing_csv       -- "$tmpdir/does_not_exist.csv" 5
printf 'id,quality,cost\nw0,0.9' > "$tmpdir/truncated.csv"
expect_fail truncated_csv     -- "$tmpdir/truncated.csv" 5
printf 'id,quality,cost\nw0,nan,1.0\n' > "$tmpdir/nan_quality.csv"
expect_fail nan_quality_csv   -- "$tmpdir/nan_quality.csv" 5
printf '\x00\x01\x02 binary garbage \xff\xfe\n' > "$tmpdir/garbage.csv"
expect_fail garbage_csv       -- "$tmpdir/garbage.csv" 5
printf 'id,quality,cost\n' > "$tmpdir/empty_pool.csv"
expect_fail empty_pool_csv    -- "$tmpdir/empty_pool.csv" 5

# --- solver + request validation -----------------------------------------
expect_fail unknown_solver    -- --solver=no-such-solver 5
expect_fail bad_alpha_range   -- --solver=greedy-quality --alpha=1.5 5
expect_fail negative_budget   -- --solver=greedy-quality --alpha=0.4 -5

# --- happy paths stay happy ----------------------------------------------
expect_ok list_solvers        -- --list-solvers
expect_ok demo_pool           -- --solver=greedy-quality --json 5
expect_ok legacy_table        -- 0.4 5 10

# --- pool snapshot round trip ---------------------------------------------
# The demo pool saved as a snapshot, planned back from it, and saved again:
# both runs succeed, the two snapshots are byte-identical, and the two runs
# print the same juries (ids included) once the wall time is stripped.
jury_lines() {
  sed -n 's/, [0-9.e+-]* ms$//p' "$1" | grep '^B = '
}
if "$CLI" --solver=optjs --save-snapshot="$tmpdir/a.snap" \
     >"$tmpdir/snap_a_out" 2>"$tmpdir/snap_a_err" &&
   "$CLI" --pool-snapshot="$tmpdir/a.snap" --solver=optjs \
     --save-snapshot="$tmpdir/b.snap" \
     >"$tmpdir/snap_b_out" 2>"$tmpdir/snap_b_err"; then
  if ! cmp -s "$tmpdir/a.snap" "$tmpdir/b.snap"; then
    echo "FAIL(snapshot_round_trip): re-saved snapshot differs" >&2
    failures=$((failures + 1))
  elif [ -z "$(jury_lines "$tmpdir/snap_a_out")" ] ||
       [ "$(jury_lines "$tmpdir/snap_a_out")" != \
         "$(jury_lines "$tmpdir/snap_b_out")" ]; then
    echo "FAIL(snapshot_round_trip): juries differ after the round trip" >&2
    diff <(jury_lines "$tmpdir/snap_a_out") \
         <(jury_lines "$tmpdir/snap_b_out") >&2
    failures=$((failures + 1))
  else
    echo "ok(snapshot_round_trip)"
  fi
else
  echo "FAIL(snapshot_round_trip): a run exited non-zero ($(cat "$tmpdir/snap_a_err" "$tmpdir/snap_b_err"))" >&2
  failures=$((failures + 1))
fi

# --- anytime limits -------------------------------------------------------
# An expired/capped solve is a *success* with its best-so-far jury — exit 0,
# and under --json the report says so. max_work_units=1 guarantees an early
# stop for the stochastic solvers without racing the wall clock.
expect_ok limited_table       -- --max-work-units=1 0.4 5 10
expect_ok limited_deadline    -- --solver=annealing --deadline-ms=10000 --json 5
if "$CLI" --solver=annealing --max-work-units=1 --json 5 \
     >"$tmpdir/limited_out" 2>"$tmpdir/limited_err"; then
  if grep -q '"terminated_early":true' "$tmpdir/limited_out"; then
    echo "ok(limited_anytime_json)"
  else
    echo "FAIL(limited_anytime_json): no terminated_early in: $(cat "$tmpdir/limited_out")" >&2
    failures=$((failures + 1))
  fi
else
  echo "FAIL(limited_anytime_json): capped solve exited non-zero ($(cat "$tmpdir/limited_err"))" >&2
  failures=$((failures + 1))
fi

# --- --stats schema -------------------------------------------------------
if "$CLI" --solver=greedy-quality --json --stats 5 >"$tmpdir/stats_out" 2>&1; then
  if tail -n 1 "$tmpdir/stats_out" | \
     python3 "$REPO/scripts/check_stats_schema.py" \
             "$REPO/tests/stats_manifest.json"; then
    echo "ok(stats_schema)"
  else
    echo "FAIL(stats_schema): --stats export does not match manifest" >&2
    failures=$((failures + 1))
  fi
else
  echo "FAIL(stats_schema): --stats run exited non-zero" >&2
  failures=$((failures + 1))
fi

# Counters must actually move: a greedy solve performs evaluations.
if tail -n 1 "$tmpdir/stats_out" | grep -q '"api.requests_solved":1'; then
  echo "ok(stats_live)"
else
  echo "FAIL(stats_live): api.requests_solved != 1 in: $(tail -n 1 "$tmpdir/stats_out")" >&2
  failures=$((failures + 1))
fi

# --- serving endpoint (optional third argument) ---------------------------
# The HTTP analogue of the contract above: hostile request bytes get
# structured JSON errors, never a dead process.
if [ -n "$SERVE" ]; then
  # One tolerant raw-socket client: prints the response status line's
  # code on stdout and the response body on stderr. Sending is
  # best-effort — an oversized body may be answered (and the connection
  # reset) before the client finishes writing it, which is exactly the
  # behavior under test.
  cat > "$tmpdir/http_probe.py" <<'EOF'
import socket, sys
host, port, method, path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
body = sys.stdin.buffer.read()
s = socket.create_connection((host, port), timeout=10)
head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
try:
    s.sendall(head.encode() + body)
except OSError:
    pass  # server may legally reject mid-send (413 + close)
data = b""
try:
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
except OSError:
    pass
if not data:
    print("NO_RESPONSE")
    sys.exit(2)
print(data.split(b"\r\n", 1)[0].decode(errors="replace").split()[1])
if b"\r\n\r\n" in data:
    sys.stderr.buffer.write(data.split(b"\r\n\r\n", 1)[1])
EOF

  # expect_http NAME EXPECTED_STATUS METHOD PATH BODY_FILE: the server
  # must answer with the given status; non-200 answers must carry a
  # structured {"error":...} JSON body.
  expect_http() {
    local name="$1" want="$2" method="$3" path="$4" body_file="$5"
    local got
    got="$(python3 "$tmpdir/http_probe.py" 127.0.0.1 "$serve_port" \
           "$method" "$path" < "$body_file" 2>"$tmpdir/http_body")"
    if [ "$got" != "$want" ]; then
      echo "FAIL($name): expected HTTP $want, got '$got'" >&2
      failures=$((failures + 1))
    elif [ "$want" != "200" ] && ! grep -q '"error"' "$tmpdir/http_body"; then
      echo "FAIL($name): HTTP $want body has no structured error: $(cat "$tmpdir/http_body")" >&2
      failures=$((failures + 1))
    else
      echo "ok($name)"
    fi
  }

  "$SERVE" --port=0 >"$tmpdir/serve_out" 2>"$tmpdir/serve_err" &
  serve_pid=$!
  serve_port=""
  for _ in $(seq 1 100); do
    serve_port="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$tmpdir/serve_out")"
    [ -n "$serve_port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
    sleep 0.05
  done
  if [ -z "$serve_port" ]; then
    echo "FAIL(serve_start): jury_serve never printed its port (stderr: $(cat "$tmpdir/serve_err"))" >&2
    failures=$((failures + 1))
  else
    : > "$tmpdir/empty"
    printf '{"solver":"greedy-quality","budget":9,"alpha":0.4}' > "$tmpdir/good_req"
    printf '{not json at all' > "$tmpdir/malformed"
    printf '{"solver":"no-such-solver","budget":9,"alpha":0.4}' > "$tmpdir/bad_solver"
    # Past the server's 1 MiB body cap: must be shed with 413, not read.
    python3 -c 'import sys; sys.stdout.write("{\"pad\":\"" + "x" * (2 << 20) + "\"}")' \
      > "$tmpdir/oversized"

    expect_http serve_healthz        200 GET  /healthz "$tmpdir/empty"
    expect_http serve_solve_ok       200 POST /solve   "$tmpdir/good_req"
    expect_http serve_malformed_body 400 POST /solve   "$tmpdir/malformed"
    expect_http serve_unknown_solver 404 POST /solve   "$tmpdir/bad_solver"
    expect_http serve_oversized_json 413 POST /solve   "$tmpdir/oversized"
    expect_http serve_wrong_method   405 GET  /solve   "$tmpdir/empty"
    expect_http serve_unknown_route  404 GET  /nope    "$tmpdir/empty"

    # Every checked-in malformed-JSON corpus document must come back as
    # a structured 4xx, and none may take the process down.
    corpus_ok=1
    for doc in "$REPO"/tests/corpus/json/*; do
      [ -f "$doc" ] || continue
      status="$(python3 "$tmpdir/http_probe.py" 127.0.0.1 "$serve_port" \
                POST /solve < "$doc" 2>"$tmpdir/http_body")"
      case "$status" in
        4??) ;;
        200) ;;  # a corpus doc that happens to parse as a valid request
        *) echo "FAIL(serve_corpus): $(basename "$doc") got '$status'" >&2
           failures=$((failures + 1)); corpus_ok=0 ;;
      esac
    done
    [ "$corpus_ok" -eq 1 ] && echo "ok(serve_corpus)"

    # The process survived everything above.
    expect_http serve_still_alive 200 GET /healthz "$tmpdir/empty"

    kill -TERM "$serve_pid"
    serve_status=0
    wait "$serve_pid" || serve_status=$?
    if [ "$serve_status" -ne 0 ]; then
      echo "FAIL(serve_drain): exit $serve_status after SIGTERM (stderr: $(cat "$tmpdir/serve_err"))" >&2
      failures=$((failures + 1))
    else
      echo "ok(serve_drain)"
    fi
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_robustness: $failures failure(s)" >&2
  exit 1
fi
echo "cli_robustness: all checks passed"
