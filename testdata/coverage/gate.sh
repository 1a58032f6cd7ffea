#!/usr/bin/env bash
# Product-path coverage gate.
#
# Builds the shipped binaries with -cover -coverpkg=./..., drives them
# over every curated spec and exploration, figures, evm, one short run
# per registry name and an ehsimd session, then lists every non-test
# function the runs never entered. The gate fails on a 0% function that
# testdata/coverage/allow.txt does not name, and on an allowlist entry
# that names a function that is now covered or no longer exists.
#
# Usage: bash testdata/coverage/gate.sh [workdir]
# The workdir (default: a fresh temp dir) receives the instrumented
# binaries, the counter files and the report, zero.txt.
set -euo pipefail
trap 'echo "gate.sh: line $LINENO failed" >&2' ERR

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
allow=testdata/coverage/allow.txt
work=${1:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
bin=$work/bin
run=$work/run
export GOCOVERDIR=$work/counters
rm -rf "$GOCOVERDIR" "$run"
mkdir -p "$bin" "$GOCOVERDIR" "$run"

echo "== build instrumented binaries"
for cmd in ehsim ehsimd figures ehsim-explore evm; do
  go build -cover -coverpkg=./... -o "$bin/$cmd" "./cmd/$cmd"
done

echo "== curated specs, stepwise and fast-forward"
for f in examples/scenarios/*.json; do
  "$bin/ehsim" -scenario "$f" > /dev/null
  "$bin/ehsim" -scenario "$f" -ff > /dev/null
done
"$bin/ehsim" -scenario examples/scenarios/fig7-rectified-sine-hibernus.json \
  -trace "$run/fig7.csv" > /dev/null
"$bin/ehsim" -scenario examples/scenarios/fig7-rectified-sine-hibernus.json \
  -ff -trace "$run/fig7-ff.csv" > /dev/null
"$bin/ehsim" -workload sieve3000 -supply square -runtime hibernus \
  -c 10u,47u -dur 0.5 > /dev/null
"$bin/ehsim" -list > "$run/list.txt"

echo "== curated explorations and figures"
for f in examples/explorations/*.json; do
  "$bin/ehsim-explore" -spec "$f" > /dev/null
done
"$bin/figures" -workers 2 -out "$run/figures" > /dev/null 2>&1
"$bin/figures" -only fig2 > /dev/null

echo "== evm"
for d in fft crc sieve fib; do
  "$bin/evm" demo "$d" > "$run/$d.s"
  "$bin/evm" run -steps 10000000 "$run/$d.s" > /dev/null
done
"$bin/evm" asm "$run/fib.s" > /dev/null
"$bin/evm" dis "$run/fib.s" > /dev/null

echo "== one short run per registry name"
# names SECTION prints the names ehsim -list gives under "SECTION:".
names() {
  awk -v s="$1:" '/^[a-z]+:$/ { on = ($0 == s); next } on && /^  [^ ]/ { print $1 }' "$run/list.txt"
}
lab() { # workload source runtime governor
  gov=""
  if [ -n "$4" ]; then gov=", \"governor\": {\"policy\": \"$4\"}"; fi
  echo "{\"name\": \"coverage\", \"workload\": \"$1\", \"storage\": {\"c\": \"10u\"},
    \"source\": {\"name\": \"$2\"}, \"runtime\": {\"name\": \"$3\"}$gov,
    \"duration\": 0.2}" > "$run/name.json"
  "$bin/ehsim" -scenario "$run/name.json" > /dev/null
  "$bin/ehsim" -scenario "$run/name.json" -ff > /dev/null
}
for w in $(names workloads); do lab "$w" square hibernus ""; done
for s in $(names sources); do lab fib24 "$s" hibernus ""; done
for r in $(names runtimes); do lab fib24 square "$r" ""; done
for g in $(names governors); do lab fft64 rectified-sine hibernus-pn "$g"; done
# Each analytic model once as a single run and once as a sweep.
model() { # model extra-fields
  src="\"source\": {\"name\": \"pv\"}"
  if [ "$1" = taskburst ]; then
    src="\"source\": {\"name\": \"const-power\"}, \"storage\": {\"c\": \"10m\"}"
  fi
  echo "{\"name\": \"coverage\", \"model\": \"$1\", $src, \"duration\": 7200, \"dt\": 60$2}"
}
for m in $(names models); do
  [ "$m" = lab ] && continue
  model "$m" "" | "$bin/ehsim" -scenario - > /dev/null
  model "$m" ", \"sweep\": [{\"param\": \"dt\", \"values\": [30, 60]}]" |
    "$bin/ehsim" -scenario - > /dev/null
done
model eneutral ", \"params\": {\"fixedduty\": 0.3}" | "$bin/ehsim" -scenario - > /dev/null

echo "== ehsimd session"
# Two peered nodes serve every curated spec, an exploration and a
# batch; a cancel and a set of long jobs follow. SIGTERM makes node A
# checkpoint the long jobs, and node A, rebooted alone on the same
# cache directory, resumes them and serves from disk. Every stop is a
# SIGTERM: the drain path returns from run into os.Exit, which writes
# the counters.
a=127.0.0.1:8981
b=127.0.0.1:8982
pid_a=""
pid_b=""
trap 'kill $pid_a $pid_b 2>/dev/null || true' EXIT
await_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$1/healthz" > /dev/null && return 0
    sleep 0.1
  done
  echo "ehsimd at $1 never became healthy"; return 1
}
boot_a() { # [peer]
  peers=()
  if [ -n "${1:-}" ]; then peers=(-self "http://$a" -peers "http://$1"); fi
  "$bin/ehsimd" -addr "$a" -jobs 8 -workers 1 -cache-dir "$run/casA" "${peers[@]}" >> "$run/ehsimd-a.log" 2>&1 &
  pid_a=$!
  await_healthy "$a"
}
boot_b() {
  "$bin/ehsimd" -addr "$b" -cache-dir "$run/casB" -self "http://$b" -peers "http://$a" \
    >> "$run/ehsimd-b.log" 2>&1 &
  pid_b=$!
  await_healthy "$b"
}
stop() { # pid
  kill -TERM "$1"
  wait "$1" || true
}
submit() { # host endpoint body-file -> sets id
  id=$(curl -sf -XPOST --data-binary @"$3" "http://$1$2" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  test -n "$id"
}
state_of() { # host
  curl -sf "http://$1/v1/jobs/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'
}
await_state() { # host state
  for _ in $(seq 1 1200); do
    st=$(state_of "$1")
    [ "$st" = "$2" ] && return 0
    [ "$st" = failed ] && { echo "job $id failed on $1"; return 1; }
    sleep 0.1
  done
  echo "job $id never reached $2 on $1"; return 1
}
fetch() { # host spec: the finished job's result, and a single run's traces
  curl -sf "http://$1/v1/jobs/$id/result" > /dev/null
  if ! grep -q '"sweep"' "$2"; then
    curl -sf "http://$1/v1/jobs/$id/trace" > /dev/null
    curl -sf "http://$1/v1/jobs/$id/trace?points=8" > /dev/null
  fi
}
# long writes a spec that runs far longer than the session.
long() { # name body
  echo "{\"name\": \"coverage-$1\", $2}" > "$run/long-$1.json"
}
long eneutral '"model": "eneutral", "source": {"name": "const-power", "params": {"p": "50m"}}, "duration": 100000000'
long eneutral-sweep '"model": "eneutral", "source": {"name": "pv"}, "dt": 60, "duration": 1e12, "sweep": [{"param": "duration", "values": [3600, 1e12]}]'
long mpsoc '"model": "mpsoc", "source": {"name": "pv"}, "duration": 1e12, "dt": 60'
long taskburst '"model": "taskburst", "source": {"name": "const-power"}, "storage": {"c": "10m"}, "duration": 1e12'
long lab '"workload": "fft64", "storage": {"c": "10u"}, "source": {"name": "rectified-sine"}, "runtime": {"name": "hibernus"}, "duration": 1e6'
long lab-sweep '"workload": "fft64", "storage": {"c": "10u"}, "source": {"name": "rectified-sine"}, "runtime": {"name": "hibernus"}, "duration": 1e6, "sweep": [{"param": "duration", "values": [0.1, 1e6]}]'
long cancel '"workload": "sieve3000", "storage": {"c": "10u"}, "source": {"name": "square"}, "runtime": {"name": "hibernus"}, "duration": 1e6'
fig7=examples/scenarios/fig7-rectified-sine-hibernus.json

boot_a "$b"
boot_b
for f in examples/scenarios/*.json; do
  submit "$a" /v1/jobs "$f"; await_state "$a" done; fetch "$a" "$f"
  submit "$b" /v1/jobs "$f"; await_state "$b" done; fetch "$b" "$f"
done
submit "$a" /v1/jobs "$fig7"; await_state "$a" done # memory hit
# fig7 traces about 500 samples, so 1000 buckets leave some empty, and
# those are filled by interpolation.
curl -sf "http://$a/v1/jobs/$id/trace?points=1000" > /dev/null
submit "$a" /v1/explorations examples/explorations/eq4-capacitor-topk.json
await_state "$a" done
curl -sf "http://$a/v1/jobs/$id/result" > /dev/null
printf '{"specs": [%s, %s]}' "$(cat "$fig7")" "$(cat examples/scenarios/eq4-margin-sweep.json)" > "$run/batch.json"
curl -sf -XPOST --data-binary @"$run/batch.json" "http://$a/v1/batches" > /dev/null
submit "$a" /v1/jobs "$run/long-cancel.json"; await_state "$a" running
curl -sf -XDELETE "http://$a/v1/jobs/$id" > /dev/null
await_state "$a" canceled
for j in eneutral eneutral-sweep mpsoc taskburst lab lab-sweep; do
  submit "$a" /v1/jobs "$run/long-$j.json"; await_state "$a" running
done
for h in "$a" "$b"; do
  curl -sf "http://$h/v1/jobs" > /dev/null
  curl -sf "http://$h/v1/registry" > /dev/null
  curl -sf "http://$h/metrics" > /dev/null
done
stop "$pid_b"
# B again, alone, with room for one running and one queued job: a third
# submission is refused with a Retry-After hint, and the queued and
# running jobs are canceled.
"$bin/ehsimd" -addr "$b" -jobs 1 -queue 1 >> "$run/ehsimd-b.log" 2>&1 &
pid_b=$!
await_healthy "$b"
submit "$b" /v1/jobs "$run/long-cancel.json"; running=$id; await_state "$b" running
submit "$b" /v1/jobs "$run/long-lab.json"; queued=$id
code=$(curl -s -o /dev/null -w '%{http_code}' -XPOST --data-binary @"$run/long-mpsoc.json" "http://$b/v1/jobs")
test "$code" = 429
for id in "$queued" "$running"; do
  curl -sf -XDELETE "http://$b/v1/jobs/$id" > /dev/null
  await_state "$b" canceled
done
stop "$pid_b"
stop "$pid_a"
test "$(ls "$run"/casA/checkpoints/*.ckpt | wc -l)" -eq 6

boot_a # alone: every resumed job restores from its checkpoint
for _ in $(seq 1 1200); do
  jobs=$(curl -sf "http://$a/v1/jobs" | grep -o '"state":"[a-z]*"' || true)
  [ "$(echo "$jobs" | grep -c running)" -ge 5 ] && ! echo "$jobs" | grep -q queued && break
  sleep 0.1
done
[ "$(echo "$jobs" | grep -c running)" -ge 5 ]
submit "$a" /v1/jobs "$fig7"; await_state "$a" done; fetch "$a" "$fig7" # disk hit
submit "$a" /v1/jobs "$run/long-eneutral.json"; await_state "$a" done # rides the resumed run
curl -sf "http://$a/metrics" | grep -q '^ehsimd_disk_hits_total [1-9]'
curl -sf "http://$a/metrics" | grep -q '^ehsimd_checkpoints_resumed_total 1$'
stop "$pid_a"
pid_a=""
pid_b=""

echo "== functions at 0%"
go tool covdata func -i="$GOCOVERDIR" > "$work/func.txt"
# Each line is "repro/<file>:<line>:<tab><func><tabs><pct>%".
awk -F'\t+' '$NF == "0.0%" {
  split($1, loc, ":"); sub(/^repro\//, "", loc[1]); print loc[1] ":" $2
}' "$work/func.txt" | sort -u > "$work/zero.txt"
# Allowlist lines are "<file>:<func> <reason>"; # starts a comment.
awk '!/^#/ && NF { print $1 }' "$allow" | sort > "$work/allowed.txt"
status=0
unlisted=$(comm -23 "$work/zero.txt" "$work/allowed.txt")
if [ -n "$unlisted" ]; then
  echo "no product path reaches these functions; delete them, give them a"
  echo "curated spec, or add them to $allow with a reason:"
  echo "$unlisted" | sed 's/^/  /'
  status=1
fi
stale=$(comm -13 "$work/zero.txt" "$work/allowed.txt")
if [ -n "$stale" ]; then
  echo "stale $allow entries (now covered, or gone):"
  echo "$stale" | sed 's/^/  /'
  status=1
fi
noreason=$(awk '!/^#/ && NF == 1 { print $1 }' "$allow")
if [ -n "$noreason" ]; then
  echo "$allow entries without a reason:"
  echo "$noreason" | sed 's/^/  /'
  status=1
fi
dups=$(uniq -d "$work/allowed.txt")
if [ -n "$dups" ]; then
  echo "duplicate $allow entries:"
  echo "$dups" | sed 's/^/  /'
  status=1
fi
echo "$(wc -l < "$work/zero.txt") functions at 0%, $(wc -l < "$work/allowed.txt") allowlisted"
exit $status
