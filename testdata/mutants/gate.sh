#!/usr/bin/env bash
# Mutation gate: each patch in this directory brings back a bug that a
# named test must catch. For every patch, the gate checks that
#   1. the named tests pass on the tree as it is,
#   2. the patch still applies (git apply),
#   3. the mutated tree builds (a compile error is not a kill),
#   4. the named tests fail with the patch applied,
# and then reverses the patch. A patch that no longer applies fails the
# gate: the change that moved the code refreshes the patch.
#
# A patch starts with a header that git apply skips:
#   # <what the mutant breaks>
#   # package: ./internal/service
#   # run: ^TestName$
#
# Run it from the repository root, in a checkout whose tracked files it
# may patch and restore:
#   bash testdata/mutants/gate.sh
set -uo pipefail
cd "$(git rev-parse --show-toplevel)"
log=$(mktemp)
applied=
trap 'if [ -n "$applied" ]; then git apply -R "$applied"; fi; rm -f "$log"' EXIT

fail=0
n=0
for p in testdata/mutants/*.patch; do
  name=$(basename "$p" .patch)
  pkg=$(sed -n 's/^# package: //p' "$p")
  run=$(sed -n 's/^# run: //p' "$p")
  n=$((n + 1))
  if [ -z "$pkg" ] || [ -z "$run" ]; then
    echo "FAIL $name: the header names no package or no -run regex"
    fail=1
    continue
  fi
  if ! go test -count=1 -run "$run" "$pkg" >"$log" 2>&1; then
    echo "FAIL $name: $run does not pass on the unmutated tree"
    cat "$log"
    fail=1
    continue
  fi
  if ! git apply "$p"; then
    echo "FAIL $name: the patch no longer applies; refresh it against the code it mutates"
    fail=1
    continue
  fi
  applied=$p
  if ! go build ./... >"$log" 2>&1; then
    echo "FAIL $name: the mutated tree does not build"
    cat "$log"
    fail=1
  elif go test -count=1 -run "$run" "$pkg" >"$log" 2>&1; then
    echo "FAIL $name: survived; $run passes with the mutant applied"
    fail=1
  else
    echo "ok   $name: killed by $run"
  fi
  git apply -R "$p" || fail=1
  applied=
done
if [ "$n" -eq 0 ]; then
  echo "FAIL no patches under testdata/mutants"
  fail=1
fi
exit $fail
