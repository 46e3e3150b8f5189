#!/usr/bin/env bash
# Repo lint gate: formatting, module tidiness, go vet, and the gtlint
# invariant suite. Exit 0 means the tree is clean; used by the CI lint job and
# runnable by hand:
#
#   scripts/lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go mod tidy"
cp go.mod /tmp/lint-go.mod.bak
go mod tidy
if ! cmp -s go.mod /tmp/lint-go.mod.bak; then
  mv /tmp/lint-go.mod.bak go.mod
  echo "FAIL: go mod tidy changes go.mod; commit a tidy module file" >&2
  exit 1
fi
rm -f /tmp/lint-go.mod.bak

echo "== go vet"
# copylocks covers what gtlint does not check itself: a sync/atomic
# value (or a mutex) copied by assignment, argument, return or range.
go vet ./...

echo "== gtlint (diff vs gtlint-baseline.json)"
# Findings already recorded in the committed baseline are tolerated;
# only new findings fail the gate. Refresh deliberately with
#   go run ./cmd/gtlint -write-baseline
# and commit the result (the nightly lint-report job ignores the
# baseline, so the accepted backlog stays visible).
go run ./cmd/gtlint -diff ./...

echo "== OK: lint clean"
