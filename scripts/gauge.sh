#!/usr/bin/env bash
# Production-line gauge: non-blank, non-comment lines of committed Go
# outside tests, testdata and the benchmark module. ROADMAP.md tracks this
# count; a directory argument restricts it to that directory:
#
#   scripts/gauge.sh                 # the whole tree
#   scripts/gauge.sh internal/core   # one directory
set -euo pipefail

cd "$(dirname "$0")/.."

git ls-files "${1:+${1%/}/}*.go" | grep -v '_test.go$' | grep -v '^benchmark/' | grep -v '/testdata/' | xargs cat | grep -vcE '^\s*(//.*)?$'
