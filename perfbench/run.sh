#!/usr/bin/env bash
# Builds dfg-serve, dfg-worker and the perfbench harness from the checkout it
# is run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload cold-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root: the Go build cache, the binaries, the stores and
# logs of each run (removed when the run ends) and the span files of traced
# runs (.bench_build/traces/<workload>.jsonl).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dfg-serve" || ! -d "$root/cmd/dfg-worker" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dfg-serve, cmd/dfg-worker and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$out/bin/" ./cmd/dfg-serve ./cmd/dfg-worker >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
