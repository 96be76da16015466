#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash lbbench/run.sh --workload converge|serve|cluster --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache and temporary files, the binary and
# the trace and result files. The build never touches the network
# (GOPROXY=off, GOTOOLCHAIN=local); the module has no dependencies
# outside this tree.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -trimpath -o "$build/lbbench" .)

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$build/lbbench" -out-dir "$build/out" -commit "$commit" "$@"
