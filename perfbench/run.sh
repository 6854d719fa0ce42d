#!/usr/bin/env bash
# Builds daisd, daisgw and the perfbench generator from source, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload oltp-mix --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes lands under .bench_build/ in the
# current directory, the Go build cache included. The last line of
# standard output is the JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	TMPDIR="$out/tmp"

# The system under test is built from the checkout, unmodified; the
# generator is its own module next to it.
go build -o "$out/bin/daisd" ./cmd/daisd
go build -o "$out/bin/daisgw" ./cmd/daisgw
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null ||
	cat go.mod $(find cmd internal -name '*.go' | sort) | sha256sum | cut -c1-12)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" -commit "$commit" "$@"
