#!/usr/bin/env bash
# Builds e2ebench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload gdv_app --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, binary, stores, span files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(
	cd "$here"
	export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
	go build -o "$out/e2ebench" .
)
bin="$out/e2ebench"
args=(--workdir "$out/e2ebench-run" "$@")

# The stores live on a tmpfs mounted inside the checkout, in a private
# user and mount namespace: nothing outside the checkout is written and
# the mount goes away with the process. The shared disk's fsync latency
# moves too much from minute to minute for any timing to hold a bound
# (see README.md). Where the namespace or the mount is not allowed the
# stores fall back to the checkout's filesystem; the result's stamp
# names the one used. The marker file, written once the mount is in
# place, tells a refused namespace or mount (fall back) from a failed
# benchmark run (pass its exit code on).
stores="$out/e2ebench-tmpfs"
started="$out/e2ebench-ns-started"
mkdir -p "$stores"
rm -f "$started"
code=0
unshare --user --map-root-user --mount sh -c '
	mount -t tmpfs -o size=1g e2ebench "$0" || exit 1
	: >"$1"
	shift
	exec "$@"' "$stores" "$started" "$bin" --stores "$stores" "${args[@]}" || code=$?
if [ -e "$started" ]; then
	rm -f "$started"
	exit "$code"
fi
echo "e2ebench: no private tmpfs available, stores on the checkout's filesystem" >&2
exec "$bin" "${args[@]}"
