#!/bin/sh
# Full pre-merge gate: build, vet, race-enabled tests, and the TEA
# invariant lint suite (standalone + vet-tool + -json modes).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Includes the accuracy and codec gates: TestPaperNumbers and
# TestCodecNumbers pin every deterministic metric of the committed
# BENCH_2026-08-08_v4codec.json and BENCH_2026-08-08_codec.json.
go test -race ./...

# TEA invariant lint suite. `make lint` owns building the tealint
# binary and runs all three modes (standalone, vet-tool, -json smoke),
# so the gate and the Makefile cannot drift apart.
make lint

# Whole-program analyzer golden suites: the cross-package facts
# machinery (taint reachability, context threading, goroutine joins,
# typed-error boundaries) plus the checker and loader underneath it.
go test ./internal/lint/detreach ./internal/lint/ctxflow \
	./internal/lint/gojoin ./internal/lint/errbound \
	./internal/lint/checker ./internal/lint/load

# Robustness fuzz smoke: a short budget per target keeps the malformed-
# input contract (typed errors, no panics) exercised on every gate.
go test ./internal/trace -run='^$' -fuzz=FuzzReplay -fuzztime=10s
go test ./internal/pics -run='^$' -fuzz=FuzzProfileJSON -fuzztime=10s
go test ./internal/serve -run='^$' -fuzz=FuzzSubmit -fuzztime=10s

# Server smoke: boot a real teaserve on an ephemeral port with every
# documented flag, drive each /v1 endpoint over TCP, check the raw
# profile bytes against an in-process analysis.RunProgram, and verify
# SIGTERM shuts it down cleanly (exit 0).
go build -o bin/teaserve ./cmd/teaserve
go run ./scripts/servesmoke -bin bin/teaserve

# Crash-recovery smoke: boot teaserve with a job journal, finish one
# job, submit a batch, SIGKILL mid-run, restart on the same journal —
# the finished job's profile must come back byte-identical and every
# interrupted job must complete byte-identical after recovery.
go run ./scripts/crashsmoke -bin bin/teaserve

# Chaos smoke: the fault-injection sweep with a fixed seed — every
# fault kind against every technique; exits nonzero on any contract
# violation (crash, hang, or silently wrong profile). The -disk sweep
# then attacks the job journal (torn tail, bit flip, ENOSPC, EIO, slow
# I/O): never a crash, never wrong bytes, degraded mode on runtime
# write failure.
go build -o bin/teachaos ./cmd/teachaos
./bin/teachaos -seed 1 -workload bwaves -scale 0.05
./bin/teachaos -disk

# CLI smoke: every teaexp experiment at a small scale, Figure 8 at an
# interval whose sweep reaches below one cycle, both teadiff modes, a
# teatrace record/replay/stats round trip, and usage errors — a zero
# -interval, an unknown -tech, a negative -top, a -scale that is not a
# positive finite number — rejected by each CLI with exit 2 and a
# one-line message, before any work. A Go panic also exits 2, so stderr
# must not carry one.
clidir=$(mktemp -d)
trap 'rm -rf "$clidir"' EXIT
go build -o "$clidir/" ./cmd/teaexp ./cmd/teaprof ./cmd/teatrace ./cmd/teadiff
"$clidir/teaexp" -scale 0.05 all >/dev/null
"$clidir/teaexp" -scale 0.05 -interval 3 fig8 >/dev/null
"$clidir/teadiff" -mode lbm-prefetch -scale 0.05 >/dev/null
"$clidir/teadiff" -mode nab-fastmath -scale 0.05 >/dev/null
"$clidir/teatrace" -record "$clidir/bwaves.trace" -bench bwaves -scale 0.05
"$clidir/teatrace" -replay "$clidir/bwaves.trace" >/dev/null
"$clidir/teatrace" -stats "$clidir/bwaves.trace" >/dev/null
rejects_usage() {
	status=0
	"$@" >/dev/null 2>"$clidir/stderr" || status=$?
	cat "$clidir/stderr"
	test "$status" -eq 2
	if grep -Eq 'panic:|goroutine' "$clidir/stderr"; then exit 1; fi
}
rejects_usage "$clidir/teaexp" -interval 0 fig5
rejects_usage "$clidir/teaprof" -interval 0
rejects_usage "$clidir/teatrace" -interval 0 -replay "$clidir/bwaves.trace"
rejects_usage "$clidir/teaprof" -tech nope
rejects_usage "$clidir/teatrace" -replay "$clidir/bwaves.trace" -tech nope
rejects_usage "$clidir/teaprof" -top -1
rejects_usage "$clidir/teatrace" -replay "$clidir/bwaves.trace" -top -2
rejects_usage "$clidir/teadiff" -top -1
rejects_usage "$clidir/teaexp" -scale 0 fig5
rejects_usage "$clidir/teaprof" -scale Inf
rejects_usage "$clidir/teatrace" -record "$clidir/nan.trace" -scale NaN
rejects_usage "$clidir/teadiff" -scale -1

# End-to-end benchmark smoke: bench/ is its own module, out of reach of
# `go build ./...`; its smoke test keeps it compiling and running.
make bench-smoke
