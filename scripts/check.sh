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

# End-to-end benchmark smoke: bench/ is its own module, out of reach of
# `go build ./...`; its smoke test keeps it compiling and running.
make bench-smoke
