GO      ?= go
BINDIR  := bin
TEALINT := $(BINDIR)/tealint

.PHONY: all build test race vet lint check chaos fuzz bench bench-smoke bench-codec serve smoke load clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

$(TEALINT): FORCE
	$(GO) build -o $(TEALINT) ./cmd/tealint

.PHONY: FORCE
FORCE:

# lint runs the TEA invariant suite in both modes — standalone over the
# non-test source and through `go vet -vettool` to cover test files —
# then smokes the machine-readable mode: `tealint -json` output must
# parse back into the checker's wire type and be empty.
lint: $(TEALINT)
	$(TEALINT) ./...
	$(GO) vet -vettool=$(CURDIR)/$(TEALINT) ./...
	$(TEALINT) -json ./... | $(GO) run ./scripts/jsonsmoke

check:
	./scripts/check.sh

# chaos runs the fault-injection sweeps: every mutated trace and
# pathological program must yield byte-identical profiles or a typed
# error — never a crash, hang, or silently wrong result — and the
# -disk sweep attacks the job journal (torn tail, bit flip, ENOSPC,
# EIO, slow I/O) expecting recovery or degraded mode, never wrong
# bytes. Fixed seed, so a failure reproduces exactly.
chaos:
	$(GO) build -o $(BINDIR)/teachaos ./cmd/teachaos
	$(BINDIR)/teachaos -seed 1 -workload all -scale 0.05
	$(BINDIR)/teachaos -disk

# fuzz gives each robustness fuzz target a short budget (CI smoke; run
# longer locally with go test -fuzz).
fuzz:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReplay -fuzztime=10s
	$(GO) test ./internal/pics -run='^$$' -fuzz=FuzzProfileJSON -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzSubmit -fuzztime=10s

# serve builds and starts the profiling service on its default port
# (flags via SERVE_FLAGS, e.g. make serve SERVE_FLAGS="-addr :9000").
# docs/OPERATIONS.md is the operator guide.
serve:
	$(GO) build -o $(BINDIR)/teaserve ./cmd/teaserve
	$(BINDIR)/teaserve $(SERVE_FLAGS)

# smoke runs the end-to-end server checks against a freshly built
# binary: every endpoint, byte-identical profiles, clean SIGTERM —
# then the crash-recovery smoke (SIGKILL mid-run, restart on the same
# journal, byte-identical recovered results).
smoke:
	$(GO) build -o $(BINDIR)/teaserve ./cmd/teaserve
	$(GO) run ./scripts/servesmoke -bin $(BINDIR)/teaserve
	$(GO) run ./scripts/crashsmoke -bin $(BINDIR)/teaserve

# load drives a load test against an already-running server (start one
# with `make serve SERVE_FLAGS="-queue 2048 -quota-rate 0"`) and writes
# the BENCH_<date>_serve.json latency/dedup snapshot.
load:
	$(GO) build -o $(BINDIR)/teaload ./cmd/teaload
	$(BINDIR)/teaload $(LOAD_FLAGS)

# bench runs the figure/table benchmark harness with -benchmem and
# writes BENCH_<date>.json (see scripts/bench.sh for BENCHTIME/LABEL).
bench:
	./scripts/bench.sh

# bench-smoke runs the end-to-end benchmark's smoke test at a tiny
# size. bench/ is its own module, so `go build ./...` never reaches it;
# this keeps it compiling against the packages it calls.
bench-smoke:
	cd bench && $(GO) test .

# bench-codec is the committed evidence for trace format v4: encode and
# decode versus the retired v3 codec over the same pre-recorded event
# sequence (no simulation in the timed loop), plus the suite-wide byte
# totals. teadiff gates the deterministic metrics — byte totals, record
# counts, compression ratios, and the v4 digest halves must be
# bit-identical to the committed baseline; ns/op carries the
# encode/decode throughput story and is informational.
CODEC_BASELINE ?= BENCH_2026-08-08_codec.json
BENCH_DATE     := $(shell date +%Y-%m-%d)
bench-codec:
	$(GO) test ./internal/trace -run='^$$' -bench='^BenchmarkCodec' -benchmem -benchtime=10x -timeout 30m \
		| $(GO) run ./cmd/teabench -label codec -o BENCH_$(BENCH_DATE)_codec.json
	$(GO) run ./cmd/teadiff -mode bench \
		-baseline $(CODEC_BASELINE) -current BENCH_$(BENCH_DATE)_codec.json

clean:
	rm -rf $(BINDIR)
