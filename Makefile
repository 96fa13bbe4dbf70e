GO      ?= go
BINDIR  := bin
TEALINT := $(BINDIR)/tealint

.PHONY: all build test race vet lint check chaos fuzz bench-smoke serve smoke load clean

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

# bench-smoke runs the end-to-end benchmark's smoke test at a tiny
# size. bench/ is its own module, so `go build ./...` never reaches it;
# this keeps it compiling against the packages it calls.
bench-smoke:
	cd bench && $(GO) test .

clean:
	rm -rf $(BINDIR)
