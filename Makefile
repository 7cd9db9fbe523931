# Mirrors .github/workflows/ci.yml exactly, so `make check` locally is the
# same bar the CI workflow enforces.

GO ?= go
CHAOS_SEEDS ?= 1,2,3
CHAOS_TIMEOUT ?= 10m

# The gated benchmark set: the graph stack, the messaging runtime's sync
# call and packing benchmarks, and the trunk's own Put, Get, View and
# §6.1 expansion benchmarks. Archived, baselined and gated in CI.
BENCH_PKGS = ./internal/graph/ ./internal/graph/view/ \
	./internal/compute/bsp/ ./internal/compute/traversal/ \
	./internal/memcloud/fetch/ ./internal/memcloud/store/ \
	./internal/msg/ ./internal/trunk/
BENCH_TIME ?= 2s
BENCH_JSON ?= bench_new.json

.PHONY: all build vet fmt-check lint-ctx test movies race chaos chaos-failover \
	bench-smoke scored-smoke check bench bench-json bench-baseline bench-compare loc

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# Cancellation, allocation and reachability conventions: no time.After in
# internal/ selects (timer leak), exported blocking APIs in
# msg/memcloud/compute take ctx first, no unannotated make([]byte, ...) on
# the zero-copy hot paths (trunk, msg, memcloud and its batch, fetch and
# store pipelines), and every exported function, method and type under
# internal/ is referenced by non-test code in internal/, cmd/, examples/
# or benchmark/, or is marked //reach:test-seam <why>.
lint-ctx:
	$(GO) run ./cmd/lintctx

test:
	$(GO) test ./...

# The one program that writes a cell in place end to end: TSL's generated
# UseMovie accessor through Slave.Update. Fails unless the write is seen.
movies:
	$(GO) run ./examples/movies | grep 'after accessor write: The Matrix year = 2000$$'

race:
	$(GO) test -race ./internal/... ./cmd/...

# Fault-injecting transport tests on the CI seed set; override the env
# var to replay one failing seed (CHAOS_SEEDS=7 make chaos). The nightly
# workflow widens both knobs: CHAOS_SEEDS=1..10, CHAOS_TIMEOUT=20m.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run Chaos \
		-timeout $(CHAOS_TIMEOUT) ./internal/...

# The failover control-plane subset alone: double kills inside one
# detector window and a leader isolated mid-commit (between the TFS
# table write and the broadcast). `make chaos` subsumes this (-run Chaos
# matches ChaosFailover); this target exists for fast iteration on
# reconfiguration bugs.
chaos-failover:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run ChaosFailover \
		-timeout $(CHAOS_TIMEOUT) ./internal/memcloud/ ./internal/cluster/

# One iteration of every benchmark: proves benchmark code still compiles
# and runs; measures nothing.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The scored benchmark (BENCHMARK.json) is its own module under
# benchmark/, invisible to ./... above: vet it, run its tests and one
# smoke pass, so an API slip in a package it links by exported name
# (fetch, store, memcloud, traversal) fails here and not in a scoring run.
scored-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark trinity/benchmark -smoke

check: build vet fmt-check lint-ctx test movies race chaos bench-smoke scored-smoke

# Real benchmark runs: the obs hot paths plus the graph stack — view CSR
# scans/builds, BSP supersteps and multi-hop traversal — and the trunk.
# The gated results go to $(BENCH_JSON) (git-ignored scratch) via cmd/benchjson;
# the one committed archive is the gate baseline, BENCH_baseline.json.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=$(BENCH_TIME) ./internal/obs/
	$(MAKE) bench-json

# The gated benchmarks alone, straight to JSON. -benchmem records
# B/op and allocs/op: allocs/op is what the compare gate checks (time is
# the scored benchmark's job). -p 1 keeps the package
# test binaries sequential: several of these spin up multi-machine
# simulated clouds, and concurrent binaries contend for cores badly
# enough to swing ns/op by 2x either way.
bench-json:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCH_TIME) -p 1 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# Refresh the committed regression-gate baseline after an intentional
# change in allocations, then commit BENCH_baseline.json.
bench-baseline:
	$(MAKE) bench-json BENCH_JSON=BENCH_baseline.json

# Local version of the CI gate: fresh run vs committed baseline.
bench-compare:
	$(MAKE) bench-json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json $(BENCH_JSON)

# The ROADMAP's size metric: non-blank, non-comment lines of non-test Go
# in internal/ and cmd/.
loc:
	@find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat \
		| grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
