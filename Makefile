GO ?= go

# fuzz-smoke budget per fuzz target; raise for a longer local fuzzing pass.
FUZZTIME ?= 10s

# Packages holding native Fuzz* targets (decoders and frame parsers, and the
# differential targets that hold a rewritten kernel to its frozen reference).
FUZZ_PKGS = ./internal/wire ./internal/delta ./internal/huffman \
	./internal/collection ./internal/rsync ./internal/vcdiff \
	./internal/merkle ./internal/pubsig ./internal/cdc \
	./internal/core ./internal/rolling

.PHONY: all build test vet race check fuzz-smoke loc bench bench-check bench-cache bench-store bench-mux bench-manifest bench-pub bench-cdc api api-check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite — including the transport fault-injection tests
# (internal/transport), the collection-level stall/sever/cancellation tests
# (internal/collection) and the session-layer shutdown/retry acceptance
# tests (session_test.go) — under the race detector.
race:
	$(GO) test -race ./...

# check additionally sweeps the signature-cache layers (sigcache, dirio,
# collection), the observability layer (obs: shared metrics registries and
# tracers must stay race-free), the benchmark harness (bench: drives
# multiplexed sessions concurrently) and the pooled scratch that parallel file
# workers share (delta: the match-finder; core: gather buffers and scan
# shards) under vet and the race detector on their own, so bugs there fail
# fast with a focused report before the full suite runs.
check: vet race fuzz-smoke api-check
	$(GO) vet ./internal/sigcache/ ./internal/dirio/ ./internal/collection/ ./internal/store/ ./internal/obs/ ./internal/bench/ ./internal/pubsig/ ./internal/cdc/ ./internal/corpus/ ./internal/delta/ ./internal/core/
	$(GO) test -race ./internal/sigcache/ ./internal/dirio/ ./internal/collection/ ./internal/store/ ./internal/obs/ ./internal/bench/ ./internal/pubsig/ ./internal/cdc/ ./internal/corpus/ ./internal/delta/ ./internal/core/

# api-check diffs the package's exported surface against the committed
# API.txt; regenerate with `make api` after an intentional API change.
api-check:
	$(GO) run ./cmd/apidiff -check API.txt

api:
	$(GO) run ./cmd/apidiff -write API.txt

# fuzz-smoke runs every native fuzz target for FUZZTIME each (the toolchain
# allows only one -fuzz pattern per invocation, hence the loop). The corpus
# seeds include the regression inputs for the varint and frame-decoder
# fixes, so this doubles as their regression gate.
fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# loc prints the code lines of every package: Go lines outside _test.go files
# that are neither blank nor only a comment. This is the one definition of the
# "net non-test LOC" ROADMAP.md counts (a block comment's inner lines count as
# code; the tree has none outside tests).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		files=$$(ls $$dir/*.go | grep -v _test.go); \
		[ -n "$$files" ] || continue; \
		printf '%7d  %s\n' $$(cat $$files | grep -vcE '^\s*(//|$$)') $$pkg; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

# bench runs the Go benchmarks once each, then regenerates BENCH_scan.json —
# the scan-scaling report (serial vs parallel client map-construction
# wall-clock and bytes on the wire; see internal/bench/parallel.go) — plus
# BENCH_cache.json, BENCH_store.json and BENCH_mux.json via their targets.
# GOMAXPROCS is pinned to the host's CPU count (unless already set) so the
# scan sweep measures real parallelism rather than a clamped-to-1 runtime.
NPROC := $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)
bench: export GOMAXPROCS ?= $(NPROC)
bench: bench-cache bench-store bench-mux bench-manifest bench-pub bench-cdc
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(GO) run ./cmd/msbench -scan-json BENCH_scan.json

# bench-check is the regression gate over the repository's benchmark
# (BENCHMARK.json, benchmark/): BENCH_BASE is checked out into a temporary git
# worktree, base and working tree each run every workload BENCH_RUNS times with
# the runs taking turns (see cmd/benchcheck), and `go run ./benchmark -compare`
# judges the two records. Exit 1 on any "worse" row. Ten rounds take about 40
# minutes; fewer than four leave every time and allocation metric "unresolved".
BENCH_RUNS ?= 10
BENCH_SEED ?= 42
BENCH_BASE ?= HEAD
bench-check:
	$(GO) run ./cmd/benchcheck -runs $(BENCH_RUNS) -seed $(BENCH_SEED) -base $(BENCH_BASE)

# bench-cache regenerates BENCH_cache.json: repeat sync of an unchanged tree
# with the signature cache off, cold and warm — wall-clock, bytes hashed,
# allocations, and the wire-determinism check (see internal/bench/cache.go).
bench-cache:
	$(GO) run ./cmd/msbench -cache-json BENCH_cache.json

# bench-store regenerates BENCH_store.json: cold full sync versus
# journal-delta sync from one and five versions back on a 10k-file corpus
# (see internal/bench/store.go).
bench-store:
	$(GO) run ./cmd/msbench -store-json BENCH_store.json

# bench-manifest regenerates BENCH_manifest.json: flat manifest versus
# merkle-tree change detection (cold, and cached+speculative) at ~1% churn on
# a wide tiny-file corpus, plus a rename-heavy corpus without and with
# cross-file matching (see internal/bench/manifest.go).
bench-manifest:
	$(GO) run ./cmd/msbench -manifest-json BENCH_manifest.json

# bench-pub regenerates BENCH_pub.json: N readers synchronizing from one
# server — interactive protocol sessions versus published signature artifacts
# over HTTP (cold, behind a warm CDN-style cache, and riding the /since delta
# path), every reader converge-verified (see internal/bench/pub.go).
bench-pub:
	$(GO) run ./cmd/msbench -pub-json BENCH_pub.json

# bench-cdc regenerates BENCH_cdc.json: CDC map construction versus recursive
# halving over the adversarial boundary-shift corpora (append-heavy logs,
# database dumps, VM images, binary releases), total wire bytes per arm with
# every arm convergence-verified (see internal/bench/cdc.go).
bench-cdc:
	$(GO) run ./cmd/msbench -cdc-json BENCH_cdc.json

# bench-mux regenerates BENCH_mux.json: per-file sessions versus one lockstep
# session versus multiplexed streams at widths 4/16/64 over a 10k-small-file
# corpus, with wall-clock modeled at 50–200 ms RTT (see internal/bench/mux.go).
bench-mux:
	$(GO) run ./cmd/msbench -mux-json BENCH_mux.json

clean:
	$(GO) clean ./...
