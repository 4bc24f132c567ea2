GO ?= go

# fuzz-smoke budget per fuzz target; raise for a longer local fuzzing pass.
FUZZTIME ?= 10s

# Packages holding native Fuzz* targets (decoders and frame parsers, and the
# differential targets that hold a rewritten kernel to its frozen reference).
FUZZ_PKGS = ./internal/wire ./internal/delta ./internal/huffman \
	./internal/collection ./internal/rsync ./internal/vcdiff \
	./internal/merkle ./internal/pubsig ./internal/cdc \
	./internal/core ./internal/rolling ./internal/filelist \
	./internal/sigcache ./internal/store

.PHONY: all build test vet race check fuzz-smoke cross test-386 loc bench bench-check api api-check clean

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

check: vet race fuzz-smoke api-check cross test-386

# cross builds and vets the module for the platforms the build-tag splits
# (internal/dirio's descriptor primitives on every Linux architecture against
# its path primitives elsewhere, its fstatat calls and syncfs numbers) must
# keep compiling on: 32-bit Linux, arm64, two Linux architectures that stat
# through the syscall package (mips64le, loong64), two BSD-derived systems
# and Windows. ./benchmark is built and vetted too, except on Windows, which
# has no syscall.Getrusage.
CROSS_TARGETS = linux/386 linux/arm64 linux/mips64le linux/loong64 darwin/arm64 freebsd/amd64 windows/amd64
cross:
	@set -e; for target in $(CROSS_TARGETS); do \
		echo "cross $$target"; \
		pkgs=". ./cmd/... ./internal/..."; \
		[ $$target = windows/amd64 ] || pkgs="$$pkgs ./benchmark"; \
		GOOS=$${target%/*} GOARCH=$${target#*/} $(GO) build $$pkgs; \
		GOOS=$${target%/*} GOARCH=$${target#*/} $(GO) vet $$pkgs; \
	done

# test-386 runs the codec and engine tests as 32-bit code, where an int is 32
# bits: a value the wire carries in more (a zigzagged reference delta, a
# distance code) must be range-checked before it becomes an int. cross only
# builds and vets 32-bit code; this runs it.
TEST386_PKGS = ./internal/bitio ./internal/huffman ./internal/delta ./internal/md4 \
	./internal/rolling ./internal/gtest ./internal/cdc ./internal/core \
	./internal/merkle ./internal/wire ./internal/filelist ./internal/collection
test-386:
	GOARCH=386 $(GO) test $(TEST386_PKGS)

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
# code; the tree has none outside tests). The last line, shipping, is the same
# count over the packages the msync binary and the library link.
loc:
	@count() { while read pkg dir; do \
		files=$$(ls $$dir/*.go | grep -v _test.go); \
		[ -n "$$files" ] || continue; \
		printf '%7d  %s\n' $$(cat $$files | grep -vcE '^\s*(//|$$)') $$pkg; \
	done; }; \
	$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | count | \
		awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'; \
	$(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}} {{.Dir}}{{end}}' ./cmd/msync . | count | \
		awk '{ total += $$1 } END { printf "%7d  shipping\n", total }'

# bench runs every Go micro-benchmark once as a smoke test; measurements come
# from bench-check.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

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

clean:
	$(GO) clean ./...
