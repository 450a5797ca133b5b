GO ?= go

.PHONY: all build test test-benchmark race cover bench bench-json ci fig3 fig4 ablations verify test-faults test-obs lint-obs fuzz-durable fuzz-graph fuzz-conncomp fuzz-treecomp fuzz-engines test-shard fuzz-blockindex test-incr fuzz-incr race-service test-crash test-repl test-failover test-scrub fuzz-repl test-plan fuzz-plan fmt fmt-check vet loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark is its own module (benchmark/go.mod), outside the root
# `go test ./...`; its tests catch breaks in the bicc, plan and service API
# it imports.
test-benchmark:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Full benchmark suite (every table/figure bench plus ablations and
# per-substrate microbenchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's figures (scale relative to the paper's n=1M).
SCALE ?= 0.1
REPS  ?= 3

fig3:
	$(GO) run ./cmd/bccbench -scale $(SCALE) -reps $(REPS) -csv results/fig3.csv | tee results/fig3.txt

fig4:
	$(GO) run ./cmd/bccbench -fig 4 -scale $(SCALE) -reps $(REPS) -csv results/fig4.csv | tee results/fig4.txt

ablations:
	$(GO) test -run xxx -bench 'Ablation' -benchtime 3x . | tee results/ablations.txt

# Randomized cross-validation of all algorithms.
verify:
	$(GO) run ./cmd/bccverify -trials 500

# Fault-isolation suite: the site × kind × algorithm injection matrix, the
# check that every engine-side site fires, the supervisor/fallback tests,
# and the race-enabled service fault hammer.
test-faults:
	$(GO) test -race -run 'Fault|Fallback|Panic|Breaker|Drain|AttemptTimeout' . ./internal/par ./internal/faults ./internal/service

# The benchmark of record (benchmark/, BENCHMARK.json), run by hand: all
# four workloads, one record each with its provenance (nproc, GOMAXPROCS, Go
# version, commit, CPU), correctness, failed ops and every end-to-end metric
# with its sample count. Each run writes the first unused BENCH_N.json and
# never touches older snapshots. The paper's Fig. 3 sweep over engines, p
# and densities is `make fig3`.
bench-json:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	echo "bench-json: writing BENCH_$$n.json"; \
	bash benchmark/run.sh -workload all -o BENCH_$$n.json

# Observability suite: the obs registry/exposition/trace tests (race-enabled,
# including the concurrent Observe-vs-scrape check) and the service's
# /metrics + ?trace=1 integration tests.
test-obs:
	$(GO) test -race ./internal/obs -run . -count=1
	$(GO) test -race -run 'Trace|Metrics' ./internal/service -count=1

# Durability suite. Graphs are the only durable state: the WAL and its
# snapshots. fuzz-durable hammers the WAL and snapshot decoders with ~10s
# of coverage-guided input per target: recovery code must never panic or
# over-read on arbitrary bytes. race-service runs the whole service package
# (durable wiring included) under the race detector. test-crash is the
# kill-and-restart chaos harness: bccd as a subprocess, SIGKILLed at each
# durable.* fault site (WAL append and snapshot write and rename) and at an
# engine site, recovered, verified.
FUZZTIME ?= 10s

fuzz-durable:
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeWAL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)

# Upload decoder suite. fuzz-graph runs the byte decoder of the text and
# DIMACS readers against the bufio.Scanner + strings.Fields readers it
# replaced (kept in internal/graph's tests): on any input, including one
# cut short by a read error, both must return the same edge list or the
# same error text. The seeds include 1 MiB lines, so minimizing a new
# input is capped at a few runs rather than a minute. FuzzRelabel checks
# the engines' local view on arbitrary graphs of up to 256 vertices: the
# BFS numbering is a bijection, the view keeps the edge order under it,
# and its gathered CSR equals ToCSR of its edges. FuzzDuplicateCheck holds
# graph.New's check (ranges, self loops, then one stamp pass over the CSR)
# to the counting-sort duplicate check it replaced, kept in the package's
# tests, on edge lists over at most 256 vertices at p = 1 and 2: the same
# verdict and the same error text.
fuzz-graph:
	$(GO) test ./internal/graph -run FuzzNothing -fuzz FuzzReadText -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/graph -run FuzzNothing -fuzz FuzzReadDIMACS -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/graph -run FuzzNothing -fuzz FuzzRelabel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run FuzzNothing -fuzz FuzzDuplicateCheck -fuzztime $(FUZZTIME)

# Connectivity kernel fuzzing. fuzz-conncomp runs conncomp.Link at p = 1,
# 2 and 4 on arbitrary edge multisets over at most 512 vertices (self-loops,
# duplicates, both orientations), over every edge and under a drawn edge
# mask: the labels must equal UnionFind's over the kept edges, and the
# hooked edges must be kept edges that form a spanning forest of them.
fuzz-conncomp:
	$(GO) test ./internal/conncomp -run FuzzNothing -fuzz FuzzLink -fuzztime $(FUZZTIME)

# Tree kernel fuzzing, on decoded graphs, chains, stars and cycles with
# chords, and forests with isolated vertices of up to 2048 vertices,
# FUZZTIME each. FuzzBFS runs step 1's BFS at p = 1, 2 and 4 under the
# fitted step rule and with every step forced top-down or bottom-up: levels
# and roots must equal a sequential queue BFS's, and each parent must sit
# one level up over an edge that joins the two. FuzzLowHigh runs both
# seedings of step 4 (from an edge list and from the CSR) at p = 1, 2 and 4
# under BFS, work-stealing and SV trees: low and high must equal the
# parent-pointer oracle kept in the package's tests. FuzzNumber runs the
# step 3 numbering kernel on BFS and work-stealing forests at p = 1, 2 and
# 4: parents, preorder, sizes and roots must equal the prefix-sum
# computations over the same forest's DFS-order tour.
fuzz-treecomp:
	$(GO) test ./internal/spantree -run FuzzNothing -fuzz FuzzBFS -fuzztime $(FUZZTIME)
	$(GO) test ./internal/treecomp -run FuzzNothing -fuzz FuzzLowHigh -fuzztime $(FUZZTIME)
	$(GO) test ./internal/treecomp -run FuzzNothing -fuzz FuzzNumber -fuzztime $(FUZZTIME)

# Engine fuzzing. fuzz-engines holds every parallel engine (and, on its own
# input mix, fast-bcc) to byte-identical EdgeComponent labels against the
# sequential oracle, each fuzzer for FUZZTIME; both also run every engine
# on a local view of their input, built directly since they sit below the
# size floor, against sequential on the original.
fuzz-engines:
	$(GO) test . -run FuzzNothing -fuzz FuzzBiconnectedComponents -fuzztime $(FUZZTIME)
	$(GO) test . -run FuzzNothing -fuzz FuzzFastBCC -fuzztime $(FUZZTIME)

# Per-block suite. test-shard runs the block index's differential harness
# (the index, BlockCutTree and ComponentSubgraph must equal the
# slice-of-slices reference kept in internal/core's tests byte for byte,
# across 3 graph families × every engine), its block-cut invariant property
# tests, the shard.build fault-matrix rows, and the service's per-block
# tests (the HTTP differential with its eviction and mutation legs, index
# reuse, build-once, budget and fault behaviour) — race-enabled.
# fuzz-blockindex checks the index against the same reference on arbitrary
# vertex counts, edge multisets and labelings; like fuzz-graph it caps
# minimizing a new input at a few runs.
test-shard:
	$(GO) test -race -run 'BlockCut|BlockIndex|IndexEqualsReference|Invariants' ./internal/core -count=1
	$(GO) test -race -run 'Shard' ./internal/service ./internal/faults -count=1

fuzz-blockindex:
	$(GO) test ./internal/core -run FuzzNothing -fuzz FuzzBlockIndex -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# Incremental suite. test-incr runs the planner's differential harness
# (every mutation sequence must leave labels byte-equal to a from-scratch
# run), the mutation endpoint's differential harness (3 graph families ×
# every engine, byte-equal JSON answers vs a server that uploaded the final
# graph), and the incr rows of the fault matrix — all race-enabled.
# fuzz-incr hammers the WAL delta-record decoder, the planner's Apply with
# arbitrary delta sequences, and graph.ApplyDeltas — the one function the
# primary, WAL replay and the standby apply a batch with — against a naive
# reference that applies one delta at a time by linear search.
test-incr:
	$(GO) test -race ./internal/incr -count=1
	$(GO) test -race -run 'Mutation|MutatedGraph|DeleteThenReupload' ./internal/service -count=1
	$(GO) test -race -run 'FaultMatrixIncr' ./internal/faults -count=1

fuzz-incr:
	$(GO) test ./internal/durable -run FuzzNothing -fuzz FuzzDecodeDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/incr -run FuzzNothing -fuzz FuzzApplyDeltas -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run FuzzNothing -fuzz FuzzApplyDeltas -fuzztime $(FUZZTIME)

race-service:
	$(GO) test -race ./internal/service ./internal/durable -count=1

test-crash:
	$(GO) test ./cmd/bccd -run 'Crash|SIGTERM' -count=1 -v

# Replication suite. test-repl runs the protocol/stream tests (ordering,
# ring-overflow snapshot resync, gap detection, quorum degrade), the router
# tests (hedging, most-caught-up promotion, mutation refusal), and the
# service-level differential harness: a warm standby must answer every graph
# family byte-equal to its primary under every engine, refuse writes
# read-only, and leave a data directory that is a valid PR 4 recovery image
# — all race-enabled. The delete-vs-mutation race test rides along.
test-repl:
	$(GO) test -race ./internal/repl -count=1
	$(GO) test -race -run 'Replication|Promotion|StandbyWAL|PrimaryAlone|DeleteRacesMutation' ./internal/service -count=1

# Node-kill chaos harness: primary and standby bccd as separate processes,
# the primary SIGKILLed at the repl.ship/repl.ack fault sites mid-batch
# (and the standby at repl.promote mid-promotion), then router-driven
# failover asserted to serve every acked record byte-identical with the
# un-acked tail handled per site.
test-failover:
	$(GO) test ./cmd/bccd -run 'NodeKill' -count=1 -v

# Self-healing storage suite. test-scrub runs (race-enabled) the KindCorrupt
# injection rows (faults, WAL and snapshot image checks), the store's scrub
# cycle (budget, cursor, serialization, background loop, compaction retry,
# the repair that waits out a background compaction), the ring records
# checked as they ship (clean ones ship; a rotten one never does, and the
# follower resyncs),
# the service-level repair, retry, unlistable-directory and /healthz tests,
# the boot over data directories older builds left, and the bit-rot chaos
# harness: bccd subprocesses with real bytes flipped in WAL segments and
# snapshots, scrubbed, and proven byte-identical afterward.
# fuzz-repl hammers the replication frame decoders like fuzz-durable does
# the durable codecs: arbitrary wire bytes must error, never panic, and
# never allocate far ahead of the stream.
test-scrub:
	$(GO) test -race -run 'Corrupt|CleanRing|Scrub|BootIgnores|CheckWALImage|CheckSnapshotImage' ./internal/faults ./internal/durable ./internal/repl ./internal/service -count=1
	$(GO) test -race -run 'Oracle|ReconstructRejects' . -count=1
	$(GO) test ./cmd/bccd -run 'BitRot' -count=1 -v

# Planner suite. test-plan runs (race-enabled) the plan package's golden
# decision table and breaker-filter property tests; the service tests:
# sequential at a pinned p=1, ?explain=1 echo-vs-dispatch with identical
# repeats routed identically, open-breaker avoidance, the auto-vs-fixed
# differential harness (auto answers byte-equal to every fixed engine's
# over BCC, incr mutations and the per-block endpoints), the bicc_plan_*
# decision counters, features that follow mutations and re-uploads and a
# plan step that allocates nothing; and the root package's auto tests: the
# table's picks, library ResolveAlgorithm naming the engine bccd's
# ?explain=1 dispatches, and a resolve that allocates nothing. fuzz-plan
# drives Decide with arbitrary counts, pinned procs, host worker counts and
# breaker masks: every decision total, deterministic, allowed, within its
# procs range, at the head of a score-sorted explain slate and, when
# pinned with no breaker open, the engine Pick names.
test-plan:
	$(GO) test -race ./internal/plan -count=1
	$(GO) test -race -run 'Plan' ./internal/service -count=1
	$(GO) test -race -run 'Auto|Resolve' . -count=1

fuzz-plan:
	$(GO) test ./internal/plan -run FuzzNothing -fuzz FuzzDecide -fuzztime $(FUZZTIME)

fuzz-repl:
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzReadMsg$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzReadMsgAllocationBound -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseHello -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseSnapBegin -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseU64 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repl -run FuzzNothing -fuzz FuzzParseU32 -fuzztime $(FUZZTIME)

# Static analysis for the obs package beyond go vet. staticcheck is optional:
# the target degrades to a notice when the tool isn't installed.
lint-obs:
	$(GO) vet ./internal/obs
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/obs; \
	else \
		echo "lint-obs: staticcheck not installed, skipped"; \
	fi

# The gate run before merging: static checks (gofmt, go vet), race-clean
# tests, the all-engines-vs-oracle randomized check (verify), the
# fault-isolation suite, the observability suite, the durability suite
# (WAL and snapshot decoder fuzzing, race-enabled service tests, crash
# harness), the upload decoder's differential fuzzing, the connectivity
# kernel's fuzzing against union-find, the tree kernels' fuzzing (the BFS
# against a queue BFS, low-high against its oracle, numbering against the
# tour's), the engines'
# byte-identity fuzzing, the per-block suite
# (differential harness + block index fuzzing), the incremental suite
# (mutation differential harness + delta fuzzing), the replication suite
# (standby differential harness + multi-process node-kill failover), the
# self-healing suite (store scrub cycle + ring check on ship + WAL/snapshot
# bit-rot chaos harness + repl frame fuzzing), the planner suite (golden
# decision table + differential harness + decision fuzzing), and the
# benchmark module's tests.
ci: fmt-check vet lint-obs race verify test-faults test-obs fuzz-durable fuzz-graph fuzz-conncomp fuzz-treecomp fuzz-engines test-shard fuzz-blockindex test-incr fuzz-incr race-service test-crash test-repl test-failover test-scrub fuzz-repl test-plan fuzz-plan test-benchmark

fmt:
	gofmt -l -w .

# Fails, listing the offenders, when any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The benchmark is its own module, which the root `go vet ./...` skips.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Non-test Go lines outside the benchmark module: the size figure the
# ROADMAP's entries quote.
loc:
	@git ls-files '*.go' ':!:benchmark/*' ':!:*_test.go' | xargs cat | wc -l

clean:
	$(GO) clean ./...
