GO ?= go
CORPUS ?= wikitables

.PHONY: build vet lint test race batch-cpu portable fuzz race-cluster failover-stress check examples bench-smoke bench-e2e bench-json bench-kernels trace-smoke segment-churn-smoke netcluster-smoke loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: staticcheck when it is on PATH (CI installs
# it), vet alone otherwise — the build must not fetch tools implicitly.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; go vet only"; \
	fi

test:
	$(GO) test ./...

# The observability layer is all lock-free atomics and RWMutex-guarded
# caches; race keeps it honest.
race:
	$(GO) test -race ./...

# Focused race pass over the scatter-gather layer: the cluster router's
# concurrent fan-out and the replica groups under it. Fast enough to run
# on every change to either package.
race-cluster:
	$(GO) test -race ./internal/cluster/... ./internal/netcluster/

# The timing-based tests of the replica Group's failover loop (attempt
# timeout, back-off, final errors, a hung replica, a whole set down) and of
# the search streams under it (a cancelled exchange's stream never pooled,
# a killed replica's streams failing over, the pool's cap, the deadline
# budget); ten race-checked rounds shake out an ordering that one round
# lets through.
failover-stress:
	$(GO) test -race -count=10 -run 'Failover|FailsOver|HungReplica|WholeSetDown|NonRetryable|Stream' ./internal/netcluster/

# Everything off the amd64 assembly path still has to build and agree:
# arm64 compiles every package against the stubs in dotbatch_generic.go,
# pq_generic.go and sgd_generic.go, and the purego tag runs the vec tests
# (TestAddScaledMatchesScalar among them: the encoder's pooling kernel
# against its scalar loop), the pq,
# kmeans (whose bit-identity test reaches vec's row body), umap and hdbscan
# tests, the HNSW golden graphs, the PQ-coded vectordb
# golden graphs, the scan's identity with the exhaustive
# walk (LookupBatch against Lookup's Go body), the CTS build golden, CTS's
# identity with its exact form, the filtered ANNS/CTS rankings golden and the
# saved ANNS and CTS engine images' rankings — the same constants — through
# the pure-Go kernel bodies on this machine. ExS's
# centroid filter rests on a rounding bound, so its bound, oracle-
# equivalence and block-cost tests run on those bodies too: the binary16
# centroid rows are scored by vec.DotHalf's Go body, the one arm64 and
# CPUs without AVX2/FMA/F16C run (the bound must also hold for arm64's
# fused multiply-adds, which round fewer times, not more).
portable:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/vec ./internal/pq ./internal/umap
	$(GO) test -tags purego ./internal/vec ./internal/hnsw ./internal/pq ./internal/kmeans ./internal/umap ./internal/hdbscan
	$(GO) test -tags purego -run 'SerialBuildGraphGolden|ScanMatchesExhaustiveWalk' ./internal/vectordb
	$(GO) test -tags purego -run 'CentroidBound|FilterVerify|ExSMatchesOracle|ExSBatchBitIdentical|ExSCostIndependentOfBlock|SegmentStoreChurnEquivalence|CTSBuildGolden|CTSBatchMatchesOracle|FilteredRankingsGolden' ./internal/core
	$(GO) test -tags purego -run 'LoadsParentCommitEngineImage' .

# A few seconds of coverage-guided search per fuzz target in the tree: the
# centroid bound, the engine image reader (LoadEngine, the one decoder a
# file on disk reaches) and the embedded-federation image inside it, the
# coordinator↔shard wire frame and the stream envelope around it, the CSV reader, the text pipeline (the
# tokenizer against its reference), the traceparent parser, and the HTTP
# search codec: the request decoder against encoding/json's Decoder and the
# search and batch response encoders against its Encoder, byte for byte.
# The checked-in corpora under testdata/fuzz run with the ordinary tests.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCentroidBound$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreEmbedded$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime 5s ./internal/netcluster
	$(GO) test -run '^$$' -fuzz '^FuzzStreamEnvelope$$' -fuzztime 5s ./internal/netcluster
	$(GO) test -run '^$$' -fuzz '^FuzzLoadEngine$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzStem$$' -fuzztime 5s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 5s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzSearchRequest$$' -fuzztime 5s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzSearchResponse$$' -fuzztime 5s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzBatchResponse$$' -fuzztime 5s ./internal/httpapi

# Every method's one query body splits a block over GOMAXPROCS workers
# (ExS's scan, ANNS's walks and rank, CTS's cluster probes and rank) and
# reuses walk, ADC and rank scratch across queries; a single query is a
# block of one through the same body. The batch, single-query and filtered
# tests are race-checked at 1, 2 and 4 workers, so the chunking is tested
# at more than the host's core count, and so is the encoder's token table,
# which every worker's queries read and fill, and vectordb's one deferred
# link, which the first walks and GraphStats calls of a fresh collection
# race for.
batch-cpu:
	$(GO) test -race -cpu 1,2,4 -run 'Batch|SearchBatch|Table|SearchContext|Filter|Sources|ConcurrentLinkOnWalk' ./internal/core ./internal/vectordb ./internal/pq ./internal/embed .

check: lint race batch-cpu portable fuzz

# Run every example end to end: go build only proves they compile, so an
# example that fails at run time (log.Fatal on an error) passes it. Each
# must exit 0.
examples:
	@for d in ./examples/*/; do \
		echo "== go run $$d"; \
		$(GO) run "$$d" >/dev/null || exit 1; \
	done

# One-iteration pass over every microbenchmark (HNSW build, k-means, vector
# kernels, ...): catches benchmarks that no longer compile or crash, without
# the cost of real measurement.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/...
	$(GO) run ./cmd/semdisco-bench -corpus $(CORPUS) -scale 0.05 -dim 96 -train=false -json /dev/null

# End-to-end benchmark smoke: the repeatable HTTP benchmark BENCHMARK.json
# declares (bench/), one short untraced run of each of its four workloads.
# Each builds ./bench, serves on loopback, drives every phase and checks
# answers against the oracle, so it catches a benchmark that no longer
# compiles against the library or an answer that changed. exs-scan executes
# no hnsw, pq or vectordb code; anns-graph's set-up is an HNSW + PQ build
# and cts-cluster's a UMAP + HDBSCAN one, so a broken index, reduction or
# clustering build fails the benchmark's correctness gate here; coord-fanout
# sends its queries through a NetCoordinator's HTTP hops, the Router merge
# and the shard wire codec into the same gate.
bench-e2e:
	bash bench/run.sh --workload exs-scan --seed 7 --seconds 2 --trace 0
	bash bench/run.sh --workload anns-graph --seed 7 --seconds 2 --trace 0
	bash bench/run.sh --workload cts-cluster --seed 7 --seconds 2 --trace 0
	bash bench/run.sh --workload coord-fanout --seed 7 --seconds 2 --trace 0

# Kernel micro-benchmarks: the single-pair Dot/L2Sq kernels beside their
# scalar reference, the batched DotBatch/L2SqBatch kernels against repeated
# single-query Dot calls, ExS's binary16 centroid kernel DotHalf (1 and 4
# queries over exs-scan's 2,400 × 256 rows, in GB/s, beside its Go body),
# the bounded top-k selection, PQ's 4-dim kernels in
# the ANNS index's shape (code-to-code distance, table rows, ADC lookup, the
# scan's eight-slot ADC over the code arena beside per-slot lookups), one
# subspace's k-means training in that shape beside the per-pair loop it
# replaced, the serial HNSW + PQ build that runs on them, one scan in
# anns-graph's shape split into its table, lookups and select, a query
# walked beside the same query scanned from 1k to 32k points (where the
# scan bound comes from), and the pieces of the CTS
# build (the SGD's pow and its three 16-dim steps beside their Go bodies, a
# whole UMAP fit, HDBSCAN's core-distance pass). The
# transcript lands in benchrun_kernels.txt so kernel regressions show up in
# review diffs.
bench-kernels:
	{ $(GO) test -run=^$$ -bench 'Dot|L2Sq|TopK|FullSort' -benchtime=2s ./internal/vec/ && \
	  $(GO) test -run=^$$ -bench 'CodeDist|Tables256|ADCLookup' -benchtime=2s ./internal/pq/ && \
	  $(GO) test -run=^$$ -bench 'Run512x4K256' -benchtime=2s ./internal/kmeans/ && \
	  $(GO) test -run=^$$ -bench 'BuildPQ' -benchtime=3x ./internal/vectordb/ && \
	  $(GO) test -run=^$$ -bench 'Scan$$' -benchtime=2s ./internal/vectordb/ && \
	  $(GO) test -run=^$$ -bench 'SearchPlan' -benchtime=1s ./internal/vectordb/ && \
	  $(GO) test -run=^$$ -bench 'Pow32|SGD' -benchtime=2s ./internal/umap/ && \
	  $(GO) test -run=^$$ -bench 'Fit3200x256' -benchtime=3x ./internal/umap/ && \
	  $(GO) test -run=^$$ -bench 'CoreDistances4096x16' -benchtime=5x ./internal/hdbscan/; } | tee benchrun_kernels.txt

# Segment-store churn smoke: race-checked delete/update/add churn against
# the engine and segment store, pinning that a churned, compacted index
# ranks bit-identically to one built fresh from the surviving corpus and
# that searches never block or degrade while a compaction swaps segments.
segment-churn-smoke:
	$(GO) test -race -run 'TestEngineChurnEquivalence|TestEngineSearchNonBlockingDuringCompaction' .
	$(GO) test -race -run 'TestSegmentStoreChurnEquivalence|TestSegmentStoreSearchDuringCompaction|TestSegmentStoreConcurrentChurn' ./internal/core/

# Networked-cluster smoke: replica sets of shard servers on loopback HTTP
# behind a replicated coordinator, race-checked end to end. Pins the wire
# protocol and replica failover (hung replica, whole set down, malformed
# responses), the bit-identical-to-single-engine merge over the wire, a
# replica killed mid-run leaving every query answered, and the coordinator
# mode of the HTTP API (one subtest of every two-mode TestServer* suite,
# plus the search-during-a-stuck-write test).
netcluster-smoke:
	$(GO) test -race ./internal/netcluster/
	$(GO) test -race -run 'TestNetShard|TestNetCluster' .
	$(GO) test -race -run 'TestServer' ./internal/httpapi/

# End-to-end tracing smoke: serve a freshly generated corpus as two shard
# servers behind a coordinator with every trace retained, run one
# search, and assert the span tree (remote shard spans grafted) comes back
# from /v1/debug/traces/{id}, its exemplar shows up on the OpenMetrics
# scrape, and the slow, costly and journal views of the store name it.
# Needs curl and jq.
trace-smoke:
	sh ./scripts/trace-smoke.sh

# Machine-readable benchmark report (build time, latency quantiles,
# MAP/NDCG per method) for the selected corpus profile,
# written to BENCH_$(CORPUS).json at the repo root and echoed to stdout.
# Scaled down and untrained to keep the run short; raise -scale for
# paper-grade numbers.
bench-json:
	$(GO) run ./cmd/semdisco-bench -corpus $(CORPUS) -scale 0.15 -dim 192 -train=false -json BENCH_$(CORPUS).json

# Non-test Go lines per package, bench/ excluded, with a total: the number
# simplification PRs quote. Plain line counts, so comments and blanks count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		-exec sh -c 'for f; do echo "$$(dirname "$$f") $$(wc -l < "$$f")"; done' _ {} + \
		| awk '{n[$$1] += $$2; t += $$2} END {for (p in n) print n[p], p; print t, "total"}' | sort -k2
