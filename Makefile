GO ?= go
CORPUS ?= wikitables

.PHONY: build vet lint test race batch-cpu portable fuzz race-cluster hedge-stress check bench-smoke bench-e2e bench-json bench-kernels trace-smoke segment-churn-smoke netcluster-smoke loc

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
# concurrent fan-out, hedging and cache invalidation, the LRU it shares,
# and the replica groups, which run the router package's Race. Fast enough
# to run on every change to any of the three packages.
race-cluster:
	$(GO) test -race ./internal/cluster/... ./internal/cache/... ./internal/netcluster/

# The timing-based tests of Router and Group all guard one state machine
# (cluster.Race); ten race-checked rounds shake out an ordering that one
# round lets through.
hedge-stress:
	$(GO) test -race -count=10 -run 'Race|Hedg|Failover|FailsOver|Straggler|HungReplica' ./internal/cluster/ ./internal/netcluster/

# Everything off the amd64 assembly path still has to build and agree:
# arm64 compiles every package against the stubs in dotbatch_generic.go,
# pq_generic.go and sgd_generic.go, and the purego tag runs the vec, pq,
# umap and hdbscan tests, the HNSW golden graphs, the PQ-coded vectordb
# golden graphs and saved images, the CTS build golden, the filtered
# ANNS/CTS rankings golden and the saved engine image's rankings — the same
# constants — through the pure-Go kernel bodies on this machine. ExS's
# centroid filter rests on a rounding bound, so its bound and oracle-
# equivalence tests run on those bodies too (the bound must also hold for
# arm64's fused multiply-adds, which round fewer times, not more).
portable:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/vec ./internal/pq ./internal/umap
	$(GO) test -tags purego ./internal/vec ./internal/hnsw ./internal/pq ./internal/umap ./internal/hdbscan
	$(GO) test -tags purego -run 'SerialBuildGraphGolden|LoadsParentCommitImages' ./internal/vectordb
	$(GO) test -tags purego -run 'CentroidBound|FilterVerify|ExSMatchesOracle|ExSBatchBitIdentical|SegmentStoreChurnEquivalence|CTSBuildGolden|FilteredRankingsGolden' ./internal/core
	$(GO) test -tags purego -run 'LoadsParentCommitEngineImage' .

# A few seconds of coverage-guided search per fuzz target in the tree: the
# centroid bound, the embedded-federation image reader, the
# coordinator↔shard wire frame, the HNSW, PQ and vector collection image
# readers, the CSV reader, the text pipeline and the
# traceparent parser.
# The checked-in corpora under testdata/fuzz run with the ordinary tests.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCentroidBound$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreEmbedded$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime 5s ./internal/netcluster
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 5s ./internal/hnsw
	$(GO) test -run '^$$' -fuzz '^FuzzPQRead$$' -fuzztime 5s ./internal/pq
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/vectordb
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 5s ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzStem$$' -fuzztime 5s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 5s ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 5s ./internal/obs

# Every method's one query body splits a block over GOMAXPROCS workers
# (ExS's scan, ANNS's walks and rank, CTS's cluster probes and rank) and
# reuses walk, ADC and rank scratch across queries; a single query is a
# block of one through the same body. The batch, single-query and filtered
# tests are race-checked at 1, 2 and 4 workers, so the chunking is tested
# at more than the host's core count, and so is the encoder's token table,
# which every worker's queries read and fill.
batch-cpu:
	$(GO) test -race -cpu 1,2,4 -run 'Batch|SearchBatch|Table|SearchContext|Filter|Sources' ./internal/core ./internal/vectordb ./internal/pq ./internal/embed .

check: lint race batch-cpu portable fuzz

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
# single-query Dot calls, the bounded top-k selection, PQ's 4-dim kernels in
# the ANNS index's shape (code-to-code distance, table rows, ADC lookup) and
# the serial HNSW + PQ build that runs on them, and the pieces of the CTS
# build (the SGD's pow and its three 16-dim steps beside their Go bodies, a
# whole UMAP fit, HDBSCAN's core-distance pass). The
# transcript lands in benchrun_kernels.txt so kernel regressions show up in
# review diffs.
bench-kernels:
	{ $(GO) test -run=^$$ -bench 'Dot|L2Sq|TopK|FullSort' -benchtime=2s ./internal/vec/ && \
	  $(GO) test -run=^$$ -bench 'CodeDist|Tables256|ADCLookup' -benchtime=2s ./internal/pq/ && \
	  $(GO) test -run=^$$ -bench 'InsertBatchPQ' -benchtime=3x ./internal/vectordb/ && \
	  $(GO) test -run=^$$ -bench 'Pow32|SGD' -benchtime=2s ./internal/umap/ && \
	  $(GO) test -run=^$$ -bench 'Fit3200x256' -benchtime=3x ./internal/umap/ && \
	  $(GO) test -run=^$$ -bench 'CoreDistances4096x16' -benchtime=5x ./internal/hdbscan/; } | tee benchrun_kernels.txt

# Segment-store churn smoke: race-checked delete/update/add churn against
# the engine and segment store, pinning that a churned, compacted index
# ranks bit-identically to one built fresh from the surviving corpus and
# that searches never block or degrade while a compaction swaps segments.
segment-churn-smoke:
	$(GO) test -race -run 'TestEngineChurnEquivalence|TestEngineSearchNonBlockingDuringCompaction|TestClusterDeleteUpdate' .
	$(GO) test -race -run 'TestSegmentStoreChurnEquivalence|TestSegmentStoreSearchDuringCompaction|TestSegmentStoreConcurrentChurn' ./internal/core/

# Networked-cluster smoke: replica sets of shard servers on loopback HTTP
# behind a replicated coordinator, race-checked end to end. Pins the wire
# protocol and replica failover (hung replica, whole set down, malformed
# responses), the bit-identical-to-single-engine merge over the wire, a
# replica killed mid-run leaving every query answered, and the coordinator
# mode of the HTTP API (one subtest of every three-mode TestServer* suite,
# plus the search-during-a-stuck-write test).
netcluster-smoke:
	$(GO) test -race ./internal/netcluster/
	$(GO) test -race -run 'TestNetShard|TestNetCluster' .
	$(GO) test -race -run 'TestServer' ./internal/httpapi/

# End-to-end tracing smoke: serve a freshly generated corpus as a 4-shard
# hedged cluster with every trace retained, run one search, and assert the
# span tree comes back from /v1/debug/traces/{id}, its exemplar shows up on
# the OpenMetrics scrape, and the slow and journal views of the store name
# it. Needs curl and jq.
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
