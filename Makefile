# SDRaD-Go development targets. `make check` is the full gate: the
# tier-1 verify (build + test) plus formatting, vet, the sdradlint
# invariant analyzers, and the race detector over the concurrent
# Supervisor-pool and submission-queue paths.

GO ?= go

.PHONY: check fmt vet lint docs build test race test-lifecycle test-cluster bench-verify bench bench-pools bench-batched bench-durable bench-elastic bench-cluster bench-smoke campaign-smoke loc

check: fmt vet lint build test race test-lifecycle test-cluster bench-verify

# Lifecycle/elasticity conformance tier (DESIGN.md §13): the shared
# lifecycletest battery against every component (Domain, Pool,
# AsyncPool, kvstore.Pool, both NetServers), the -race elasticity
# hammers (concurrent Resize under load with a mid-run drain), the
# retired-worker and durable-acked-write regressions, the grow/shrink
# rules of both controllers (AsyncPool and the network front in
# internal/serve), and the drain regressions (whole-call drain
# accounting, controller-teardown deadlock freedom, batch shedding).
test-lifecycle:
	$(GO) test -race -run 'TestLifecycleConformance|TestElastic|TestResiz|TestRetiredWorkerNeverRedispatched|Drain' ./...

# Cluster tier gate (DESIGN.md §14): rendezvous placement, lease
# membership, crash/rolling/partition state-machine tests, the wire
# fuzz seeds, the churn dispatch hammer (no acked write lost, no nacked
# write executed), and the cluster==single-pool differential oracle —
# all under the race detector.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/...

# Benchmark gate: vet and test the canonical benchmark (perfbench/, a
# nested module over this one), so a change to a serving front that
# breaks the benchmark's build or its reply-verification self-test
# fails the gate.
bench-verify:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Lint gate: the sdradlint invariant analyzers (internal/analysis) over
# every package — wall-clock ban, uncharged-accessor containment,
# deterministic map iteration, typed-error classification, and
# exported-symbol docs (DESIGN.md §10 maps each to its soundness
# argument). Findings land in LINT_FINDINGS.json; CI publishes the file
# when the gate fails.
lint:
	$(GO) run ./cmd/sdradlint -json-out LINT_FINDINGS.json ./...

# Back-compat alias: the old docs gate is subsumed by lint (docexport
# now covers every publicly importable package, not just the root).
docs: lint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full E1-E8 + ablation suite with fixed flags, emitting BENCH_PR5.json
# (name -> iters, ns/op, vops/s, ...) for PR-over-PR perf diffing. The
# suite includes the batched E1 pair (batch sizes 1/8/32). Pass
# BASELINE=<prev.json> to embed a previous report for comparison.
BASELINE ?=
bench:
	$(GO) run ./cmd/benchjson -out BENCH_PR5.json $(if $(BASELINE),-baseline $(BASELINE))

# Throughput-scaling benchmarks for the supervisor pools (E1 parallel).
bench-pools:
	$(GO) test -run '^$$' -bench 'E1KVSDRaDParallel|E1HTTPSDRaDParallel' -benchtime 1s .

# Batched-execution benchmarks only: serial-vs-batched E1 at batch
# sizes 1/8/32 plus the AsyncPool submission path, emitted as JSON (CI
# uploads BENCH_BATCHED_CI.json as an artifact).
bench-batched:
	$(GO) run ./cmd/benchjson -bench 'E1KVSDRaD$$|E1HTTPSDRaD$$|E1KVSDRaDBatched|E1HTTPSDRaDBatched|AsyncPoolSubmit' \
		-benchtime 1x -out BENCH_BATCHED_CI.json

# Durability cost on the E1 hot path: the serial/batched SDRaD pair
# against BenchmarkE1KVSDRaDDurable (fsync on/off x batch 1/8/32 plus a
# snapshot-cadence sweep), emitted as BENCH_PR7.json with the PR 5
# report embedded as baseline. The fsyncs/req metric records the
# group-commit amortization; vops/s is host-independent.
bench-durable:
	$(GO) run ./cmd/benchjson -bench 'E1KVSDRaD$$|E1KVSDRaDBatched|E1KVSDRaDDurable' \
		-benchtime 200x -out BENCH_PR7.json -baseline BENCH_PR5.json

# Elastic-controller burst benchmark plus the AsyncPool submission
# baseline, emitted as BENCH_PR9.json with the PR 7 report embedded for
# comparison. 2000 iterations are needed for real controller activity:
# the custom metrics (workers_max/workers_final, grown/shrunk,
# sheds/op) pin the grow-under-burst / shrink-back-to-Min cycle.
bench-elastic:
	$(GO) run ./cmd/benchjson -bench 'ElasticBurst|AsyncPoolSubmit' \
		-benchtime 2000x -out BENCH_PR9.json -baseline BENCH_PR7.json

# Cluster routing overhead on the E1 hot path: routed dispatch at
# 1/2/4 nodes (rendezvous placement + lease heartbeat + synchronous
# replication) against the single-pool E1 SDRaD baseline, emitted as
# BENCH_PR10.json with the PR 9 report embedded for comparison. The
# vops/s metric uses the cluster's parallel makespan (max across
# nodes), matching the pool convention.
bench-cluster:
	$(GO) run ./cmd/benchjson -bench 'ClusterRouter|E1KVSDRaD$$' \
		-benchtime 200x -out BENCH_PR10.json -baseline BENCH_PR9.json

# One-iteration smoke pass over the suite (CI: proves the benches run).
bench-smoke:
	$(GO) run ./cmd/benchjson -benchtime 1x -out BENCH_CI.json

# Deterministic resilience-campaign smoke (CI): fixed seed, three
# attacked scenarios plus one benign control (so every oracle — same
# seed, worker counts, benign cycle parity — actually runs) plus the
# elastic-resize scenario (so the resize oracle replays its grow/shrink
# schedule), plus the cluster==single-pool differential oracle at node
# counts 1/2/4, serial and batched 8/32, through node-crash,
# rolling-restart, and partition schedules. Writes the JSON trace to
# CAMPAIGN_CI.json for artifact upload; two runs of this target produce
# byte-identical traces.
campaign-smoke:
	$(GO) run ./cmd/sdrad-campaign -seed 42 -requests 100 \
		-scenarios kv-pool-mixed,http-domain-malformed,ffi-bridge-binary,kv-pool-benign,kv-pool-resize \
		-gateway gw-attack-tenants \
		-oracles -cluster -out CAMPAIGN_CI.json

# Go line counts, non-test and test, outside the benchmark module
# (perfbench/), testdata/ and hidden directories: every change reports
# its non-test delta from this.
LOC_FILES = find . \( -path ./perfbench -o -path '*/testdata' -o -path './.*' \) -prune -o -name '*.go'
loc:
	@echo "non-test $$($(LOC_FILES) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "test     $$($(LOC_FILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
