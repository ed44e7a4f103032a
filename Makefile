GO ?= go

.PHONY: build test vet fmt-check lint lint-suppressions race race-hot bench-quick bench-population collect-smoke chaos-smoke serve-smoke fuzz faults-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check: fail on gofmt drift without rewriting anything.
fmt-check:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi

# lint: the F-DETA domain linter — determinism, metric namespace, float
# comparison hygiene, goroutine tracking, wire-error wrapping, the
# call-summary concurrency checks (lockhold, chanbound, blockctx), and
# deadapi (no exported internal/ API without a non-test user). Prints
# one summary line per analyzer (packages / findings / suppressions); exits
# non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/fdetalint

# lint-suppressions: audit every //lint:ignore directive with its reason.
lint-suppressions:
	$(GO) run ./cmd/fdetalint -suppressions

race:
	$(GO) test -race ./...

# race-hot: targeted race pass over the concurrency-heavy packages — the
# lock-free obs registry, the AMI head-end connection pool and shard stores
# (with the amiserver/amimeter tests), the evaluation worker pool, the
# streaming detection service (its sink runs on every session goroutine), and the
# population-training pool. Fast enough to run on every iteration; `race` covers the whole
# tree.
race-hot:
	$(GO) test -race -count=1 ./internal/obs ./internal/ami ./cmd/amiserver ./cmd/amimeter ./internal/experiments ./internal/serve ./internal/detect

# bench-quick: one pass over the hot-path microbenchmarks — enough to catch
# a gross perf/allocation regression without a full benchmark session. The
# set-up path is covered by population synthesis (BenchmarkDatasetGenerate)
# and KLD training (BenchmarkKLDTrain). The per-reading benches are cheap,
# so each runs a fixed count for a stable figure: the compact KLD stream's
# Observe on an honest and a zero-reporting (flagged) meter, 100k readings
# each; the wire codec (recv, decode and MAC check of one signed 48-reading
# v3 frame) and the shard store's apply of one 48-reading day frame, 10k
# frames each.
bench-quick:
	$(GO) test -run=NONE -bench 'BenchmarkSelectOrder|BenchmarkTrainedSuite|BenchmarkKLDDetect|BenchmarkKLDTrain|BenchmarkIntegratedARIMAAttack|BenchmarkWorstIntegrated|BenchmarkDatasetGenerate' -benchtime=1x -benchmem .
	$(GO) test -run=NONE -bench 'BenchmarkCompactKLDStreamObserve' -benchtime=100000x -benchmem .
	$(GO) test -run=NONE -bench 'BenchmarkCodecRecvBatch48|BenchmarkShardStoreApply48' -benchtime=10000x -benchmem ./internal/ami

# bench-population: smoke the population trainer on a 100-consumer, 8-week
# fleet. BenchmarkPopulationTrain fails unless every consumer trains and the
# reported consumers/s is positive.
bench-population:
	$(GO) test -run=NONE -bench=BenchmarkPopulationTrain -benchtime=1x .

# collect-smoke: the ingestion tier end to end under the race detector,
# through the one fleet driver at two pool shapes. First a sharded
# head-end and 16 reliable sessions multiplexing a 1k-meter fleet over
# wire-v3 binary batch frames, each meter's first frame behind a one-way
# rebind in the same write (one client write, one server read, one server
# write), with a tenth of the slots dropped. Then one session per meter,
# sending two frames per meter with the same dropout. Exercises
# negotiation, rebinding, batching, fault injection, per-frame retry,
# shard queues, flush, and drain on every PR.
collect-smoke:
	$(GO) run -race ./cmd/fdeta collect -meters 1000 -shards 4 -batch 48 -concurrency 16 -fault dropout:0.1
	$(GO) run -race ./cmd/fdeta collect -meters 64 -slots 96 -batch 48 -fault dropout:0.1

# chaos-smoke: the durability invariant under the race detector — the
# chaos harness kill -9s a real WAL-backed head-end process mid-load
# (with connection resets, partial writes, and slow-loris sessions
# running), restarts it, and fails unless every acked reading is
# recovered from the WAL.
chaos-smoke:
	$(GO) run -race ./cmd/fdeta chaos -meters 12 -rounds 2 -shards 2 -batch 8 -round-len 400ms

# fuzz: short fuzz passes over the AMI wire codec, the WAL replay path,
# and the dataset CSV parser so envelope-validation, recovery, and parser
# regressions are caught pre-merge. (The ami package holds two targets, so
# each needs its own -fuzz run.)
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecRecv -fuzztime=5s ./internal/ami
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=5s ./internal/ami
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=5s ./internal/dataset
	$(GO) test -run='^$$' -fuzz=FuzzParseDirective -fuzztime=5s ./internal/analysis

# faults-smoke: the fault-injection path end to end on a tiny population —
# the degradation curve must come out, and rate 0 must match the clean run.
faults-smoke:
	$(GO) run ./cmd/fdeta faults -consumers 4 -trials 2 -rates 0,0.3

# serve-smoke: the always-on streaming detection service under the race
# detector — an in-process sharded head-end taps accepted readings into
# compact per-consumer streams over real TCP, re-trains mid-stream, then
# one meter zeroes its reports. Fails unless the tampered meter raises a
# HIGH alert (visible over GET /alerts), the honest meter stays silent,
# and every acked reading is observed through the SIGTERM-style drain.
serve-smoke:
	$(GO) run -race ./cmd/fdeta serve -smoke

# verify: the gate for every PR — build, vet, gofmt drift, the domain
# linter, the targeted race pass over the obs/ami/experiments concurrency
# surfaces plus the full-tree race detector, the quick benchmarks, the
# population-training smoke, the race-enabled ingestion-tier,
# kill-and-recover, and streaming-service smokes, the fuzz passes, and the
# fault-injection smoke run.
verify: build vet fmt-check lint race-hot race bench-quick bench-population collect-smoke chaos-smoke serve-smoke fuzz faults-smoke
