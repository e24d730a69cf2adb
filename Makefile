# Build/test entry points, mirrored by .github/workflows/ci.yml.
GO          ?= go
FUZZTIME    ?= 5s
COVER_FLOOR ?= 70
# The natsim impairment stage feeds every adverse-network suite, so it
# carries a higher floor than the observability packages.
COVER_FLOOR_NATSIM ?= 80
# The buffer pool underpins the zero-copy hot path: a regression there
# corrupts payloads silently, so it carries the highest floor.
COVER_FLOOR_BUFPOOL ?= 85
# The sharded ingest tier owns the only cross-goroutine handoff in the
# pipeline; its accounting and merge invariants are all test-enforced.
COVER_FLOOR_INGEST ?= 85
# The QoE estimator and alert engine drive operator-facing paging
# decisions, so their logic (debounce, hysteresis, feature math) must
# stay almost fully unit-covered.
COVER_FLOOR_QOE   ?= 80
COVER_FLOOR_ALERT ?= 80

.PHONY: all fmt vet staticcheck build test race fuzz-smoke cover bench bench-json bench-check perfbench-check proto-list trace-smoke impair-smoke shard-smoke daemon-smoke ci

all: build

# Formatting gate: fails, listing the files, when gofmt would change any
# tracked Go source (or cannot parse one).
fmt:
	@files=$$(git ls-files '*.go') || exit 1; \
	bad=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$bad" ]; then echo "gofmt needed:"; echo "$$bad"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs the pinned staticcheck; local
# runs skip quietly when the binary is absent so `make ci` works in
# minimal environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)" ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target briefly against its seed corpus plus a short
# mutation budget. `go test -fuzz` accepts one target per invocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzInspect -fuzztime=$(FUZZTIME) ./internal/dpi
	$(GO) test -run='^$$' -fuzz=FuzzParityWithBaseline -fuzztime=$(FUZZTIME) ./internal/dpi
	$(GO) test -run='^$$' -fuzz='FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/stun
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChannelData -fuzztime=$(FUZZTIME) ./internal/stun
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCompound -fuzztime=$(FUZZTIME) ./internal/rtcp
	$(GO) test -run='^$$' -fuzz='FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/rtp
	$(GO) test -run='^$$' -fuzz=FuzzParseLong -fuzztime=$(FUZZTIME) ./internal/quicwire
	$(GO) test -run='^$$' -fuzz=FuzzDTLSProbe -fuzztime=$(FUZZTIME) ./internal/proto/dtlsdrv
	$(GO) test -run='^$$' -fuzz=FuzzDecapsulate -fuzztime=$(FUZZTIME) ./internal/live
	$(GO) test -run='^$$' -fuzz=FuzzFeedBatch -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzImpair -fuzztime=$(FUZZTIME) ./internal/natsim

# Per-package coverage table, plus a hard floor per package: each
# package:floor pair in COVER_FLOORS must stay at or above its floor.
COVER_FLOORS = internal/metrics:$(COVER_FLOOR) internal/obs:$(COVER_FLOOR) \
	internal/natsim:$(COVER_FLOOR_NATSIM) internal/bufpool:$(COVER_FLOOR_BUFPOOL) \
	internal/ingest:$(COVER_FLOOR_INGEST) internal/qoe:$(COVER_FLOOR_QOE) \
	internal/alert:$(COVER_FLOOR_ALERT)

cover:
	$(GO) test -cover ./...
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		$(GO) test -coverprofile=coverage.out ./$$pkg || exit 1; \
		$(GO) tool cover -func=coverage.out | awk -v floor=$$floor -v pkg=$$pkg \
			'/^total:/ { pct = $$3+0; printf "%s coverage: %s (floor %d%%)\n", pkg, $$3, floor; \
			 if (pct < floor) { print "coverage below floor"; exit 1 } }' || exit 1; \
	done

# End-to-end trace smoke: generate a small capture, export its decision
# trace, and validate the JSONL against the event-schema linter. The
# -explain query must name the failing criterion for the seeded
# non-compliant STUN message.
trace-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/rtcgen -out $$dir -app Zoom -network wifi-p2p -duration 5s -runs 1 >/dev/null && \
	$(GO) run ./cmd/rtccheck -manifest $$dir/manifest.json -trace-out $$dir/trace.jsonl >/dev/null && \
	$(GO) run ./cmd/rtctrace -in $$dir/trace.jsonl -lint && \
	$(GO) run ./cmd/rtctrace -in $$dir/trace.jsonl -explain "Zoom" | grep -q "failed criterion" && \
	echo "trace-smoke: export, lint, and explain OK"

# Reduced impairment matrix under the race detector: -short trims the
# differential suite to 2 apps x 3 profiles x 2 seeds, the same cells
# the CI impair-matrix job runs.
impair-smoke:
	$(GO) test -short -race -count=1 -run 'TestImpair|TestRelayConcurrent|TestBurst|TestRunMatrixPublishesImpairStats' \
		./internal/natsim ./internal/appsim ./internal/trace ./internal/core

# Sharded-ingest smoke under the race detector: the shard-count
# invariance sweep, the accounting semantics, and the race hammer;
# plus the serial streaming differential pinned at GOMAXPROCS=2, where
# scheduler interleavings differ from both the 1-CPU and many-CPU
# shapes.
shard-smoke:
	$(GO) test -short -race -count=1 \
		-run 'TestShardCountInvariance|TestShardInvarianceUnderImpairment|TestShardedPCAPMatchesSerial|TestDropConservation|TestFlushBarrier|TestShardRaceHammer' \
		./internal/ingest
	GOMAXPROCS=2 $(GO) test -short -race -count=1 -run 'TestStreamingBatchEquivalence' ./internal/core

# End-to-end daemon smoke: start the rtclive compliance daemon against
# appsim traffic on ephemeral ports, scrape /compliance/trend,
# SIGHUP-reload with a changed config, and assert a clean SIGTERM
# drain with conservation accounting.
daemon-smoke:
	sh scripts/daemon_smoke.sh

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Regenerate the hot-path throughput baseline: the scenario matrix
# (Feed / FeedBatch / batch over relay, P2P, and media-heavy loads)
# measured best-of-N and written as BENCH_hotpath.json. Run on a quiet
# machine and commit the result alongside the change that moved it.
bench-json:
	$(GO) run ./cmd/rtcbench -out BENCH_hotpath.json

# Regression gate against the committed baseline: fails on >15% ingest
# slowdown or any allocs/op increase beyond jitter in any scenario.
# When the current host differs from the baseline's recorded host
# (CPU model, core count, GOMAXPROCS), timing regressions demote to
# warnings — hardware deltas are not regressions — while the
# allocation gate stays hard. On hosts with >= 4 CPUs the gate also
# requires sharded4/media-heavy >= 3x sharded1 throughput.
bench-check:
	$(GO) run ./cmd/rtcbench -baseline BENCH_hotpath.json

# Vet and test the end-to-end benchmark (perfbench/, a nested module
# that replaces rtcc with this checkout). `go test ./...` above does not
# reach it, so this is what catches an API change that breaks the
# benchmark's build; its tests run each workload briefly, untraced and
# traced.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 ./...

# List the registered wire protocols: one row per handler with family,
# demultiplexing precedence, fuzz target, and wire fingerprint. The
# registry golden test (protolist_test.go) keeps this listing honest:
# it fails when a registered protocol is missing from the README or
# DESIGN docs or lacks a fuzz-smoke line above.
proto-list:
	$(GO) run ./cmd/rtccheck -protocols

ci: fmt vet staticcheck build race fuzz-smoke cover trace-smoke impair-smoke shard-smoke daemon-smoke bench-check perfbench-check
