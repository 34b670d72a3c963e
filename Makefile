GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s

.PHONY: fmt build test race vet fuzz lines check resume-smoke serve-smoke crash-smoke fleet-smoke chaos-smoke explore-smoke perfbench telemetry cover ci

# Formatting gate: fails, listing the files, when any Go file in the
# tree (cmd/perfbench included) is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The heavy acceptance tests (the checked matrix, the figure claims, the
# interrupted-sweep drill, the built-binary drills) skip under -short:
# under the race detector they would exceed go test's per-package
# budget, so the race pass runs the short suite and `test` covers the
# rest.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Fuzz the hardened decoders for a bounded burst each: the binary
# trace reader, the trace-to-machine path (decoded bytes through
# RunTrace into a checked machine), the event-trace reader, the job-request decoder, the
# job-ledger loader, the status/readiness wire documents, the fleet
# wire protocol (task dispatch and result) and the design-space spec
# decoder.
fuzz:
	$(GO) test -run '^FuzzReader$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./trace
	$(GO) test -run '^FuzzRunTrace$$' -fuzz '^FuzzRunTrace$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^FuzzEventTrace$$' -fuzz '^FuzzEventTrace$$' -fuzztime $(FUZZTIME) ./telemetry
	$(GO) test -run '^FuzzJobRequest$$' -fuzz '^FuzzJobRequest$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^FuzzLedger$$' -fuzz '^FuzzLedger$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^FuzzStatusJSON$$' -fuzz '^FuzzStatusJSON$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^FuzzWireRequest$$' -fuzz '^FuzzWireRequest$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^FuzzWireResult$$' -fuzz '^FuzzWireResult$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^FuzzExploreSpace$$' -fuzz '^FuzzExploreSpace$$' -fuzztime $(FUZZTIME) ./explore

# Go line counts as ROADMAP.md tracks them: every *.go file outside
# cmd/perfbench, split into non-test and test (*_test.go) lines, and
# their total. Not part of ci; it reports, it does not gate.
lines:
	@find . -name '*.go' -not -path './cmd/perfbench/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "non-test Go lines:", $$1}'
	@find . -name '*.go' -not -path './cmd/perfbench/*' -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "test Go lines:    ", $$1}'
	@find . -name '*.go' -not -path './cmd/perfbench/*' -print0 | xargs -0 cat | wc -l | awk '{print "total Go lines:   ", $$1}'

# The checked acceptance matrix: every workload x every principal
# system organization under the coherence invariant checker.
check:
	$(GO) test -run TestCheckedMatrixHasNoViolations .

# The resume acceptance drills (docs/robustness.md §4): the interrupted
# fig9 sweep replayed from its journal, the journal's damage and
# mismatch handling, the retry classification of failed cells, and the
# trace fan-out's contracts: grouped cells equal their solo runs, and a
# failure, retry or timeout stays in its own cell. A killed cell
# restarts from reference zero; the journal keeps every finished one.
resume-smoke:
	$(GO) test -run 'TestInterruptedSweepResumes|TestJournal|TestRetries|TestPermanentFailureNotRetried|TestPanickedCellRetried|TestGroup' .

# The serving acceptance drills (docs/serving.md): the scheduler soak
# under the race detector (64 submitters vs a 4-worker pool, bounded
# queue, zero leaked goroutines), the backpressure and forced-drain
# contracts, and the built-binary smoke: start dsmserved, submit the
# Figure-9 base/FFT cell over HTTP, poll to completion, diff the served
# stats against testdata/golden, SIGTERM, clean exit. The full
# served-vs-golden corpus cross-check runs in `test` (TestServedGoldenStats).
serve-smoke:
	$(GO) test -race -run 'TestServeSoak|TestBackpressure|TestDrainRejectsAndForcedDrainCancels' -count=1 ./serve
	$(GO) test -run 'TestServeSmokeBinary' -count=1 ./cmd/dsmserved

# The kill-torture gate (docs/robustness.md §5): build the real
# dsmserved binary race-instrumented, SIGKILL it at every ledger crash
# point, restart on the same ledger, and require zero lost acknowledged
# jobs, zero duplicated completions, and recovered results
# field-identical to testdata/golden.
crash-smoke:
	$(GO) test -run 'TestCrashTorture' -count=1 ./cmd/dsmserved

# The exploration gate (docs/explore.md): the engine end-to-end against
# a real scheduler (enumerate -> simulate every point -> frontier, with
# the re-run required byte-identical); dsmexplore's HTTP submitter
# against a loopback /v1/jobs stand-in (a 429 retried, a 400 failing
# fast, a failed cell named, a canceled Wait returning); and the
# built-binary crash drill: dsmexplore -server against a one-worker
# dsmserved, SIGKILLed after its first finished cell, restarted on the
# same ledger (recovered and replayed jobs both required), the
# exploration re-run, and its CSV required byte-identical to a clean
# server's and to a local run's.
explore-smoke:
	$(GO) test -run 'TestEngineEndToEnd' -count=1 ./explore
	$(GO) test -run 'TestRemote' -count=1 ./cmd/dsmexplore
	$(GO) test -run 'TestExploreEndToEndBinary' -count=1 ./cmd/dsmserved

# The fleet torture gate (docs/serving.md "Running a fleet"): build the
# real dsmserved and dsmworker binaries race-instrumented, run a
# coordinator over three worker processes, SIGKILL one and blackhole
# another behind a partition proxy mid-sweep, and require zero lost
# acknowledged jobs, zero duplicate completions, the full golden corpus
# replayed through the fleet field-identical to testdata/golden, a
# slow-but-answering worker keeping its leases, and a full worker
# shedding 429 instead of growing.
fleet-smoke:
	$(GO) test -run 'TestFleetTorture' -count=1 -timeout 20m ./cmd/dsmserved

# The chaos gate (docs/robustness.md §6): soak the lease fabric under
# the race detector with seeded injection of every fault kind — crash,
# stall, slow, drop-result, late-duplicate — plus the breaker-quarantine,
# saturation-shed and golden-determinism drills, the drain-vs-recovery
# race, and the drain contract for backoff waiters and a replayed
# backlog. Zero lost acknowledged jobs, zero duplicate completions,
# results field-identical to testdata/golden.
chaos-smoke:
	$(GO) test -race -run 'TestChaosTorture|TestDrainRacesRecovery|TestDrainCancelsBackoffWaiters|TestGracefulDrainRunsReplayedBacklog' -count=1 ./serve

# The end-to-end benchmark (cmd/perfbench/README.md) is a module of its
# own, so `test` never compiles it: vet and test it here.
perfbench:
	cd cmd/perfbench && $(GO) vet . && $(GO) test .

# The telemetry gate: the sampler/trace/metrics package and the
# concurrency-sensitive Progress and end-to-end telemetry tests always
# run under the race detector (docs/observability.md).
telemetry:
	$(GO) test -race ./telemetry
	$(GO) test -race -run 'TestProgress|TestTelemetryEndToEnd' .

# Coverage floors for the protocol-critical packages: the directory
# implementations and the cluster engine. The floors ratchet up, never
# down (docs/performance.md).
cover:
	@set -e; \
	floor() { \
		pct=$$($(GO) test -cover $$1 | awk -F'coverage: ' '/coverage:/{print $$2}' | awk -F'%' '{print $$1}'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$1"; exit 1; fi; \
		echo "cover: $$1 $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN{exit !(p+0 >= f+0)}' || \
			{ echo "cover: $$1 coverage $$pct% is below the $$2% floor"; exit 1; }; \
	}; \
	floor ./internal/directory 45; \
	floor ./internal/core 66; \
	floor ./serve 80; \
	floor ./explore 70

# Tier-1+ gate (ROADMAP.md): everything CI runs.
ci: fmt vet build test race fuzz resume-smoke serve-smoke crash-smoke fleet-smoke chaos-smoke explore-smoke perfbench telemetry cover
