GO      ?= go
BIN     := bin
CMDS    := evedge evserve evcluster evscenario evload evbench evmap evprof evtrace

# Per-target budget of the fuzz smoke (CI runs `make fuzz`).
FUZZTIME ?= 10s

.PHONY: build test race lint bench bench-e2e bench-smoke serve cluster scenarios fuzz cover clean

build:
	@mkdir -p $(BIN)
	@for c in $(CMDS); do $(GO) build -o $(BIN)/$$c ./cmd/$$c || exit 1; done
	@echo "built: $(addprefix $(BIN)/,$(CMDS))"

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ . ./internal/events ./internal/sparse ./internal/e2sf ./internal/dsfa ./internal/sched ./internal/serve ./internal/nmp ./internal/taskgraph ./internal/scene

# The repository's benchmark (BENCHMARK.json): every workload, then the
# per-layer profile. bench/ is its own module, so this — and CI's
# vet/test of it — is what notices an API change that breaks it.
bench-e2e:
	bash bench/run.sh

# Allocation gate: every hot-path stage (converter, DSFA merge, kernels, rulebook)
# and the whole serving cycle must allocate nothing per call once warm, nor
# must a DSFA queue that sheds a bucket on every push; a task graph
# rebuilt in place allocates nothing, the seven placement searches of
# a serve_http_mixed pass stay under 10 000 allocations, and an offline
# pipeline run on warm pools allocates under a quarter of its frames'
# entry bytes, also when two garbage collections ran since the run that
# warmed them. One SendEvents of a 3 400-event chunk over loopback HTTP,
# client and server together, allocates under 16 KiB. An EVAR body posted
# to the cluster router allocates at most 1.2x what it does at a node,
# plus, with the journal on, the chunk bodies the buddy's replica log
# keeps (each body as posted; a result entry is a value, no bytes).
# Eight count-framed sessions on a fresh server on cold pools, from
# create through one second of stream to close, allocate under 640 KiB
# in all, and their pooled frames are sized once and never regrow; run
# again on a server that starts on the pools the first one handed on at
# its close, they make no frame or grid and allocate under 168 KiB.
bench-smoke:
	$(GO) test -run '^TestAllocSmoke$$|^TestAllocRegression|^TestClientRoundTripAllocBudget$$|^TestSessionLifecycleAllocBudget$$|^TestCountFramedFramesSizedOnce$$|^TestServerStartsOnHandedOnPools$$' -count=1 -v ./internal/serve
	$(GO) test -run '^TestRouterIngestAllocBudget$$' -count=1 -v ./internal/cluster
	$(GO) test -run '^TestQueueOverflowZeroAlloc$$' -count=1 -v ./internal/dsfa
	$(GO) test -run '^TestPlacementSearchAllocBudget$$|^TestBuildIntoSteadyStateZeroAlloc$$' -count=1 -v ./internal/nmp ./internal/taskgraph
	$(GO) test -run '^TestRunWarmAllocBudget$$|^TestRunPoolsSurviveGC$$' -count=1 -v ./internal/pipeline

# Run the deterministic scenario suite (the chaos/soak regression bed)
# plus the kernel worker pool and the execution scheduler — whose Pump
# the scenarios drive from one goroutine and serving workers from many
# — and the offline pipeline's sharded conversion, concurrent runs and
# the four levels of one network reading one converted set included,
# under the race detector, at two scheduler widths: a narrow
# host (2) forces pool shards and pumping goroutines to queue behind
# each other, a wide one (8) maximizes true overlap. The scheduler's
# concurrent-pump transcripts (2 to 8 goroutines submitting and pumping
# at once) and its nested-Pump pin run 20 times at each width. The event-camera
# simulator steps its row bands on one goroutine each over shared
# per-pixel state and one shared frame, and each band's render reads its
# own rows of the quiet intervals and the World's shared cell bounds,
# so its band, determinism and stream-pin gates run under the race
# detector too. The cluster's schedule explorer runs in the harness
# package; its wall-clock variants (worker pools, senders, stream
# readers and node chaos racing the router's lock-free route table and
# its one owner) run 10 more times at each width, and so does the
# serving parity oracle on worker goroutines: a session's chunks,
# execute passes and completions interleave as the host schedules
# them, and its snapshot must still equal the paper run's.
SCHED_STRESS := -count=20 -run 'TestCoreMatchesReference|TestPumpNestedInDone' ./internal/sched
EXPLORE_STRESS := -count=10 -run 'TestExploreWallClock' ./internal/harness
SERVE_RACE := -count=10 -run 'TestServedWallClockMatchesPaperRun' ./internal/serve
PIPELINE_RACE := -run 'TestRunDeterminism|TestRunReturnsEveryFrame|TestRunFramesSharedSet|TestConvertStream' ./internal/pipeline
SCENE_RACE := -run 'TestCameraBandsMatchSerial|TestSequenceDeterminism|TestPresetStreamsPinned' ./internal/scene
scenarios:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/harness/... ./internal/par/... ./internal/sched/... ./cmd/evscenario/...
	GOMAXPROCS=2 $(GO) test -race -count=1 $(PIPELINE_RACE)
	GOMAXPROCS=2 $(GO) test -race -count=1 $(SCENE_RACE)
	GOMAXPROCS=2 $(GO) test -race $(SCHED_STRESS)
	GOMAXPROCS=2 $(GO) test -race $(EXPLORE_STRESS)
	GOMAXPROCS=2 $(GO) test -race $(SERVE_RACE)
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/harness/... ./internal/par/... ./internal/sched/... ./cmd/evscenario/...
	GOMAXPROCS=8 $(GO) test -race -count=1 $(PIPELINE_RACE)
	GOMAXPROCS=8 $(GO) test -race -count=1 $(SCENE_RACE)
	GOMAXPROCS=8 $(GO) test -race $(SCHED_STRESS)
	GOMAXPROCS=8 $(GO) test -race $(EXPLORE_STRESS)
	GOMAXPROCS=8 $(GO) test -race $(SERVE_RACE)

# Short coverage-guided fuzz pass over every fuzz function of every
# package, as `go test -list` reports them, so the list cannot drift
# from the code.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for target in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$${target}\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

serve: build
	./$(BIN)/evserve -addr :7733

cluster: build
	./$(BIN)/evcluster -addr :7734 -nodes xavier:2,orin:2

clean:
	rm -rf $(BIN)
