GO ?= go
FUZZTIME ?= 30s

# Every native fuzz target in the module, as pkg:Target pairs (go test
# accepts one -fuzz target per invocation, so `make fuzz` loops).
FUZZ_TARGETS := \
	./internal/ipe:FuzzUnmarshalBinary \
	./internal/ipe:FuzzEncodeRoundTrip \
	./internal/ipe:FuzzCompiledMatrix \
	./internal/graph:FuzzGraphDeserialize \
	./internal/runtime:FuzzPlanner \
	./internal/conformance:FuzzConformanceConv \
	./internal/conformance:FuzzConformanceDense \
	./internal/conformance:FuzzConformanceProgram \
	./internal/conformance:FuzzConformanceGraph \
	./internal/conformance:FuzzConformanceSharedDict \
	./internal/registry:FuzzRegistrySwap \
	./internal/serve:FuzzDecodePredict \
	./internal/tensor:FuzzMaxPool \
	./internal/quant:FuzzGroupRows

# Serving-path coverage gate: the packages behind the HTTP front end, their
# committed floor, and where the profile lands. 80.3% measured when the
# floor was set; the gate fails below 75% so refactors keep their tests.
COVER_PKGS := ./internal/serve ./internal/runtime ./internal/registry
COVER_FLOOR := 75.0

.PHONY: verify build test race vet staticcheck purego fuzz cover cover-floor loc bench bench-smoke benchmark-smoke serve-smoke multi-model-smoke

verify: build test race vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Intra-op sharding makes every kernel package concurrency-sensitive, so the
# race detector runs over the whole module (and gates verify).
race:
	$(GO) test -race ./...

# go vet plus formatting: any file gofmt would rewrite fails the target (and
# with it verify and the CI verify job).
vet: staticcheck
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l . is not clean:"; echo "$$out"; exit 1; }

# staticcheck when available (CI installs it; local runs without it just get
# go vet). honnef.co/go/tools is the de-facto second linter tier for Go.
# Pinned to the correctness (SA) and simplification (S) classes; the ST
# style class is opinion, not signal, for this codebase.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck -checks 'SA*,S1*' ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The Go twins of the amd64 assembly kernels in internal/ipe (build tag
# purego): the packages whose bits they decide, plainly and under the race
# detector (which cannot see memory accesses made inside assembly), plus
# the architectures that never assemble them. go vet's asmdecl check over
# the assembly itself runs in `make vet`.
purego:
	$(GO) test -tags purego ./internal/ipe ./internal/conformance ./internal/runtime ./internal/obs
	$(GO) test -race -tags purego ./internal/ipe ./internal/runtime
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# Run every fuzz target for FUZZTIME each (override: make fuzz FUZZTIME=5s).
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; fn=$${t#*:}; \
		echo "--- fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME); \
	done

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Coverage floor over the serving path (serve, runtime, registry): fails
# when total statement coverage drops below COVER_FLOOR. Blocking in CI.
cover-floor:
	$(GO) test -coverprofile=cover-serving.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover-serving.out | tail -n 1 | awk '{print $$NF}' | tr -d '%'); \
	echo "serving-path coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "cover-floor: coverage $$total% is below the committed $(COVER_FLOOR)% floor"; exit 1; }

# Non-test source lines under cmd/ and internal/, Go and assembly: the one
# number deletion PRs quote, always counted the same way.
loc:
	@find cmd internal \( -name '*.go' ! -name '*_test.go' \) -o -name '*.s' | xargs cat | wc -l

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of every benchmark in the module: a smoke check that the
# measured kernels still compile and execute, not a measurement. Cheap
# enough to gate CI.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, so `go build ./...` and `go test ./...` never compile it. This vets it
# and runs its unit tests against the current internal/ packages, then runs
# every workload for one second through the real server: correctness of every
# reply is checked, timings at this length are not meaningful. Blocking in CI.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -short .
	bash benchmark/run.sh --seconds 1

# End-to-end serving smoke: boot inspire-serve on an ephemeral port, fire a
# short concurrent load at both models, and fail on any dropped (429) or
# failed request, or unless each endpoint's mean coalesced batch is above
# 1.5 (the batcher has no coalescing timer: 16 clients per model keep every
# flight slot busy, and that is what grows batches; a batcher that always
# flushed singletons would read 1.0). Then SIGTERM the server and fail
# unless it exits 0 with "drained, bye" as its last log line. Exercises the
# full path (HTTP -> batcher -> RunBatch -> metrics -> drain) in a few
# seconds; heavier runs are manual (see README). Needs jq. Before the load,
# the boot lines must show both models compiled with no IPE layer: the
# default flags serve factorized (D = 0), so an IPE layer here means the
# served default changed. The second half
# boots a lenet5-only server 20 times
# and SIGTERMs it the instant the address file appears (boot spins on the
# file without sleeping, so the signal lands within microseconds of the
# bind), asserting the same drained exit: a signal arriving right after the
# bind must never kill the process by default action.
serve-smoke:
	@set -e; \
	dir=$$(mktemp -d /tmp/inspire-smoke.XXXXXX); \
	pid=; \
	trap '[ -z "$$pid" ] || kill -9 $$pid 2>/dev/null || true; rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir/inspire-serve ./cmd/inspire-serve; \
	$(GO) build -o $$dir/inspire-load ./cmd/inspire-load; \
	boot() { \
		rm -f $$dir/addr; \
		$$dir/inspire-serve -addr 127.0.0.1:0 -addrfile $$dir/addr "$$@" > $$dir/log 2>&1 & \
		pid=$$!; \
		i=0; while [ $$i -lt 5000000 ] && ! [ -s $$dir/addr ]; do i=$$((i+1)); done; \
		[ -s $$dir/addr ] || { echo "serve-smoke: server never bound"; cat $$dir/log; exit 1; }; \
	}; \
	drain() { \
		kill -TERM $$pid; \
		rc=0; wait $$pid || rc=$$?; pid=; \
		[ $$rc -eq 0 ] && [ "$$(tail -n 1 $$dir/log)" = "inspire-serve: drained, bye" ] || \
			{ echo "serve-smoke: $$1: exit $$rc, log ends:"; tail -n 3 $$dir/log; exit 1; }; \
	}; \
	boot; \
	grep ' compiled (' $$dir/log; \
	awk '/ compiled \(/ { n++; if ($$NF != "ipe=0") bad++ } END { exit !(n == 2 && !bad) }' $$dir/log || \
		{ echo "serve-smoke: a default-flag boot must serve both models with no IPE layer (ipe=0)"; exit 1; }; \
	$$dir/inspire-load -url http://$$(cat $$dir/addr) -models lenet5,squeezenet \
		-clients 32 -duration 3s -fail -json > $$dir/load.json; \
	jq -r '.[] | "serve-smoke: \(.model): \(.ok) ok, mean batch \(.endpoint.mean_batch)"' $$dir/load.json; \
	jq -e 'all(.[]; .endpoint.mean_batch > 1.5)' $$dir/load.json > /dev/null || \
		{ echo "serve-smoke: an endpoint's mean batch is not above 1.5: coalescing lost"; exit 1; }; \
	drain "SIGTERM after load"; \
	n=0; while [ $$n -lt 20 ]; do \
		n=$$((n+1)); boot -models lenet5; drain "boot $$n then immediate SIGTERM"; \
	done; \
	echo "serve-smoke: drained after load; 20/20 immediate SIGTERMs drained"

# Multi-model hot-swap smoke: boot inspire-serve with both models sharing
# one dictionary store, fire concurrent load at both endpoints, and POST a
# new lenet5 weight version halfway through the run. -fail trips on any
# dropped (429) or failed request, any response naming the wrong model, any
# client observing a version regression, or a failed swap — the zero-drop
# hot-swap contract, end to end over real HTTP. Then ten more lenet5 swaps
# to never-seen weights must leave /metrics' shared_dict.unique_programs and
# its count of layer series exactly where they were: a retired version
# gives back its interned programs and its series (every lenet5 version
# interns the same number of programs). Needs curl and jq. Blocking in CI.
multi-model-smoke:
	@set -e; \
	dir=$$(mktemp -d /tmp/inspire-mm-smoke.XXXXXX); \
	trap 'rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir/inspire-serve ./cmd/inspire-serve; \
	$(GO) build -o $$dir/inspire-load ./cmd/inspire-load; \
	$$dir/inspire-serve -addr 127.0.0.1:0 -addrfile $$dir/addr -force ipe & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
	i=0; while [ $$i -lt 100 ] && ! [ -s $$dir/addr ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s $$dir/addr ] || { echo "multi-model-smoke: server never bound"; exit 1; }; \
	addr=$$(cat $$dir/addr); \
	$$dir/inspire-load -url http://$$addr -models lenet5,squeezenet \
		-clients 16 -duration 5s -swap-model lenet5 -swap-seed 5 -fail; \
	body="{\"data\":[$$(yes 0.1 | head -n 784 | paste -sd, -)]}"; \
	predict() { curl -sf -o /dev/null http://$$addr/v1/models/lenet5/predict -d "$$body"; }; \
	resident() { curl -sf http://$$addr/metrics | jq -r '"\(.shared_dict.unique_programs) programs, \(.layers | length) layer series"'; }; \
	predict; before=$$(resident); \
	s=0; while [ $$s -lt 10 ]; do \
		s=$$((s+1)); \
		curl -sf -o /dev/null http://$$addr/v1/models/lenet5/versions -d "{\"seed\":$$((1000+s))}" || \
			{ echo "multi-model-smoke: swap $$s failed"; exit 1; }; \
	done; \
	predict; after=$$(resident); \
	[ "$$before" = "$$after" ] || \
		{ echo "multi-model-smoke: 10 swaps moved residency: $$before -> $$after"; exit 1; }; \
	echo "multi-model-smoke: 10 more swaps: $$after, unchanged"
