# Developer checks. `make check` is the full gate: static vetting, a
# clean build, the reachability and context-chain gates, the whole suite
# under the race detector, a short fuzz smoke of every fuzz target (seed corpora under
# testdata/fuzz always run as plain tests), the binaries' documented usage,
# the load-replay smoke, the benchmark smoke and the pair-record check.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet reach ctxcheck test race fuzz bench benchdiff pairs pairscheck microbench telemetry profile clismoke loadsmoke benchsmoke

check: vet build reach ctxcheck telemetry race fuzz clismoke loadsmoke benchsmoke pairscheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# reach fails on an internal package that no binary and no benchmark
# workload imports — code only its own tests or an example keep alive.
# internal/telemetry/spantest is the one test helper. Then it runs the
# same check one level down (reach_test.go): an exported function or
# method under internal/ that no non-test file of the module calls.
reach:
	@deps=$$($(GO) list -deps ./cmd/... ./benchmark/...) || exit 1; \
	for p in $$($(GO) list ./internal/...); do \
		case $$p in */internal/telemetry/spantest) continue ;; esac; \
		echo "$$deps" | grep -qxF "$$p" || { echo "reach: $$p: imported by no binary and no benchmark workload"; bad=1; }; \
	done; \
	if [ -n "$$bad" ]; then exit 1; fi; \
	echo "reach: ok, every internal package is reached from ./cmd/... or ./benchmark/..."
	$(GO) test -count=1 -run '^TestExportedFunctionsReached$$' .

# ctxcheck keeps the context chain unbroken: non-test code under internal/
# and cmd/ takes its context from its caller, so a request that is cancelled
# stops what it started. A context is minted only where no caller has one to
# give — the frozen four-argument core.Evaluate and service.Registry.Invoke,
# telemetry.WithTrace's nil guard, the session manager's base context (what
# Drain cancels when its budget expires) and axmlserver's drain budget. Any
# other context.Background() or context.TODO() is printed as file:line.
ctxcheck:
	@bad=$$(grep -rnE 'context\.(Background|TODO)\(\)' --include='*.go' internal cmd \
		| grep -v -e '_test\.go:' -e '^[^:]*:[0-9]*:[[:space:]]*//' \
		| grep -vE -e '^internal/core/engine\.go:[0-9]+:.*\.Run\(context\.Background\(\), reg, opt\)$$' \
			-e '^internal/service/service\.go:[0-9]+:.*r\.InvokeContext\(context\.Background\(\), name, params, pushed\)$$' \
			-e '^internal/telemetry/tracectx\.go:[0-9]+:[[:space:]]*ctx = context\.Background\(\)$$' \
			-e '^internal/session/session\.go:[0-9]+:[[:space:]]*base, abort := context\.WithCancel\(context\.Background\(\)\)$$' \
			-e '^cmd/axmlserver/main\.go:[0-9]+:.*context\.WithTimeout\(context\.Background\(\), \*drainTimeout\)$$'); \
	if [ -n "$$bad" ]; then echo "ctxcheck: a context minted where a caller's should be passed on:"; echo "$$bad"; exit 1; fi; \
	echo "ctxcheck: ok, every context under internal/ and cmd/ comes from its caller"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz FuzzAnchorProbe -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/tree/
	$(GO) test -run '^$$' -fuzz FuzzScanMatchesDecode -fuzztime $(FUZZTIME) ./internal/tree/
	$(GO) test -run '^$$' -fuzz FuzzProject -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzSchemaParse -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzGuideCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/fguide/
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime $(FUZZTIME) ./internal/repo/
	$(GO) test -run '^$$' -fuzz FuzzDecodeInvoke -fuzztime $(FUZZTIME) ./internal/soap/
	$(GO) test -run '^$$' -fuzz FuzzSplitTrailingTrace -fuzztime $(FUZZTIME) ./internal/soap/
	$(GO) test -run '^$$' -fuzz FuzzQueryResponseWire -fuzztime $(FUZZTIME) ./internal/session/
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime $(FUZZTIME) ./internal/session/
	$(GO) test -run '^$$' -fuzz FuzzProfileUnmarshal -fuzztime $(FUZZTIME) ./internal/profile/

# bench rewrites the tracked perf record, BENCH_WORKLOADS.json: what a
# request costs end to end and layer by layer, the five BENCHMARK.json
# workloads, three runs each at full scale (about five minutes), as one
# stamped result set — git history of that file is the trajectory. Beside
# it, BENCH_PAIRS.json keeps the paired runs of claims (`make pairs
# RECORD=1`); the paper's tables are `go run ./cmd/axmlbench`.
bench:
	bash benchmark/run.sh --workload all --runs 3 --set BENCH_WORKLOADS.json

# benchdiff measures the working tree the same way and compares it with
# the record, against the bounds BENCHMARK.json fixes: one row per
# (workload, end-to-end metric), non-zero exit on any "worse". It first
# prints the record's age: the commit it was stamped at and how many
# commits HEAD is ahead of it (needs jq).
benchdiff:
	@stamp=$$(jq -r .stamp.commit BENCH_WORKLOADS.json); \
	echo "record: BENCH_WORKLOADS.json stamped at $$stamp, $$(git rev-list --count $$stamp..HEAD 2>/dev/null || echo '?') commits behind HEAD"
	bash benchmark/run.sh --workload all --runs 3 --set out/bench/head.json
	bash benchmark/run.sh --compare BENCH_WORKLOADS.json out/bench/head.json

# pairs runs BASE against CHANGE (default HEAD) on one WORKLOAD, one pair
# per seed in SEEDS with the side that goes first alternating, and prints
# METRIC's per-pair table (default op_ms_p50; wins counted in the direction
# BENCHMARK.json gives it), wins, medians, the parent's IQR and the --compare
# verdict (scripts/pairs.sh; PAIRS_DIR names the scratch directory). With
# RECORD=1 the pair set is appended to the tracked BENCH_PAIRS.json.
CHANGE ?= HEAD
METRIC ?= op_ms_p50
pairs:
	METRIC="$(METRIC)" bash scripts/pairs.sh $(if $(RECORD),--record BENCH_PAIRS.json) "$(BASE)" "$(CHANGE)" "$(WORKLOAD)" $(SEEDS)

# pairscheck reads a recorded pair set back (pairs.sh --table <file>, no
# benchmark run): it must print the table its pairs printed when they were
# recorded, so BENCH_PAIRS.json stays readable as the script changes.
pairscheck:
	bash scripts/pairs.sh --table scripts/testdata/pairs.json | diff -u scripts/testdata/pairs.table -
	@echo "pairscheck: ok, the recorded pair set prints its table"

# clismoke runs the Usage lines of the binaries' package comments end to
# end in a temporary directory (scripts/clismoke.sh), so documented usage
# cannot rot.
clismoke:
	bash scripts/clismoke.sh

# loadsmoke replays a small oracle-verified mixed workload through an
# in-process session server — the serving-layer gate in `make check` —
# every 10th request a never-seen point query that splices a master,
# streaming the distributed span trace as JSONL and snapshotting the
# per-service statistics profiles (both are CI artifacts). Outputs land
# in the ignored out/ directory, never the repo root.
loadsmoke:
	mkdir -p out
	$(GO) run ./cmd/axmlload -self -clients 8 -requests 160 -write-every 10 \
		-trace-out out/loadsmoke_trace.jsonl -stats-out out/loadsmoke_stats.json

# benchsmoke runs every workload of the repo's benchmark (BENCHMARK.json)
# at tiny scale through the very command the benchmark declares, traced,
# so a change to an API the frozen benchmark/ package calls — or an
# answer that stops matching its oracle — fails the gate.
benchsmoke:
	bash benchmark/run.sh --workload all --scale tiny --seconds 1 --trace 1

microbench:
	$(GO) test -bench . -benchmem ./internal/pattern/
	$(GO) test -run TestResumedRunIsOChange -bench 'ReevalAfterWrite' -benchmem ./internal/session/
	$(GO) test -run TestUnmarshalAllocationCeiling -bench 'Unmarshal/' -benchmem ./internal/tree/
	$(GO) test -run 'TestMemoAnswerHTTPAllocationCeiling|TestMemoAnswerDuringEngineRun|TestWarmWriteAllocationCeiling' -bench 'MemoAnswer|ReevalAfterWrite|WriteWithResidents' -benchmem ./internal/session/
	$(GO) test -bench TelemetryOverhead -benchmem .
	$(GO) test -run TestE13AllocationRegression -count=1 -v ./internal/pattern/

# telemetry gates the observability layer on its own: vet plus the
# race-detected tests of the tracer/metrics package and the two packages
# that feed it from concurrent code paths.
telemetry:
	$(GO) vet ./internal/telemetry/ ./internal/core/ ./internal/soap/
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/core/ ./internal/soap/

# profile captures CPU and heap profiles of the quick E1 strategy sweep
# (Prepare and evaluation under every strategy) together with its span
# trace and result table, all under the ignored out/. Inspect with
# `go tool pprof out/cpu.pprof`.
profile:
	mkdir -p out
	$(GO) run ./cmd/axmlbench -exp E1 -quick \
		-cpuprofile out/cpu.pprof -memprofile out/heap.pprof \
		-json out/E1_quick.json -trace-out out/E1_trace.jsonl
