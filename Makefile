# BrowserFlow build targets. Stdlib-only Go; no external tooling required.

GO ?= go

.PHONY: all build vet test race check node-copies wallclock fuzz policy policy-floor policy-fixtures bench-check vuln cover benchall experiments loc clean index-mutants wal-mutants pins

all: build check

# check is the gate, and runs each test once: static analysis and the
# gofmt gate (vet); the guard against tests that assemble a node of their
# own (node-copies); the guard against code that reads the wall clock past
# the node's clock seam (wallclock); the full suite under the race detector, split in two
# invocations only so the policy package's run also yields its coverage
# profile (that suite holds the crash/corruption-injection recovery
# properties, the replication, partition, overload and self-healing chaos
# suites and the observability goldens); the e-book generator's digests
# and hand-over tests once with one P and once with four, so the books
# and their order are checked whether they are built one at a time or
# concurrently, whatever the runner's core count; the policy gates that are not
# tests (coverage floor, fixture lint); a short fuzz smoke over the parsers
# that read attacker-controlled bytes; the pins and the index's model-rig
# tests, which skip under -race and so run here without it (see pins); a
# vulnerability scan when govulncheck is installed; and the benchmark
# module, which tier-1 does not build.
POLICY_COVER ?= /tmp/policyfile.cover
check: vet node-copies wallclock
	$(GO) test -race -coverprofile=$(POLICY_COVER) ./internal/policyfile
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/policyfile$$')
	$(GO) test -cpu 1,4 -run 'TestGeneratorDigests|TestGenerateEbooks' ./internal/dataset
	$(MAKE) policy-floor
	$(MAKE) policy-fixtures
	$(MAKE) fuzz
	$(MAKE) pins
	$(MAKE) vuln
	$(MAKE) bench-check

# pins runs without -race the tests that skip under it. PINS are the
# memory-budget tests (the engine's, the registry's 4-byte row) and the
# allocation pins (the WAL validation, the zero-alloc decided observe in
# the tracker and the engine, the zero-alloc release allow in the registry and the engine, the registry export's
# allocations per distinct label, not per segment, the ad-hoc text check with
# two sources, the shared fingerprint
# scratch, the proxy's forward path, the index's candidate-discovery and
# head-insert paths, the corpus generator's one string per result), as
# package:test. A name that no longer matches a
# test would leave the step green while it ran nothing, so the step fails
# on a name its package's `go test -list` does not print.
# Then internal/index runs whole: its model-rig tests are one goroutine,
# which the race detector has nothing to say about, so they skip under
# -race and run once, here. That run takes in the package's pins, so the
# -run step leaves internal/index out; its names are still checked above.
PINS = ./internal/policy:TestEngineHeapBudget ./internal/policy:TestMixedGranularityHeap \
	./internal/policy:TestGoldenObserveCacheHitAllocs ./internal/disclosure:TestObserveSteadyStateAllocs \
	./internal/wal:TestValidationDoesNotAllocatePerRecord .:TestSaveHeapAndLoadLayout \
	./internal/tdm:TestCheckReleaseAllocFree ./internal/tdm:TestExportAllocs \
	./internal/tdm:TestRegistryRowBytes \
	./internal/policy:TestGoldenCheckUploadAllocFree \
	./internal/policy:TestGoldenCheckTextAllocs \
	./internal/fingerprint:TestComputeSharedZeroAlloc ./internal/proxy:TestForwardAllocs \
	./internal/index:TestApproxBytesTracksHeap ./internal/index:TestAppendOldestHoldersReusesCapacity \
	./internal/index:TestAppendHoldersReusesCapacity ./internal/index:TestHeadInsertAllocatesNoObjectPerHash \
	./internal/dataset:TestTextGenAllocs
PIN_PKGS = $(sort $(foreach p,$(PINS),$(firstword $(subst :, ,$(p)))))
PIN_NAMES = $(foreach p,$(PINS),$(lastword $(subst :, ,$(p))))
empty :=
space := $(empty) $(empty)
pins:
	@for pkg in $(PIN_PKGS); do \
		listed=$$($(GO) test -list . $$pkg) || exit 1; \
		for pin in $(PINS); do \
			[ "$${pin%%:*}" = "$$pkg" ] || continue; \
			echo "$$listed" | grep -qx "$${pin#*:}" || { echo "pins: $$pkg has no test $${pin#*:}"; exit 1; }; \
		done; \
	done
	$(GO) test -run '^($(subst $(space),|,$(strip $(PIN_NAMES))))$$' $(filter-out ./internal/index,$(PIN_PKGS))
	$(GO) test ./internal/index

# node-copies fails when a test outside internal/node, internal/store and
# internal/replication assembles a node of its own: a _test.go file that
# calls both OpenDurable( and NewServer(. Such a test exercises a wiring
# that does not ship; it should open an internal/node Node instead. The
# one exception is internal/tagserver/metrics_test.go, whose wiredNode
# drives a wedged engine behind the node.prom golden, which a Node cannot
# do: its engine is the policy file's.
node-copies:
	@copies=$$(grep -rl --include='*_test.go' 'OpenDurable(' . | xargs -r grep -l 'NewServer(' | \
		grep -v -e '^./internal/node/' -e '^./internal/store/' -e '^./internal/replication/' \
			-e '^./internal/tagserver/metrics_test.go$$'); \
	if [ -n "$$copies" ]; then \
		echo "node-copies: tests assembling their own node (open an internal/node Node):"; echo "$$copies"; exit 1; \
	fi

# wallclock fails when non-test code a node runs reads the wall clock
# directly instead of through its clock.Clock (node.Config.Clock, handed to
# obs.New and store.DurableOptions): such a timer or timestamp ignores the
# clock a test injects, so the test can no longer move the node's time by
# hand, and two clocks disagree (a wake-up armed on one, judged on the
# other, never comes). Comment lines are skipped.
WALLCLOCK_SCOPE = internal/node internal/store internal/wal internal/replication internal/admission internal/obs
wallclock:
	@calls=$$(ls $(addsuffix /*.go,$(WALLCLOCK_SCOPE)) internal/tagserver/server.go | grep -v '_test\.go$$' | \
		xargs grep -nE '\btime\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\b|\bcontext\.With(Timeout|Deadline)\b' | \
		grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$calls" ]; then \
		echo "wallclock: direct wall-clock use (go through the node's clock.Clock):"; echo "$$calls"; exit 1; \
	fi

# mutants re-checks the mutation parity of a package's tests: each patch
# under the patch directories ($(2)) is a hand-picked fault in the code.
# The rule copies the module to a temporary directory once, then per patch
# applies it, runs the tests of the packages ($(1)) and reverts it, and
# prints "killed" (a test failed) or "survived". A patch that no longer
# applies, or a mutant that does not build, fails the target by name: the
# code it mutates has moved, and the patch must be redone. index-mutants
# covers internal/index, wal-mutants the log and the durable store. Not
# part of check: they run the packages' tests once per mutant.
define mutants
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	tar -cf - go.mod internal | tar -C "$$tmp" -xf -; \
	bad=""; killed=0; survived=0; \
	for p in $(addsuffix /*.patch,$(2)); do \
		name=$$(basename $$p .patch); \
		if ! patch -s -p1 -d "$$tmp" --dry-run < $$p >/dev/null 2>&1; then \
			echo "stale    $$name"; bad="$$bad $$name"; continue; \
		fi; \
		patch -s -p1 -d "$$tmp" < $$p; \
		if out=$$(cd "$$tmp" && $(GO) test -count=1 $(1) 2>&1); then \
			echo "survived $$name"; survived=$$((survived+1)); \
		elif echo "$$out" | grep -q -e 'build failed' -e 'setup failed'; then \
			echo "broken   $$name"; bad="$$bad $$name"; \
		else \
			echo "killed   $$name"; killed=$$((killed+1)); \
		fi; \
		patch -s -R -p1 -d "$$tmp" < $$p; \
	done; \
	echo "$@: $$killed killed, $$survived survived"; \
	if [ -n "$$bad" ]; then echo "$@: stale or broken patches:$$bad"; exit 1; fi
endef
index-mutants:
	$(call mutants,./internal/index,internal/index/testdata/mutants)
wal-mutants:
	$(call mutants,./internal/wal ./internal/store,internal/wal/testdata/mutants internal/store/testdata/mutants)

# bench-check vets, tests and builds the benchmark (its own module, so
# `go build ./...` never sees it): an API change that breaks it fails
# here instead of in the next benchmark run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) -C bench build -o /dev/null .

# policy runs the policy-language verification harness race-enabled: the
# analyzer/compiler/property suites with a coverage floor on the package
# that decides what may leave the browser, the golden byte-equivalence
# suite (compiled bitset verdicts identical to the semilattice across the
# seed scenario scripts, plus the alloc pins), and the bfctl linter
# against every broken fixture (must flag each) and every shipping
# fixture (must pass). The two policy fuzz targets run under `fuzz`.
POLICY_COVER_FLOOR ?= 90
policy:
	$(GO) test -race -coverprofile=$(POLICY_COVER) ./internal/policyfile
	$(MAKE) policy-floor
	$(GO) test -race -run 'Golden' ./internal/policy
	$(MAKE) policy-fixtures

# policy-floor reads the coverage profile the policyfile test run left.
policy-floor:
	@total=$$($(GO) tool cover -func=$(POLICY_COVER) | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "policy: internal/policyfile coverage $$total% (floor $(POLICY_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(POLICY_COVER_FLOOR)) }" || \
		{ echo "policy: coverage $$total% below floor $(POLICY_COVER_FLOOR)%"; exit 1; }

policy-fixtures:
	@for f in internal/policyfile/testdata/broken-*.json; do \
		if $(GO) run ./cmd/bfctl policy lint $$f >/dev/null 2>&1; then \
			echo "policy: lint passed broken fixture $$f"; exit 1; \
		fi; \
	done; echo "policy: all broken fixtures flagged"
	$(GO) run ./cmd/bfctl policy lint internal/policyfile/testdata/seed-webapps.json \
		internal/policyfile/testdata/enterprise-classes.json \
		internal/policyfile/testdata/encrypting-notes.json

# vuln scans the module with govulncheck when it is installed; absent the
# tool (the default container has no network to fetch it), the gate is a
# no-op so check stays runnable offline.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# fuzz smoke: ten seconds per parser of bytes the program did not write
# itself (Go runs one fuzz target per invocation, hence one command
# each): the WAL segment reader (one frame decoder behind recovery, scrub
# and the replication stream, held to one answer), the record applier a
# replica runs over streamed records, the state-image restore (unseal +
# BFLOWSNB decode, the one route every load takes), the registry section's
# decoder on its own, the index itself against its
# reference model (generated operation streams on the model rig's nine
# layouts: head-only, merging inline and merged when told, at 1, 64 and
# 256 shards, each checked after every operation, with restores), the
# segment table's flat index against a map, the
# ring codec, the two
# policy-language targets, and the JSON bodies and X-BF-Trace header a
# node's HTTP endpoints read.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz 'FuzzOpenSegment' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -fuzz 'FuzzApplyRecord' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -fuzz 'FuzzRestoreBinarySnapshot' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -fuzz 'FuzzDecodeExportData' -fuzztime $(FUZZTIME) ./internal/tdm
	$(GO) test -fuzz 'FuzzIndexModel' -fuzztime $(FUZZTIME) ./internal/index
	$(GO) test -fuzz 'FuzzTableModel' -fuzztime $(FUZZTIME) ./internal/segment
	$(GO) test -fuzz 'FuzzDecodeRing' -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -fuzz 'FuzzParsePolicy' -fuzztime $(FUZZTIME) ./internal/policyfile
	$(GO) test -fuzz 'FuzzCompilePolicy' -fuzztime $(FUZZTIME) ./internal/policyfile
	$(GO) test -fuzz 'FuzzServerRequests' -fuzztime $(FUZZTIME) ./internal/node

build:
	$(GO) build ./...

# vet is static analysis plus the formatting gate: any file gofmt would
# rewrite fails it (bench/ is its own module; bench-check vets it).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l cmd internal examples *.go); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# benchall runs every benchmark in the repository.
benchall:
	$(GO) test -bench=. -benchmem ./...

# experiments regenerates the paper's evaluation (§6) and nothing else;
# performance is measured by bench/ (`bash bench/run.sh`). It first
# re-records the goldens, the thirteen experiments that print no timings
# (cmd/bfbench/testdata and the blocks EXPERIMENTS.md quotes), then prints
# the timing experiments, which vary run to run. Every re-recording that
# changes a golden is listed in CHANGES.md with what its diff means:
# which verdict, fingerprint or corpus moved, and why
# (`git diff cmd/bfbench/testdata EXPERIMENTS.md` shows it).
TIMED_EXPERIMENTS = fig12 fig13 ablation-cache
experiments:
	$(GO) test -count=1 ./cmd/bfbench -run Golden -update
	@for e in $(TIMED_EXPERIMENTS); do $(GO) run ./cmd/bfbench -experiment $$e || exit 1; done

# Record the outputs the repro instructions ask for.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# loc prints the ledger ROADMAP counts by: lines of non-test and of test
# Go outside the benchmark module.
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
