# BrowserFlow build targets. Stdlib-only Go; no external tooling required.

GO ?= go

.PHONY: all build vet test race check fuzz policy policy-floor policy-fixtures bench-check vuln cover benchall experiments loc clean

all: build check

# check is the gate, and runs each test once: static analysis and the
# gofmt gate (vet); the full suite under the race detector, split in two
# invocations only so the policy package's run also yields its coverage
# profile (that suite holds the crash/corruption-injection recovery
# properties, the replication, partition, overload and self-healing chaos
# suites and the observability goldens); the policy gates that are not
# tests (coverage floor, fixture lint); a short fuzz smoke over the parsers
# that read attacker-controlled bytes; the memory-budget tests and the
# allocation pins (the WAL validation, the zero-alloc decided observe in the
# tracker and the engine, the index's candidate-discovery and head-insert
# paths), which skip under -race and so run here without it; a
# vulnerability scan when govulncheck is installed; and the benchmark
# module, which tier-1 does not build.
POLICY_COVER ?= /tmp/policyfile.cover
check: vet
	$(GO) test -race -coverprofile=$(POLICY_COVER) ./internal/policyfile
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/policyfile$$')
	$(MAKE) policy-floor
	$(MAKE) policy-fixtures
	$(MAKE) fuzz
	$(GO) test -run 'TestEngineHeapBudget|TestMixedGranularityHeap|TestApproxBytesTracksHeap|TestSaveHeapAndLoadLayout|TestValidationDoesNotAllocatePerRecord|TestObserveSteadyStateAllocs|TestGoldenObserveCacheHitAllocs|TestAppendOldestHoldersReusesCapacity|TestAppendHoldersReusesCapacity|TestHeadInsertAllocatesNoObjectPerHash' \
		./internal/policy ./internal/index ./internal/disclosure ./internal/wal .
	$(MAKE) vuln
	$(MAKE) bench-check

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
# BFLOWSNB decode, the one route every load takes), the index digest
# codec the anti-entropy comparator trusts, the index itself against its
# reference model (generated operation streams over the packed runs and
# the head tables), the segment table's flat index against a map, the
# ring codec, the two
# policy-language targets, and the JSON bodies and X-BF-Trace header a
# node's HTTP endpoints read.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz 'FuzzOpenSegment' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -fuzz 'FuzzApplyRecord' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -fuzz 'FuzzRestoreBinarySnapshot' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -fuzz 'FuzzDecodeDigest' -fuzztime $(FUZZTIME) ./internal/index
	$(GO) test -fuzz 'FuzzIndexModel' -fuzztime $(FUZZTIME) ./internal/index
	$(GO) test -fuzz 'FuzzTableModel' -fuzztime $(FUZZTIME) ./internal/segment
	$(GO) test -fuzz 'FuzzDecodeRing' -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -fuzz 'FuzzParsePolicy' -fuzztime $(FUZZTIME) ./internal/policyfile
	$(GO) test -fuzz 'FuzzCompilePolicy' -fuzztime $(FUZZTIME) ./internal/policyfile
	$(GO) test -fuzz 'FuzzServerRequests' -fuzztime $(FUZZTIME) ./internal/tagserver

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

# Regenerate every table and figure of the paper's evaluation (§6) and
# nothing else; performance is measured by bench/ (`bash bench/run.sh`).
experiments:
	$(GO) run ./cmd/bfbench -experiment all

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
