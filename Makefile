# Tier-1 verification: format, vet, build, the invariant linter, full test
# suite, and the race detector on the packages shared with real concurrent
# callers (each Env is single-threaded by construction): data, metrics,
# trace, the experiment fan-out in par/experiments, and the sharded
# coordinator in sim/shard, which runs whole Envs on concurrent workers.
# sim itself is raced because those workers resume Proc coroutines from
# their own goroutines, and netsim because the sharded fabric routes frames
# between concurrently-advancing Envs.

GO ?= go
RACE_PKGS := ./internal/sim ./internal/data ./internal/metrics ./internal/trace ./internal/par ./internal/sim/shard ./internal/netsim ./internal/experiments ./internal/workload ./internal/cluster ./internal/hdfs ./internal/faults ./internal/faults/chaostest

.PHONY: tier1 fmt vet build lint lint-evidence test race bench-smoke chaos-smoke fuzz-smoke scale-smoke migrate-smoke examples-smoke lines

tier1: fmt vet build lint test race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet covers bench/ too: it is its own module, so root go build ./... skips
# it, and a deleted name it still uses would otherwise show only in CI's
# bench-smoke.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

# lint runs the simulator's six invariant analyzers (determinism,
# tracecharge, hotalloc, errdiscipline, guesttaint, unitflow) over
# the whole tree in one pass, the linter's own implementation included. The
# same run flags every stale //lint:allow (one that suppresses nothing) as an
# unused-allow finding, prints findings as file:line:col on stderr for
# editors and the CI problem matcher, and writes them as stable, diffable
# JSON to lint-report.json for the CI artifact. The exit status is the
# verdict; the report is written either way.
lint:
	$(GO) build -o bin/vread-lint ./cmd/vread-lint
	./bin/vread-lint -json lint-report.json ./...

# lint-evidence proves internal/analysis/all/mutations.txt, the defects that
# justify each analyzer: in a throwaway copy of the tree, every entry must
# draw a finding from its analyzer while go test ./... still passes. The
# working tree is never edited. A few minutes: the copy keeps its test
# cache, so each mutation re-runs only the packages it reaches.
lint-evidence:
	$(GO) test ./internal/analysis/all -run '^TestMutationEvidence$$' -evidence -count=1 -timeout 30m -v

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# chaos-smoke runs the deterministic fault-injection suite: the seed × plan
# smoke matrix, the hostile-guest profile (forged descriptors, stale keys,
# doorbell storms, held slots — per-VM isolation checked), the rack storms
# (rack, shard and domain loss with replica failover), the live-migration
# storms, the byte-identical-replay checks and the fingerprint golden. On an
# invariant violation in any of them the failing (seed, plan) pairs are written to
# chaos-failures.json — each pair is a complete reproducer: re-run the same
# harness, seed and spec locally and the run replays byte-identically.
chaos-smoke:
	CHAOS_REPORT=$(CURDIR)/chaos-failures.json $(GO) test ./internal/faults/chaostest/ -count=1 -run 'TestChaos|TestRackStorm' -v

# fuzz-smoke runs every native fuzz target briefly: the fault-spec and
# scenario-file parsers (config input; no input may panic, accepted fault
# rules must be in range and round-trip), the HDFS wire headers, the data
# pattern windows (against the per-byte formula), data.Equal (against
# bytes.Equal, on its identity path and across its 512-byte chunk edges),
# sim.Queue's ring (against a plain-slice FIFO at capacities 0, 1 and 3),
# sim.Queue's Notify handler consumer (against a Proc looping over Get: same
# pops at the same virtual times, same event count), the event engine's heap and ready lane (firing order against a reference
# sort by time and schedule order, across cancels, deadlines and Stop),
# storage.Readahead (reads, drops and engine steps against
# its window invariants), vhost's check of a guest-written virtio-net tx
# descriptor (payload length and destination), the iothread's check of a
# guest-written block request (size) and the vRead daemon's check of a
# guest-written ring descriptor (state, opcode, key, names, byte range). Seeds are the f.Add calls plus
# testdata/fuzz/<target>; a crasher is written there too and fails the
# target.
FUZZ_TARGETS := ./internal/faults:FuzzParseSpec ./internal/experiments:FuzzParseOptions \
	./internal/hdfs:FuzzWriteReqRoundTrip ./internal/hdfs:FuzzReadReqRoundTrip \
	./internal/data:FuzzPatternWindowConsistency ./internal/data:FuzzConcatSplit \
	./internal/data:FuzzEqual ./internal/sim:FuzzQueue ./internal/sim:FuzzQueueNotify \
	./internal/sim:FuzzSignalNotify ./internal/sim:FuzzEventOrder ./internal/storage:FuzzReadahead \
	./internal/virtio:FuzzSanitizeFrame ./internal/virtio:FuzzSanitizeBlkReq \
	./internal/core:FuzzSanitizeReq

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime 10s || exit 1; done

# bench-smoke checks the benchmark of record (bench/, see bench/README.md):
# the bench module's vet and tests, then one zero-second run of every
# BENCHMARK.json workload at each seed bench/expected holds rows for (1 and
# 2). Each run is a warm-up pass plus 3 timed passes, and every pass is
# checked against bench/expected, so any drift in a simulated row fails the
# target.
BENCH_WORKLOADS := dfsio-read-vanilla dfsio-read-vread dfsio-write scale-storm

bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	@for s in 1 2; do for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed $$s --seconds 0 || exit 1; done; done

# scale-smoke drives the datacenter-scale scenario (federated namespace over
# a 1000-host multi-domain topology, open-loop storm, mid-storm rack kill)
# and writes the p50/p95/p99 SLO rows to slo-report.json for artifact upload.
# Deterministic: same seed → byte-identical rows.
scale-smoke:
	$(GO) build -o bin/vread-sim ./cmd/vread-sim
	./bin/vread-sim -config scenarios/scale-smoke.json -slo slo-report.json

# migrate-smoke drives the live-mount-migration blackout sweep (a datanode
# mount migrated out from under concurrent reader streams, one cell per
# in-flight depth) and writes the blackout rows to blackout-report.json for
# artifact upload. Zero lost or corrupted reads is the exit status; the rows
# replay byte-identically from (seed, config).
migrate-smoke:
	$(GO) build -o bin/vread-sim ./cmd/vread-sim
	./bin/vread-sim -config scenarios/migrate-smoke.json -blackout blackout-report.json

# examples-smoke runs every program under examples/ once (~10 s in all on a
# 2-vCPU VM), then README's two hdfs-cli sessions: a vRead put/stat/get/ls,
# whose get drains through the ring, and a sharded placement. Nothing else
# executes them; each exits non-zero when its scenario fails.
EXAMPLES := $(wildcard examples/*)

examples-smoke:
	@for e in $(EXAMPLES); do echo "== $$e"; $(GO) run ./$$e || exit 1; done
	@echo "== cmd/hdfs-cli"
	$(GO) run ./cmd/hdfs-cli -vread put /a 2048 \; stat /a \; get /a \; ls
	$(GO) run ./cmd/hdfs-cli -shards 4 -replication 2 put /a 2048 \; placement /a

# lines prints the non-test Go line counts ROADMAP's line bars are set
# against, all outside bench/ (its own module) and testdata/: one row per
# package directory, then the internal/analysis tree (the linter and its
# analyzers) and the total.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './bench/*' ! -path '*/testdata/*' \
		-exec wc -l {} + | awk '$$2 != "total" { \
			d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
			n[d] += $$1; t += $$1; if (d ~ /^internal\/analysis(\/|$$)/) a += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d internal/analysis/...\n%7d total\n", a, t }'
