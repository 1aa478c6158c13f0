# Development targets. `make check` is the gate every change must pass:
# vet, the keyzero key-hygiene check, and the full test suite under the
# race detector, which keeps the coalescing-path fixes (panic cleanup,
# flight-result aliasing) fixed.

GO ?= go
GOFMT ?= gofmt

.PHONY: check build fmt vet loc knobs doccheck lint test race bench bench-quick bench-overhead bench-hot bench-baseline bench-regress fuzz

check: vet lint race

build:
	$(GO) build ./...

# Formatting drift gate: fails listing any file gofmt would rewrite.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Non-test Go lines outside benchmark/ and testdata/: the number
# ROADMAP aim 2 wants trending down. CI prints it for every PR and
# fails when it exceeds LOC_MAX, a ratchet: lower it with the change
# that removes lines.
LOC_MAX := 18608

loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo $$n; \
	if [ $$n -gt $(LOC_MAX) ]; then echo "loc: $$n non-test lines exceed LOC_MAX ($(LOC_MAX))" >&2; exit 1; fi

# The configuration surface ROADMAP C1 wants down by a third, per
# source and in total: the exported fields of the option structs, the
# store server's With* options and the flags resultstore defines. CI
# prints it beside loc and fails when the total exceeds KNOBS_MAX, so
# no knob is added without deleting one.
KNOBS_MAX := 73

KNOB_STRUCTS := system.go:SystemConfig app.go:AppConfig \
	internal/store/store.go:Config \
	internal/dedup/runtime.go:Config internal/dedup/client.go:RemoteConfig \
	internal/cluster/client.go:Config internal/store/logengine/logengine.go:Config

knobs:
	@total=0; \
	row() { printf '%-48s %3d\n' "$$1" "$$2"; total=$$((total + $$2)); }; \
	for src in $(KNOB_STRUCTS); do \
		row "$$src" $$(awk -v t="$${src##*:}" ' \
			$$0 ~ "^type " t " struct" { inside = 1; next } \
			inside && /^}/ { exit } \
			inside && /^\t[A-Z]/ { k = 1; for (i = 1; i < NF && $$i ~ /,$$/; i++) k++; n += k } \
			END { print n + 0 }' $${src%%:*}); \
	done; \
	row "internal/store With* server options" $$(find internal/store -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c '^func With[A-Z]'); \
	row "cmd/resultstore flags" $$(grep -c 'fs\.[A-Z][A-Za-z0-9]*("' cmd/resultstore/main.go); \
	printf '%-48s %3d\n' total $$total; \
	if [ $$total -gt $(KNOBS_MAX) ]; then echo "knobs: $$total exceed KNOBS_MAX ($(KNOBS_MAX))" >&2; exit 1; fi

# Test-name citations: every Test…, Benchmark… or Fuzz… name that
# DESIGN.md or README.md cites must match a func in some _test.go file,
# or its file:line is printed and the target fails. A trailing * means
# "prefix"; a name given to -bench or -run is the regexp it is there and
# matches any func containing it. ROADMAP.md is left out: it names tests
# still to be written.
DOCCHECK_DOCS := DESIGN.md README.md

doccheck:
	@{ grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func /F /'; \
	   grep -noE "(-(bench|run)[ =]'?)?(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*[*]?" $(DOCCHECK_DOCS) | sed 's/^/C /'; } | \
	awk '$$1 == "F" { fn[$$2] = 1; next } \
		{ split(substr($$0, 3), f, ":"); name = f[3]; ok = 0; \
		  if (sub(/^-(bench|run)[ =]\047?/, "", name)) { for (k in fn) if (index(k, name)) { ok = 1; break } } \
		  else if (sub(/[*]$$/, "", name)) { for (k in fn) if (index(k, name) == 1) { ok = 1; break } } \
		  else ok = (name in fn); \
		  if (!ok) { print f[1] ":" f[2] ": no test named " f[3]; bad = 1 } } \
		END { exit bad }'

# Key hygiene, the one invariant no test can observe: keyzero over its
# fixture (TestKeyZero) and over every package of the module
# (TestModuleKeyZero), plus the TCB import check (TestTCBImports).
# `go test ./...` runs the same tests; this target runs them alone.
# DESIGN.md "Static analysis" lists the tests that pin what the
# retired analyzers checked.
lint:
	$(GO) test ./internal/lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-quick:
	$(GO) run ./cmd/speedbench -quick

# Refresh the committed telemetry reports: per-phase latency quantiles
# and outcome counters captured while the fig5/fig6 experiments run.
bench:
	$(GO) run ./cmd/speedbench -quick -exp fig5 -metrics-out BENCH_fig5.json
	$(GO) run ./cmd/speedbench -quick -exp fig6 -metrics-out BENCH_fig6.json

# Instrumentation overhead gate: BenchmarkExecuteHitTelemetry must stay
# within 5% of BenchmarkExecuteHit (deployment-default SGX costs).
bench-overhead:
	$(GO) test -run xxx -bench 'BenchmarkExecuteHit' -benchtime 1s ./internal/dedup/

# Hot-path micro-benchmarks: the allocation-free wire/crypto fast path
# (Channel round trip, marshal, frame read, mle seal/open), the
# storage engine's memtable-hit read, its filter-answered miss + insert
# (which must read no segment file) and one streaming merge, the store
# server's one-tag GET hit, one client's GET hit and PUT through the mux
# over loopback TCP beside a bare loopback ping-pong of the hit's sizes
# (BenchmarkHotTCPFloor; BenchmarkHotMuxGetHitOverFloor times the two in
# turn, and benchgate holds their ratio within 2.0x), the
# FastCDC chunker scan, and a chunked hit that reassembles half its
# chunks from the cache.
# -count 6 gives the regression gate a run-to-run spread for its
# significance test.
BENCH_HOT_PKGS := ./internal/wire ./internal/mle ./internal/store ./internal/store/logengine ./internal/chunk ./internal/dedup
BENCH_HOT_PATTERN := 'BenchmarkHot|BenchmarkChannelRoundTrip'
BENCH_HOT_COUNT ?= 6

bench-hot:
	$(GO) test -run '^$$' -bench $(BENCH_HOT_PATTERN) -benchmem -count $(BENCH_HOT_COUNT) $(BENCH_HOT_PKGS)

# Record a new hot-path baseline (bench/baseline.txt is checked in).
# Run on a quiet machine; commit the result together with the change
# that moved the numbers.
bench-baseline:
	$(GO) test -run '^$$' -bench $(BENCH_HOT_PATTERN) -benchmem -count $(BENCH_HOT_COUNT) $(BENCH_HOT_PKGS) | tee bench/baseline.txt

# Regression gate: rerun the hot-path benchmarks and compare against
# the checked-in baseline with cmd/benchgate (benchstat-style, no
# dependencies). allocs/op is held near-exactly; ns/op tolerates +30%
# by default (SPEED_BENCH_TIME_THRESHOLD to override) so cross-machine
# baselines don't flake.
bench-regress:
	$(GO) test -run '^$$' -bench $(BENCH_HOT_PATTERN) -benchmem -count $(BENCH_HOT_COUNT) $(BENCH_HOT_PKGS) | tee /tmp/speed-bench-new.txt
	$(GO) run ./cmd/benchgate -baseline bench/baseline.txt -new /tmp/speed-bench-new.txt

# Short fuzz pass over the wire codecs, the server side of the attested
# handshake, the storage-engine WAL framing, the chunk manifest codec,
# the FastCDC chunker invariants and chunked reassembly against a store
# that lies about one chunk. Go runs one fuzz target per invocation, so
# each target gets its own run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzParseHello$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzServerHandshake$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzUnmarshalEnvelope$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzRecord$$' -fuzztime $(FUZZTIME) ./internal/store/logengine/
	$(GO) test -run xxx -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/chunk/
	$(GO) test -run xxx -fuzz '^FuzzChunker$$' -fuzztime $(FUZZTIME) ./internal/chunk/
	$(GO) test -run xxx -fuzz '^FuzzChunkedReassembly$$' -fuzztime $(FUZZTIME) ./internal/dedup/
