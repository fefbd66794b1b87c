# Developer entry points. `make ci` is the full gate: lint (gofmt +
# vet), build, tests, the race detector over the concurrency-bearing packages
# (compile cache + single-flight, parallel sweeps, the sharded loop
# scheduler, pooled interpreter frames, the lock-free machine counters,
# the observability sinks, the backend registry, the sweep-wide count
# memo, concurrent durable-file writes and sweeps), a bounded fuzz smoke
# over the vm, scheduler, conformance, count-invariance and
# durable-envelope property targets, the
# grammar-driven conformance suite, the persistent-cache cold/warm gate,
# the native-vs-vm differential, the adaptive-planner cold/warm gate, the
# benchmark module's vet and tests, the reference-output check, and the
# package-documentation check.

GO ?= go
RACE_PKGS := ./internal/core ./internal/bench ./internal/kernelc ./internal/vm ./internal/obs ./internal/loopdep ./internal/backend/... ./internal/server ./internal/plan ./internal/hotspot ./internal/durable
FUZZTIME ?= 5s

.PHONY: ci lint fmt vet build test race fuzz conform benchtest cachepersist nativediff plancheck servecheck figcheck docs

ci: lint build test race fuzz conform benchtest cachepersist nativediff plancheck servecheck figcheck docs

# lint bundles the static hygiene checks: gofmt cleanliness and go vet.
lint: fmt vet

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The shared count memo's eight-worker sweep test and the planned fig7
# sweep, whose workers share each series' lazily built inputs, run
# repeatedly, so the race detector sees many interleavings of their
# single flights; so does the two-lane vector reduction, whose lanes
# copy their partials out of pooled frames.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 -run '^(TestSharedMemoExecutesEachKeyOnce|TestFig7BytesInvariantUnderAutoPlan)$$' ./internal/bench
	$(GO) test -race -count=10 -run '^TestParallelVectorReductionLanes$$' ./internal/kernelc

# Bounded fuzz smoke: each fuzz target runs for FUZZTIME.
# `go test -fuzz` accepts one target per invocation, hence the loop.
fuzz:
	@for t in FuzzF16RoundTrip FuzzXorshiftUniform FuzzIntoOpsAgree; do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run xxx -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/vm || exit 1; \
	done
	@echo "fuzz FuzzShardBounds ($(FUZZTIME))"; \
	$(GO) test -run xxx -fuzz "^FuzzShardBounds$$" -fuzztime $(FUZZTIME) ./internal/kernelc
	@for t in FuzzConformGen FuzzConformReplay; do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run xxx -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/conform || exit 1; \
	done
	@echo "fuzz FuzzSpecCanonicalize ($(FUZZTIME))"; \
	$(GO) test -run xxx -fuzz "^FuzzSpecCanonicalize$$" -fuzztime $(FUZZTIME) ./internal/server
	@echo "fuzz FuzzCountKeySound ($(FUZZTIME))"; \
	$(GO) test -run xxx -fuzz "^FuzzCountKeySound$$" -fuzztime $(FUZZTIME) ./internal/kernelc
	@echo "fuzz FuzzOpen ($(FUZZTIME))"; \
	$(GO) test -run xxx -fuzz "^FuzzOpen$$" -fuzztime $(FUZZTIME) ./internal/durable

# conform is the verifier/executor conformance gate: 500 grammar-drawn
# kernels (well-formed plus every defect class) must classify exactly as
# their defect predicts and execute identically across the scalar
# oracle, all vm tiers, and the sampled native backend. Any divergence
# is auto-minimized and printed (see docs/VERIFIER.md).
conform:
	$(GO) run ./cmd/ngen conform -seed 1 -count 500

# benchtest vets and tests the ngenbench module. It is a nested module,
# so the root `go build ./...` and `go test ./...` never compile it, and
# a renamed API it imports would otherwise break only the benchmark.
benchtest:
	cd cmd/ngenbench && $(GO) vet ./... && $(GO) test ./...

# nativediff is the native-backend gate: every registered kernel must be
# byte-identical (results, memory, dynamic op counts, error text)
# between the vm interpreter and the plugin-compiled native tier, and so
# must every intrinsic the native emitter lowers, applied once each to
# edge inputs (TestNativeLaneOpsMatchVM). Hosts that cannot build or
# load plugins skip with a visible notice instead of failing.
nativediff:
	@out=$$($(GO) test -count=1 -run 'TestNativeDifferentialAllKernels|TestNativeLaneOpsMatchVM' -v ./internal/backend/native) \
		|| { echo "$$out"; exit 1; }; \
	if echo "$$out" | grep -q -- "--- SKIP"; then \
		echo "nativediff: SKIPPED on this host:"; \
		echo "$$out" | grep -m1 "native backend unavailable"; \
	else \
		n=$$(echo "$$out" | grep -c -- "--- PASS: TestNativeDifferentialAllKernels/"); \
		echo "nativediff: $$n kernels byte-identical native vs vm"; \
		echo "$$out" | grep -q -- "--- PASS: TestNativeLaneOpsMatchVM" \
			&& echo "nativediff: every lowered intrinsic bit-identical native vs vm"; \
	fi

# plancheck is the adaptive-planner gate, in three phases. First the
# calibration round-trip: a cold `ngen plan -check` over the three
# reference kernels must leave every size bucket calibrated with a
# measured-best chosen row, persisting its plans to the cache directory;
# the warm rerun — fresh process, same directory — must load every plan
# and spend zero probes. Second, figure invariance: the auto-planned
# quick fig6a sweep must be byte-identical to the static one (planner
# lines stripped), because strategy choice moves wall time, never
# results. Third, the no-choice rule: with one lane and no cache
# directory (so no native plugin on hand) every kernel has a single
# strategy, so the planned run must make no plan at all and still
# print the static figure.
plancheck:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/ngen plan -check -cachedir "$$dir" saxpy mmm dot8 >/dev/null \
		|| { rm -rf "$$dir"; exit 1; }; \
	out=$$($(GO) run ./cmd/ngen plan -check -cachedir "$$dir" saxpy mmm dot8) \
		|| { rm -rf "$$dir"; exit 1; }; \
	line=$$(echo "$$out" | grep "^plan probes:"); \
	case "$$line" in "plan probes: 0 "*) ;; *) \
		rm -rf "$$dir"; echo "warm planner run still probing: $$line"; exit 1;; esac; \
	$(GO) run ./cmd/ngen -quick fig6a \
		| grep -v "^plan" >/tmp/plancheck_static.txt || { rm -rf "$$dir"; exit 1; }; \
	$(GO) run ./cmd/ngen -quick -auto -cachedir "$$dir" fig6a \
		| grep -v -e "^plan" -e "^cachepersist:" >/tmp/plancheck_auto.txt \
		|| { rm -rf "$$dir"; exit 1; }; \
	rm -rf "$$dir"; \
	cmp -s /tmp/plancheck_static.txt /tmp/plancheck_auto.txt \
		|| { echo "plancheck: auto-planned figure diverged from static"; \
			diff /tmp/plancheck_static.txt /tmp/plancheck_auto.txt; exit 1; }; \
	out=$$($(GO) run ./cmd/ngen -quick -auto -par 1 fig6a) || exit 1; \
	echo "$$out" | grep -q "^plan: 0 plans" \
		|| { echo "plancheck: a run without a choice planned:"; \
			echo "$$out" | grep "^plan"; exit 1; }; \
	echo "$$out" | grep -v "^plan" >/tmp/plancheck_nochoice.txt; \
	cmp -s /tmp/plancheck_static.txt /tmp/plancheck_nochoice.txt \
		|| { echo "plancheck: no-choice planned figure diverged from static"; \
			diff /tmp/plancheck_static.txt /tmp/plancheck_nochoice.txt; exit 1; }; \
	echo "plancheck: warm $$line; auto-planned fig6a byte-identical to static; -par 1 run made 0 plans"

# cachepersist is the persistent-cache gate: a cold run populates the
# cache directory, and the warm run — a fresh process, empty in-memory
# cache — must perform zero graph compiles, lowering every kernel from
# the persisted entries instead.
cachepersist:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/ngen -quick -cachedir "$$dir" all >/dev/null \
		|| { rm -rf "$$dir"; exit 1; }; \
	out=$$($(GO) run ./cmd/ngen -quick -cachedir "$$dir" all) \
		|| { rm -rf "$$dir"; exit 1; }; \
	rm -rf "$$dir"; \
	line=$$(echo "$$out" | grep "^cachepersist:"); echo "$$line"; \
	case "$$line" in *"graph compiles: 0"*) ;; *) \
		echo "warm run re-ran graph compiles"; exit 1;; esac

# servecheck is the daemon smoke gate: build ngend, boot it on an
# ephemeral port with a job store and compile cache, walk the serving
# path over real HTTP (healthz → stage → execute job → result), read
# the finished job back from /metrics (server.jobs.done ≥ 1,
# server.jobs.running = 0) with /healthz still ok, then shut down
# gracefully and require the clean-exit handshake.
servecheck:
	@tmp=$$(mktemp -d); fail=1; \
	$(GO) build -o "$$tmp/ngend" ./cmd/ngend || { rm -rf "$$tmp"; exit 1; }; \
	"$$tmp/ngend" -addr 127.0.0.1:0 -store "$$tmp/jobs" -cachedir "$$tmp/cache" \
		>"$$tmp/log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "^ngend: listening on " "$$tmp/log" && break; sleep 0.1; done; \
	addr=$$(sed -n 's/^ngend: listening on //p' "$$tmp/log"); \
	if [ -n "$$addr" ]; then fail=0; \
		curl -fsS "http://$$addr/healthz" | grep -q '"status": "ok"' || fail=1; \
		curl -fsS -X POST "http://$$addr/v1/stage" -d '{"kernel":"saxpy"}' \
			| grep -q '"hash"' || fail=1; \
		id=$$(curl -fsS -X POST "http://$$addr/v1/jobs" \
			-d '{"type":"execute","kernel":"saxpy","n":64}' \
			| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
		[ -n "$$id" ] || fail=1; \
		ok=1; for i in $$(seq 1 50); do \
			curl -fsS "http://$$addr/v1/jobs/$$id/result" >"$$tmp/result" 2>/dev/null \
				&& { ok=0; break; }; sleep 0.1; done; \
		[ $$ok -eq 0 ] && grep -q '"vm_ops"' "$$tmp/result" || fail=1; \
		curl -fsS "http://$$addr/metrics" >"$$tmp/metrics" || fail=1; \
		jobs_done=$$(sed -n 's/.*"server.jobs.done": \([0-9]*\).*/\1/p' "$$tmp/metrics"); \
		jobs_running=$$(sed -n 's/.*"server.jobs.running": \([0-9]*\).*/\1/p' "$$tmp/metrics"); \
		[ -n "$$jobs_done" ] && [ "$$jobs_done" -ge 1 ] && [ "$$jobs_running" = 0 ] || fail=1; \
		curl -fsS "http://$$addr/healthz" | grep -q '"status": "ok"' || fail=1; \
	fi; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	grep -q "^ngend: stopped" "$$tmp/log" || fail=1; \
	if [ $$fail -ne 0 ]; then echo "servecheck: FAILED"; cat "$$tmp/log"; fi; \
	rm -rf "$$tmp"; \
	[ $$fail -eq 0 ] && echo "servecheck: healthz + stage + execute round-trip over HTTP ok, /metrics shows the job done"
# The second phase is the crash/resume gate: a full fig6b sweep is
# SIGKILLed once its first point checkpoints, the restarted daemon over
# the same store must resume the same job from the persisted checkpoints
# (server.resume.points > 0 proves it skipped measured points rather
# than starting over), and the resumed table must be byte-identical to
# an uninterrupted reference run. Result cache and coalescing are off so
# the second run really re-executes the remainder.
	@tmp=$$(mktemp -d); fail=0; \
	$(GO) build -o "$$tmp/ngend" ./cmd/ngend || { rm -rf "$$tmp"; exit 1; }; \
	boot() { "$$tmp/ngend" -addr 127.0.0.1:0 -store "$$1" -cachedir "$$tmp/cache" \
		-resultcache=false -coalesce=false >"$$2" 2>&1 & pid=$$!; \
		addr=; for i in $$(seq 1 50); do \
			addr=$$(sed -n 's/^ngend: listening on //p' "$$2"); \
			[ -n "$$addr" ] && break; sleep 0.1; done; }; \
	submit() { curl -fsS -X POST "http://$$addr/v1/jobs" \
		-d '{"type":"sweep","figure":"fig6b"}' \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'; }; \
	await() { for i in $$(seq 1 300); do \
		curl -fsS "http://$$addr/v1/jobs/$$1/result" -o "$$2" 2>/dev/null \
			&& return 0; sleep 0.2; done; return 1; }; \
	boot "$$tmp/ref" "$$tmp/log1"; \
	rid=$$(submit); await "$$rid" "$$tmp/table.ref" || fail=1; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	boot "$$tmp/jobs" "$$tmp/log2"; \
	id=$$(submit); ck=1; for i in $$(seq 1 600); do \
		[ -f "$$tmp/jobs/ckpt-$$id.json" ] && { ck=0; break; }; sleep 0.05; done; \
	[ $$ck -eq 0 ] || fail=1; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	boot "$$tmp/jobs" "$$tmp/log3"; \
	await "$$id" "$$tmp/table.resumed" || fail=1; \
	curl -fsS "http://$$addr/v1/jobs/$$id" | grep -q '"resumed": true' || fail=1; \
	pts=$$(curl -fsS "http://$$addr/metrics" \
		| sed -n 's/.*"server.resume.points": \([0-9]*\).*/\1/p'); \
	[ -n "$$pts" ] && [ "$$pts" -gt 0 ] || fail=1; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	cmp -s "$$tmp/table.ref" "$$tmp/table.resumed" || fail=1; \
	if [ $$fail -ne 0 ]; then echo "servecheck: resume FAILED"; \
		tail -20 "$$tmp/log2" "$$tmp/log3" 2>/dev/null; rm -rf "$$tmp"; exit 1; fi; \
	echo "servecheck: killed mid-sweep, resumed $$pts checkpointed points, table byte-identical"; \
	rm -rf "$$tmp"

# figcheck is the reference-output gate: `ngen all` with one sweep worker
# and with two must each be byte-identical to results/ngen_all.txt (every
# figure, table and footer, not only the figure tables the bench tests
# compare), and `ngen vet` to results/ngen_vet.txt, which pins the
# verifier's verdicts and the parallel tier's per-loop reasons. A
# difference is printed as a diff.
figcheck:
	@for j in 1 2; do \
		out=$$(mktemp); \
		$(GO) run ./cmd/ngen -j $$j all >"$$out" || { rm -f "$$out"; exit 1; }; \
		if ! cmp -s "$$out" results/ngen_all.txt; then \
			echo "figcheck: ngen -j $$j all differs from results/ngen_all.txt:"; \
			diff results/ngen_all.txt "$$out"; rm -f "$$out"; exit 1; \
		fi; \
		rm -f "$$out"; \
	done; \
	out=$$(mktemp); \
	$(GO) run ./cmd/ngen vet >"$$out" || { rm -f "$$out"; exit 1; }; \
	if ! cmp -s "$$out" results/ngen_vet.txt; then \
		echo "figcheck: ngen vet differs from results/ngen_vet.txt:"; \
		diff results/ngen_vet.txt "$$out"; rm -f "$$out"; exit 1; \
	fi; \
	rm -f "$$out"; \
	echo "figcheck: ngen -j 1 all, -j 2 all and ngen vet byte-identical to results/"

# Every internal package must carry a godoc package comment
# ("// Package <name> ..."), canonically in its doc.go.
docs:
	@missing=; for d in internal/*/; do \
		p=$$(basename $$d); \
		grep -qs "^// Package $$p" $$d*.go || missing="$$missing $$p"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "missing package doc comment:$$missing"; exit 1; \
	else echo "package docs: all $$(ls -d internal/*/ | wc -l) internal packages documented"; fi
