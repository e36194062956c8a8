# Convenience targets; everything is plain dune underneath.
# `make help` lists them.

.PHONY: all build check ci test test-props fuzz-sweep bench examples smoke chaos \
  trace-check health-check tail-check dir-check reconfig-check \
  profile-check host-smoke hostprof hostprof-smoke exports determinism \
  clean help

all: build

help:
	@echo "make build        - dune build @all"
	@echo "make test         - run every alcotest suite"
	@echo "make test-props   - seeded property tests only (facts, deltas, plans, analyses)"
	@echo "make fuzz-sweep   - the kernel lifecycle fuzz on every input 0-4999"
	@echo "make check        - build + tests + metrics smoke + chaos determinism"
	@echo "make ci           - the full gate: build, export gate, tests, fuzz sweep, CLI and example smokes, cmp checks, props x3 seeds"
	@echo "make bench        - run the full experiment suite (E1..E25, M)"
	@echo "make examples     - run the example programs"
	@echo "make smoke        - exercise the edenctl CLI end to end, bad input refused"
	@echo "make chaos        - fault-injection suite + same-seed snapshot cmp"
	@echo "make trace-check  - chaos trace invariants (all eight) + same-seed timeline cmp"
	@echo "make health-check - same-seed health reports must be byte-identical"
	@echo "make tail-check   - speculation smoke: E22 tails + clone trace invariant"
	@echo "make dir-check    - directory smoke: E23 scaling + dir trace invariant"
	@echo "make reconfig-check - membership smoke: E24 join/drain/leave + reconfig chaos cmp"
	@echo "make profile-check - profiler smoke: E25 attribution + same-seed profile cmp"
	@echo "make host-smoke   - one round per stream of each benchmark workload, gates checked"
	@echo "make hostprof     - sampling profile of hot_invoke's request phases (host time)"
	@echo "make hostprof-smoke - a few phases of each hostprof mode, so the profiler keeps working"
	@echo "make exports      - every lib/ export has a caller outside tests, or an entry"
	@echo "                    (Module.value  reason) in tools/exports/allowlist.txt"
	@echo "make determinism  - experiment output must be bit-reproducible"
	@echo "make clean        - dune clean"

build:
	dune build @all

test:
	dune runtest --force

# Just the seeded property tests (100 seeds each, greedy shrinking):
# message sizes and journal facts, the Delta and Fault.Plan
# round-trips, the health-plane and event-heap models, the
# directory ring, and the trace analyses against a list-based oracle.
test-props:
	dune exec test/test_props.exe

# The kernel lifecycle fuzz (test_kernel3's "lifecycle soup") on every
# input from 0 to 4999 as a plain loop, so the verdict does not depend
# on the random seed qcheck draws for its 25 inputs.  About 2 s; the
# same command with 0 100000 sweeps the fuzz's whole input range.
fuzz-sweep:
	dune build ./test/test_kernel3.exe
	./_build/default/test/test_kernel3.exe sweep 0 4999

# Build, run the test suites, and smoke the metrics pipeline: a synth
# run must export a snapshot that parses and carries the core
# instruments (edenctl metrics-check exits non-zero otherwise).
check:
	dune build @all
	dune runtest --force
	$(MAKE) test-props
	dune exec bin/edenctl.exe -- synth --nodes 3 --requests 50 \
	  --metrics-out /tmp/eden_metrics_smoke.json
	dune exec bin/edenctl.exe -- metrics-check /tmp/eden_metrics_smoke.json
	$(MAKE) chaos
	@echo "check: OK"

# The full local gate, mirroring what a hosted pipeline would run:
# build, the export gate, every unit suite, the fixed lifecycle-fuzz
# sweep, the CLI and example-program smokes, the chaos determinism comparison, and the property suites
# under three distinct seed universes (the offset shifts every
# property's base stream; see test/prop.ml).
ci:
	dune build @all
	$(MAKE) exports
	dune runtest --force
	$(MAKE) fuzz-sweep
	$(MAKE) smoke
	$(MAKE) examples
	$(MAKE) chaos
	$(MAKE) trace-check
	$(MAKE) health-check
	$(MAKE) tail-check
	$(MAKE) dir-check
	$(MAKE) reconfig-check
	$(MAKE) profile-check
	$(MAKE) host-smoke
	$(MAKE) hostprof-smoke
	for off in 0 271828 3141592; do \
	  echo "props @ seed offset $$off"; \
	  EDEN_PROP_SEED_OFFSET=$$off dune exec test/test_props.exe || exit 1; \
	done
	@echo "ci: OK"

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/mail_system.exe
	dune exec examples/file_server.exe
	dune exec examples/object_editor.exe
	dune exec examples/load_balancer.exe
	dune exec examples/cluster_monitor.exe

# Command lines edenctl must refuse: each has to exit non-zero with a
# message, and not with 125 (cmdliner's exit for an uncaught exception).
REJECTED = "demo --nodes 0" "demo --nodes=-2" "stats --nodes 0" \
  "chaos --spares=-1" "chaos --requests=-3" \
  "heartbeat --nodes 3 --kill 7" "heartbeat --nodes 3 --kill=-1" \
  "synth --locality 1.5" "synth --requests=-1" "metrics-check /tmp"

# Exercise the CLI end to end, put a synth run's metrics export
# through metrics-check (so the snapshot writer and parser agree on
# the schema), check that the export gets the same file mode as a
# trace export in the same directory (both follow the umask), check
# that --trace prints the journal (a send event among its lines) with
# the kinds the profiler reads on default options (a work start line),
# then check that bad input is refused.
smoke:
	dune exec bin/edenctl.exe -- info
	dune exec bin/edenctl.exe -- demo --nodes 4
	dune exec bin/edenctl.exe -- heartbeat --nodes 3 --kill 1
	dune exec bin/edenctl.exe -- efs --txns 6 --optimistic
	printf 'mk doc d\nappend d hello\nshow d\nquit\n' | \
	  dune exec bin/edenctl.exe -- edit --nodes 2
	dune exec bin/edenctl.exe -- synth --nodes 3 --requests 50 \
	  --metrics-out /tmp/eden_metrics_smoke.json
	dune exec bin/edenctl.exe -- metrics-check /tmp/eden_metrics_smoke.json
	dune build ./bin/edenctl.exe
	rm -f /tmp/eden_trace_smoke.json
	./_build/default/bin/edenctl.exe trace --nodes 3 --seed 11 \
	  --out /tmp/eden_trace_smoke.json > /dev/null
	m=$$(stat -c %a /tmp/eden_metrics_smoke.json); \
	t=$$(stat -c %a /tmp/eden_trace_smoke.json); \
	[ "$$m" = "$$t" ] || { echo "smoke: --metrics-out file is mode $$m," \
	  "a trace export $$t"; exit 1; }
	./_build/default/bin/edenctl.exe demo --nodes 4 --trace | \
	  grep -Eq '^\[[^]]*\] n[0-9]+ #[0-9]+ trace=[0-9]+( parent=[0-9]+)? send ' \
	  || { echo "smoke: demo --trace printed no journal send line"; exit 1; }
	./_build/default/bin/edenctl.exe demo --nodes 4 --trace | \
	  grep -q ' work start ' \
	  || { echo "smoke: demo --trace printed no work start line"; exit 1; }
	@for args in $(REJECTED); do \
	  err=$$(./_build/default/bin/edenctl.exe $$args 2>&1 >/dev/null); rc=$$?; \
	  if [ $$rc -eq 0 ] || [ $$rc -eq 125 ] || [ -z "$$err" ]; then \
	    echo "smoke: not refused (exit $$rc): edenctl $$args"; exit 1; \
	  fi; \
	  echo "refused (exit $$rc): edenctl $$args"; \
	done

# Run one edenctl command line twice with the same seed, reading each
# @ in it as "a" the first time and "b" the second, then cmp every
# output file named in the second argument between the two runs.
define twice
	dune exec bin/edenctl.exe -- $(subst @,a,$(1))
	dune exec bin/edenctl.exe -- $(subst @,b,$(1))
	set -e; $(foreach f,$(2),cmp $(subst @,a,$(f)) $(subst @,b,$(f));)
endef

# Fault injection: the chaos suite, then same-seed chaos runs twice —
# the exported metrics snapshots must be byte-identical, both with the
# hot-path features off and with the replica cache + coalescer on.
chaos:
	dune exec test/test_fault.exe
	$(call twice,chaos --nodes 5 --seed 11 \
	  --metrics-out /tmp/eden_chaos_@.json,/tmp/eden_chaos_@.json)
	$(call twice,chaos --nodes 5 --seed 11 --replica-cache --coalesce \
	  --metrics-out /tmp/eden_chaos_hot_@.json,/tmp/eden_chaos_hot_@.json)
	@echo "chaos: OK (deterministic)"

# Causal tracing: run the chaos workload with the trace checker armed
# (non-zero exit on any cross-node invariant violation), twice with
# the same seed — the assembled timelines (Chrome JSON and text) must
# be byte-identical.
trace-check:
	$(call twice,trace --nodes 5 --seed 11 --check \
	  --out /tmp/eden_trace_@.json --text /tmp/eden_trace_@.txt,\
	  /tmp/eden_trace_@.json /tmp/eden_trace_@.txt)
	@echo "trace-check: OK (invariants hold, timelines deterministic)"

# The health plane: run the chaos workload with SLO watchdogs and the
# hot-object sketch armed, twice with the same seed — the full report
# (dashboard, alert transitions, top-k rollup) must be byte-identical.
health-check:
	$(call twice,health --nodes 5 --seed 11 \
	  --out /tmp/eden_health_@.txt,/tmp/eden_health_@.txt)
	@echo "health-check: OK (alerts and hot objects deterministic)"

# Speculation: the E22 smoke (cloning + hedging must cut p999 under
# slow-node chaos without taxing p50 — asserted inside the
# experiment), then the chaos workload with speculation on: the
# clone-resolution trace invariant must hold and same-seed timelines
# stay byte-identical, and with the replica cache on as well the
# same-seed snapshots must be byte-identical.
tail-check:
	dune exec bench/main.exe -- E22 --smoke
	$(call twice,trace --nodes 5 --seed 11 --clone --hedge \
	  --check --text /tmp/eden_tail_@.txt,/tmp/eden_tail_@.txt)
	$(call twice,chaos --nodes 5 --seed 11 --clone --hedge --replica-cache \
	  --metrics-out /tmp/eden_tail_@.json,/tmp/eden_tail_@.json)
	@echo "tail-check: OK (tails cut, clone invariant holds, deterministic)"

# The sharded locate directory: the E23 smoke (O(1) hit-path cost and
# the >= 10x message win over broadcast at 32 nodes — asserted inside
# the experiment), then the chaos workload with the directory on: the
# dir-resolves-or-falls-back trace invariant must hold, and same-seed
# runs must produce byte-identical snapshots and timelines.
dir-check:
	dune exec bench/main.exe -- E23 --smoke
	$(call twice,chaos --nodes 5 --seed 11 --directory \
	  --metrics-out /tmp/eden_dir_@.json,/tmp/eden_dir_@.json)
	$(call twice,trace --nodes 5 --seed 11 --directory \
	  --check --text /tmp/eden_dir_@.txt,/tmp/eden_dir_@.txt)
	@echo "dir-check: OK (O(1) locate, dir invariant holds, deterministic)"

# Online reconfiguration: the E24 smoke (join + drain + leave under
# load within 1.5x of the static locate cost, all seven trace
# invariants clean — asserted inside the experiment), then the same
# reconfig run twice — byte-identical snapshots — and the chaos
# workload under a plan that mixes crash/link faults with a join and a
# decommission: trace invariants (epoch monotonicity included) must
# hold and same-seed snapshots and timelines stay byte-identical.
reconfig-check:
	dune exec bench/main.exe -- E24 --smoke
	$(call twice,reconfig --nodes 4 --spares 1 --seed 11 \
	  --metrics-out /tmp/eden_reconfig_@.json,/tmp/eden_reconfig_@.json)
	printf 'at 100ms  crash 3\nat 400ms  restart 3 rebuild\nat 200ms  drop 0->2 p=0.3\nat 700ms  heal-link 0->2\nat 500ms  join 5\nat 1200ms decommission 2\n' \
	  > /tmp/eden_reconfig.plan
	$(call twice,chaos --nodes 5 --spares 1 --seed 11 \
	  --directory --fault-plan /tmp/eden_reconfig.plan \
	  --metrics-out /tmp/eden_reconfig_chaos_@.json,\
	  /tmp/eden_reconfig_chaos_@.json)
	$(call twice,trace --nodes 5 --spares 1 --seed 11 \
	  --directory --fault-plan /tmp/eden_reconfig.plan \
	  --check --text /tmp/eden_reconfig_@.txt,/tmp/eden_reconfig_@.txt)
	@echo "reconfig-check: OK (join/drain/leave live, invariants hold, deterministic)"

# The critical-path profiler: the E25 smoke (three injected
# bottlenecks — slow node, saturated wire, hot directory shard — each
# attributed to the right category — asserted inside the experiment),
# then the profile subcommand twice with the same seed — report, flame
# stacks and JSON must all be byte-identical — and once more under a
# chaotic fault plan with the checker armed, so the
# attribution-complete invariant (every request's categories sum
# exactly to its end-to-end latency) gates the run.
profile-check:
	dune exec bench/main.exe -- E25 --smoke
	$(call twice,profile --nodes 5 --seed 11 \
	  --out /tmp/eden_profile_@.txt --folded /tmp/eden_profile_@.folded \
	  --json /tmp/eden_profile_@.json,\
	  /tmp/eden_profile_@.txt /tmp/eden_profile_@.folded \
	  /tmp/eden_profile_@.json)
	dune exec bin/edenctl.exe -- profile --nodes 5 --seed 11 --directory \
	  --clone --hedge --check > /dev/null
	@echo "profile-check: OK (bottlenecks named, attribution exact, deterministic)"

# The host-time benchmark as a correctness smoke: --seconds 0 runs each
# input stream once, and run.py exits non-zero unless every gate holds
# (work echo, chunk provenance and final values, one active incarnation
# per object, zero trace-invariant violations).  Streams repeat, and so
# have their virtual-time results compared, only in longer runs.  The
# host figures of a single round are not meant to be read.
host-smoke:
	python3 hostbench/run.py --workload hot_invoke --seed 1 --seconds 0
	python3 hostbench/run.py --workload ckpt_local --seed 1 --seconds 0
	@echo "host-smoke: OK (benchmark gates hold)"

# Where the simulator's host time goes: a SIGPROF sampling profile of
# hot_invoke's request phases, as self time by line and by file and as
# samples by simulated-process root.  See docs/OBSERVABILITY.md for how
# to read it.
hostprof:
	dune build ./bench/hostprof/main.exe
	./_build/default/bench/hostprof/main.exe --workload hot_invoke --seed 1 \
	  --phases 64

# Every hostprof mode on a few phases: the profiler must build and run,
# and print its allocation figures (the tables are cut to three rows).
hostprof-smoke:
	dune build ./bench/hostprof/main.exe
	./_build/default/bench/hostprof/main.exe --workload hot_invoke --seed 1 \
	  --phases 1 --top 3
	./_build/default/bench/hostprof/main.exe --workload hot_invoke --seed 1 \
	  --phase analysis --phases 1 --top 3
	./_build/default/bench/hostprof/main.exe --workload hot_invoke --seed 1 \
	  --phase setup --phases 16 --top 3
	@echo "hostprof-smoke: OK"

# The export gate (tools/exports): every val in lib/**/*.mli needs a
# caller outside its own module and outside test/, or a line
# "Module.value  reason" in tools/exports/allowlist.txt.  It reads the
# compiler's .cmt/.cmti files, and only @check writes the executables'
# .cmt files.  It also fails on an allowlist line that names no such
# export, so the list cannot go stale.
exports:
	dune build @check ./tools/exports/exports.exe
	./_build/default/tools/exports/exports.exe _build/default \
	  tools/exports/allowlist.txt

# The whole experiment suite must be bit-reproducible.
determinism:
	dune exec bench/main.exe -- E1 E9 > /tmp/eden_bench_a.txt 2>&1
	dune exec bench/main.exe -- E1 E9 > /tmp/eden_bench_b.txt 2>&1
	diff /tmp/eden_bench_a.txt /tmp/eden_bench_b.txt
	@echo "deterministic: OK"

clean:
	dune clean
