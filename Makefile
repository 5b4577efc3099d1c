# Tier-1 verification entry point. CI (or a reviewer) runs `make check`.
#
# The formatting check is gated on ocamlformat being installed: dune's
# @fmt alias fails hard when the binary is missing, and not every
# development container ships it. When absent we say so and move on —
# the build and the test suite are the non-negotiable part.  CI runs
# `make fmt-strict` instead, which installs nothing but refuses to
# skip: the version pinned in .ocamlformat makes local and CI
# formatting agree exactly.

DUNE ?= dune

# Job count for the parallel leg of par-smoke; CI's matrix overrides it.
PAR_JOBS ?= 4
PAR_SMOKE_DIR := _build/par-smoke

.PHONY: all build test fmt fmt-strict check clean faults-smoke cache-smoke \
	par-smoke chaos-smoke chaos-serve-smoke serve-smoke profile-smoke \
	fuzz-smoke snapshot-smoke examples-smoke figures-check ablations-check \
	cache-check perf-bench alloc-gate

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# Seeded fault-injection smoke: two campaigns with a fixed seed must
# finish with zero uncaught exceptions (tpdbt faults exits non-zero
# otherwise).  --shadow 1 arms the shadow-execution oracle so injected
# silent corruption is detected instead of classified uncaught.
faults-smoke: build
	$(DUNE) exec bin/tpdbt.exe -- faults gzip --trials 4 --seed 11 --shadow 1
	$(DUNE) exec bin/tpdbt.exe -- faults swim --trials 4 --seed 11 --shadow 1

# Bounded code-cache smoke: at a quarter of each benchmark's translated
# footprint, all three eviction policies must complete with guest
# behaviour identical to the unbounded baseline, and the capacity must
# actually bind (tpdbt cache exits non-zero otherwise).
cache-smoke: build
	$(DUNE) exec bin/tpdbt.exe -- cache gzip --frac 0.25 --expect-evictions
	$(DUNE) exec bin/tpdbt.exe -- cache perlbmk --frac 0.25 --expect-evictions

# Determinism smoke: the full sweep over two benchmarks, sequential vs
# -j $(PAR_JOBS), and -j $(PAR_JOBS) under --supervise, must agree
# byte-for-byte — stdout tables, CSV files and checkpoint files alike.
# Any scheduling or supervision-policy leak into the results shows up
# here as a diff.
par-smoke: build
	rm -rf $(PAR_SMOKE_DIR)
	mkdir -p $(PAR_SMOKE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip -b swim --jobs 1 \
		--csv $(PAR_SMOKE_DIR)/seq-csv \
		--checkpoint $(PAR_SMOKE_DIR)/seq-ckpt \
		> $(PAR_SMOKE_DIR)/seq.out
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip -b swim --jobs $(PAR_JOBS) \
		--csv $(PAR_SMOKE_DIR)/par-csv \
		--checkpoint $(PAR_SMOKE_DIR)/par-ckpt \
		> $(PAR_SMOKE_DIR)/par.out
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip -b swim --jobs $(PAR_JOBS) \
		--supervise \
		--csv $(PAR_SMOKE_DIR)/sup-csv \
		--checkpoint $(PAR_SMOKE_DIR)/sup-ckpt \
		> $(PAR_SMOKE_DIR)/sup.out
	cmp $(PAR_SMOKE_DIR)/seq.out $(PAR_SMOKE_DIR)/par.out
	diff -r $(PAR_SMOKE_DIR)/seq-csv $(PAR_SMOKE_DIR)/par-csv
	diff -r $(PAR_SMOKE_DIR)/seq-ckpt $(PAR_SMOKE_DIR)/par-ckpt
	cmp $(PAR_SMOKE_DIR)/seq.out $(PAR_SMOKE_DIR)/sup.out
	diff -r $(PAR_SMOKE_DIR)/seq-csv $(PAR_SMOKE_DIR)/sup-csv
	diff -r $(PAR_SMOKE_DIR)/seq-ckpt $(PAR_SMOKE_DIR)/sup-ckpt
	@echo "par-smoke: sequential, -j $(PAR_JOBS) and supervised -j $(PAR_JOBS) sweeps are byte-identical"

# Chaos smoke: a supervised checkpointed sweep under injected faults —
# a stalled workload, a worker-domain crash, a panicking task, a kill
# at an arbitrary guest instruction (resumed from its mid-run
# snapshot), and bit-flipped/truncated checkpoint files — run
# sequentially and at -j $(PAR_JOBS) with the same seed.  tpdbt chaos
# exits non-zero unless
# every non-quarantined benchmark ends byte-identical to the fault-free
# reference, and the two deterministic summary JSONs must agree byte
# for byte (CI uploads chaos-summary.json as an artifact).
CHAOS_SMOKE_DIR := _build/chaos-smoke

chaos-smoke: build
	rm -rf $(CHAOS_SMOKE_DIR)
	mkdir -p $(CHAOS_SMOKE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- chaos --seed 23 --jobs 1 \
		--dir $(CHAOS_SMOKE_DIR)/seq-ckpt \
		--summary $(CHAOS_SMOKE_DIR)/chaos-summary.json
	$(DUNE) exec bin/tpdbt.exe -- chaos --seed 23 --jobs $(PAR_JOBS) \
		--dir $(CHAOS_SMOKE_DIR)/par-ckpt \
		--summary $(CHAOS_SMOKE_DIR)/par-summary.json
	cmp $(CHAOS_SMOKE_DIR)/chaos-summary.json \
		$(CHAOS_SMOKE_DIR)/par-summary.json
	@echo "chaos-smoke: survived; summaries identical at -j 1 and -j $(PAR_JOBS)"

# Serving chaos: the same discipline turned on the daemon's state
# machine — framing and protocol damage, overload at a tiny admission
# queue, a client death, a worker crash, a stalled workload, a kill
# mid-sweep with a torn journal, recovery and drain — run twice with
# the same seed; tpdbt chaos --serve exits non-zero unless every
# surviving benchmark is byte-identical to an offline run, and the two
# summaries must agree byte for byte (CI uploads
# chaos-serve-summary.json as an artifact).
CHAOS_SERVE_DIR := _build/chaos-serve-smoke

chaos-serve-smoke: build
	rm -rf $(CHAOS_SERVE_DIR)
	mkdir -p $(CHAOS_SERVE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- chaos --serve --seed 23 \
		--dir $(CHAOS_SERVE_DIR)/run1 \
		--summary $(CHAOS_SERVE_DIR)/chaos-serve-summary.json
	$(DUNE) exec bin/tpdbt.exe -- chaos --serve --seed 23 \
		--dir $(CHAOS_SERVE_DIR)/run2 \
		--summary $(CHAOS_SERVE_DIR)/repeat-summary.json
	cmp $(CHAOS_SERVE_DIR)/chaos-serve-summary.json \
		$(CHAOS_SERVE_DIR)/repeat-summary.json
	@echo "chaos-serve-smoke: served chaos survived; repeat summary identical"

# End-to-end serving smoke, sockets included: start the daemon, sweep
# two benchmarks through the wire protocol, drain it, and byte-diff
# the checkpoints it wrote against an offline `tpdbt sweep` over the
# same benchmarks — the serving path must be invisible in the results.
SERVE_SMOKE_DIR := _build/serve-smoke
TPDBT_BIN := _build/default/bin/tpdbt.exe

serve-smoke: build
	rm -rf $(SERVE_SMOKE_DIR)
	mkdir -p $(SERVE_SMOKE_DIR)
	$(TPDBT_BIN) serve --socket $(SERVE_SMOKE_DIR)/tpdbt.sock \
		--checkpoint $(SERVE_SMOKE_DIR)/serve-ckpt \
		--journal $(SERVE_SMOKE_DIR)/journal \
		--max-steps 200000 --quiet & \
	pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		test -S $(SERVE_SMOKE_DIR)/tpdbt.sock && { up=1; break; }; \
		sleep 0.1; \
	done; \
	test $$up -eq 1 \
		|| { echo "serve-smoke: daemon never came up"; kill $$pid; exit 1; }; \
	$(TPDBT_BIN) request --socket $(SERVE_SMOKE_DIR)/tpdbt.sock \
		'{"op":"ping"}' > /dev/null \
		|| { echo "serve-smoke: ping failed"; kill $$pid; exit 1; }; \
	$(TPDBT_BIN) request --socket $(SERVE_SMOKE_DIR)/tpdbt.sock \
		'{"op":"sweep","benches":["gzip","swim"],"return_results":false}' \
		> $(SERVE_SMOKE_DIR)/sweep-reply.json \
		|| { echo "serve-smoke: sweep failed"; kill $$pid; exit 1; }; \
	$(TPDBT_BIN) request --socket $(SERVE_SMOKE_DIR)/tpdbt.sock \
		'{"op":"drain"}' > /dev/null \
		|| { echo "serve-smoke: drain refused"; kill $$pid; exit 1; }; \
	wait $$pid
	$(TPDBT_BIN) sweep -b gzip -b swim --jobs 1 --max-steps 200000 \
		--checkpoint $(SERVE_SMOKE_DIR)/offline-ckpt > /dev/null
	diff -r $(SERVE_SMOKE_DIR)/serve-ckpt $(SERVE_SMOKE_DIR)/offline-ckpt
	@echo "serve-smoke: served sweep byte-identical to the offline sweep"

# Profiling smoke: tpdbt profile on one workload must produce a
# non-empty collapsed-stack file, a span-profile JSON and an
# OpenMetrics exposition (the command itself re-validates each artefact
# through its strict parser and exits non-zero on any failure).  The
# sealed profile file must load back into tpdbt report, and a copy with
# one byte changed must be refused as invalid input (exit 2).
PROFILE_SMOKE_DIR := _build/profile-smoke

profile-smoke: build
	rm -rf $(PROFILE_SMOKE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- profile gzip -t 20 \
		--out-dir $(PROFILE_SMOKE_DIR)
	@for f in gzip.folded gzip.profile.json gzip.metrics.prom \
		gzip.attribution.csv gzip.prof; do \
		test -s $(PROFILE_SMOKE_DIR)/$$f \
			|| { echo "profile-smoke: $$f missing or empty"; exit 1; }; \
	done
	$(DUNE) exec bin/tpdbt.exe -- report $(PROFILE_SMOKE_DIR)/gzip.prof \
		> /dev/null
	sed '3s/^TPDBT-PROFILE 1$$/TPDBT-PROFILE 7/' \
		$(PROFILE_SMOKE_DIR)/gzip.prof > $(PROFILE_SMOKE_DIR)/damaged.prof
	$(DUNE) exec bin/tpdbt.exe -- report $(PROFILE_SMOKE_DIR)/damaged.prof \
		> /dev/null 2> $(PROFILE_SMOKE_DIR)/damaged.err; \
	test $$? -eq 2 \
		|| { echo "profile-smoke: damaged profile did not exit 2"; exit 1; }
	@echo "profile-smoke: all profiling artefacts present and validated"

# Differential-fuzzing smoke: a fixed-seed campaign of generated guest
# programs, each run through the pure interpreter and the two-phase
# engine across the threshold/cache/policy config matrix.  tpdbt fuzz
# exits 3 on any state or invariant divergence (the shrunk reproducer
# lands in the corpus dir), and the deterministic summary must be
# byte-identical across a repeat run and a parallel run (CI uploads
# fuzz-summary.json and any reproducers as artifacts).
FUZZ_SMOKE_DIR := _build/fuzz-smoke

fuzz-smoke: build
	rm -rf $(FUZZ_SMOKE_DIR)
	mkdir -p $(FUZZ_SMOKE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- fuzz --budget 40 --seed 42 --jobs 1 \
		--corpus $(FUZZ_SMOKE_DIR)/corpus \
		--summary $(FUZZ_SMOKE_DIR)/fuzz-summary.json
	$(DUNE) exec bin/tpdbt.exe -- fuzz --budget 40 --seed 42 --jobs $(PAR_JOBS) \
		--corpus $(FUZZ_SMOKE_DIR)/corpus-par \
		--summary $(FUZZ_SMOKE_DIR)/par-summary.json
	cmp $(FUZZ_SMOKE_DIR)/fuzz-summary.json $(FUZZ_SMOKE_DIR)/par-summary.json
	@echo "fuzz-smoke: no divergence; summaries identical at -j 1 and -j $(PAR_JOBS)"

# Suspend/resume smoke: a sweep parked at a deadline (snapshotting its
# mid-run engine state into the checkpoint store), then resumed with
# --resume-run, must end with stdout and checkpoint bytes identical to
# a sweep that was never interrupted — the CLI form of the
# docs/snapshots.md guarantee.  `tpdbt snapshot info` must read the
# suspended slot cleanly in between, and must report a copy with one
# bit flipped in its bench line as a crc mismatch (exit 2), not as a
# checkpoint for an unknown benchmark.
SNAPSHOT_SMOKE_DIR := _build/snapshot-smoke

snapshot-smoke: build
	rm -rf $(SNAPSHOT_SMOKE_DIR)
	mkdir -p $(SNAPSHOT_SMOKE_DIR)
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip --jobs 1 \
		--checkpoint $(SNAPSHOT_SMOKE_DIR)/ref-ckpt \
		> $(SNAPSHOT_SMOKE_DIR)/ref.out
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip --jobs 1 \
		--checkpoint $(SNAPSHOT_SMOKE_DIR)/sus-ckpt \
		--snapshot-every 500000 --deadline 1000000 \
		> $(SNAPSHOT_SMOKE_DIR)/sus.out 2> $(SNAPSHOT_SMOKE_DIR)/sus.err
	grep -q "suspended gzip" $(SNAPSHOT_SMOKE_DIR)/sus.err \
		|| { echo "snapshot-smoke: sweep did not suspend"; exit 1; }
	$(DUNE) exec bin/tpdbt.exe -- snapshot info \
		$(SNAPSHOT_SMOKE_DIR)/sus-ckpt/gzip.ckpt > /dev/null
	sed 's/^bench gzip$$/bench gziq/' $(SNAPSHOT_SMOKE_DIR)/sus-ckpt/gzip.ckpt \
		> $(SNAPSHOT_SMOKE_DIR)/damaged.ckpt
	$(DUNE) exec bin/tpdbt.exe -- snapshot info \
		$(SNAPSHOT_SMOKE_DIR)/damaged.ckpt \
		> /dev/null 2> $(SNAPSHOT_SMOKE_DIR)/damaged.err; \
	test $$? -eq 2 \
		|| { echo "snapshot-smoke: damaged checkpoint did not exit 2"; exit 1; }
	grep -q "crc mismatch" $(SNAPSHOT_SMOKE_DIR)/damaged.err \
		|| { echo "snapshot-smoke: damaged checkpoint not reported as a crc mismatch"; exit 1; }
	$(DUNE) exec bin/tpdbt.exe -- sweep -b gzip --jobs 1 \
		--checkpoint $(SNAPSHOT_SMOKE_DIR)/sus-ckpt --resume-run \
		> $(SNAPSHOT_SMOKE_DIR)/res.out
	cmp $(SNAPSHOT_SMOKE_DIR)/ref.out $(SNAPSHOT_SMOKE_DIR)/res.out
	diff -r $(SNAPSHOT_SMOKE_DIR)/ref-ckpt $(SNAPSHOT_SMOKE_DIR)/sus-ckpt
	@echo "snapshot-smoke: resumed sweep byte-identical to uninterrupted run"

# Examples smoke: dune build compiles examples/, this runs them.  Each
# example, at its documented default, must exit 0 and print exactly
# the committed examples/expected/<name>.txt.  An example whose output
# changes on purpose updates its file in the same commit.
EXAMPLES := quickstart region_explorer threshold_sweep phase_detector \
	phase_change adaptive_reopt
EXAMPLES_SMOKE_DIR := _build/examples-smoke

examples-smoke: build
	rm -rf $(EXAMPLES_SMOKE_DIR)
	mkdir -p $(EXAMPLES_SMOKE_DIR)
	@for e in $(EXAMPLES); do \
		_build/default/examples/$$e.exe > $(EXAMPLES_SMOKE_DIR)/$$e.txt \
			|| { echo "examples-smoke: $$e failed"; exit 1; }; \
		cmp examples/expected/$$e.txt $(EXAMPLES_SMOKE_DIR)/$$e.txt \
			|| { echo "examples-smoke: $$e differs from examples/expected/"; exit 1; }; \
	done
	@echo "examples-smoke: every example printed its expected output"

# Each committed table has one producer, a tpdbt command, and one
# byte-for-byte check below.  The figure and ablation checks also
# compare every table the command prints with the fenced block of
# EXPERIMENTS.md that starts with the same title line, so prose beside
# a moved number cannot go stale unnoticed.  $(1) is the command's
# stdout (an ID line, the table, a blank line per table), $(2) the
# table ids, $(3) the check's name.
define doc-blocks
	@for id in $(2); do \
		awk -v id="$$id" 'on && $$0 == "" { exit } on { print } $$0 == id { on = 1 }' \
			$(1) > $(1).$$id; \
		test -s $(1).$$id \
			|| { echo "$(3): $$id missing from $(1)"; exit 1; }; \
		awk -v title="$$(head -n 1 $(1).$$id)" \
			'/^```/ { if (on) exit; block = !block; first = block; next } \
			first { first = 0; on = ($$0 == title) } on { print }' \
			EXPERIMENTS.md > $(1).$$id.md; \
		cmp -s $(1).$$id $(1).$$id.md \
			|| { echo "$(3): the EXPERIMENTS.md block for $$id differs from $(1)"; exit 1; }; \
	done
endef

# The paper's numbers at full length: the whole figure sweep, with no
# step cap, must reproduce the committed results/fig8.csv ... fig18.csv
# byte for byte, and its stdout the eleven figure blocks of
# EXPERIMENTS.md.  A change that moves a number updates results/ and
# EXPERIMENTS.md in the same commit and says why.
FIGURES_CHECK_DIR := _build/figures-check
FIGURES := fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18

figures-check: build
	rm -rf $(FIGURES_CHECK_DIR)
	mkdir -p $(FIGURES_CHECK_DIR)
	$(DUNE) exec bin/tpdbt.exe -- sweep --jobs $(PAR_JOBS) \
		--csv $(FIGURES_CHECK_DIR)/csv > $(FIGURES_CHECK_DIR)/sweep.out
	@for f in $(FIGURES); do \
		cmp results/$$f.csv $(FIGURES_CHECK_DIR)/csv/$$f.csv \
			|| { echo "figures-check: $$f.csv differs from results/"; exit 1; }; \
	done
	$(call doc-blocks,$(FIGURES_CHECK_DIR)/sweep.out,$(FIGURES),figures-check)
	@echo "figures-check: fig8-fig18 and their EXPERIMENTS.md blocks match the sweep"

# The ablation studies at their defaults must reproduce the committed
# results/ablation-*.csv byte for byte, and their stdout the five
# ablation blocks of EXPERIMENTS.md.  They are the only runs of several
# configurations: pool triggers 1 and 4, adaptive dissolution, trace
# scheduling, no duplication, no diamonds, inlined calls and singleton
# regions.
ABLATIONS_CHECK_DIR := _build/ablations-check
ABLATIONS := region-formation min-branch-prob pool-trigger scheduling adaptive

ablations-check: build
	rm -rf $(ABLATIONS_CHECK_DIR)
	mkdir -p $(ABLATIONS_CHECK_DIR)
	$(DUNE) exec bin/tpdbt.exe -- ablate \
		--csv $(ABLATIONS_CHECK_DIR)/csv > $(ABLATIONS_CHECK_DIR)/ablate.out
	@for s in $(ABLATIONS); do \
		cmp results/ablation-$$s.csv \
			$(ABLATIONS_CHECK_DIR)/csv/ablation-$$s.csv \
			|| { echo "ablations-check: ablation-$$s.csv differs from results/"; exit 1; }; \
	done
	$(call doc-blocks,$(ABLATIONS_CHECK_DIR)/ablate.out,$(ABLATIONS),ablations-check)
	@echo "ablations-check: every ablation table and its EXPERIMENTS.md block match"

# The bounded code cache at a quarter, half and full translated
# footprint under the three eviction policies, on gzip and perlbmk,
# must reproduce the committed results/cache-sweep.csv byte for byte.
CACHE_CHECK_DIR := _build/cache-check

cache-check: build
	rm -rf $(CACHE_CHECK_DIR)
	mkdir -p $(CACHE_CHECK_DIR)
	$(DUNE) exec bin/tpdbt.exe -- cache gzip perlbmk --frac 0.25 --frac 0.5 \
		--frac 1.0 --jobs $(PAR_JOBS) --csv $(CACHE_CHECK_DIR)/cache-sweep.csv \
		> $(CACHE_CHECK_DIR)/cache.out
	cmp results/cache-sweep.csv $(CACHE_CHECK_DIR)/cache-sweep.csv \
		|| { echo "cache-check: cache-sweep.csv differs from results/"; exit 1; }
	@echo "cache-check: the cache sweep is byte-identical to the committed results/"

# The allocation reading over gzip, mcf and swim at threshold 50,
# recorded in BENCH_perf.json with host metadata.
perf-bench: build
	$(DUNE) exec bench/main.exe

# Hard allocation gate (see docs/performance.md).  alloc-words/instr is
# a deterministic property of the code — same compiler, same count on
# any machine — so it can fail CI at a 1% tolerance.  It is the one
# caller of tpdbt perfdiff, which judges nothing else.
alloc-gate: perf-bench
	$(DUNE) exec bin/tpdbt.exe -- perfdiff bench/BASELINE_perf.json \
		BENCH_perf.json --tolerance 1

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		echo "checking formatting (dune build @fmt)"; \
		$(DUNE) build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# The CI variant: ocamlformat is pinned in .ocamlformat and installed
# by the workflow, so a missing binary is an environment bug, not a
# reason to skip the gate.
fmt-strict:
	@command -v ocamlformat >/dev/null 2>&1 || { \
		echo "ocamlformat not installed (CI must install the version pinned in .ocamlformat)"; \
		exit 1; }
	$(DUNE) build @fmt

check: build test faults-smoke cache-smoke par-smoke chaos-smoke \
	chaos-serve-smoke serve-smoke profile-smoke fuzz-smoke \
	snapshot-smoke examples-smoke fmt

clean:
	$(DUNE) clean
