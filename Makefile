# Convenience targets for the HV Code reproduction workspace.

CARGO ?= cargo

.PHONY: build test loc bench bench-ab bench-smoke same-bytes repro-check examples-smoke chaos-smoke tsan-smoke serve-smoke lint miri test-kernel-audit verify clean

build:
	$(CARGO) build --release

# --no-fail-fast: one red test binary must not hide every later suite.
test:
	$(CARGO) test -q --no-fail-fast

# Non-blank, non-comment Rust lines per crate, tests/benches/examples and
# trailing `mod tests` blocks excluded — the number a "net-negative" PR
# is measured by (`scripts/loc.sh <other-checkout>` for the other side).
loc:
	sh scripts/loc.sh

# hvbench, the repo's one benchmark, through BENCHMARK.json's own command
# (["cargo", "run", …, "--"] → cargo run … --) with its build and output
# under target/. benchmark/ is a workspace of its own whose Cargo.lock
# cargo re-resolves whenever a crate's [dependencies] change; that rewrite
# is never committed, so both targets end by restoring the file.
HVBENCH = CARGO_TARGET_DIR=target/hvbench \
	$(shell sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
RESTORE_LOCK = status=$$?; git checkout -q -- benchmark/Cargo.lock; exit $$status

# Every workload untraced then traced at seed 1 (about two minutes):
# prints every metric and writes target/hvbench-out/run-1.json.
bench:
	$(HVBENCH) --seed 1 --out target/hvbench-out; $(RESTORE_LOCK)

# N alternating parent/change pairs of one BENCHMARK.json workload (or of
# each, W=all), BASE unpacked into target/ab-base for the duration, pair i
# at seed S + i − 1 (S=11 N=5: the held-out seeds 11–15): each end-to-end
# metric's two medians, quartiles, the pairs the working tree won and the
# change of medians against the metric's bound — exits 1 if any row is
# WORSE than its bound or a run was not correct. Under peak_rss_mib, how
# much of each side is hvbench's own op log, and the ops_per_s at which
# that log alone would reach the RSS bound (both informational).
#   make bench-ab BASE=HEAD~1 W=five_code_small_ops|all [N=10] [S=1]
N ?= 10
S ?= 1
bench-ab:
	sh scripts/ab.sh $(BASE) $(W) $(N) $(S)

# Same decisions, same bytes: BASE (unpacked into target/ab-base, as
# bench-ab does) and the working tree, both built in release mode, must
# print byte-identical output for the seven chaos-smoke campaigns,
# `hvraid lint --all --journal` and `repro --csv <dir> all` (its CSVs;
# its stdout carries wall times),
# with the same exit status: one same/DIFFERS line per command, exit 1
# on any difference. Outputs stay under
# target/same-bytes/{base,change}/<command>/.
#   make same-bytes BASE=HEAD~1
same-bytes:
	sh scripts/same_bytes.sh $(BASE)

# A 15-second end-to-end self-check of every workload (numbers mean
# nothing): the pre-merge proof that hvbench still compiles against the
# crates and every op still returns the right bytes.
bench-smoke:
	$(HVBENCH) --smoke --out target/hvbench-out; $(RESTORE_LOCK)

# The paper's tables and figures are a literal gate: `repro` is
# deterministic, so a fresh run must equal the committed results/ byte
# for byte. A deliberate change regenerates them (`repro --csv results
# all`) and updates the EXPERIMENTS.md rows that quote them.
repro-check:
	rm -rf target/repro
	$(CARGO) run -q --release -p raid-bench --bin repro -- --csv target/repro all > /dev/null
	diff -r target/repro results

# Runs every [[bin]] that examples/Cargo.toml lists, in release mode, with
# its default arguments — read from the manifest, so the list cannot
# drift. Stops at the first example that exits non-zero (~1 s after the
# build).
EXAMPLE_BINS = $(shell awk '/^\[\[bin\]\]/ { bin = 1; next } bin && /^name/ { gsub(/.*= *"|"/, ""); print; bin = 0 }' examples/Cargo.toml)
examples-smoke:
	@test -n "$(EXAMPLE_BINS)" || { echo "examples-smoke: no [[bin]] in examples/Cargo.toml"; exit 1; }
	$(CARGO) build -q --release -p hv-examples
	@for bin in $(EXAMPLE_BINS); do \
		echo "examples-smoke: $$bin"; \
		$(CARGO) run -q --release -p hv-examples --bin $$bin > /dev/null || exit 1; \
	done

# Fixed-seed chaos campaigns over both backends: randomized fault
# injection (dead disks, transients, latent sectors, torn writes) plus
# crash-at-every-journal-point sweeps, including crashes under a dirty
# write-back cache mid-coalesced-flush, verified against a shadow model.
# Seed 4's 20 000-byte elements are one 16 KiB XOR tile plus a 3 616-byte
# tail, so plans run tiled over lent sources and the file backend stages
# them. Seed 5 grants one spare for up to two dead disks: a rebuild
# computes one lost column in the spare, or in the file backend's staging,
# and the other in a scratch, four tiles an element, under faults and
# crash sweeps (~15 s of the total). Seed 6 runs without the cache, the
# only campaign whose writes store straight through: a multi-stripe
# write that meets a fault retries the stripe it was storing, and its
# crash sweep cuts that write at every journal point. Seed 7 runs RDP,
# whose diagonal chains cover the row-parity column, so the sweeps see
# parities that chain into parities. Deterministic and
# fast (<30 s); a failure prints the command that reproduces it.
chaos-smoke:
	$(CARGO) run -q --release -p hvraid -- chaos --seed 1 --episodes 25
	$(CARGO) run -q --release -p hvraid -- chaos --seed 2 --episodes 25 --backend mem --spares 0
	$(CARGO) run -q --release -p hvraid -- chaos --seed 3 --episodes 25 --stripes 8
	$(CARGO) run -q --release -p hvraid -- chaos --seed 4 --episodes 10 --element 20000
	$(CARGO) run -q --release -p hvraid -- chaos --seed 5 --episodes 10 --element 65536 --stripes 8 --spares 1
	$(CARGO) run -q --release -p hvraid -- chaos --seed 6 --episodes 25 --cache false
	$(CARGO) run -q --release -p hvraid -- chaos --seed 7 --episodes 25 --code rdp --p 5

# ThreadSanitizer over the service suites, whose concurrent clients share
# one volume under its lock: the only multi-threaded code in the
# workspace. -Zsanitizer=thread needs a nightly toolchain with rust-src;
# skipped with a notice when unavailable (e.g. offline containers).
tsan-smoke:
	@if $(CARGO) +nightly --version >/dev/null 2>&1 && \
		rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then \
		RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
			$(CARGO) +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
			-q -p integration --test service_conformance --test service_fairness || exit 1; \
	else \
		echo "tsan-smoke: nightly + rust-src unavailable, skipping"; \
	fi

# End-to-end smoke of the service front-end: `hvraid serve` on a temp
# unix socket over a file-backed volume, a scripted client proving byte
# identity through the protocol (EXPECT assertions), a Prometheus stats
# scrape, a clean SHUTDOWN flush, then fsck must find the on-disk array
# parity-consistent.
serve-smoke:
	sh scripts/serve_smoke.sh

# Static analysis gate: warnings-as-errors clippy across every target,
# warnings-as-errors rustdoc (a deletion cannot leave a dangling or
# private intra-doc link behind), the (gated) miri pass over the unsafe
# kernels, then the symbolic
# verifier proving every registered code at every default prime —
# including the crash-journal proof (itemized by --journal). Then the
# optimizer regression gate: the plan optimizer must keep saving at least
# 10% of the specification's encode XOR reads for the cascaded codes
# (RDP, HDP, EVENODD) at p = 13, and must never cost any code reads (the
# --min-savings 0 sweep; `check_code` separately proves the cached plan
# never reads more than the cascaded compile).
lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps
	$(MAKE) miri
	$(CARGO) run -q -p hvraid -- lint --all --journal
	$(CARGO) run -q --release -p hvraid -- lint --code rdp --p 13 --min-savings 10
	$(CARGO) run -q --release -p hvraid -- lint --code hdp --p 13 --min-savings 10
	$(CARGO) run -q --release -p hvraid -- lint --code evenodd --p 13 --min-savings 10
	$(CARGO) run -q --release -p hvraid -- lint --p 13 --min-savings 0

# Miri over the unsafe XOR and hex kernels, time-boxed. Skipped with a notice when
# the toolchain has no miri component (e.g. offline containers) — the
# kernel_audit scalar-shadow mode and debug-assert bounds checks still
# cover the kernels without it.
miri:
	@if $(CARGO) +nightly miri --version >/dev/null 2>&1; then \
		MIRIFLAGS=-Zmiri-disable-isolation timeout 600 \
			$(CARGO) +nightly miri test -p raid-math -- xor hex || exit 1; \
	else \
		echo "miri: nightly component unavailable, skipping (see 'make test-kernel-audit')"; \
	fi

# Re-runs the kernel test suite with every dispatched SIMD call shadowed
# by the scalar reference implementation and byte-compared.
test-kernel-audit:
	RUSTFLAGS="--cfg kernel_audit" $(CARGO) test -q -p raid-math

# The pre-merge gate: release build, full test suite (`make test`, so one
# red binary cannot hide the later suites), the static-analysis lint gate
# (clippy + miri + symbolic proofs + optimizer gates), results/ against a
# fresh repro run, every example binary, the smoke campaigns, then the
# hvbench smoke run.
# `git status` is clean afterwards.
verify:
	$(CARGO) build --release
	$(MAKE) test
	$(MAKE) lint
	$(MAKE) repro-check
	$(MAKE) examples-smoke
	$(MAKE) tsan-smoke
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-smoke

clean:
	$(CARGO) clean
