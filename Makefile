# Developer entry points.  PYTHONPATH is set so no install is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: kbench kbench-compare kbench-selftest test test-net test-recovery test-replication test-fleet test-verify test-scenarios bench bench-quick bench-load bench-net bench-recovery bench-replication bench-fleet bench-verify bench-scenarios bench-baseline chaos-quick chaos-recovery chaos-replication chaos-fleet chaos-verify chaos-scenarios

# Tier-1: the fast correctness suite (every test under tests/).
test:
	$(PY) -m pytest -x -q

# Network datapath suite: real sockets over loopback (excluded from
# tier-1; includes the 10k-request end-to-end acceptance test).
test-net:
	$(PY) -m pytest tests/ -q -m net

# Crash-recovery suite: file-backed WAL/snapshot recovery (real fsync +
# rename through DirStorage) and the kill-a-serving-shard failover
# end-to-end test (excluded from tier-1).
test-recovery:
	$(PY) -m pytest tests/ -q -m recovery

# Replicated durable-state suite: multi-node WAL shipping over real
# sockets, quorum acks, and primary-kill promotion (excluded from
# tier-1).
test-replication:
	$(PY) -m pytest tests/ -q -m replication

# Fleet control-plane suite: live scale-out under load with zero
# failed requests, canary auto-rollback of a known-faulty artifact,
# and scale-in preserving every acked write (excluded from tier-1).
test-fleet:
	$(PY) -m pytest tests/ -q -m fleet

# Verification-service suite: parallel/differential bit-identity,
# profiles, worker-kill chaos (part of tier-1; this target selects it).
test-verify:
	$(PY) -m pytest tests/ -q -m verify_svc

# Adversarial scenario suite: one seeded hostile-traffic run per
# scenario (floods, slow-loris, flash crowd, migration-under-attack,
# burst/drain, L4LB failover) with the oracles checked inside
# (excluded from tier-1; the multi-seed sweep is chaos-scenarios).
test-scenarios:
	$(PY) -m pytest tests/ -q -m scenario

# Network datapath gate: kernel fast path (batched ingress + fused
# engine, best point on the pps-vs-batch-size curve) must beat the
# userspace-fallback leg by >= 3x in open-loop pps; also checks
# regression vs the committed baseline in
# benchmarks/results/BENCH_net.json.
bench-net:
	$(PY) benchmarks/bench_net_datapath.py --check

# Regenerate every paper figure/table.
bench:
	$(PY) -m pytest benchmarks/ -q

# Perf gate: engine micro-benchmark vs the committed baseline
# (benchmarks/results/BENCH_engine.json); fails on a >20% speedup
# regression.
bench-quick:
	sh scripts/bench_quick.sh

# Load-path gate: cold vs warm (program-cache hit) load latency;
# fails below the 5x floor or on a >50% regression vs the baseline.
bench-load:
	$(PY) benchmarks/bench_load_path.py --check

# Verification-service gate: 64-program rollout through the worker
# pool must beat serial re-verification >= 2x, and a 1-insn patch must
# re-explore < 50% of regions (differential re-verification).
bench-verify:
	$(PY) benchmarks/bench_verify_service.py --check

# Re-record the engine baseline benchmarks/results/BENCH_engine.json —
# the file bench-quick gates against (run on a quiet machine).
bench-baseline:
	$(PY) benchmarks/bench_engine_speed.py --update

# Chaos gates: one driver, one row per gate.  Every row fails on any
# oracle error, on fewer injected deaths than --min-deaths, and on any
# of the campaign's required crash sites (CAMPAIGNS in
# src/repro/sim/chaos.py) left unexercised.
CHAOS := $(PY) -m repro.sim.chaos run

# Robustness gate: seeded chaos campaigns over every supervised app,
# both engines; fails on oracle errors, leaks, or engine divergence.
chaos-quick:
	$(CHAOS) memcached redis datastructures --seed 3 --ops 250

# Durability gate: seeded crash-point fuzz over the WAL/snapshot store
# (file-backed); fails on corruption, non-prefix recovery, durability-
# barrier rollback, or < 200 injected crashes.
chaos-recovery:
	$(CHAOS) recovery --seed 1 --runs 6 --min-deaths 200 --file-backed

# Replication gate: seeded crash-point fuzz over the WAL-shipping
# pipeline — primary, follower, promotion, and anti-entropy deaths —
# checked by a linearizability-of-acked-writes oracle; fails on any
# acked-write loss, fencing violation, divergence, or < 200 deaths.
chaos-replication:
	$(CHAOS) replication --seed 1 --runs 5 --min-deaths 200

# Fleet control-plane gate: seeded crash-point fuzz over live segment
# migration and canary rollouts — source/target deaths at every
# migration stage, canary deaths at every rollout stage — checked by
# an acked-writes-preserved oracle plus rollout-safety oracles; fails
# on any loss, any bad promotion/rollback, or < 200 deaths.
chaos-fleet:
	$(CHAOS) fleet --seed 1 --runs 8 --min-deaths 200

# Verification-service gate: seeded worker kills mid-exploration; fails
# on any job not retried, any merged analysis that differs from the
# inline verifier, or < 20 kills.
chaos-verify:
	$(CHAOS) verify --seed 1 --runs 4 --min-deaths 20

# Hostile-traffic gate: the full scenario matrix across >= 200 seeded
# runs; fails on any oracle violation (acked-write loss, ungraceful
# shed, unbounded recovery, p99 blow-out) or a short campaign.
chaos-scenarios:
	$(PY) -m repro.sim.scenarios --seed 0 --runs 30 --min-runs 200

# Hostile-traffic perf gate: per-scenario p99 and shed-rate envelopes
# vs the committed baseline in benchmarks/results/BENCH_scenarios.json.
bench-scenarios:
	$(PY) benchmarks/bench_scenarios.py --check

# Fleet perf gate: live scale-out 2->3 migration wall time and
# requests failed during cutover (must be zero) vs the committed
# baseline in benchmarks/results/BENCH_fleet.json.
bench-fleet:
	$(PY) benchmarks/bench_fleet.py --check

# Replication perf gate: quorum-ack (k=1) overhead on the 90:10 mix
# must stay <= 35% vs single-node durable; promotion-to-first-request
# time under budget.
bench-replication:
	$(PY) benchmarks/bench_replication.py --check

# Durability perf gate: WAL-on overhead on the Fig-2 memcached workload
# must stay <= 15%; warm recovery of a 100k-entry map under budget.
bench-recovery:
	$(PY) benchmarks/bench_recovery.py --check

# kbench (BENCHMARK.json): every workload, 3 runs each, every
# end-to-end metric by name and unit into OUT; exit 1 on an oracle
# mismatch (~3.5 min).  Never run two measurements at once.
#   make kbench OUT=base.json
OUT ?= benchmarks/kbench/out/kbench.json
kbench:
	$(PY) -m benchmarks.kbench run --json $(OUT)

# Compare two `make kbench` result files: better|same|worse|unresolved
# per workload x metric, exit 1 on any "worse".
#   make kbench-compare A=base.json B=change.json
kbench-compare:
	$(PY) -m benchmarks.kbench compare $(A) $(B)

# kbench's own tests (oracle, spec, streams, tracer): not part of
# tier-1, so run them after touching anything the tracer patches
# (tests/test_kbench_surface.py pins that surface in tier-1).  With
# them, the planted-fault check on the batched entry the TCP path takes
# (kbench's own plants its fault on `service.ingress`).
kbench-selftest:
	$(PY) -m pytest benchmarks/kbench/tests tests/test_kbench_tcp_oracle.py -q -m "net or not net"
