#!/usr/bin/env python3
"""qdice benchmark.

    python3 perfbench/run.py --workload mc-sample --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qdice is imported from ``src/``.
One process, one caller, closed loop: operations of several kinds run one
after another, interleaved evenly. How many of each kind a run makes is fixed
by the workload's ``ops_per_10s`` in ``workloads.json`` and by ``--seconds``,
so the same arguments always make the same operations, and the number
attempted and failed does not depend on how fast the machine is; the counts
are sized so a run takes about 0.8 of ``--seconds`` on the nominal machine
(see PROBE_NOMINAL_S). Every output is checked. The last line of stdout is
the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``). The line before it describes the run: versions, cpu
count, per-kind call times (median and high percentile, with counts), the
problems found, Monte Carlo z-scores and the unscaled metrics.

With ``--trace 1`` the run measures the plan for UNTRACED_SHARE of
``--seconds`` untraced, then replays the same sequence of kinds, on fresh
inputs, with every public function of qdice's modules wrapped in spans; per-layer numbers come from
the spans, and the difference in time is the tracing overhead. Spans are
written to ``.perfbench_out/trace-<workload>.jsonl.gz``.
"""
from __future__ import annotations

import os

# one thread everywhere: numpy's BLAS/OpenMP pools, here and in child interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
UNTRACED_SHARE = 0.4  # of --seconds; the traced replay of the same kinds fills most of the rest
#: A run stops early, with fewer operations than planned, once this many
#: seconds have passed since it started, so that it ends in time on a
#: machine far slower than the nominal one.
DEADLINE_S = 140.0
#: The planned sequence is cut into blocks; throughputs are the median over blocks
#: of each block's mean rate, latencies the median over blocks of each block's
#: percentile. On a shared machine, stalls from other tenants come and go for
#: seconds at a time and make per-call times bimodal, so a median over single
#: calls jumps between the modes; the median over blocks ignores stalled
#: blocks as long as they are fewer than half.
BLOCKS = 6
#: Whole runs on a shared machine also differ in speed by 10-40% as other
#: tenants come and go. Every PROBE_EVERY_S a fixed probe (harness.speed_probe)
#: is timed between operations; each block's timings are scaled by
#: PROBE_NOMINAL_S / (the block's median probe time), i.e. to a machine that
#: runs the probe in PROBE_NOMINAL_S. Set-up samples are scaled by probes
#: taken right after them. The run is pinned to one cpu, which the child
#: interpreters inherit, so the probe sees the cpu they run on. Unscaled
#: figures go to the details line.
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 1.5e-3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a
    digest of the sources that were measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def build_kinds(ops, seed: int, sizes: dict, env: dict) -> dict:
    import numpy as np

    def rng(stream: int):
        return np.random.default_rng([seed, stream])

    return {
        "flip": ops.Flip(rng(1), sizes["flip_trials"]),
        "ladder": ops.Ladder(rng(2), sizes["ladder_trials"]),
        "oracle": ops.Oracle(rng(3), sizes["oracle_grid_points"], sizes["oracle_random_samples"],
                             sizes["oracle_ancilla_dim"]),
        "sampled": ops.Sampled(rng(4), sizes["sampled_strategies"]),
        "cold": ops.Cold(rng(5), sizes["cold_trials"]),
        "cli": ops.Cli(rng(6), OUT / "bad-config.json"),
        "cli-cold": ops.ColdCli(ROOT, env),
    }


class Runner:
    """Runs, times and checks operations; keeps (block, seconds) per kind
    for every operation that counts towards the metrics."""

    def __init__(self, harness, kinds: dict, deadline: float) -> None:
        self.harness = harness
        self.kinds = kinds
        self.deadline = deadline
        self.stopped_early = False
        self.tally = harness.Tally()
        self.tracer = None  # a spans.Tracer during the traced replay
        self.durations: dict[str, list[tuple[int, float]]] = {name: [] for name in kinds}
        self.block = 0
        self.ops = 0
        self.probes: list[tuple[int, float]] = []  # (block, seconds) of each speed probe

    def one(self, name: str) -> float:
        kind = self.kinds[name]
        inp = kind.next_input()
        checks = self.harness.Checks(name)
        out = None
        if self.tracer is not None:
            self.tracer.op_id, self.tracer.active = self.ops, True
        start = time.perf_counter()
        try:
            out = kind.run(inp)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            checks.expect(False, f"raised {type(exc).__name__}: {exc}", wrong_output=False)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        self.ops += 1
        if not checks.problems:
            kind.check(inp, out, checks)
        self.tally.op(checks)
        if kind.counted(inp):
            self.durations[name].append((self.block, elapsed))
        return elapsed

    def timed(self, sequence: list[str], blocks: int = 1) -> list[str]:
        """Run ``sequence`` one operation after another, cut into ``blocks``
        equal parts. Returns the kinds run: all of ``sequence`` unless the
        deadline passed first."""
        last_probe = time.perf_counter()
        for index, name in enumerate(sequence):
            now = time.perf_counter()
            if now >= self.deadline:
                self.stopped_early = True
                return sequence[:index]
            self.block = index * blocks // len(sequence)
            if now - last_probe >= PROBE_EVERY_S:
                self.harness.speed_probe()
                last_probe = time.perf_counter()
                self.probes.append((self.block, last_probe - now))
            self.one(name)
        return sequence

    def final_checks(self) -> None:
        for kind in self.kinds.values():
            for checks in kind.final_checks():
                self.tally.op(checks)


def plan(kinds: dict, ops_per_10s: dict, seconds: float) -> list[str]:
    """The sequence of kinds a run of ``seconds`` makes: each kind's count
    scaled from ``ops_per_10s`` and rounded to whole periods (at least one),
    spread evenly through the sequence."""
    counts = {}
    for name, per_10s in ops_per_10s.items():
        period = kinds[name].period
        counts[name] = period * max(1, round(per_10s * seconds / 10.0 / period))
    done = dict.fromkeys(counts, 0)
    sequence = []
    for _ in range(sum(counts.values())):
        name = min(counts, key=lambda k: (done[k] + 1) / counts[k])
        done[name] += 1
        sequence.append(name)
    return sequence


def _probe_seconds(harness, repeats: int) -> float:
    """Median time of ``repeats`` speed probes."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        harness.speed_probe()
        times.append(time.perf_counter() - start)
    return harness.median(times)


def _by_block(harness, records: list[tuple[int, float]], statistic, speed: dict | None) -> float | None:
    """Median over blocks of ``statistic`` of the block's durations, each
    duration first scaled by its block's ``speed`` factor (if given)."""
    blocks: dict[int, list[float]] = {}
    for block, elapsed in records:
        blocks.setdefault(block, []).append(elapsed * (speed[block] if speed else 1.0))
    if not blocks:
        return None
    return harness.median([statistic(sorted(times)) for times in blocks.values()])


def end_to_end(harness, runner: Runner, setup_s: float, speed: dict | None) -> dict:
    """The end-to-end metrics; ``speed`` maps each block to the factor that
    scales its timings to the nominal machine speed (None: raw timings)."""
    d, kinds = runner.durations, runner.kinds

    def rate(name: str) -> float | None:
        return _by_block(harness, d[name], lambda times: len(times) * kinds[name].items / sum(times), speed)

    def cli_ms(q: float) -> float | None:
        return _by_block(harness, d["cli"], lambda times: harness.quantile(times, q) * 1e3, speed)

    cold = [t * (speed[block] if speed else 1.0) for block, t in d["cli-cold"]]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - runner.tally.failed / runner.tally.attempted,
        "flip_trials_per_s": rate("flip"),
        "ladder_trials_per_s": rate("ladder"),
        "oracle_points_per_s": rate("oracle"),
        "sampled_strategies_per_s": rate("sampled"),
        "cold_configs_per_s": rate("cold"),
        "cli_reports_per_s": rate("cli"),
        "cli_p50_ms": cli_ms(0.5),
        "cli_p90_ms": cli_ms(0.9),
        "cli_cold_s": harness.median(cold) if cold else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdice" / "__init__.py").is_file():
        return _fail(f"no qdice sources under {SRC.name}/ of {ROOT}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qdice

    if Path(qdice.__file__).resolve().parent != SRC / "qdice":
        return _fail(f"imported qdice from {qdice.__file__}, not from {SRC}")
    import harness
    import ops
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(config['workloads'])}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    start = time.perf_counter()
    workload = config["workloads"][args.workload]
    ops_per_10s = workload["ops_per_10s"]
    sizes = {**config["sizes"], **workload.get("sizes", {})}
    harness.self_check()
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    (OUT / "bad-config.json").write_text(json.dumps({"trials": "100"}))

    # set-up: a fresh interpreter importing qdice, plus generating the inputs
    ops.timed_import(ROOT, env)  # untimed: leaves byte-code caches as any user finds them
    setups, raw_setups, imports = [], [], []
    for _ in range(sizes["setup_repeats"]):
        wall, inner = ops.timed_import(ROOT, env)
        start = time.perf_counter()
        kinds = build_kinds(ops, args.seed, sizes, env)
        generate = time.perf_counter() - start
        scale = PROBE_NOMINAL_S / _probe_seconds(harness, 5)
        raw_setups.append(wall + generate)
        setups.append((wall + generate) * scale)
        imports.append(inner * scale)

    runner = Runner(harness, kinds, start + DEADLINE_S)
    for name, kind in kinds.items():  # warm-up, checked but not timed; whole periods keep failures fixed
        if name != "cli-cold":
            for _ in range(kind.period):
                runner.one(name)
    runner.durations = {name: [] for name in kinds}

    if args.trace:
        # the same sequence of kinds, untraced then traced; cold cli runs are
        # separate interpreters, which the tracer cannot see
        sequence = plan(kinds, ops_per_10s, args.seconds * UNTRACED_SHARE)
        sequence = [name for name in runner.timed(sequence) if name != "cli-cold"]
        untraced = sum(t for name in set(sequence) for _, t in runner.durations[name])
        runner.durations = {name: [] for name in kinds}
        runner.tracer = tracer = spans.Tracer()
        tracer.install()
        try:
            for name in sequence:
                runner.one(name)
        finally:
            tracer.uninstall()
        traced = sum(t for recs in runner.durations.values() for _, t in recs)
        values = tracer.layer_metrics()
        values["cli.import_s"] = harness.median(imports)
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        tracer.write(OUT / f"trace-{args.workload}.jsonl.gz")
        metric_specs = spec["per_layer"]
    else:
        runner.timed(plan(kinds, ops_per_10s, args.seconds), BLOCKS)
        metric_specs = spec["end_to_end"]
    runner.final_checks()
    tally = runner.tally
    if not args.trace:
        probe_s: dict[int, list[float]] = {}
        for block, elapsed in runner.probes:
            probe_s.setdefault(block, []).append(elapsed)
        overall = harness.median([t for _, t in runner.probes]) if runner.probes else _probe_seconds(harness, 5)
        speed = {block: PROBE_NOMINAL_S / harness.median(probe_s.get(block, [overall])) for block in range(BLOCKS)}
        values = end_to_end(harness, runner, harness.median(setups), speed)
        raw_values = end_to_end(harness, runner, harness.median(raw_setups), None)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": _source_identity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "threads": os.environ["OMP_NUM_THREADS"],
        "ops_per_10s": ops_per_10s,
        "stopped_early": runner.stopped_early,
        "operations_ms": {
            name: {"items": kinds[name].items, **harness.timing_summary([t * 1e3 for _, t in recs])}
            for name, recs in runner.durations.items() if recs
        },
        "fail_ratio": tally.failed / tally.attempted,
        "problems": dict(tally.problems.most_common(20)),
        "mc_z_scores": {**kinds["flip"].tallies.z_scores(), **kinds["ladder"].tallies.z_scores(),
                        "cold alice wins": round(kinds["cold"].z_score(), 3)},
    }
    if args.trace:
        details["self_share"] = {layer: values.get(f"{layer}.self_share") for layer in spans.LAYERS}
    else:
        details["probe_ms_by_block"] = {block: harness.median(t) * 1e3 for block, t in probe_s.items()}
        details["raw_metrics"] = raw_values
    print(json.dumps(details))
    try:
        metrics = harness.metrics_block(values, metric_specs)
    except harness.MissingMetric as exc:
        return _fail(str(exc))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
