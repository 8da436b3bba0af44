"""Bookkeeping shared by the benchmark: checks, statistics and the result line.

A ``Tally`` counts attempted and failed operations. An operation fails when
it raises, when it returns the wrong exit code, or when one of its output
checks fails; only the last kind also marks the run incorrect, because it
means the program produced a wrong answer rather than no answer.
"""
from __future__ import annotations

import math
from collections import Counter


class MissingMetric(RuntimeError):
    """A metric the benchmark promises was not measured."""


class Tally:
    """Attempted and failed operations plus the output checks behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.problems: Counter = Counter()  # distinct problem -> how often it occurred

    @property
    def correct(self) -> bool:
        return self.wrong_outputs == 0

    def op(self, checks: "Checks") -> None:
        """Record one operation and the problems its checks found."""
        self.attempted += 1
        if checks.problems:
            self.failed += 1
            self.wrong_outputs += int(checks.wrong_output)
            self.problems["; ".join(checks.problems)] += 1


class Checks:
    """Collects the problems found in one operation's output."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.problems: list[str] = []
        self.wrong_output = False

    def expect(self, ok: bool, what: str, wrong_output: bool = True) -> None:
        """Record ``what`` unless ``ok``; ``wrong_output=False`` marks an
        operation that gave no answer (a crash, a wrong exit code) rather
        than a wrong one."""
        if not ok:
            self.problems.append(f"{self.label}: {what}")
            self.wrong_output |= wrong_output

    def expect_close(self, what: str, actual: float, expected: float, tol: float) -> None:
        self.expect(
            math.isfinite(actual) and abs(actual - expected) <= tol,
            f"{what} = {actual!r}, expected {expected!r} +- {tol:g}",
        )

    def expect_at_most(self, what: str, actual: float, limit: float) -> None:
        self.expect(math.isfinite(actual) and actual <= limit, f"{what} = {actual!r} > {limit!r}")


def binomial_z(successes: int, trials: int, prob: float) -> float:
    """Standard score of a binomial tally against its analytic probability."""
    var = trials * prob * (1.0 - prob)
    diff = successes - trials * prob
    if var <= 0.0:
        return 0.0 if abs(diff) < 0.5 else math.inf
    return diff / math.sqrt(var)


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted list."""
    if not sorted_values:
        raise MissingMetric("quantile of no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(sorted(values), 0.5)


def timing_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    summary = {"n": len(ordered), "p50": quantile(ordered, 0.5)}
    for pct in (99.9, 99.0, 90.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            summary[f"p{pct:g}"] = quantile(ordered, pct / 100.0)
            break
    return summary


def metrics_block(values: dict[str, float], specs: list[dict]) -> dict:
    """The result's ``metrics`` object: every promised metric, or an error."""
    block = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            raise MissingMetric(f"metric {spec['name']!r} was not measured (got {value!r})")
        block[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return block


def speed_probe() -> None:
    """A fixed ~1.5 ms mix of the work qdice does (generator set-up, small
    complex arrays, dict and float churn). It uses numpy but not qdice, so
    its time tracks only how fast the machine is running at the moment."""
    import numpy as np

    acc = 0.0
    for i in range(16):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=20091682, spawn_key=(i,)))
        amps = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        amps = amps / np.linalg.norm(amps)
        acc += abs(complex(np.vdot(amps[:, 0], amps[:, 1]))) + rng.random()
        terms = {f"k{j}": j * 0.5 for j in range(24)}
        acc += sum(v for k, v in terms.items() if k.endswith(("1", "3")))
    if not math.isfinite(acc):
        raise RuntimeError("speed probe produced a non-finite value")


def self_check() -> None:
    """Prove that a wrong expectation fails and a missing metric is an error."""
    tally = Tally()
    checks = Checks("self-check")
    checks.expect_close("known value", 1.0, 2.0, 1e-9)
    tally.op(checks)
    if (tally.attempted, tally.failed, tally.correct) != (1, 1, False):
        raise RuntimeError("harness self-check: a wrong expected value was not counted as a failure")
    spec = [{"name": "present", "unit": "s"}, {"name": "absent", "unit": "s"}]
    try:
        metrics_block({"present": 1.0}, spec)
    except MissingMetric:
        pass
    else:
        raise RuntimeError("harness self-check: a missing metric was not reported as an error")
