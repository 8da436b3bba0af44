"""The operations the workloads are built from.

Each kind draws its inputs from its own seeded generator (untimed), calls
qdice's public API (timed), and checks the outputs (untimed). Functions are
looked up through their module at call time, so the traced run sees the
wrapped versions.
"""
from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from qdice import adversary, cli, dicer, qsim, wcf
from qdice.qsim import BasisLabel, Spin, StateVector

from harness import Checks, binomial_z

#: (p, eta) points where the paper's protocols are fair or nearly so
ACCEPTANCE_POINTS = ((0.5, 0.2071), (1.0 / 3.0, 0.1465), (2.0 / 3.0, 0.199))
ETA_FAIR = (math.sqrt(2.0) - 1.0) / 2.0
#: published three-sided biases, checked to 1e-3
DICE3_BIASES = {"dice3-case1": 0.181, "dice3-case2": 0.199}
#: A 3-sigma limit flags about 0.27% of correct tallies; a run makes ~25
#: tallies, so over a few dozen runs 3 sigma would mark several correct runs
#: as wrong. At 5 sigma a correct tally fails about once in 1.7 million.
Z_LIMIT = 5.0


def _random_unit(rng: np.random.Generator, dim: int) -> tuple[complex, ...]:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return tuple(complex(x) for x in vec / np.linalg.norm(vec))


def _random_params(rng: np.random.Generator) -> tuple[float, float]:
    p = float(rng.uniform(0.05, 0.95))
    return p, float(rng.uniform(0.02, 0.98)) * (1.0 - p)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


class Kind:
    """One kind of operation; subclasses fill in next_input, run and check."""

    name = ""
    #: units of work one operation does (trials, samples, configurations...)
    items = 1
    #: operations after which the inputs repeat their pattern; runs are made
    #: of whole periods, so each makes the same mix whatever the seed
    period = 1

    def next_input(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, checks: Checks) -> None:
        raise NotImplementedError

    def counted(self, inp) -> bool:
        """Whether the operation's time counts towards the metrics."""
        return True

    def final_checks(self) -> list[Checks]:
        return []


class _BinomialTallies:
    """Per-configuration success counts checked against analytic values."""

    def __init__(self, kind: str, labels: list[str], probs: list[float]) -> None:
        self.kind = kind
        self.labels = labels
        self.probs = probs
        self.hits = [0] * len(labels)
        self.trials = [0] * len(labels)

    def add(self, index: int, hits: int, trials: int) -> None:
        self.hits[index] += hits
        self.trials[index] += trials

    def checks(self) -> list[Checks]:
        out = []
        for label, prob, hits, trials in zip(self.labels, self.probs, self.hits, self.trials):
            if trials:
                checks = Checks(f"{self.kind} {label}")
                z = binomial_z(hits, trials, prob)
                checks.expect(abs(z) <= Z_LIMIT, f"tally {hits}/{trials} is {z:+.2f} sigma from {prob:.6f}")
                out.append(checks)
        return out

    def z_scores(self) -> dict[str, float]:
        return {
            label: round(binomial_z(h, n, prob), 3)
            for label, prob, h, n in zip(self.labels, self.probs, self.hits, self.trials)
            if n
        }


class Flip(Kind):
    """``run_trials`` on honest, claim-win and optimal-tilt play at the
    acceptance points. One operation runs every one of the nine
    configurations once, so each operation costs the same."""

    name = "flip"

    def __init__(self, rng: np.random.Generator, trials: int) -> None:
        self.rng = rng
        self.trials = trials
        self.configs = []
        labels, probs = [], []
        for p, eta in ACCEPTANCE_POINTS:
            params = wcf.ProtocolParams(p, eta)
            delta = adversary.alice_optimal_value(params).optimizer
            tilt = adversary.alice_value_at_delta(params, delta)
            for cheat, winner, prob in (
                (wcf.Honest(), wcf.Winner.ALICE, 1.0 - p),
                (wcf.BobClaimWin(), wcf.Winner.BOB, p + eta),
                (wcf.AliceDelta(delta), wcf.Winner.ALICE, tilt),
            ):
                self.configs.append((params, cheat, winner))
                labels.append(f"{cheat.name} p={p:.4f}")
                probs.append(prob)
        self.items = trials * len(self.configs)
        self.tallies = _BinomialTallies(self.name, labels, probs)

    def next_input(self):
        return [_seed(self.rng) for _ in self.configs]

    def run(self, seeds):
        return [
            wcf.run_trials(params, cheat, self.trials, seed)
            for (params, cheat, _), seed in zip(self.configs, seeds)
        ]

    def check(self, seeds, all_stats, checks: Checks) -> None:
        for index, ((_, cheat, winner), stats) in enumerate(zip(self.configs, all_stats)):
            checks.expect(sum(stats.counts.values()) == self.trials, "tallies do not add up to the trials")
            if isinstance(cheat, wcf.Honest):
                checks.expect(stats.aborts == 0, f"{stats.aborts} aborts in honest play")
            self.tallies.add(index, stats.counts[winner], stats.trials)

    def final_checks(self) -> list[Checks]:
        return self.tallies.checks()


class Ladder(Kind):
    """``simulate_dice`` on both three-sided layouts (honest and against
    every coalition) and on one eight-party uniform ladder (honest and
    against one coalition). One operation runs all ten configurations."""

    name = "ladder"

    def __init__(self, rng: np.random.Generator, trials: int) -> None:
        self.rng = rng
        self.trials = trials
        specs = [(f"case{case}", dicer.LadderSpec.three_sided(case=case)) for case in (1, 2)]
        eta8 = float(rng.uniform(0.05, 0.3))
        specs.append((f"uniform8 eta={eta8:.4f}", dicer.LadderSpec.uniform(8, eta8)))
        self.configs = []
        labels, probs = [], []
        for label, spec in specs:
            honest_parties = range(1, 4) if spec.n_parties == 3 else [int(rng.integers(1, 9))]
            self.configs.append((spec, None))
            labels.append(f"{label} honest")
            probs.append(1.0 / spec.n_parties)
            for party in honest_parties:
                coalition = dicer.Coalition(honest_party=party)
                self.configs.append((spec, coalition))
                labels.append(f"{label} honest-party={party} losing")
                probs.append(dicer.expected_coalition_losing(spec, coalition))
        self.items = trials * len(self.configs)
        self.tallies = _BinomialTallies(self.name, labels, probs)
        # honest ladders: every party's wins, checked against 1/N at the end
        self.party_wins = {i: np.zeros(spec.n_parties, dtype=np.int64)
                           for i, (spec, c) in enumerate(self.configs) if c is None}

    def next_input(self):
        return [_seed(self.rng) for _ in self.configs]

    def run(self, seeds):
        return [
            dicer.simulate_dice(spec, self.trials, seed, coalition=coalition)
            for (spec, coalition), seed in zip(self.configs, seeds)
        ]

    def check(self, seeds, reports, checks: Checks) -> None:
        for index, ((spec, coalition), report) in enumerate(zip(self.configs, reports)):
            checks.expect(sum(report.win_counts) == self.trials, "win counts do not add up to the trials")
            if coalition is None:
                checks.expect(report.stage_aborts == 0, f"{report.stage_aborts} aborts in honest play")
                self.party_wins[index] += report.win_counts
            else:
                losing = self.trials - report.win_counts[coalition.honest_party - 1]
                self.tallies.add(index, losing, self.trials)

    def final_checks(self) -> list[Checks]:
        out = self.tallies.checks()
        for index, wins in self.party_wins.items():
            total = int(wins.sum())
            if not total:
                continue
            checks = Checks(f"ladder {self.tallies.labels[index]} all parties")
            for party, count in enumerate(wins, start=1):
                z = binomial_z(int(count), total, 1.0 / len(wins))
                checks.expect(abs(z) <= Z_LIMIT, f"party {party} wins {count}/{total}, {z:+.2f} sigma")
            out.append(checks)
        return out


class Oracle(Kind):
    """``brute_force_alice`` over a seeded 8x8 p-by-eta grid."""

    name = "oracle"

    def __init__(self, rng: np.random.Generator, grid_points: int, samples: int, ancilla_dim: int) -> None:
        self.rng = rng
        self.grid_points, self.samples, self.ancilla_dim = grid_points, samples, ancilla_dim
        p_values = rng.uniform(0.05, 0.95, 8)
        fractions = rng.uniform(0.02, 0.98, 8)
        grid = [(float(p), float(f * (1.0 - p))) for p in p_values for f in fractions]
        self.points = [grid[i] for i in rng.permutation(len(grid))]
        self.count = 0

    def next_input(self):
        point = self.points[self.count % len(self.points)]
        self.count += 1
        return wcf.ProtocolParams(*point), _seed(self.rng)

    def run(self, inp):
        params, seed = inp
        return adversary.brute_force_alice(
            params,
            grid_points=self.grid_points,
            ancilla_dim=self.ancilla_dim,
            random_samples=self.samples,
            seed=seed,
        )

    def check(self, inp, found, checks: Checks) -> None:
        closed = adversary.alice_optimal_value(inp[0]).value
        checks.expect_close("oracle value", found.value, closed, 1e-6)


class Sampled(Kind):
    """``sample_cheat_values`` at a random point, once in each of its four
    sampling modes per operation."""

    name = "sampled"
    #: (ancilla_dim, orthogonal_pair, min_unused_weight)
    VARIANTS = ((1, False, 0.0), (2, False, 0.0), (2, True, 0.0), (1, False, 0.5))

    def __init__(self, rng: np.random.Generator, samples: int) -> None:
        self.rng = rng
        self.samples = samples
        self.items = samples * len(self.VARIANTS)

    def next_input(self):
        return wcf.ProtocolParams(*_random_params(self.rng)), [_seed(self.rng) for _ in self.VARIANTS]

    def run(self, inp):
        params, seeds = inp
        return [
            adversary.sample_cheat_values(
                params, self.samples, ancilla_dim=ancilla_dim, seed=seed,
                min_unused_weight=min_unused, orthogonal_pair=orthogonal,
            )
            for (ancilla_dim, orthogonal, min_unused), seed in zip(self.VARIANTS, seeds)
        ]

    def check(self, inp, all_values, checks: Checks) -> None:
        closed = adversary.alice_optimal_value(inp[0]).value
        for values in all_values:
            checks.expect(len(values) == self.samples, f"{len(values)} values for {self.samples} samples")
            checks.expect_at_most("best sampled value", float(np.max(values)), closed + 1e-9)
            checks.expect(float(np.min(values)) >= -1e-12, "negative probability")


def ket_audit(params: wcf.ProtocolParams, amplitudes, ancillas) -> float:
    """Win-and-survive probability of a preparation, rebuilt from basis kets.

    Builds the three-qubit state and the verification state from ``ket``
    rather than through ``wcf``, so it cross-checks ``general_cheat_value``.
    """
    dim = len(ancillas[0])
    amps = np.zeros((2, 2, 2, dim), dtype=complex)
    for alpha, phi, label in zip(amplitudes, ancillas, ("uu", "ud", "du", "dd")):
        for index, coeff in enumerate(phi):
            amps = amps + alpha * coeff * qsim.ket(BasisLabel.parse(label + "d", index), dim).amps
    state = qsim.apply_u_eta(StateVector(amps), params.p, params.eta)
    _, miss = qsim.projective_test(state, {2: Spin.UP, 3: Spin.DOWN})
    if miss.post_state is None:
        return 0.0
    keep = max(0.0, 1.0 - params.p - params.eta) / (1.0 - params.p)
    xi = StateVector(
        math.sqrt(keep) * qsim.ket("udd").amps
        + math.sqrt(params.eta / (1.0 - params.p)) * qsim.ket("ddu").amps
    )
    passed, _ = qsim.projective_test(miss.post_state, xi)
    return miss.probability * passed.probability


class Cold(Kind):
    """A fresh ancilla-entangled ``AliceGeneral`` per operation: its cheat
    value, a short ``run_trials`` and a ket-level audit. Every configuration
    is new, so nothing evolved earlier can be reused."""

    name = "cold"

    def __init__(self, rng: np.random.Generator, trials: int) -> None:
        self.rng = rng
        self.trials = trials
        self.wins = 0
        self.expected = 0.0
        self.variance = 0.0

    def next_input(self):
        params = wcf.ProtocolParams(*_random_params(self.rng))
        amplitudes = _random_unit(self.rng, 4)
        ancillas = tuple(_random_unit(self.rng, 2) for _ in range(4))
        return params, amplitudes, ancillas, _seed(self.rng)

    def run(self, inp):
        params, amplitudes, ancillas, seed = inp
        cheat = wcf.AliceGeneral(amplitudes, ancillas)
        value = adversary.general_cheat_value(params, cheat)
        stats = wcf.run_trials(params, cheat, self.trials, seed)
        return value, stats, ket_audit(params, amplitudes, ancillas)

    def check(self, inp, out, checks: Checks) -> None:
        value, stats, audit = out
        closed = adversary.alice_optimal_value(inp[0]).value
        checks.expect_at_most("general cheat value", value, closed + 1e-9)
        checks.expect_close("ket audit", audit, value, 1e-9)
        checks.expect(sum(stats.counts.values()) == self.trials, "tallies do not add up to the trials")
        self.wins += stats.counts[wcf.Winner.ALICE]
        self.expected += self.trials * value
        self.variance += self.trials * value * (1.0 - value)

    def z_score(self) -> float:
        return 0.0 if self.variance <= 0.0 else (self.wins - self.expected) / math.sqrt(self.variance)

    def final_checks(self) -> list[Checks]:
        if not self.expected:
            return []
        checks = Checks("cold alice wins")
        z = self.z_score()
        checks.expect(abs(z) <= Z_LIMIT, f"{self.wins} wins vs {self.expected:.1f} expected, {z:+.2f} sigma")
        return [checks]


def _own_losing(party: int, n_parties: int, biases: list[float]) -> float:
    """A party's worst-case losing probability, recomputed in floats."""
    losing, surviving = 0.0, 1.0
    for m, bias in zip(range(max(party, 2), n_parties + 1), biases):
        stage = ((party - 1) / party if m == party else 1.0 / m) + bias
        losing += surviving * stage
        surviving *= 1.0 - stage
    return losing


class Cli(Kind):
    """In-process ``qdice.cli.main`` on a weighted rotation of argv.

    Per 36-call cycle: 9 solves, 12 bound-checks, 3 small cheats, 6 small
    simulates and 6 invalid invocations (4 that crashed when the benchmark
    was written, 2 that are refused cleanly). Of the valid calls 70%
    take ~2 ms, 10% (cheat) ~8 ms and 20% (simulate) ~10 ms, so p50 and p90
    each fall inside a cluster rather than on the edge between two.
    """

    name = "cli"

    def __init__(self, rng: np.random.Generator, bad_config: Path) -> None:
        bound_checks = []
        for _ in range(40):
            n = int(rng.integers(2, 17))
            party = int(rng.integers(1, n + 1))
            stages = n - max(party, 2) + 1
            biases = [float(b) for b in rng.uniform(0.0, 0.5 / n, stages)]
            bound_checks.append(["bound-check", "--dice", str(n), "--party", str(party),
                                 "--biases", ",".join(repr(b) for b in biases)])
        cheats = []
        for _ in range(6):
            p, eta = _random_params(rng)
            cheats.append(["cheat", "--p", repr(p), "--eta", repr(eta), "--grid", "1000",
                           "--samples", "100", "--ancilla-dim", "2", "--seed", str(int(rng.integers(1000)))])
        simulates = []
        for _ in range(2):
            seed = str(int(rng.integers(1000)))
            simulates += [
                ["simulate", "--p", "0.5", "--eta", "0.2071", "--trials", "200", "--seed", seed],
                ["simulate", "--p", repr(1 / 3), "--eta", "0.1465", "--cheat", "bob-claim-win",
                 "--trials", "200", "--seed", seed],
                ["simulate", "--dice", "3", "--honest", "--trials", "100", "--seed", seed],
            ]
        invalid = [
            ["bound-check", "--dice", "3", "--party", "1", "--biases", "0.1,nan"],
            ["bound-check", "--dice", "3", "--party", "1", "--biases", "0.1,inf"],
            ["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--alphas", "1,0,0"],
            ["simulate", "--p", "0.5", "--eta", "0.2", "--config", str(bad_config)],
            ["simulate", "--p", "1.5", "--eta", "0.1"],
            ["solve", "balanced", "--bracket", "0.3,0.4"],
        ]
        self.pools = {
            "solve": [["solve", t] for t in ("balanced", "dice3-case1", "dice3-case2")],
            "bound-check": bound_checks,
            "cheat": cheats,
            "simulate": simulates,
            "invalid": invalid,
        }
        cycle = ["solve"] * 9 + ["bound-check"] * 12 + ["cheat"] * 3 + ["simulate"] * 6 + ["invalid"] * 6
        self.cycle = [cycle[i] for i in rng.permutation(len(cycle))]
        self.period = len(self.cycle)
        self.next_index = {pool: 0 for pool in self.pools}
        self.count = 0
        self.reports: dict[tuple, str] = {}

    def next_input(self):
        pool = self.cycle[self.count % len(self.cycle)]
        self.count += 1
        argv = self.pools[pool][self.next_index[pool] % len(self.pools[pool])]
        self.next_index[pool] += 1
        return tuple(argv), pool != "invalid"

    def run(self, inp):
        argv, _ = inp
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
            except Exception as exc:  # a crash is the outcome being measured
                return None, out.getvalue(), exc
        return code, out.getvalue(), None

    def counted(self, inp) -> bool:
        """Invalid invocations stay out of the throughput and latencies."""
        return inp[1]

    def check(self, inp, out, checks: Checks) -> None:
        argv, valid = inp
        code, text, exc = out
        command = " ".join(argv)
        if not valid:
            checks.expect(exc is None, f"{command} raised {type(exc).__name__}: {exc}", wrong_output=False)
            checks.expect(exc is not None or code in (2, 3), f"{command} exited {code}, expected 2 or 3",
                          wrong_output=False)
            return
        checks.expect(exc is None and code == 0, f"{command} exited {code} ({exc!r})", wrong_output=False)
        if checks.problems:
            return
        previous = self.reports.setdefault(argv, text)
        checks.expect(previous == text, f"{command} is not byte-identical on repeat")
        self._check_report(argv, json.loads(text), checks)

    def _check_report(self, argv: tuple, report: dict, checks: Checks) -> None:
        analytic = report["analytic"]
        if argv[0] == "solve" and argv[1] == "balanced":
            checks.expect_close("eta*", analytic["eta_star"], ETA_FAIR, 1e-6)
            checks.expect_close("balanced bias", analytic["bias"], 1.0 / math.sqrt(2.0) - 0.5, 1e-6)
        elif argv[0] == "solve":
            checks.expect_close(f"{argv[1]} bias", analytic["bias"], DICE3_BIASES[argv[1]], 1e-3)
            checks.expect(report["bounds"]["holds"] is True, "three-sided bound does not hold")
        elif argv[0] == "bound-check":
            n, party = int(argv[2]), int(argv[4])
            biases = [float(b) for b in argv[6].split(",")]
            losing = _own_losing(party, n, biases)
            epsilon, bound = losing - (n - 1) / n, n * max(biases)
            checks.expect_close("worst-case losing", analytic["worst_case_losing"], losing, 1e-6)
            checks.expect_close("epsilon", report["bounds"]["epsilon"], epsilon, 1e-6)
            checks.expect_close("bound", report["bounds"]["bound"], bound, 1e-6 * max(1.0, bound))
            checks.expect(report["bounds"]["holds"] == (epsilon <= bound), "bound verdict disagrees")
        elif argv[0] == "cheat":
            p, eta = float(argv[2]), float(argv[4])
            checks.expect_close("brute force vs closed form", analytic["alice_brute_force"], analytic["alice_optimal"], 1e-6)
            checks.expect_close("bob optimum", analytic["bob_optimal"], p + eta, 1e-6)
        else:
            mc = report["monte_carlo"]
            trials = int(argv[argv.index("--trials") + 1])
            checks.expect(sum(mc["counts"].values()) == trials, "counts do not add up to the trials")
            if "--dice" in argv:
                checks.expect(mc["stage_aborts"] == 0, "aborts in an honest ladder")
            elif "--cheat" not in argv:
                checks.expect(mc["counts"]["abort"] == 0, "aborts in an honest flip")


class ColdCli(Kind):
    """``python -m qdice.cli solve balanced`` in a fresh interpreter."""

    name = "cli-cold"

    def __init__(self, root: Path, env: dict) -> None:
        self.root, self.env = root, env

    def next_input(self):
        return None

    def run(self, inp):
        return subprocess.run(
            [sys.executable, "-m", "qdice.cli", "solve", "balanced"],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )

    def check(self, inp, done, checks: Checks) -> None:
        checks.expect(done.returncode == 0, f"exit {done.returncode}: {done.stderr.strip()[-200:]}",
                      wrong_output=False)
        if done.returncode == 0:
            checks.expect_close("eta*", json.loads(done.stdout)["analytic"]["eta_star"], ETA_FAIR, 1e-6)


def timed_import(root: Path, env: dict) -> tuple[float, float]:
    """(wall seconds of a fresh interpreter importing qdice and qdice.cli,
    seconds the import itself took inside it)."""
    code = (
        "import time; t = time.perf_counter(); import qdice, qdice.cli; "
        "print(time.perf_counter() - t)"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"importing qdice in a fresh interpreter failed: {done.stderr.strip()[-300:]}")
    return wall, float(done.stdout)
