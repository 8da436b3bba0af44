"""A dense reference for the protocol's evolution, for tests only.

Everything here is built from ``np.kron`` products of small matrices on the
8·D space of qubits 1, 2, 3 and a D-dimensional ancilla, with the ancilla
index last and spin up = 0. It shares no code with ``qdice.qsim``'s kernels
or ``qdice.wcf``'s evolution, so the tests can pin both to it. The random
preparations of ``qdice.adversary.sample_cheat_values`` are rebuilt from
``np.random.default_rng`` in the stream order that its docstring documents,
one normalized row at a time, and scored with the same dense evolution.
The fair balanced coin and the fair three-party ladders are solved by a
plain bisection on values read from the same evolution, so the constants in
``conftest.py`` can be rebuilt without the package.
"""
from __future__ import annotations

import math

import numpy as np

#: branches below this probability count as empty, as ``qsim.ZERO_BRANCH_TOL`` documents
EMPTY_BRANCH = 1e-12

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
#: |uu>, |ud>, |du>, |dd> on two qubits
PAIRS = [np.kron(a, b) for a in (UP, DOWN) for b in (UP, DOWN)]


def kron(*factors: np.ndarray) -> np.ndarray:
    out = np.ones((1,) * factors[0].ndim, dtype=complex)
    for factor in factors:
        out = np.kron(out, factor)
    return out


def rotation(p: float, eta: float, dim: int) -> np.ndarray:
    """U on the 8·D space: [[c, s], [s, -c]] on the |u2 d3>, |d2 u3> span of
    qubits 2 and 3, the identity on qubit 1 and the ancilla."""
    c, s = math.sqrt(p / (p + eta)), math.sqrt(eta / (p + eta))
    block = np.eye(4, dtype=complex)
    ud, du = 1, 2  # |u d> and |d u> among PAIRS
    block[ud, ud], block[ud, du], block[du, ud], block[du, du] = c, s, s, -c
    return kron(np.eye(2), block, np.eye(dim))


def bob_projector(dim: int) -> np.ndarray:
    """Bob's hit: qubit 2 up and qubit 3 down."""
    return kron(np.eye(2), np.outer(UP, UP), np.outer(DOWN, DOWN), np.eye(dim))


def first_qubit_down(dim: int) -> np.ndarray:
    """Alice's audit: qubit 1 down."""
    return kron(np.outer(DOWN, DOWN), np.eye(4), np.eye(dim))


def xi(p: float, eta: float) -> np.ndarray:
    """The verification state on qubits 1-3, as an 8-vector."""
    keep = max(0.0, 1.0 - p - eta) / (1.0 - p)
    return math.sqrt(keep) * kron(UP, DOWN, DOWN) + math.sqrt(eta / (1.0 - p)) * kron(DOWN, DOWN, UP)


def verification_projector(p: float, eta: float, dim: int) -> np.ndarray:
    """|xi><xi| on qubits 1-3, the identity on the ancilla."""
    v = xi(p, eta)
    return kron(np.outer(v, v.conj()), np.eye(dim))


def preparation(amplitudes, ancillas=None) -> np.ndarray:
    """sum_k amplitudes[k] |k> |phi_k> on 4·D, k = uu, ud, du, dd."""
    phis = [np.ones(1, dtype=complex)] * 4 if ancillas is None else [np.asarray(phi, dtype=complex) for phi in ancillas]
    return sum(complex(alpha) * kron(pair, phi) for alpha, pair, phi in zip(amplitudes, PAIRS, phis))


def attach(state: np.ndarray, dim: int) -> np.ndarray:
    """Qubit 3, spin-down, between qubit 2 and the ancilla."""
    return kron(np.eye(4), DOWN.reshape(2, 1), np.eye(dim)) @ state


def weight(vector: np.ndarray) -> float:
    return float(np.sum(np.abs(vector) ** 2))


def pass_chance(branch: np.ndarray, projector: np.ndarray) -> float:
    """The share of ``branch``'s weight that ``projector`` keeps."""
    kept = projector @ branch
    w_pass, w_fail = weight(kept), weight(branch - kept)
    return w_pass / (w_pass + w_fail)


def evolve(p: float, eta: float, amplitudes, ancillas=None, claim_win: bool = False) -> tuple:
    """(bob_win_prob, first_qubit_pass, final_state_pass, miss_amplitudes) of
    one configuration; ``claim_win`` is Bob skipping his measurement."""
    dim = 1 if ancillas is None else len(ancillas[0])
    state = rotation(p, eta, dim) @ attach(preparation(amplitudes, ancillas), dim)
    if claim_win:
        return 1.0, pass_chance(state, first_qubit_down(dim)), 0.0, np.zeros(dim, dtype=complex)
    hit = bob_projector(dim) @ state
    miss = state - hit
    p_hit, p_miss = weight(hit) / (weight(hit) + weight(miss)), weight(miss) / (weight(hit) + weight(miss))
    first = pass_chance(hit, first_qubit_down(dim)) if p_hit >= EMPTY_BRANCH else 0.0
    if p_miss < EMPTY_BRANCH:
        return p_hit, first, 0.0, np.zeros(dim, dtype=complex)
    amplitudes = kron(xi(p, eta).conj().reshape(1, 8), np.eye(dim)) @ miss
    return p_hit, first, pass_chance(miss, verification_projector(p, eta, dim)), amplitudes


def sampled_preparations(seed: int, n: int, ancilla_dim: int = 1, min_unused_weight: float = 0.0,
                         orthogonal_pair: bool = False) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The (amplitudes, ancillas) of ``sample_cheat_values``' n preparations,
    each normalized, rebuilt from ``np.random.default_rng(seed)`` in the
    stream order its docstring documents: every block of complex Gaussians
    is its real parts, then its imaginary parts."""
    rng = np.random.default_rng(seed)

    def gaussians(rows: int, dim: int) -> np.ndarray:
        real = rng.standard_normal((rows, dim))
        return real + 1j * rng.standard_normal((rows, dim))

    def unit(rows: np.ndarray) -> np.ndarray:
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    amplitudes = unit(gaussians(n, 4))
    if min_unused_weight > 0.0:
        weight = min_unused_weight + (1.0 - min_unused_weight) * rng.random(n)
        uu_dd, ud_du = unit(gaussians(n, 2)), unit(gaussians(n, 2))
        amplitudes = np.stack([uu_dd[:, 0], ud_du[:, 0], ud_du[:, 1], uu_dd[:, 1]], axis=1)
        amplitudes *= np.sqrt(np.stack([weight, 1.0 - weight, 1.0 - weight, weight], axis=1))
    if ancilla_dim == 1:
        return [(alpha, None) for alpha in amplitudes]
    if orthogonal_pair:
        ud, uu, dd = unit(gaussians(n, 2)), unit(gaussians(n, 2)), unit(gaussians(n, 2))
        du = np.stack([-ud[:, 1].conj(), ud[:, 0].conj()], axis=1)
        ancillas = np.stack([uu, ud, du, dd], axis=1)
    else:
        ancillas = unit(gaussians(4 * n, 2)).reshape(n, 4, 2)
    return list(zip(amplitudes, ancillas))


def cheat_value(p: float, eta: float, amplitudes, ancillas=None) -> float:
    """Alice's chance to win and pass the verification with this preparation:
    the weight of the miss branch's projection on the verification state."""
    return weight(evolve(p, eta, amplitudes, ancillas)[3])


def honest_amplitudes(p: float, eta: float) -> tuple[float, float, float, float]:
    """Alice's honest preparation: sqrt(1-p-eta) |ud> + sqrt(p+eta) |du>."""
    return 0.0, math.sqrt(max(0.0, 1.0 - p - eta)), math.sqrt(p + eta), 0.0


def alice_best(p: float, eta: float) -> tuple[float, np.ndarray]:
    """Alice's best cheat value without an ancilla, and a preparation that
    reaches it. The miss branch's overlap with the verification state is
    linear in the amplitudes, sum_k alpha_k l_k with l_k that of basis
    preparation k, so by Cauchy-Schwarz the best unit alpha is conj(l) / |l|
    and the best value |l|^2."""
    overlaps = np.array([evolve(p, eta, basis)[3][0] for basis in np.eye(4)])
    best = weight(overlaps)
    return best, overlaps.conj() / math.sqrt(best)


def bob_claim_win(p: float, eta: float) -> float:
    """Bob's chance to win by claiming a win against honest Alice: that her
    audit of qubit 1 passes."""
    return evolve(p, eta, honest_amplitudes(p, eta), claim_win=True)[1]


def layout_p(m: int, case: int) -> float:
    """The responder's honest winning chance at entrant m: the preparer is
    the incumbent in case 1 (p = 1/m) and the entrant in case 2 (p = (m-1)/m)."""
    return 1.0 / m if case == 1 else (m - 1.0) / m


def stage_losses(m: int, case: int, eta: float, square_cheat_term: bool = True) -> tuple[float, float]:
    """(entrant, incumbent) worst-case losing chances at entrant m of a
    ladder in this case's layout: the responder loses Alice's best value to
    the preparer, the preparer Bob's claim-win value to the responder.
    ``square_cheat_term=False`` takes, in case 2, the square root of the
    incumbent's loss."""
    p = layout_p(m, case)
    responder, preparer = alice_best(p, eta)[0], bob_claim_win(p, eta)
    if case == 1:
        return responder, preparer
    return preparer, responder if square_cheat_term else math.sqrt(responder)


def bisect(f, lo: float, hi: float) -> float:
    """A root of ``f`` on [lo, hi], over which it changes sign: the interval
    is halved until its midpoint is one of its ends."""
    negative_at_lo = f(lo) < 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == negative_at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fair_ladder(n_parties: int, case: int, square_cheat_term: bool = True) -> list[tuple[float, float, float]]:
    """(eta, entrant loss, incumbent loss) of each stage 2..N of a fair
    ladder. Stage 2 is the balanced coin, with the incumbent preparing;
    stage m's eta, on [0, 1-p], makes the entrant's loss equal to that of
    the parties already in, who lose either an earlier stage (the last
    entrant's loss) or this one (the incumbent's)."""
    stages, survivors = [], 0.0
    for m in range(2, n_parties + 1):
        layout = 1 if m == 2 else case

        def residual(eta: float) -> float:
            entrant, incumbent = stage_losses(m, layout, eta, square_cheat_term)
            return entrant - (survivors + (1.0 - survivors) * incumbent)

        eta = bisect(residual, 0.0, 1.0 - layout_p(m, layout))
        stages.append((eta, *stage_losses(m, layout, eta, square_cheat_term)))
        survivors = stages[-1][1]
    return stages


def worst_case_losing(stages: list[tuple[float, float, float]]) -> list[float]:
    """Each party's chance to lose some stage it plays in a ladder of these
    (eta, entrant loss, incumbent loss) stages, party 1 first: party n loses
    its entry stage as the entrant (party 1 the coin, as its incumbent) and
    every later one as the incumbent."""
    losing = []
    for n in range(1, len(stages) + 2):
        survive = 1.0
        for m, (_, entrant, incumbent) in enumerate(stages, start=2):
            if m >= n:
                survive *= 1.0 - (entrant if m == n else incumbent)
        losing.append(1.0 - survive)
    return losing
