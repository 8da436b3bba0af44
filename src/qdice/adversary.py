"""Optimal cheating probabilities: closed forms and a brute-force oracle.

The closed form for the preparing party (Alice) rests on two coefficients

    a = (1 - p - eta) / (1 - p)        b = eta^2 / ((1 - p) (p + eta))

so that a tilt-delta preparation wins with probability
(sqrt(a (1-delta)) + sqrt(b delta))^2, maximized at delta* = b / (a + b)
with value a + b. The test suite refuses to take that maximization on
faith: ``brute_force_alice`` re-derives cheat values purely by evolving
states through the engine and searching (a zoomed delta grid, random dense
preparations, random ancilla-entangled preparations), and the closed form
must agree with it. The oracle evolves states through ``wcf._evolve``, the
same evolution the Monte Carlo samples from: a scalar value evolves its own
preparation, and every batched value is linear in the four amplitudes that
one evolution of the basis preparations yields (``_miss_amplitudes``).
``cheater_win_prob`` maps any declared strategy to its cheater's winning
chance, for the CLI reports and the ladders' coalition values alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._lazy import lazy_import
from .errors import ParameterError
from .qsim import _check_rotation_defined, _squared_norm
from .wcf import (
    AliceDelta,
    AliceGeneral,
    BobClaimWin,
    CheatSpec,
    ProtocolParams,
    _check_integer,
    _check_p_below_one,
    _check_seed,
    _evolve,
)

np = lazy_import("numpy")


#: Upper bound on the oracle's grid points and random samples: its arrays
#: grow linearly with both, so a larger request would exhaust memory.
MAX_ORACLE_POINTS = 10**6


@dataclass(frozen=True)
class CheatValue:
    """A cheating probability together with the strategy achieving it."""

    value: float
    optimizer: float | tuple | None = None


def _coefficients(params: ProtocolParams) -> tuple[float, float]:
    _check_p_below_one(params.p)
    _check_rotation_defined(params.p, params.eta)
    a = (1.0 - params.p - params.eta) / (1.0 - params.p)
    b = params.eta**2 / ((1.0 - params.p) * (params.p + params.eta))
    return max(0.0, a), b


def alice_value_at_delta(params: ProtocolParams, delta: float) -> float:
    """Probability that a tilt-delta preparation wins and survives the audit."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"delta must lie in [0, 1], got {delta}")
    a, b = _coefficients(params)
    return (math.sqrt(a * (1.0 - delta)) + math.sqrt(b * delta)) ** 2


def alice_value_at_delta_via_states(params: ProtocolParams, delta: float) -> float:
    """Same quantity, computed by evolving the actual states.

    Runs the tilted preparation through the protocol's evolution
    (``wcf._evolve``, uncached: the oracle's one-off deltas must not evict
    the sampler's configurations) and takes the squared norm of Bob's miss
    branch contracted with the verification state. Independent of the
    closed form.
    """
    return _squared_norm(_evolve.__wrapped__(params, AliceDelta(delta)).miss_amplitudes)


def general_cheat_value(params: ProtocolParams, cheat: AliceGeneral) -> float:
    """Win-and-survive probability for an arbitrary preparation.

    Evolves the declared state (with its ancilla, if any) through the
    protocol, the same ``wcf._evolve`` the Monte Carlo samples from; the
    verification test acts as identity on the ancilla index.
    """
    return _squared_norm(_evolve(params, cheat).miss_amplitudes)


def alice_optimal_value(params: ProtocolParams) -> CheatValue:
    """Closed-form optimum over all of Alice's preparations."""
    a, b = _coefficients(params)
    total = a + b
    delta_star = 0.0 if total <= 0.0 else b / total
    return CheatValue(value=total, optimizer=delta_star)


def bob_optimal_value(params: ProtocolParams) -> CheatValue:
    """Bob's optimum, attained by always claiming the win: p + eta."""
    return CheatValue(value=params.p + params.eta, optimizer=None)


def cheater_win_prob(params: ProtocolParams, cheat: CheatSpec) -> float | None:
    """Winning probability of the declared cheater, or None for honest play:
    closed forms for a tilt and a claimed win, one evolution for a general
    preparation (``general_cheat_value``)."""
    if isinstance(cheat, AliceDelta):
        return alice_value_at_delta(params, cheat.delta)
    if isinstance(cheat, AliceGeneral):
        return general_cheat_value(params, cheat)
    if isinstance(cheat, BobClaimWin):
        return bob_optimal_value(params).value
    return None


# -- brute-force search -------------------------------------------------------


#: The four basis preparations uu, ud, du, dd as one state, each branch
#: tagged by its own index of a 4-dimensional ancilla the evolution leaves
#: untouched.
_BASIS = AliceGeneral((0.5,) * 4, ancillas=tuple(tuple(float(i == k) for i in range(4)) for k in range(4)))


@lru_cache(maxsize=256)
def _miss_amplitudes(params: ProtocolParams) -> np.ndarray:
    """Verification amplitudes r_k of the four basis preparations.

    One evolution of ``_BASIS`` yields <xi|miss> per ancilla index, that is
    per basis preparation, at amplitude 1/2 each. A preparation
    sum_k alpha_k |k>|phi_k> therefore wins and survives with probability
    sum_d |sum_k alpha_k r_k phi_kd|^2.
    """
    r = 2.0 * _evolve.__wrapped__(params, _BASIS).miss_amplitudes
    r.setflags(write=False)
    return r


def _tilt_values(params: ProtocolParams, deltas: np.ndarray) -> np.ndarray:
    """Cheat values of the tilt preparations sqrt(1-delta)|ud> + sqrt(delta)|du>."""
    r = _miss_amplitudes(params)
    return np.abs(np.sqrt(1.0 - deltas) * r[1] + np.sqrt(deltas) * r[2]) ** 2


def max_delta_family(params: ProtocolParams, grid_points: int = 10_000) -> tuple[float, float]:
    """Grid-search the tilt family, then refine around the best cell.

    Returns (value, delta). The refinement re-grids the two cells around the
    best node with 2001 points, four times over (each pass narrows the
    bracket a thousandfold), and evaluates the winning delta once through
    :func:`alice_value_at_delta_via_states`. The tilt value is unimodal in
    delta, so the local refinement is globally valid.
    """
    _check_integer(grid_points, "grid point count", 1_000, MAX_ORACLE_POINTS)
    deltas = np.linspace(0.0, 1.0, grid_points)
    values = _tilt_values(params, deltas)
    best = int(np.argmax(values))
    value, delta = float(values[best]), float(deltas[best])
    zoom = deltas
    for _ in range(4):
        zoom = np.linspace(zoom[max(best - 1, 0)], zoom[min(best + 1, len(zoom) - 1)], 2001)
        best = int(np.argmax(_tilt_values(params, zoom)))
    refined_delta = float(zoom[best])
    refined_value = alice_value_at_delta_via_states(params, refined_delta)
    if refined_value > value:
        value, delta = refined_value, refined_delta
    return value, delta


def _random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    vecs = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def sample_cheat_values(
    params: ProtocolParams,
    n_samples: int,
    ancilla_dim: int = 1,
    seed: int = 0,
    min_unused_weight: float = 0.0,
    orthogonal_pair: bool = False,
) -> np.ndarray:
    """Cheat values of random dense preparations, vectorized.

    Samples Haar-like random amplitude 4-vectors (order uu, ud, du, dd),
    optionally requiring |a_uu|^2 + |a_dd|^2 >= ``min_unused_weight`` (those
    two branches never help, which is what the requirement probes). With
    ``ancilla_dim`` = 2 each branch gets a random unit ancilla vector;
    ``orthogonal_pair`` forces the ud/du ancillas to be orthogonal instead.
    Values are linear in the evolved basis amplitudes of
    :func:`_miss_amplitudes` and are pinned against
    :func:`general_cheat_value` by tests.
    """
    if ancilla_dim not in (1, 2):
        raise ParameterError(f"ancilla dimension must be 1 or 2, got {ancilla_dim}")
    _check_integer(n_samples, "random sample count", 0, MAX_ORACLE_POINTS)
    if not 0.0 <= min_unused_weight <= 1.0:  # also refuses nan
        raise ParameterError(f"unused weight must lie in [0, 1], got {min_unused_weight}")
    if orthogonal_pair and ancilla_dim != 2:
        raise ParameterError("an orthogonal ancilla pair needs ancilla dimension 2")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    alphas = _random_unit_rows(rng, n_samples, 4)
    if min_unused_weight > 0.0:
        # Re-mix so every sample parks at least the requested weight on uu/dd.
        weight = min_unused_weight + (1.0 - min_unused_weight) * rng.random(n_samples)
        pair_uu_dd = _random_unit_rows(rng, n_samples, 2)
        pair_ud_du = _random_unit_rows(rng, n_samples, 2)
        alphas = np.empty((n_samples, 4), dtype=complex)
        alphas[:, [0, 3]] = np.sqrt(weight)[:, None] * pair_uu_dd
        alphas[:, [1, 2]] = np.sqrt(1.0 - weight)[:, None] * pair_ud_du

    weighted = alphas * _miss_amplitudes(params)
    if ancilla_dim == 1:
        return np.abs(weighted.sum(axis=1)) ** 2
    if orthogonal_pair:
        phis = np.empty((n_samples, 4, 2), dtype=complex)
        phi_ud = _random_unit_rows(rng, n_samples, 2)
        # An orthogonal partner of (x, y) is (-conj(y), conj(x)).
        phi_du = np.stack([-np.conj(phi_ud[:, 1]), np.conj(phi_ud[:, 0])], axis=1)
        phis[:, 0] = _random_unit_rows(rng, n_samples, 2)
        phis[:, 1] = phi_ud
        phis[:, 2] = phi_du
        phis[:, 3] = _random_unit_rows(rng, n_samples, 2)
    else:
        phis = _random_unit_rows(rng, 4 * n_samples, 2).reshape(n_samples, 4, 2)
    return np.sum(np.abs(np.einsum("nk,nkd->nd", weighted, phis)) ** 2, axis=1)


def brute_force_alice(
    params: ProtocolParams,
    grid_points: int = 10_000,
    ancilla_dim: int = 1,
    random_samples: int = 2_000,
    seed: int = 0,
) -> CheatValue:
    """Search Alice's strategy space without using the closed form.

    Covers the tilt family on a refined grid, ``random_samples`` dense
    random preparations, and (for ``ancilla_dim`` = 2) random
    ancilla-entangled preparations. Returns the best value found with its
    optimizer: the tilt delta, or None if a random sample somehow won.
    """
    if ancilla_dim not in (1, 2):
        raise ParameterError(f"ancilla dimension must be 1 or 2, got {ancilla_dim}")
    _check_integer(random_samples, "random sample count", 0, MAX_ORACLE_POINTS)
    _check_seed(seed)
    value, delta = max_delta_family(params, grid_points)
    best = CheatValue(value=value, optimizer=delta)
    if random_samples > 0:
        plain = sample_cheat_values(params, random_samples, ancilla_dim=1, seed=seed)
        candidates = [float(np.max(plain))]
        if ancilla_dim == 2:
            entangled = sample_cheat_values(params, random_samples, ancilla_dim=2, seed=(seed + 1) % 2**64)
            candidates.append(float(np.max(entangled)))
        if max(candidates) > best.value:
            best = CheatValue(value=max(candidates), optimizer=None)
    return best
