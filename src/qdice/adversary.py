"""Optimal cheating probabilities: closed forms and a brute-force oracle.

The closed form for the preparing party (Alice) rests on two coefficients

    a = (1 - p - eta) / (1 - p)        b = eta^2 / ((1 - p) (p + eta))

so that a tilt-delta preparation wins with probability
(sqrt(a (1-delta)) + sqrt(b delta))^2, maximized at delta* = b / (a + b)
with value a + b. ``_closed_form_at(p)`` is the one implementation of
(a, b): it fixes p, with 1 - p computed once, and returns the function of
eta on plain floats. Every closed-form value reads it: the public functions
after ``_coefficients`` checks their params, and ``dicer``'s fair ladder,
whose bisection evaluates one such function of eta per step between the
bracket ends that ``dicer._fair_stages`` checks.

The test suite refuses to take that maximization on faith:
``brute_force_alice`` re-derives cheat values purely by evolving states
through the engine and searching (a delta grid refined once at the 2x2
maximizer of the same evolved amplitudes, random dense preparations, random
ancilla-entangled preparations), and the closed form must agree with it.
The oracle evolves states through ``wcf._evolve``, the same evolution the
Monte Carlo samples from: a scalar value evolves its own preparation, and
every batched value is linear in the four amplitudes that one evolution of
the basis preparations yields (``_miss_amplitudes``).
The two batched kernels stay lean: the tilt grid is scored in real
arithmetic on float arrays, its base grid and tilt amplitudes cached per
grid size (``_base_grid``), and random preparations are scored from their
unnormalized Gaussian draws, drawn in a documented stream order (see
``sample_cheat_values``), by dividing each value by its squared norm. Each
block of Gaussians is one draw, and no array that the values do not need
is built: the plain amplitudes that a forced unused weight replaces are
drawn and dropped, and the orthogonal ancillas are written into one array
as they are made. The
tilt family's exact maximum is one 2x2 eigenproblem on those amplitudes
(``_tilt_maximum``).
``cheater_win_prob`` maps any declared strategy to its cheater's winning
chance, for the CLI reports and the ladders' coalition values alike.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

from . import _checks
from ._lazy import lazy_import
from ._record import Record
from .errors import ParameterError
from .qsim import _squared_norm
from .wcf import (
    AliceDelta,
    AliceGeneral,
    BobClaimWin,
    CheatSpec,
    Honest,
    ProtocolParams,
    _evolve,
)

np = lazy_import("numpy")
_seeding = lazy_import(f"{__package__}._seeding")


#: Upper bound on the oracle's grid points and random samples: its arrays
#: grow linearly with both, so a larger request would exhaust memory.
MAX_ORACLE_POINTS = 10**6


class CheatValue(Record, defaults={"optimizer": None}):
    """A cheating probability together with the strategy achieving it."""

    __slots__ = ("value", "optimizer")


def _closed_form_at(p: float) -> Callable[[float], tuple[float, float]]:
    """The coefficients (a, b) at a fixed p, as a function of eta on plain
    floats, unchecked: the caller refuses (p, eta) outside 0 <= eta <= 1-p,
    p = 1 and p + eta = 0. ``a`` is clipped at 0, for the eta up to 1e-12
    above 1 - p that ``check_p_eta`` lets through."""
    q = 1.0 - p

    def closed_form(eta: float) -> tuple[float, float]:
        a = (q - eta) / q
        return a if a > 0.0 else 0.0, eta**2 / (q * (p + eta))

    return closed_form


def _coefficients(params: ProtocolParams) -> tuple[float, float]:
    """``_closed_form_at`` at checked params."""
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_p_below_one(params.p)
    _checks.check_rotation_defined(params.p, params.eta)
    return _closed_form_at(params.p)(params.eta)


def alice_value_at_delta(params: ProtocolParams, delta: float) -> float:
    """Probability that a tilt-delta preparation wins and survives the audit."""
    _checks.check_unit_interval(delta, "delta")
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
    _checks.check_type(params, ProtocolParams, "params")
    return _squared_norm(_evolve.__wrapped__(params, AliceDelta(delta)).miss_amplitudes)


def general_cheat_value(params: ProtocolParams, cheat: AliceGeneral) -> float:
    """Win-and-survive probability for an arbitrary preparation.

    Evolves the declared state (with its ancilla, if any) through the
    protocol, the same ``wcf._evolve`` the Monte Carlo samples from; the
    verification test acts as identity on the ancilla index.
    """
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_type(cheat, CheatSpec, "cheat")
    return _squared_norm(_evolve(params, cheat).miss_amplitudes)


def alice_optimal_value(params: ProtocolParams) -> CheatValue:
    """Closed-form optimum over all of Alice's preparations."""
    a, b = _coefficients(params)
    total = a + b
    delta_star = 0.0 if total <= 0.0 else b / total
    return CheatValue(value=total, optimizer=delta_star)


def bob_optimal_value(params: ProtocolParams) -> CheatValue:
    """Bob's optimum, attained by always claiming the win: p + eta."""
    _checks.check_type(params, ProtocolParams, "params")
    return CheatValue(value=params.p + params.eta, optimizer=None)


def cheater_win_prob(params: ProtocolParams, cheat: CheatSpec) -> float | None:
    """Winning probability of the declared cheater, or None for honest play:
    closed forms for a tilt and a claimed win, one evolution for a general
    preparation (``general_cheat_value``)."""
    _checks.check_type(params, ProtocolParams, "params")
    if isinstance(cheat, AliceDelta):
        return alice_value_at_delta(params, cheat.delta)
    if isinstance(cheat, AliceGeneral):
        return general_cheat_value(params, cheat)
    if isinstance(cheat, BobClaimWin):
        return bob_optimal_value(params).value
    if isinstance(cheat, Honest):
        return None
    raise ParameterError(f"unknown cheat spec: {cheat!r}")


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


def _tilt_roots(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tilt amplitudes (sqrt(1-delta), sqrt(delta)) of a delta array."""
    return np.sqrt(1.0 - deltas), np.sqrt(deltas)


@lru_cache(maxsize=4)
def _base_grid(grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``linspace(0, 1, grid_points)`` and its two tilt-amplitude arrays,
    read-only since the cache shares them (a 10**6-point entry holds 24 MB)."""
    deltas = np.linspace(0.0, 1.0, grid_points)
    grid = (deltas, *_tilt_roots(deltas))
    for array in grid:
        array.setflags(write=False)
    return grid


def _tilt_values(params: ProtocolParams, roots: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cheat values of the tilt preparations sqrt(1-delta)|ud> + sqrt(delta)|du>.

    Given their amplitudes ``roots`` = (s1, s2) from :func:`_tilt_roots`,
    a preparation wins and survives with |s1 r_ud + s2 r_du|^2, in the
    evolved amplitudes r of :func:`_miss_amplitudes`. It is computed in real
    arithmetic, in place on float arrays: re = s1 Re r_ud + s2 Re r_du and
    im likewise, then re^2 + im^2. No complex array is built.
    """
    s1, s2 = roots
    r_ud, r_du = _miss_amplitudes(params)[1:3]
    re = s1 * r_ud.real
    re += s2 * r_du.real
    im = s1 * r_ud.imag
    im += s2 * r_du.imag
    re *= re
    im *= im
    re += im
    return re


def _tilt_maximum(params: ProtocolParams) -> tuple[float, float]:
    """The tilt family's best (value, delta), from the evolved amplitudes alone.

    With v = (r_ud, r_du) of :func:`_miss_amplitudes`, a tilt's value is
    s^T M s, where s = (sqrt(1-delta), sqrt(delta)) and M = Re(v v^dag).
    If M12 <= 0 the maximum lies at an end of [0, 1]; otherwise it is M's top
    eigenvalue, and delta is the squared second component of its unit
    eigenvector, written in a form free of cancellation.
    """
    r_ud, r_du = (complex(r) for r in _miss_amplitudes(params)[1:3])
    m11, m22 = abs(r_ud) ** 2, abs(r_du) ** 2
    m12 = (r_ud * r_du.conjugate()).real
    if m12 <= 0.0:
        return (m11, 0.0) if m11 >= m22 else (m22, 1.0)
    h = (m11 - m22) / 2.0
    rho = math.hypot(h, m12)
    delta = m12 * m12 / (2.0 * rho * (rho + h)) if h >= 0.0 else (1.0 - h / rho) / 2.0
    return (m11 + m22) / 2.0 + rho, delta


def max_delta_family(params: ProtocolParams, grid_points: int = 10_000) -> tuple[float, float]:
    """Grid-search the tilt family, then refine at its exact maximizer.

    Returns (value, delta). The base grid ``linspace(0, 1, grid_points)`` and
    its tilt amplitudes come from a small cache shared by every call
    (:func:`_base_grid`); its best node is the brute-force evidence. The
    maximizing delta of the 2x2 eigenproblem on the same evolved amplitudes
    (:func:`_tilt_maximum`) is evaluated once through
    :func:`alice_value_at_delta_via_states`, and that value replaces the
    grid's best only when it is greater.
    """
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_integer(grid_points, "grid point count", 1_000, MAX_ORACLE_POINTS)
    deltas, *roots = _base_grid(grid_points)
    values = _tilt_values(params, roots)
    best = int(np.argmax(values))
    value, delta = float(values[best]), float(deltas[best])
    refined_delta = _tilt_maximum(params)[1]
    refined_value = alice_value_at_delta_via_states(params, refined_delta)
    if refined_value > value:
        value, delta = refined_value, refined_delta
    return value, delta


def _gaussian_rows(rng: np.random.Generator, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """n unnormalized rows of dim complex standard Gaussians, with each row's
    squared norm, from one (2, n, dim) draw: all n * dim real parts, then the
    imaginary parts."""
    rows = _complex_rows(rng.standard_normal((2, n, dim)))
    return rows, _squared_rows(rows)


def _complex_rows(parts: np.ndarray) -> np.ndarray:
    """The complex array with real parts ``parts[0]`` and imaginary parts ``parts[1]``."""
    rows = np.empty(parts.shape[1:], dtype=complex)
    rows.real, rows.imag = parts
    return rows


def _squared_rows(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a C-contiguous complex (n, dim) array:
    one gemv of the squared parts against a ones vector."""
    flat = rows.view(float)
    return np.square(flat).dot(np.ones(flat.shape[1]))


def _remixed_amplitudes(rng: np.random.Generator, n: int, min_unused_weight: float) -> np.ndarray:
    """n unit amplitude rows, re-mixed so that each parks at least
    ``min_unused_weight`` on uu/dd."""
    rng.standard_normal(8 * n)  # the plain amplitudes these replace, dropped
    weight = min_unused_weight + (1.0 - min_unused_weight) * rng.random(n)
    # the uu/dd pair, then the ud/du pair, from one (2, 2, n, 2) draw
    pairs = _complex_rows(rng.standard_normal((2, 2, n, 2)).swapaxes(0, 1))
    squares, ones = np.square(pairs.view(float)), np.ones(4)
    alphas = np.empty((n, 4), dtype=complex)
    # each pair is scaled to its weight, so every row is a unit vector
    for pair, columns, pair_weight in ((0, slice(0, None, 3), weight), (1, slice(1, 3), 1.0 - weight)):
        alphas[:, columns] = np.sqrt(pair_weight / squares[pair].dot(ones))[:, None] * pairs[pair]
    return alphas


def _orthogonal_ancillas(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4, 2) ancillas whose du row is ud's orthogonal partner, with their
    (n, 4) squared norms, from one (3, 2, n, 2) draw of ud, uu and dd."""
    blocks = _complex_rows(rng.standard_normal((3, 2, n, 2)).swapaxes(0, 1))
    squares, ones = np.square(blocks.view(float)), np.ones(4)
    phis, norms = np.empty((n, 4, 2), dtype=complex), np.empty((4, n))
    # each ancilla moves as one 32-byte item, so each copy is one loop over n
    items, block_items = phis.view("V32")[..., 0], blocks.view("V32")[..., 0]
    for block, k in ((0, 1), (1, 0), (2, 3)):
        items[:, k] = block_items[block]
        squares[block].dot(ones, out=norms[k])
    # An orthogonal partner of (x, y) is (-conj(y), conj(x)), of the same norm.
    ud, du = blocks[0], phis[:, 2]
    np.negative(np.conjugate(ud[:, 1]), out=du[:, 0])
    np.conjugate(ud[:, 0], out=du[:, 1])
    norms[2] = norms[1]
    return phis, norms.T.copy()  # C order, as the scoring reads it


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

    The stream of ``default_rng(seed)``, in order: the real parts, then the
    imaginary parts, of the (n, 4) amplitudes. With ``min_unused_weight``,
    n uniforms for the weights, then the (n, 2) uu/dd pair and the (n, 2)
    ud/du pair, each real parts first. With an ancilla, the (4n, 2)
    ancillas, row k of sample i at row 4i + k; with ``orthogonal_pair``,
    the ud ancillas, then uu, then dd, each (n, 2) (du is ud's orthogonal
    partner). Each block of Gaussians is one ``standard_normal`` call of
    shape (2, n, dim), real parts first, which reads the stream in that
    order: the plain amplitudes that ``min_unused_weight`` replaces are one
    call of 8n normals, dropped; its two pairs are one (2, 2, n, 2) call,
    written into the amplitudes' columns 0::3 and 1:3; the ud, uu and dd
    ancillas are one (3, 2, n, 2) call, written with du's partner into one
    (n, 4, 2) array. Draws are scored unnormalized: each coefficient is
    divided by its ancilla's norm and each value by its amplitudes' squared
    norm. The values are linear in the evolved basis amplitudes of
    :func:`_miss_amplitudes` and are pinned against
    :func:`general_cheat_value` and a dense reference by tests. The generator is
    ``_seeding.seeded_rng(seed)``: the sequence of ``default_rng(seed)``,
    built from the seed's uint32 words.
    """
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_integer(ancilla_dim, "ancilla dimension", 1, 2)
    _checks.check_integer(n_samples, "random sample count", 0, MAX_ORACLE_POINTS)
    _checks.check_unit_interval(min_unused_weight, "unused weight")
    _checks.check_bool(orthogonal_pair, "orthogonal_pair")
    if orthogonal_pair and ancilla_dim != 2:
        raise ParameterError("an orthogonal ancilla pair needs ancilla dimension 2")
    _checks.check_seed(seed)
    rng = _seeding.seeded_rng(seed)
    if min_unused_weight > 0.0:
        alphas, norms = _remixed_amplitudes(rng, n_samples, min_unused_weight), None
    else:
        alphas, norms = _gaussian_rows(rng, n_samples, 4)

    r = _miss_amplitudes(params)
    if ancilla_dim == 1:
        values = _squared_rows(alphas.dot(r[:, None]))
    else:
        if orthogonal_pair:
            phis, phi_norms = _orthogonal_ancillas(rng, n_samples)
        else:
            phis, phi_norms = _gaussian_rows(rng, 4 * n_samples, 2)
            phis, phi_norms = phis.reshape(n_samples, 4, 2), phi_norms.reshape(n_samples, 4)
        # numpy divides a complex by a real as the product with the real's
        # reciprocal, so this is alphas * r / sqrt(phi_norms), bit for bit
        weighted = alphas * r
        weighted *= np.reciprocal(np.sqrt(phi_norms))
        values = _squared_rows(np.einsum("nkd,nk->nd", phis, weighted))
    if norms is not None:
        values /= norms
    return values


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
    _checks.check_integer(ancilla_dim, "ancilla dimension", 1, 2)
    _checks.check_integer(random_samples, "random sample count", 0, MAX_ORACLE_POINTS)
    _checks.check_seed(seed)
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
