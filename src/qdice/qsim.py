"""Dense state-vector engine for the protocol's tiny quantum register.

States live on 1 to 3 labelled qubits plus an optional ancilla slot of
dimension D (D = 1 means no ancilla). Amplitudes are stored as a complex
array of shape (2, ..., 2, D); qubit axes come first and are addressed with
1-based labels matching the register subscripts, the ancilla is always the
trailing axis. Spin convention: index 0 = up, 1 = down.

Every binary test (``projective_test``, ``wcf``'s audits) has one rule,
``_weights``: a branch's probability is its own amplitudes' weight over both
weights' sum, so a test with no fail amplitude passes with probability 1.

Each state is checked once, when it is built: ``StateVector`` refuses a
wrong shape, text and any amplitudes whose norm is not 1 (NaN included), so
the operations trust the states they are given and do not re-check them.
Every squared norm, in that check, in ``_weights`` and in ``adversary``'s
cheat values, comes from one helper, ``_squared_norm``.

Each step of the protocol's evolution is one private, unchecked kernel on
raw arrays (``_attach``, ``_rotate``, ``_split``), which ``wcf._evolve``
chains; ``attach_down_ancilla_qubit``, ``apply_u_eta`` and
``projective_test`` are their checked wrappers, and ``_state`` wraps what
they make from a checked state without checking it again.

A register holds at most 8 amplitudes per ancilla index, so numpy's cost
per call outweighs the arithmetic, and the kernels and wrappers are written
for few and cheap numpy calls at fixed float operations: each amplitude and
probability is the same float however the calls are arranged. Indices are
tuples of plain ints built once (``_UD``, ``_DU``, ``_THIRD_DOWN``). A
scale factor (a rotation coefficient, the square root a branch is divided
by) is a 0-d complex array: numpy multiplies or divides by it in the same
complex loop it runs for a Python float, which it converts to complex
first, but without the costlier dispatch of a scalar operand (a
``complex128`` scalar's included). A branch is renormalized in place,
since ``_split`` and the pure-state test make it fresh.
``tests/reference.py`` rebuilds the evolution from dense matrices,
independently of these kernels, and the tests pin them to it.

All public operations are pure: they validate their inputs, return fresh
``StateVector`` instances and never mutate their arguments, so they are safe
to evaluate concurrently. Amplitude arrays are read-only, which lets ``ket``
hand out one shared, immutable state per (label, ancilla dimension).
"""
from __future__ import annotations

import math
from enum import IntEnum
from functools import lru_cache
from typing import Mapping, Union

from . import _checks
from ._lazy import lazy_import
from ._record import Record
from .errors import ParameterError, ShapeError

np = lazy_import("numpy")

#: absolute tolerance for normalization / unitarity checks
NORM_TOL = 1e-9
#: branches below this probability carry no post-state (avoids 0/0)
ZERO_BRANCH_TOL = 1e-12

MAX_QUBITS = 3
MAX_ANCILLA_DIM = 64


class Spin(IntEnum):
    UP = 0
    DOWN = 1


_SPIN_FROM_CHAR = {"u": Spin.UP, "d": Spin.DOWN}
_CHAR_FROM_SPIN = {Spin.UP: "u", Spin.DOWN: "d"}

#: Indices into three-qubit amplitudes (q1, q2, q3, ancilla), as plain ints:
#: qubit 3 spin-down, and the |u2 d3> and |d2 u3> pair the rotation mixes.
_THIRD_DOWN = (slice(None), slice(None), int(Spin.DOWN))
_UD = (slice(None), int(Spin.UP), int(Spin.DOWN))
_DU = (slice(None), int(Spin.DOWN), int(Spin.UP))


class BasisLabel(Record, defaults={"ancilla": 0}):
    """One basis ket: a spin per labelled qubit plus an ancilla index."""

    __slots__ = ("bits", "ancilla")

    def __post_init__(self) -> None:
        _checks.check_type(self.bits, tuple, "bits")
        for bit in self.bits:
            if type(bit) is not Spin:  # a Spin member is a spin already
                _checks.check_integer(bit, "spin", 0, 1)
        _checks.check_integer(self.ancilla, "ancilla index", 0)

    @classmethod
    def parse(cls, text: str, ancilla: int = 0) -> "BasisLabel":
        """Build a label from a string of 'u'/'d' characters, e.g. ``"udd"``.
        The mapped bits are a tuple of ``Spin`` members, so only the ancilla
        index is checked."""
        try:
            bits = tuple(map(_SPIN_FROM_CHAR.__getitem__, text))
        except (KeyError, TypeError):  # TypeError: not iterable, or unhashable characters
            raise ParameterError(f"basis label may only contain 'u'/'d': {text!r}") from None
        _checks.check_integer(ancilla, "ancilla index", 0)
        label = object.__new__(cls)
        object.__setattr__(label, "bits", bits)
        object.__setattr__(label, "ancilla", ancilla)
        return label

    def __str__(self) -> str:
        word = "".join(_CHAR_FROM_SPIN[b] for b in self.bits)
        return word if self.ancilla == 0 else f"{word}:{self.ancilla}"


LabelLike = Union[BasisLabel, str]
#: projective-test target: spin pattern on a qubit subset, keyed by 1-based label
Pattern = Mapping[int, Spin]


def _as_label(label: LabelLike) -> BasisLabel:
    if isinstance(label, str):
        return BasisLabel.parse(label)
    _checks.check_type(label, BasisLabel, "a basis label", "is a string or a BasisLabel")
    return label


class StateVector(Record):
    """Normalized pure state of the register.

    ``amps[q1, ..., qn, a]`` is the amplitude of the basis ket with spins
    ``q1..qn`` and ancilla index ``a``. The state keeps a read-only copy of
    the array it is given, so the caller's array stays its own; every
    operation returns a new instance.
    """

    __slots__ = ("amps",)

    def __post_init__(self) -> None:
        amps = self.amps
        try:
            if type(amps) is not np.ndarray or amps.dtype.kind != "c":  # a complex array holds numbers only
                amps = _numbers(amps)
            amps = amps.astype(complex, order="C")  # a copy, even of a complex array
        except (TypeError, ValueError, OverflowError):  # text, a ragged nest, an int beyond the floats
            raise ParameterError(f"amplitudes must be an array of numbers, got {_shown(self.amps)}") from None
        shape = amps.shape
        if not 2 <= len(shape) <= MAX_QUBITS + 1:
            raise ShapeError(
                f"expected 1..{MAX_QUBITS} qubit axes plus an ancilla axis, "
                f"got array of shape {shape}"
            )
        if shape[:-1] != (2,) * (len(shape) - 1):
            raise ShapeError(f"qubit axes must have length 2, got shape {shape}")
        if not 1 <= shape[-1] <= MAX_ANCILLA_DIM:
            raise ShapeError(f"ancilla dimension must be in 1..{MAX_ANCILLA_DIM}")
        norm = math.sqrt(_squared_norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses nan
            raise ParameterError(f"state is not normalized: |psi| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[LabelLike, complex],
        ancilla_dim: int = 1,
    ) -> "StateVector":
        """Build a state from a sparse ``{label: amplitude}`` mapping."""
        _checks.check_integer(ancilla_dim, "ancilla dimension", 1, MAX_ANCILLA_DIM)
        _checks.check_type(terms, Mapping, "terms", "must be a mapping of labels to amplitudes")
        labels = [_as_label(key) for key in terms]
        if not labels:
            raise ParameterError("at least one term is required")
        n_qubits = len(labels[0].bits)
        amps = np.zeros((2,) * n_qubits + (ancilla_dim,), dtype=complex)
        for label, amplitude in zip(labels, terms.values()):
            if len(label.bits) != n_qubits:
                raise ShapeError(f"label {label} does not have {n_qubits} qubits")
            if not 0 <= label.ancilla < ancilla_dim:
                raise ShapeError(f"ancilla index {label.ancilla} >= dim {ancilla_dim}")
            try:
                amps[tuple(int(b) for b in label.bits) + (label.ancilla,)] = _numbers(amplitude)
            except (TypeError, ValueError, OverflowError):  # text, or not one complex number
                raise ParameterError(f"amplitude of {label} must be a number, got {_shown(amplitude)}") from None
        return cls(amps)

    @classmethod
    def basis(cls, label: LabelLike, ancilla_dim: int = 1) -> "StateVector":
        return cls.from_terms({_as_label(label): 1.0}, ancilla_dim=ancilla_dim)

    # -- inspection ---------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self.amps.ndim - 1

    @property
    def ancilla_dim(self) -> int:
        return self.amps.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        """Register shape as (qubit count, ancilla dimension)."""
        return (self.n_qubits, self.ancilla_dim)

    def amplitude(self, label: LabelLike) -> complex:
        label = _as_label(label)
        if len(label.bits) != self.n_qubits:
            raise ShapeError(f"label {label} does not match {self.n_qubits} qubits")
        if not 0 <= label.ancilla < self.ancilla_dim:
            raise ShapeError(f"ancilla index {label.ancilla} out of range")
        return complex(self.amps[tuple(int(b) for b in label.bits) + (label.ancilla,)])

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.amps))


def _squared_norm(amps: np.ndarray) -> float:
    """sum |c|^2 over all amplitudes, as a Python float."""
    return float(np.vdot(amps, amps).real)


def _numbers(values) -> np.ndarray:
    """``values`` as an array; TypeError if it holds a bool, Python or numpy,
    str or bytes, which numpy would take as numbers or parse, or None, which
    numpy would take as nan."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "bSU":
        raise TypeError
    if kind == "O" or type(values) is not np.ndarray:  # a nest's leaves may be coerced: True to 1.0
        if any(v is None or isinstance(v, (bool, np.bool_, str, bytes))
               for v in np.asarray(values, dtype=object).flat):
            raise TypeError
    return array


def _shown(value) -> str:
    """``value`` for a one-line refusal: an array by its shape and dtype,
    since its repr spans a line per row."""
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape} and dtype {value.dtype}"
    return repr(value)


def _state(amps: np.ndarray) -> StateVector:
    """Fresh amplitudes that a unitary or a renormalized projection made from a
    checked state, wrapped read-only without ``StateVector``'s copy and checks."""
    state = object.__new__(StateVector)
    amps.setflags(write=False)
    object.__setattr__(state, "amps", amps)
    return state


def ket(label: LabelLike, ancilla_dim: int = 1) -> StateVector:
    """Shorthand for a basis ket, ``ket("ud")`` etc.; the state is shared
    between calls, which its read-only amplitudes make safe."""
    try:
        if type(label) is BasisLabel:  # keyed by its fields: a Record hashes and compares in Python
            return _basis_ket((label.bits, label.ancilla), ancilla_dim)
        if type(label) is tuple:  # refused uncached, so that no tuple of the caller's finds a label's key
            hash((label, ancilla_dim))
            return StateVector.basis(label, ancilla_dim=ancilla_dim)
        return _basis_ket(label, ancilla_dim)
    except TypeError:  # an unhashable label or dimension, which the cache cannot key
        raise ParameterError(
            f"ket takes a label and an integer ancilla dimension, got {label!r}, {ancilla_dim!r}"
        ) from None


@lru_cache(maxsize=256, typed=True)
def _basis_ket(label: str | tuple, ancilla_dim: int) -> StateVector:
    """``ket``'s states, keyed by a string as given or by a parsed label's
    (bits, ancilla), whose Spin bits are ints. The key is typed, so
    ``ket(label, 2.0)`` or ``ket(label, True)`` never finds the state of 2
    or 1 and is refused by ``StateVector.from_terms``."""
    return StateVector.basis(BasisLabel(*label) if type(label) is tuple else label, ancilla_dim=ancilla_dim)


class TestOutcome(Record):
    """One branch of a projective test.

    ``probability`` is the branch's share of both weights (``_weights``);
    ``post_state`` is the renormalized projection, absent when the branch
    probability is below ``ZERO_BRANCH_TOL``.
    """

    __slots__ = ("probability", "post_state")


def _branch(raw: np.ndarray, probability: float) -> TestOutcome:
    """The outcome of a branch whose fresh, unnormalized amplitudes ``raw``
    are renormalized in place."""
    if probability < ZERO_BRANCH_TOL:
        return TestOutcome(probability, None)
    raw /= np.array(math.sqrt(probability), dtype=complex)  # a 0-d scale factor
    return TestOutcome(probability, _state(raw))


# -- operations --------------------------------------------------------------


def overlap(a: StateVector, b: StateVector) -> complex | np.ndarray:
    """Inner product <a|b>; |overlap|^2 is the transition probability.

    When only ``b`` carries an ancilla, <a| acts as the identity on it: the
    result is one amplitude per ancilla index, of squared norm the probability."""
    _checks.check_type(a, StateVector, "state")
    _checks.check_type(b, StateVector, "state")
    if a.amps.shape == b.amps.shape:
        return complex(np.vdot(a.amps, b.amps))
    if a.amps.shape[-1] != 1 or a.amps.ndim != b.amps.ndim:  # a.ancilla_dim, and the qubit counts
        raise ShapeError(f"register shapes differ: {a.shape} vs {b.shape}")
    return _contract(a.amps, b.amps)


def _contract(bra: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """<bra| on the qubit axes of ``amps`` (normalized or not) and the identity
    on its ancilla axis: one amplitude per ancilla index. ``bra`` carries no
    ancilla and has as many qubits as ``amps``."""
    return bra.reshape(-1).conj() @ amps.reshape(-1, amps.shape[-1])


def _attach(amps: np.ndarray) -> np.ndarray:
    """Two-qubit amplitudes (2, 2, D) with a third qubit spin-down: (2, 2, 2, D)."""
    out = np.zeros((2, 2, 2, amps.shape[-1]), dtype=complex)
    out[_THIRD_DOWN] = amps
    return out


def attach_down_ancilla_qubit(state: StateVector) -> StateVector:
    """Tensor a fresh qubit prepared spin-down onto a two-qubit state.

    The new qubit becomes label 3; the ancilla axis (if any) stays last.
    """
    _checks.check_type(state, StateVector, "state")
    if state.n_qubits != 2:
        raise ShapeError(f"expected a 2-qubit register, got {state.n_qubits} qubits")
    return _state(_attach(state.amps))


def _rotate(amps: np.ndarray, p: float, eta: float) -> np.ndarray:
    """``apply_u_eta``'s rotation of writable amplitudes, in place, for p + eta > 0.

    The pair is read as contiguous copies, on which numpy computes faster
    than on the strided views, and the products are written back whole.
    c and s are 0-d complex arrays, as every scale factor here (see the
    module docstring)."""
    c = np.array(math.sqrt(p / (p + eta)), dtype=complex)
    s = np.array(math.sqrt(eta / (p + eta)), dtype=complex)
    ud = amps[_UD].copy()
    du = amps[_DU].copy()
    amps[_UD] = c * ud + s * du
    amps[_DU] = s * ud - c * du
    return amps


def apply_u_eta(state: StateVector, p: float, eta: float) -> StateVector:
    """Apply the protocol rotation on the span of |u2 d3> and |d2 u3>.

    The 2x2 block is [[c, s], [s, -c]] with c = sqrt(p/(p+eta)) and
    s = sqrt(eta/(p+eta)); all other basis states, qubit 1 and the ancilla
    index are untouched. The block is a real symmetric involution, so the
    map is unitary and self-inverse, so the rotated copy of the state's
    amplitudes is not checked again. ``wcf._evolve`` runs its kernel, ``_rotate``.
    """
    _checks.check_type(state, StateVector, "state")
    if state.amps.ndim != 4:  # three qubit axes and the ancilla axis
        raise ShapeError("the rotation acts on qubits 2 and 3 of a 3-qubit register")
    _checks.check_p_eta(p, eta)
    _checks.check_rotation_defined(p, eta)
    return _state(_rotate(state.amps.copy(), p, eta))


def _pattern_index(pattern: Pattern, n_qubits: int) -> tuple:
    """The checked pattern as an index into amplitudes of ``n_qubits`` qubits."""
    if not pattern:
        raise ShapeError("pattern must constrain at least one qubit")
    index: list = [slice(None)] * (n_qubits + 1)
    for qubit, spin in pattern.items():
        if type(qubit) is not int:  # an exact int is an integer label already
            _checks.check_integer(qubit, "qubit label")
        if type(spin) is not Spin:  # a Spin member is a spin already
            _checks.check_integer(spin, "spin", 0, 1)
        if not 1 <= qubit <= n_qubits:
            raise ShapeError(f"qubit label {qubit} outside register of {n_qubits}")
        index[qubit - 1] = int(spin)
    return tuple(index)


def _split(amps: np.ndarray, index: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized (pass, fail) branches of a ``_pattern_index`` test
    on finite amplitudes: the fail branch is ``amps`` with the tested entries
    zeroed, and the pass branch is what that leaves out, ``amps - failed``,
    the same floats as the tested entries of ``amps`` on zeros."""
    failed = amps.copy()
    failed[index] = 0.0
    return amps - failed, failed


def _weights(passed: np.ndarray, failed: np.ndarray) -> tuple[float, float]:
    """The (pass, fail) probabilities of a binary test: each branch's weight,
    summed from its own amplitudes, over the sum of both weights."""
    w_pass = _squared_norm(passed)
    w_fail = _squared_norm(failed)
    return w_pass / (w_pass + w_fail), w_fail / (w_pass + w_fail)


def projective_test(
    state: StateVector, target: Union[Pattern, StateVector]
) -> tuple[TestOutcome, TestOutcome]:
    """Binary projective measurement against a pattern or a pure state.

    Returns the (pass, fail) branches; their probabilities (``_weights``)
    sum to 1 within rounding and each present post-state is renormalized. A
    pattern target tests a spin assignment on a subset of qubits; a
    pure-state target tests against that state (when the target carries no
    ancilla but the tested state does, the test acts as identity on the
    ancilla index).
    """
    _checks.check_type(state, StateVector, "state")
    if isinstance(target, StateVector):
        passed = overlap(target, state) * target.amps
        failed = state.amps - passed
    elif isinstance(target, (dict, Mapping)):  # a dict is found without the ABC's check
        passed, failed = _split(state.amps, _pattern_index(target, state.amps.ndim - 1))
    else:
        raise ShapeError(f"unsupported test target: {type(target).__name__}")
    p_pass, p_fail = _weights(passed, failed)
    return _branch(passed, p_pass), _branch(failed, p_fail)
