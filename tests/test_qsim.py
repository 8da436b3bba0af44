"""State-engine unit tests and numerical invariants."""
from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ETA_FAIR, ROTATION_C_FAIR, ROTATION_S_FAIR, random_state
from qdice import (
    ParameterError,
    ProtocolParams,
    ShapeError,
    Spin,
    StateVector,
    apply_u_eta,
    attach_down_ancilla_qubit,
    ket,
    overlap,
    projective_test,
)
from qdice import qsim
from qdice.errors import DegenerateParameterError
from qdice.wcf import honest_initial_state, verification_state

SQRT_HALF = 1.0 / math.sqrt(2.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- construction -------------------------------------------------------------


def test_basis_ket_amplitudes():
    state = ket("ud")
    assert state.amplitude("ud") == 1.0
    assert state.amplitude("du") == 0.0
    assert state.shape == (2, 1)


@pytest.mark.parametrize("ancilla_dim", [2.5, 2.0, True, None, "2", 0, -1, 65])
def test_ket_refuses_a_bad_ancilla_dimension(ancilla_dim):
    ket("ud", 1), ket("ud", 2)  # cached kets that 2.0 and True compare equal to
    with pytest.raises(ParameterError, match="ancilla dimension"):
        ket("ud", ancilla_dim)


def test_equal_parsed_labels_share_one_ket():
    first = ket(qsim.BasisLabel.parse("udd", 1), 2)
    assert ket(qsim.BasisLabel.parse("udd", 1), 2) is first
    assert ket(qsim.BasisLabel((Spin.UP, Spin.DOWN, Spin.DOWN), 1), 2) is first
    assert ket(qsim.BasisLabel.parse("udd", 2), 3) is not first
    for tuple_label in [((Spin.UP, Spin.DOWN, Spin.DOWN), 1), ((0, 1, 1), 1)]:  # no tuple stands for a label
        with pytest.raises(ParameterError, match="a basis label is a string or a BasisLabel, got"):
            ket(tuple_label, 2)


@pytest.mark.parametrize("amps", [
    np.array([[True], [False]]),
    [[True], [False]],
    [[True], [0.0]],
    [[1.0], [np.False_]],
    np.array([[True], [0j]], dtype=object),
    True,
])
def test_bool_amplitudes_are_refused(amps):
    with pytest.raises(ParameterError, match="^amplitudes must be an array of numbers, got"):
        StateVector(amps)


@pytest.mark.parametrize("amps, shown", [
    (np.array([[True], [False]]), "an array of shape (2, 1) and dtype bool"),
    (np.array([["1"], ["0"]]), "an array of shape (2, 1) and dtype <U1"),
    ([[1], [None]], "[[1], [None]]"),
])
def test_refusals_name_the_amplitudes_on_one_line(amps, shown):
    # a None leaf is not a number, although numpy would read it as nan
    with pytest.raises(ParameterError) as refusal:
        StateVector(amps)
    assert str(refusal.value) == f"amplitudes must be an array of numbers, got {shown}"


def test_a_bool_term_is_refused():
    for amplitude in (True, np.True_):
        with pytest.raises(ParameterError, match="^amplitude of u must be a number, got "):
            StateVector.from_terms({"u": amplitude})


def test_unnormalized_state_rejected():
    with pytest.raises(ParameterError):
        StateVector(np.array([[[0.5 + 0j], [0.0]], [[0.0], [0.0]]]))
    with pytest.raises(ParameterError):
        StateVector(np.full((2, 1), np.nan))


def test_state_keeps_a_private_copy_of_the_callers_array():
    amps = np.zeros((2, 1), dtype=complex)
    amps[0, 0] = 1.0
    state = StateVector(amps)
    assert state.amps is not amps and not state.amps.flags.writeable
    amps[0, 0], amps[1, 0] = 0.0, 1.0  # the caller's array stays writable
    assert state.amplitude("u") == 1.0 and state.amplitude("d") == 0.0


def _layouts(amps: np.ndarray) -> dict[str, np.ndarray]:
    """``amps`` as a Fortran-ordered, a strided, a read-only and a complex64 array."""
    wide = np.zeros(amps.shape[:-1] + (2 * amps.shape[-1],), dtype=complex)
    wide[..., ::2] = amps
    frozen = amps.copy()
    frozen.setflags(write=False)
    return {
        "fortran": np.asfortranarray(amps),
        "strided": wide[..., ::2],
        "read-only": frozen,
        "complex64": amps.astype(np.complex64),
    }


@pytest.mark.parametrize("layout", ["fortran", "strided", "read-only", "complex64"])
def test_a_complex_array_of_any_layout_is_checked_and_copied(layout):
    # amplitudes of modulus 1/4 with phases of 1 and i, exact in complex64 too
    amps = 0.25 * np.random.default_rng(7).choice([1.0, -1.0, 1j, -1j], size=(2, 2, 2, 2))
    given = _layouts(amps)[layout]
    before, writeable = given.copy(), given.flags.writeable
    state = StateVector(given)
    assert state.amps.dtype == complex and state.amps.flags.c_contiguous and not state.amps.flags.writeable
    assert not np.shares_memory(state.amps, given)
    assert np.array_equal(state.amps, given.astype(complex))
    assert np.array_equal(given, before) and given.flags.writeable == writeable  # the caller's array stays its own
    assert given.dtype == before.dtype
    for bad, error in [(2.0 * amps, ParameterError), (amps[..., :1] * 0.0, ParameterError),
                       (amps.reshape(2, 2, 4, 1) / 1.0, ShapeError), (amps[0, 0], ParameterError)]:
        with pytest.raises(error):
            StateVector(_layouts(bad)[layout])


@pytest.mark.parametrize("pattern", [{2: 0, 3: 1}, {1: 1}, {1: 0, 2: 1, 3: 0}, {3: 0}])
def test_spin_members_and_plain_spins_test_the_same_bytes(pattern):
    state = random_state(np.random.default_rng(11), ancilla_dim=2)
    as_spins = {qubit: Spin(spin) for qubit, spin in pattern.items()}
    as_numpy = {np.int64(qubit): np.int64(spin) for qubit, spin in pattern.items()}
    outcomes = [projective_test(state, target) for target in (pattern, as_spins, as_numpy)]
    for branches in outcomes[1:]:
        for branch, plain in zip(branches, outcomes[0]):
            assert branch.probability.hex() == plain.probability.hex()
            assert branch.post_state.amps.tobytes() == plain.post_state.amps.tobytes()


@pytest.mark.parametrize("text", ["", "u", "d", "ud", "udd", "ddu", ["u", "d"], ("d",)])
@pytest.mark.parametrize("ancilla", [0, 1, 63, np.int64(2)])
def test_a_parsed_label_equals_the_label_of_its_spins(text, ancilla):
    label = qsim.BasisLabel.parse(text, ancilla)
    spins = tuple(Spin.UP if char == "u" else Spin.DOWN for char in text)
    assert label == qsim.BasisLabel(spins, ancilla) and hash(label) == hash(qsim.BasisLabel(spins, ancilla))
    assert all(type(bit) is Spin for bit in label.bits) and label.ancilla is ancilla


@pytest.mark.parametrize("text, ancilla, message", [
    ("ux", 0, "may only contain 'u'/'d': 'ux'"),
    ("UD", 0, "may only contain 'u'/'d'"),
    (None, 0, "may only contain 'u'/'d': None"),
    (5, 0, "may only contain 'u'/'d': 5"),
    (b"ud", 0, "may only contain 'u'/'d'"),
    ([["u"]], 0, "may only contain 'u'/'d'"),
    ("ud", -1, "ancilla index must lie in 0..inf, got -1"),
    ("ud", True, "ancilla index must be an integer, got True"),
    ("ud", 1.0, "ancilla index must be an integer, got 1.0"),
    ("ud", "a", "ancilla index must be an integer, got 'a'"),
    ("ud", np.array(1), "ancilla index must be an integer"),
    ("ux", -1, "may only contain 'u'/'d'"),  # the text is refused first
])
def test_parse_refuses_what_the_label_refuses(text, ancilla, message):
    with pytest.raises(ParameterError, match=message.replace(".", r"\.").replace("(", r"\(")):
        qsim.BasisLabel.parse(text, ancilla)


def test_mismatched_label_rejected():
    with pytest.raises(ShapeError):
        ket("ud").amplitude("udd")


def test_public_primitives_are_plain_functions_returning_plain_values():
    # the per-layer trace wraps exactly the plain functions a module defines,
    # so a decorated or moved primitive would silently drop out of it
    public = {
        name: obj
        for name, obj in vars(qsim).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == "qdice.qsim"
    }
    assert {"apply_u_eta", "attach_down_ancilla_qubit", "ket", "overlap", "projective_test"} <= set(public)
    for name, obj in public.items():
        assert inspect.isfunction(obj), name
    assert type(projective_test(ket("ud"), {1: Spin.UP})[0].probability) is float
    shared = ket("udd").amps
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0, 0, 0, 0] = 1.0


# -- attach_down_ancilla_qubit -------------------------------------------------


def test_attach_basis_ket():
    assert attach_down_ancilla_qubit(ket("ud")).amplitude("udd") == 1.0


def test_attach_honest_state_at_eta_zero():
    state = attach_down_ancilla_qubit(honest_initial_state(ProtocolParams(0.5, 0.0)))
    assert state.amplitude("udd") == pytest.approx(SQRT_HALF, abs=1e-12)
    assert state.amplitude("dud") == pytest.approx(SQRT_HALF, abs=1e-12)


def test_attach_requires_two_qubits():
    with pytest.raises(ShapeError):
        attach_down_ancilla_qubit(ket("udd"))


@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_attach_is_an_isometry(seed):
    state = random_state(np.random.default_rng(seed), n_qubits=2)
    assert attach_down_ancilla_qubit(state).norm() == pytest.approx(1.0, abs=1e-9)


# -- apply_u_eta ---------------------------------------------------------------


def test_rotation_at_balanced_fair_point():
    rotated = apply_u_eta(ket("dud"), 0.5, ETA_FAIR)
    assert rotated.amplitude("dud") == pytest.approx(ROTATION_C_FAIR, abs=1e-9)
    assert rotated.amplitude("ddu") == pytest.approx(ROTATION_S_FAIR, abs=1e-9)


def test_rotation_at_eta_zero_is_diagonal():
    assert apply_u_eta(ket("dud"), 0.5, 0.0).amplitude("dud") == pytest.approx(1.0)
    assert apply_u_eta(ket("ddu"), 0.5, 0.0).amplitude("ddu") == pytest.approx(-1.0)


def test_rotation_rejects_degenerate_and_bad_params():
    with pytest.raises(DegenerateParameterError):
        apply_u_eta(ket("udd"), 0.0, 0.0)
    with pytest.raises(ParameterError):
        apply_u_eta(ket("udd"), 0.5, 0.7)
    with pytest.raises(ShapeError):
        apply_u_eta(ket("ud"), 0.5, 0.1)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, p=st.floats(0.01, 0.99), eta_frac=st.floats(0.0, 1.0))
def test_rotation_is_unitary_and_self_inverse(seed, p, eta_frac):
    eta = eta_frac * (1.0 - p)
    state = random_state(np.random.default_rng(seed))
    rotated = apply_u_eta(state, p, eta)
    assert rotated.norm() == pytest.approx(1.0, abs=1e-9)
    # the 2x2 block is real symmetric orthogonal, so its transpose is itself
    restored = apply_u_eta(rotated, p, eta)
    assert np.allclose(restored.amps, state.amps, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, p=st.floats(0.01, 0.99), eta_frac=st.floats(0.0, 1.0))
def test_rotation_commutes_with_spectator_operations(seed, p, eta_frac):
    eta = eta_frac * (1.0 - p)
    rng = np.random.default_rng(seed)
    state = random_state(rng, ancilla_dim=2)

    def haar_unitary(dim):
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    u1 = haar_unitary(2)
    ua = haar_unitary(2)

    def on_qubit1(sv):
        return StateVector(np.tensordot(u1, sv.amps, axes=(1, 0)))

    def on_ancilla(sv):
        return StateVector(np.moveaxis(np.tensordot(ua, sv.amps, axes=(1, 3)), 0, 3))

    for spectator in (on_qubit1, on_ancilla):
        left = apply_u_eta(spectator(state), p, eta)
        right = spectator(apply_u_eta(state, p, eta))
        assert np.allclose(left.amps, right.amps, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, p=st.floats(0.01, 0.99), eta_frac=st.floats(0.0, 1.0))
def test_rotation_is_linear(seed, p, eta_frac):
    eta = eta_frac * (1.0 - p)
    rng = np.random.default_rng(seed)
    a = random_state(rng)
    raw = random_state(rng).amps
    raw = raw - np.vdot(a.amps, raw) * a.amps  # orthogonalize so combos stay normalized
    b = StateVector(raw / np.linalg.norm(raw))
    theta, phi = rng.uniform(0, 2 * np.pi, size=2)
    alpha, beta = math.cos(theta), math.sin(theta) * np.exp(1j * phi)
    combo = StateVector(alpha * a.amps + beta * b.amps)
    left = apply_u_eta(combo, p, eta).amps
    right = alpha * apply_u_eta(a, p, eta).amps + beta * apply_u_eta(b, p, eta).amps
    assert np.allclose(left, right, atol=1e-9)


# -- projective_test -----------------------------------------------------------


def test_honest_state_hit_probability_is_p():
    params = ProtocolParams(0.37, 0.21)
    state = apply_u_eta(
        attach_down_ancilla_qubit(honest_initial_state(params)), params.p, params.eta
    )
    hit, miss = projective_test(state, {2: Spin.UP, 3: Spin.DOWN})
    assert hit.probability == pytest.approx(params.p, abs=1e-12)
    assert miss.probability == pytest.approx(1.0 - params.p, abs=1e-12)


def test_honest_miss_branch_is_the_verification_state():
    params = ProtocolParams(0.37, 0.21)
    state = apply_u_eta(
        attach_down_ancilla_qubit(honest_initial_state(params)), params.p, params.eta
    )
    _, miss = projective_test(state, {2: Spin.UP, 3: Spin.DOWN})
    xi = verification_state(params)
    assert abs(overlap(xi, miss.post_state)) == pytest.approx(1.0, abs=1e-9)


def test_pure_state_target_on_itself_passes():
    target = honest_initial_state(ProtocolParams(0.3, 0.4))
    hit, miss = projective_test(target, target)
    assert hit.probability == pytest.approx(1.0, abs=1e-12)
    assert miss.post_state is None  # zero-probability branch carries no state


def test_pattern_target_shape_errors():
    with pytest.raises(ShapeError):
        projective_test(ket("ud"), {3: Spin.UP})
    with pytest.raises(ShapeError):
        projective_test(ket("ud"), {})
    with pytest.raises(ShapeError):
        projective_test(ket("udd"), ket("ud"))


@settings(max_examples=100, deadline=None)
@given(seed=seeds, qubit=st.integers(1, 3), spin=st.sampled_from([Spin.UP, Spin.DOWN]))
def test_pattern_branches_sum_to_one_and_are_normalized(seed, qubit, spin):
    state = random_state(np.random.default_rng(seed))
    hit, miss = projective_test(state, {qubit: spin})
    assert hit.probability + miss.probability == pytest.approx(1.0, abs=1e-9)
    for branch in (hit, miss):
        if branch.post_state is not None:
            assert branch.post_state.norm() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, ancilla_dim=st.sampled_from([1, 2]))
def test_pure_state_branches_sum_to_one(seed, ancilla_dim):
    rng = np.random.default_rng(seed)
    state = random_state(rng, ancilla_dim=ancilla_dim)
    target = random_state(rng, ancilla_dim=1)
    hit, miss = projective_test(state, target)
    assert hit.probability + miss.probability == pytest.approx(1.0, abs=1e-9)
    for branch in (hit, miss):
        if branch.post_state is not None:
            assert branch.post_state.norm() == pytest.approx(1.0, abs=1e-9)


# -- overlap -------------------------------------------------------------------


def test_overlap_of_state_with_itself_is_one():
    state = honest_initial_state(ProtocolParams(0.25, 0.5))
    assert overlap(state, state) == pytest.approx(1.0, abs=1e-12)


def test_overlap_of_orthogonal_kets_is_zero():
    assert overlap(ket("ud"), ket("du")) == 0.0


def test_overlap_shape_mismatch():
    with pytest.raises(ShapeError):
        overlap(ket("ud"), ket("udd"))
    with pytest.raises(ShapeError):  # the ancilla mode needs a bra without one
        overlap(ket("ud", ancilla_dim=2), ket("ud", ancilla_dim=3))
    with pytest.raises(ShapeError):
        overlap(ket("ud", ancilla_dim=2), ket("ud"))


@pytest.mark.parametrize("ancilla_dim", [1, 2, 3])
def test_overlap_is_one_vdot_per_ancilla_index(ancilla_dim):
    rng = np.random.default_rng(ancilla_dim)
    bra, state = random_state(rng), random_state(rng, ancilla_dim=ancilla_dim)
    expected = [np.vdot(bra.amps[..., 0], state.amps[..., d]) for d in range(ancilla_dim)]
    assert np.allclose(np.atleast_1d(overlap(bra, state)), expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("ancilla_dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_pure_state_pass_probability_is_the_overlap_norm(ancilla_dim, seed):
    rng = np.random.default_rng(seed)
    state, target = random_state(rng, ancilla_dim=ancilla_dim), random_state(rng)
    passed, _ = projective_test(state, target)
    expected = float(np.sum(np.abs(overlap(target, state)) ** 2))
    assert passed.probability == pytest.approx(expected, abs=1e-12)
