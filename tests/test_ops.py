"""Elementary Gaussian operations: matrices, composition, inversion, labels."""

import math

import numpy as np
import pytest

from gausswork import (
    PROTOCOL_STAGES,
    MomentState,
    ValidationError,
    apply,
    beam_splitter,
    compose,
    displacement,
    inverse,
    is_symplectic,
    op_from_label,
    rotation,
    squeeze,
    two_mode_squeeze,
)
from gausswork.ops import describe


def test_rotation_matrix():
    op = rotation(np.pi / 2)
    assert np.allclose(op.S, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    assert np.all(op.d == 0.0)
    assert op.kind == "rotation"


def test_squeeze_matrix():
    op = squeeze(1.0)
    assert np.allclose(op.S, np.diag([math.exp(-1.0), math.exp(1.0)]), atol=1e-15)


def test_two_mode_squeeze_matrix():
    r = 0.3
    op = two_mode_squeeze(r)
    ch, sh = math.cosh(r), math.sinh(r)
    expected = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    assert np.allclose(op.S, expected, atol=1e-15)


def test_beam_splitter_matrix_and_involution():
    theta = 0.7
    op = beam_splitter(theta)
    c, s = math.cos(theta), math.sin(theta)
    expected = np.block(
        [
            [c * np.eye(2), s * np.eye(2)],
            [s * np.eye(2), -c * np.eye(2)],
        ]
    )
    assert np.allclose(op.S, expected, atol=1e-15)
    assert np.allclose(op.S @ op.S, np.eye(4), atol=1e-14)


def test_beam_splitter_half_pi_swaps_modes():
    op = beam_splitter(np.pi / 2)
    st = MomentState(
        freqs=[1.0, 1.0],
        x=[1.0, 2.0, 3.0, 4.0],
        cov=np.diag([1.0, 1.0, 5.0, 5.0]),
    )
    out = apply(op, st)
    assert np.allclose(out.x, [3.0, 4.0, 1.0, 2.0], atol=1e-14)
    assert np.allclose(out.cov, np.diag([5.0, 5.0, 1.0, 1.0]), atol=1e-14)


def test_displacement_shifts_first_moments_only():
    op = displacement([0.5, -1.5])
    st = MomentState(freqs=[1.0], x=[1.0, 1.0], cov=2.0 * np.eye(2))
    out = apply(op, st)
    assert np.allclose(out.x, [1.5, -0.5], atol=1e-15)
    assert np.allclose(out.cov, st.cov, atol=1e-15)


def test_displacement_rejects_odd_or_mismatched_length():
    with pytest.raises(ValidationError):
        displacement([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        displacement([1.0, 2.0], n_modes=2)


def test_all_generators_are_symplectic():
    rng = np.random.default_rng(42)
    for _ in range(40):
        ops = [
            rotation(rng.uniform(-np.pi, np.pi), 0, 2),
            squeeze(rng.uniform(-1.5, 1.5), 1, 2),
            two_mode_squeeze(rng.uniform(-1.0, 1.0)),
            beam_splitter(rng.uniform(-np.pi, np.pi)),
            displacement(rng.normal(size=4)),
        ]
        for op in ops:
            assert is_symplectic(op.S)
        assert is_symplectic(compose(ops).S)


def test_is_symplectic_rejects_non_symplectic():
    assert not is_symplectic(2.0 * np.eye(2))
    assert not is_symplectic(np.eye(3))
    assert not is_symplectic(np.eye(4)[:2])


_AFFINE_CASES = {
    "rotation": rotation(0.9, 3, 5),
    "squeeze": squeeze(-0.7, 1, 5),
    "two_mode_squeeze": two_mode_squeeze(0.4, (3, 1), 5),
    "beam_splitter": beam_splitter(1.1, (4, 0), 5),
    "displacement": displacement(np.linspace(-1.0, 1.0, 10)),
    "compose": compose(
        [two_mode_squeeze(0.4, (3, 1), 5), rotation(0.9, 0, 5), beam_splitter(1.1, (0, 3), 5)]
    ),
    "inverse": inverse(
        compose(
            [displacement(np.linspace(0.5, -0.4, 10)), squeeze(0.6, 2, 5), two_mode_squeeze(-0.3, (4, 2), 5)]
        )
    ),
}


@pytest.mark.parametrize("name", list(_AFFINE_CASES))
def test_apply_affine_law(name):
    op = _AFFINE_CASES[name]
    rng = np.random.default_rng(5)
    a = 0.5 * rng.normal(size=(10, 10))
    st = MomentState(freqs=np.linspace(1.0, 3.0, 5), x=rng.normal(size=10), cov=np.eye(10) + a @ a.T)
    out = apply(op, st)
    np.testing.assert_allclose(out.x, op.S @ st.x + op.d, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(out.cov, op.S @ st.cov @ op.S.T, rtol=0.0, atol=1e-14)
    assert np.array_equal(out.freqs, st.freqs)
    rest = [q for m in range(5) if m not in op.modes for q in (2 * m, 2 * m + 1)]
    assert np.array_equal(out.x[rest], st.x[rest])
    assert np.array_equal(out.cov[np.ix_(rest, rest)], st.cov[np.ix_(rest, rest)])


def test_apply_rejects_mode_mismatch():
    st = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ValidationError):
        apply(beam_splitter(0.3), st)


def test_compose_order_first_listed_acts_first():
    sq = squeeze(0.5)
    dp = displacement([1.0, 0.0])
    # squeeze then displace: d survives unscaled
    both = compose([sq, dp])
    assert np.allclose(both.d, [1.0, 0.0], atol=1e-15)
    # displace then squeeze: d gets squeezed
    both = compose([dp, sq])
    assert np.allclose(both.d, [math.exp(-0.5), 0.0], atol=1e-15)


def test_compose_rejects_empty_and_mixed_sizes():
    with pytest.raises(ValidationError):
        compose([])
    with pytest.raises(ValidationError):
        compose([squeeze(0.1, 0, 1), beam_splitter(0.1)])


def test_inverse_round_trips_every_kind():
    ops = [
        rotation(0.8, 0, 2),
        squeeze(-0.6, 1, 2),
        two_mode_squeeze(0.45),
        beam_splitter(1.1),
        displacement([0.3, -0.2, 0.0, 0.7]),
        compose([rotation(0.2, 0, 2), two_mode_squeeze(0.3), displacement([1, 0, 0, 1])]),
    ]
    for op in ops:
        inv = inverse(op)
        round_trip = compose([op, inv])
        assert np.allclose(round_trip.S, np.eye(4), atol=1e-12)
        assert np.allclose(round_trip.d, 0.0, atol=1e-12)


def test_beam_splitter_is_self_inverse():
    op = beam_splitter(0.37)
    inv = inverse(op)
    assert inv.params["theta"] == op.params["theta"]
    assert np.allclose(op.S @ inv.S, np.eye(4), atol=1e-14)


def test_op_from_label_round_trips():
    ops = [
        rotation(0.8, 1, 3),
        squeeze(-0.6, 2, 3),
        two_mode_squeeze(0.45, (0, 2), 3),
        beam_splitter(1.1, (1, 2), 3),
        displacement([0.3, -0.2, 0.0, 0.7, 0.1, 0.0], 3),
    ]
    for op in ops:
        rebuilt = op_from_label(op.kind, op.params, op.modes, op.n_modes)
        assert rebuilt.kind == op.kind
        assert rebuilt.modes == op.modes
        assert np.allclose(rebuilt.S, op.S, atol=1e-15)
        assert np.allclose(rebuilt.d, op.d, atol=1e-15)


def test_op_from_label_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        op_from_label("teleport", {}, (0,), 1)


def test_op_from_label_rejects_target_count_mismatch():
    with pytest.raises(ValidationError, match="rotation acts on 1 mode"):
        op_from_label("rotation", {"theta": 0.3}, [0, 1], 2)
    with pytest.raises(ValidationError, match="beam_splitter acts on 2 mode"):
        op_from_label("beam_splitter", {"theta": 0.3}, [0, 1, 2], 3)
    with pytest.raises(ValidationError, match="displacement targets every mode"):
        op_from_label("displacement", {"d": [0.0] * 4}, [1], 2)


def test_embedding_targets_only_named_modes():
    op = squeeze(0.9, 1, 3)
    S = op.S
    # modes 0 and 2 untouched
    assert np.allclose(S[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])], np.eye(4), atol=1e-15)
    assert np.allclose(S[2:4, 2:4], np.diag([math.exp(-0.9), math.exp(0.9)]), atol=1e-15)
    # reversed targets: mode 2 is the beam splitter's first mode
    S = beam_splitter(0.3, (2, 0), 3).S
    c, s = math.cos(0.3), math.sin(0.3)
    assert np.allclose(S[np.ix_([4, 5, 0, 1], [4, 5, 0, 1])], np.kron([[c, s], [s, -c]], np.eye(2)), atol=1e-15)
    with pytest.raises(ValidationError):
        squeeze(0.1, 3, 3)
    with pytest.raises(ValidationError):
        beam_splitter(0.1, (1, 1), 3)


def test_describe_strings():
    assert describe(rotation(0.5)) == "rotation(theta=0.5) on mode 0"
    assert describe(squeeze(-1.0, 1, 2)) == "squeeze(r=-1) on mode 1"
    assert (
        describe(two_mode_squeeze(0.25))
        == "two_mode_squeeze(r=0.25) on modes 0,1"
    )
    assert (
        describe(beam_splitter(0.75, (0, 2), 3))
        == "beam_splitter(theta=0.75) on modes 0,2"
    )
    assert describe(displacement([3.0, 4.0])) == "displacement(|d|=5)"


def test_protocol_stage_labels_are_pinned():
    assert PROTOCOL_STAGES == (
        "P1-displace",
        "P2-local",
        "P3-tms",
        "P3-realign",
        "P4-beamsplit",
    )
