"""Moment-state container, validation, energy/entropy/spectrum functions."""

import math

import numpy as np
import pytest

from gausswork import (
    MomentState,
    ValidationError,
    gaussian_entropy,
    mean_energy,
    occupation_entropy,
    purity,
    require_valid,
    state_entropy,
    symplectic_form,
    symplectic_spectrum,
    thermal_state,
    validate_state,
)
from gausswork.ops import beam_splitter, compose, rotation, squeeze, two_mode_squeeze


def vacuum(n, freqs=None):
    return MomentState(
        freqs=np.ones(n) if freqs is None else freqs,
        x=np.zeros(2 * n),
        cov=np.eye(2 * n),
    )


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(omega[:2, :2], block)
    assert np.array_equal(omega[2:, 2:], block)
    assert np.all(omega[:2, 2:] == 0)
    assert np.array_equal(omega.T, -omega)


def test_moment_state_validates_shapes():
    with pytest.raises(ValidationError):
        MomentState(freqs=[1.0], x=[0.0, 0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ValidationError):
        MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(3))
    with pytest.raises(ValidationError):
        MomentState(freqs=[1.0, -2.0], x=np.zeros(4), cov=np.eye(4))
    with pytest.raises(ValidationError):
        MomentState(freqs=[1.0], x=[np.nan, 0.0], cov=np.eye(2))


def test_moment_state_copies_input_arrays():
    cov = np.eye(2)
    st = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=cov)
    cov[0, 0] = 99.0
    assert st.cov[0, 0] == 1.0


def test_validate_vacuum_ok():
    report = validate_state(vacuum(2))
    assert report.ok
    assert report.violations == ()


def test_validate_uncertainty_violation():
    st = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=0.5 * np.eye(2))
    report = validate_state(st)
    assert not report.ok
    assert any("uncertainty" in v for v in report.violations)
    # min eigenvalue of Gamma + i Omega is exactly -0.5 here
    assert "-5.000e-01" in report.violations[0]
    with pytest.raises(ValidationError):
        require_valid(st)


def test_validate_asymmetric_covariance():
    cov = np.eye(2)
    cov[0, 1] = 0.3
    st = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=cov)
    report = validate_state(st)
    assert not report.ok
    assert any("symmetric" in v for v in report.violations)


def test_squeezed_state_passes_uncertainty():
    st = MomentState(
        freqs=[1.0], x=[0.0, 0.0], cov=np.diag([math.exp(-2), math.exp(2)])
    )
    assert validate_state(st).ok


def test_coherent_state_energy_convention():
    # first moments x = (2, 0) at omega = 2: E = omega * |alpha|^2 = 2 * 2 = 4
    st = MomentState(freqs=[2.0], x=[2.0, 0.0], cov=np.eye(2))
    assert np.isclose(mean_energy(st), 4.0, rtol=0, atol=1e-12)


def test_thermal_mode_energy_and_entropy():
    # nu = 3 <-> mean occupation 1: energy omega, entropy 2 ln 2, purity 1/3
    st = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=3.0 * np.eye(2))
    assert np.isclose(mean_energy(st), 1.0, atol=1e-12)
    assert np.isclose(state_entropy(st), 2.0 * math.log(2.0), atol=1e-12)
    assert np.isclose(purity(st), 1.0 / 3.0, atol=1e-12)


def test_vacuum_energy_and_entropy_are_zero():
    st = vacuum(2, freqs=[1.0, 2.5])
    assert mean_energy(st) == 0.0
    assert state_entropy(st) == 0.0
    assert purity(st) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_two_mode_closed_form():
    cov = np.diag([1.5, 1.5, 3.0, 3.0])
    assert np.allclose(symplectic_spectrum(cov), [3.0, 1.5], atol=1e-12)


def test_spectrum_pure_two_mode_squeezed():
    op = two_mode_squeeze(0.8)
    cov = op.S @ np.eye(4) @ op.S.T
    assert np.allclose(symplectic_spectrum(cov), [1.0, 1.0], atol=1e-10)


def test_spectrum_invariant_under_symplectics():
    rng = np.random.default_rng(20240131)
    for _ in range(50):
        nus = 1.0 + rng.uniform(0.0, 6.0, 2)
        cov = np.diag(np.repeat(nus, 2))
        seq = [
            rotation(rng.uniform(-np.pi, np.pi), 0, 2),
            squeeze(rng.uniform(-1.0, 1.0), 0, 2),
            rotation(rng.uniform(-np.pi, np.pi), 1, 2),
            squeeze(rng.uniform(-1.0, 1.0), 1, 2),
            two_mode_squeeze(rng.uniform(-0.8, 0.8)),
            beam_splitter(rng.uniform(-np.pi, np.pi)),
        ]
        S = compose(seq).S
        got = symplectic_spectrum(S @ cov @ S.T)
        assert np.allclose(got, np.sort(nus)[::-1], rtol=1e-9, atol=1e-9)


def test_spectrum_matches_general_path_on_two_modes():
    # two modes against their embedding next to a vacuum mode (N=3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        nus = 1.0 + rng.uniform(0.0, 5.0, 2)
        op = compose(
            [
                squeeze(rng.uniform(-0.7, 0.7), 0, 2),
                two_mode_squeeze(rng.uniform(-0.6, 0.6)),
                beam_splitter(rng.uniform(-2.0, 2.0)),
            ]
        )
        cov2 = op.S @ np.diag(np.repeat(nus, 2)) @ op.S.T
        cov3 = np.eye(6)
        cov3[:4, :4] = cov2
        got3 = symplectic_spectrum(cov3)
        got2 = symplectic_spectrum(cov2)
        assert np.allclose(np.sort(got3), np.sort([1.0, *got2]), atol=1e-9)


def test_spectrum_rejects_odd_dimension():
    with pytest.raises(ValidationError):
        symplectic_spectrum(np.eye(3))


def test_spectrum_rejects_indefinite_covariance():
    with pytest.raises(ValidationError, match="not positive definite"):
        symplectic_spectrum(np.diag([1.0, 1.0, 2.0, -0.5]))


def _mixing_symplectic(rng, n, layers=2, r_local=3.0, r_tms=2.0):
    # per layer: a rotation and a squeeze on every mode, then two-mode
    # squeezes and beam splitters on random disjoint pairs
    scale = 1.0 / math.sqrt(layers)
    seq = []
    for _ in range(layers):
        for m in range(n):
            seq.append(rotation(rng.uniform(-math.pi, math.pi), m, n))
            seq.append(squeeze(scale * rng.uniform(-r_local, r_local), m, n))
        for make, lo in ((two_mode_squeeze, scale * r_tms), (beam_splitter, math.pi)):
            perm = rng.permutation(n)
            for k in range(0, n - 1, 2):
                seq.append(make(rng.uniform(-lo, lo), (int(perm[k]), int(perm[k + 1])), n))
    return compose(seq).S


def test_spectrum_of_strongly_squeezed_states():
    # Regression: pairing the eigenvalues of the non-Hermitian i Omega Gamma
    # rejected valid 4- and 8-mode states of this family with max |Gamma|
    # 2e4-1.3e5 ("complex residue" 7e-9 to 1.2e-7).
    rng = np.random.default_rng(3)
    largest = 0.0
    for n in (2, 3, 4, 8):
        for _ in range(300):
            nus = rng.uniform(1.0, 10.0, n)
            S = _mixing_symplectic(rng, n)
            cov = (S * np.repeat(nus, 2)) @ S.T
            cov = 0.5 * (cov + cov.T)
            largest = max(largest, float(np.max(np.abs(cov))))
            assert validate_state(MomentState(freqs=np.ones(n), x=np.zeros(2 * n), cov=cov)).ok
            assert np.allclose(symplectic_spectrum(cov), np.sort(nus)[::-1], rtol=1e-7, atol=0.0)
    assert largest > 1e5


def test_occupation_entropy_values():
    assert occupation_entropy(0.0) == 0.0
    assert np.isclose(occupation_entropy(1.0), 2.0 * math.log(2.0), atol=1e-14)
    with pytest.raises(ValidationError):
        occupation_entropy(-0.1)


def test_gaussian_entropy_clamps_roundoff():
    assert gaussian_entropy(np.array([1.0 - 1e-12])) == 0.0
    with pytest.raises(ValidationError):
        gaussian_entropy(np.array([0.5]))


def test_thermal_state_covariances():
    st = thermal_state([1.0, 2.0], 0.0)
    assert np.allclose(st.cov, np.eye(4))
    st = thermal_state([1.0], 1.0)
    nu = 1.0 / math.tanh(0.5)
    assert np.isclose(st.cov[0, 0], nu, atol=1e-12)
    assert np.isclose(st.cov[0, 0], 2.163953413738653, atol=1e-12)
    # per-mode temperatures broadcast
    st = thermal_state([1.0, 2.0], [1.0, 3.0])
    assert np.isclose(st.cov[0, 0], 1.0 / math.tanh(0.5), atol=1e-12)
    assert np.isclose(st.cov[2, 2], 1.0 / math.tanh(1.0 / 3.0), atol=1e-12)


def test_entropy_additive_over_modes():
    st = thermal_state([1.0, 2.0], [1.0, 3.0])
    parts = [
        occupation_entropy((st.cov[0, 0] - 1.0) / 2.0),
        occupation_entropy((st.cov[2, 2] - 1.0) / 2.0),
    ]
    assert np.isclose(state_entropy(st), sum(parts), atol=1e-10)
