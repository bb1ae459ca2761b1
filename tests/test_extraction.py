"""Passivity verdicts, standard-form reduction, and the extraction pipeline."""

import math

import numpy as np
import pytest

from gausswork import (
    ConvergenceError,
    MomentState,
    ValidationError,
    all_pairs_gaussian_passive,
    apply,
    bs_angle,
    compose,
    gaussian_ergotropy,
    is_gaussian_passive,
    mean_energy,
    minimal_gaussian_energy,
    nmode_gaussian_ergotropy,
    reduce_to_standard_form,
    thermal_product_passivity,
    tms_parameter,
)
from gausswork.ops import (
    beam_splitter,
    displacement,
    rotation,
    squeeze,
    two_mode_squeeze,
)

SINH1_SQ = math.sinh(1.0) ** 2


def two_mode(cov, freqs=(1.0, 1.0), x=None):
    return MomentState(
        freqs=np.asarray(freqs, dtype=float),
        x=np.zeros(4) if x is None else np.asarray(x, dtype=float),
        cov=np.asarray(cov, dtype=float),
    )


def standard_form_cov(a, b, c1, c2):
    return np.array(
        [
            [a, 0.0, c1, 0.0],
            [0.0, a, 0.0, c2],
            [c1, 0.0, b, 0.0],
            [0.0, c2, 0.0, b],
        ]
    )


def random_active_state(rng, n_modes=2):
    """Thermal spectrum conjugated by random elementary operations."""
    nus = 1.0 + rng.uniform(0.0, 9.0, n_modes)
    cov = np.diag(np.repeat(nus, 2))
    seq = []
    for m in range(n_modes):
        seq.append(rotation(rng.uniform(-np.pi, np.pi), m, n_modes))
        seq.append(squeeze(rng.uniform(-0.9, 0.9), m, n_modes))
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            seq.append(two_mode_squeeze(rng.uniform(-0.7, 0.7), (i, j), n_modes))
            seq.append(beam_splitter(rng.uniform(-np.pi, np.pi), (i, j), n_modes))
    seq.append(displacement(rng.uniform(-3.0, 3.0, 2 * n_modes) / math.sqrt(n_modes)))
    op = compose(seq)
    freqs = rng.uniform(0.5, 2.5, n_modes)
    return (
        MomentState(freqs=freqs, x=op.d, cov=op.S @ cov @ op.S.T),
        np.sort(nus)[::-1],
    )


# ---------------------------------------------------------------------------
# passivity verdicts


def test_passive_thermal_ordered_clause_i():
    st = two_mode(np.diag([3.0, 3.0, 1.5, 1.5]), freqs=(1.0, 2.0))
    verdict = is_gaussian_passive(st)
    assert verdict.passive
    assert verdict.clause == "i"
    assert verdict.violations == ()


def test_misordered_thermal_is_active():
    st = two_mode(np.diag([1.5, 1.5, 3.0, 3.0]), freqs=(1.0, 2.0))
    verdict = is_gaussian_passive(st)
    assert not verdict.passive
    assert "spectrum ordering violates frequency ordering" in verdict.violations
    assert verdict.residuals["ordering"] == pytest.approx(1.5)


def test_equal_freq_williamson_passes_any_ordering():
    st = two_mode(np.diag([1.5, 1.5, 3.0, 3.0]), freqs=(1.0, 1.0))
    assert is_gaussian_passive(st).passive


def test_clause_ii_symmetric_coupling():
    st = two_mode(standard_form_cov(2.0, 2.0, 0.8, 0.8))
    verdict = is_gaussian_passive(st)
    assert verdict.passive
    assert verdict.clause == "ii"


def test_clause_ii_needs_equal_frequencies():
    st = two_mode(standard_form_cov(2.0, 2.0, 0.8, 0.8), freqs=(1.0, 2.0))
    verdict = is_gaussian_passive(st)
    assert not verdict.passive
    assert "covariance not in Williamson form" in verdict.violations


def test_clause_ii_rejects_anisotropic_coupling():
    st = two_mode(standard_form_cov(2.0, 2.0, 0.8, -0.8))
    verdict = is_gaussian_passive(st)
    assert not verdict.passive
    assert "off-diagonal block not proportional to identity" in verdict.violations


def test_first_moments_break_passivity():
    st = two_mode(np.diag([3.0, 3.0, 1.5, 1.5]), freqs=(1.0, 2.0), x=[0.1, 0, 0, 0])
    verdict = is_gaussian_passive(st)
    assert not verdict.passive
    assert "nonzero first moments" in verdict.violations
    assert verdict.residuals["first_moments"] == pytest.approx(0.1)


def test_pairwise_verdict_matches_two_mode_case():
    st = two_mode(np.diag([3.0, 3.0, 1.5, 1.5]), freqs=(1.0, 2.0))
    assert all_pairs_gaussian_passive(st).passive
    st3 = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag([3.0, 3.0, 2.0, 2.0, 1.2, 1.2]),
    )
    assert all_pairs_gaussian_passive(st3).passive
    bad = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag([1.2, 1.2, 2.0, 2.0, 3.0, 3.0]),
    )
    verdict = all_pairs_gaussian_passive(bad)
    assert not verdict.passive
    assert any(v.startswith("modes (0,1)") for v in verdict.violations)


def test_passivity_mode_count_contracts():
    one = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ValidationError):
        is_gaussian_passive(
            MomentState(freqs=[1.0, 1.0, 1.0], x=np.zeros(6), cov=np.eye(6))
        )
    with pytest.raises(ValidationError):
        all_pairs_gaussian_passive(one)


# ---------------------------------------------------------------------------
# pipeline ingredients


def test_tms_parameter_value():
    assert np.isclose(
        tms_parameter(2.0, 2.0, 0.5, -0.1), -0.0755702179682334, atol=1e-15
    )
    assert tms_parameter(2.0, 2.0, 0.3, 0.3) == 0.0


def test_tms_parameter_domain():
    with pytest.raises(ValidationError):
        tms_parameter(1.0, 1.0, 2.5, -0.5)


def test_bs_angle_values():
    assert np.isclose(bs_angle(3.0, 2.0, 0.5), math.pi / 8, atol=1e-15)
    assert np.isclose(bs_angle(3.0, 2.0, 0.5), 0.39269908169872414, atol=1e-16)
    assert bs_angle(2.0, 2.0, 0.5) == math.pi / 4
    assert bs_angle(2.0, 2.0, -0.5) == -math.pi / 4
    assert bs_angle(2.0, 2.0, 0.0) == 0.0
    # smaller first block: branch shifted so the larger eigenvalue leads
    assert np.isclose(bs_angle(2.0, 3.0, 0.5), -math.pi / 8 + math.pi / 2, atol=1e-15)
    # larger eigenvalue on the second mode: the sign flips when degenerate,
    # and the pi/2 branch moves to a_t > b_t
    assert bs_angle(2.0, 2.0, 0.5, first_larger=False) == -math.pi / 4
    assert bs_angle(2.0, 2.0, -0.5, first_larger=False) == math.pi / 4
    assert bs_angle(2.0, 2.0, 0.0, first_larger=False) == 0.0
    assert np.isclose(bs_angle(3.0, 2.0, 0.5, first_larger=False), math.pi / 8 + math.pi / 2, atol=1e-15)
    assert np.isclose(bs_angle(2.0, 3.0, 0.5, first_larger=False), -math.pi / 8, atol=1e-15)


def test_bs_angle_diagonalizes_symmetric_coupling():
    rng = np.random.default_rng(99)
    for _ in range(30):
        a = 1.0 + rng.uniform(0.0, 4.0)
        b = 1.0 + rng.uniform(0.0, 4.0)
        cmax = math.sqrt(max((a - 1.0) * (b - 1.0), 0.0))
        c = rng.uniform(-0.9, 0.9) * cmax
        st = two_mode(standard_form_cov(a, b, c, c))
        out = apply(beam_splitter(bs_angle(a, b, c)), st)
        off = out.cov - np.diag(np.diag(out.cov))
        assert np.max(np.abs(off)) < 1e-10
        assert out.cov[0, 0] >= out.cov[2, 2] - 1e-10


def test_minimal_gaussian_energy():
    assert minimal_gaussian_energy([3.0, 1.5], [1.0, 2.0]) == pytest.approx(1.5)
    assert minimal_gaussian_energy([1.5, 3.0], [2.0, 1.0]) == pytest.approx(1.5)
    assert minimal_gaussian_energy([1.0], [5.0]) == 0.0
    with pytest.raises(ValidationError):
        minimal_gaussian_energy([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        minimal_gaussian_energy([1.0], [-1.0])


def test_reduce_to_standard_form_properties():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        st, _ = random_active_state(rng)
        st = MomentState(freqs=st.freqs, x=np.zeros(4), cov=st.cov)
        reduced, steps, params = reduce_to_standard_form(st)
        cov = reduced.cov
        assert np.isclose(cov[0, 0], cov[1, 1], atol=1e-9)
        assert np.isclose(cov[2, 2], cov[3, 3], atol=1e-9)
        assert abs(cov[0, 1]) < 1e-9 and abs(cov[2, 3]) < 1e-9
        assert abs(cov[0, 3]) < 1e-9 and abs(cov[1, 2]) < 1e-9
        assert params.a == pytest.approx(cov[0, 0], abs=1e-12)
        assert params.b == pytest.approx(cov[2, 2], abs=1e-12)
        assert params.c1 == pytest.approx(cov[0, 2], abs=1e-12)
        assert params.c2 == pytest.approx(cov[1, 3], abs=1e-12)
        # Local symplectics have unit determinant, so the block determinants
        # of the original covariance are preserved by the reduction.
        det_a = np.linalg.det(st.cov[:2, :2])
        det_b = np.linalg.det(st.cov[2:, 2:])
        det_c = np.linalg.det(st.cov[:2, 2:])
        assert params.a == pytest.approx(math.sqrt(det_a), rel=1e-9)
        assert params.b == pytest.approx(math.sqrt(det_b), rel=1e-9)
        assert params.c1 * params.c2 == pytest.approx(det_c, rel=1e-8, abs=1e-9)
        assert all(step.stage == "P2-local" for step in steps)


def test_reduce_to_standard_form_rejects_displaced_states():
    st = two_mode(np.eye(4), x=[1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        reduce_to_standard_form(st)


# ---------------------------------------------------------------------------
# extraction


def test_squeezed_vacuum_work():
    st = two_mode(
        np.diag([math.exp(-2.0), math.exp(2.0), 1.0, 1.0]), freqs=(1.0, 1.0)
    )
    report = gaussian_ergotropy(st)
    assert np.isclose(report.extracted_work, SINH1_SQ, atol=1e-12)
    assert np.isclose(report.extracted_work, 1.3810978455418157, atol=1e-12)
    assert np.isclose(report.final_energy, 0.0, atol=1e-12)
    assert report.certificate.passive
    assert np.allclose(report.spectrum, [1.0, 1.0], atol=1e-10)
    assert abs(report.optimality_gap) < 1e-12


def test_misordered_thermal_work_is_single_swap():
    st = two_mode(np.diag([1.5, 1.5, 3.0, 3.0]), freqs=(1.0, 2.0))
    report = gaussian_ergotropy(st)
    assert np.isclose(report.extracted_work, 0.75, atol=1e-12)
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.stage == "P4-beamsplit"
    assert step.op.kind == "beam_splitter"
    assert np.isclose(step.op.params["theta"], math.pi / 2, atol=1e-12)
    assert np.allclose(report.final_state.cov, np.diag([3.0, 3.0, 1.5, 1.5]), atol=1e-12)


def test_passive_state_yields_empty_protocol():
    st = two_mode(np.diag([3.0, 3.0, 1.5, 1.5]), freqs=(1.0, 2.0))
    report = gaussian_ergotropy(st)
    assert report.extracted_work == 0.0
    assert report.steps == ()
    assert report.final_state is st
    assert report.certificate.passive


def test_extraction_requires_two_modes_and_valid_state():
    with pytest.raises(ValidationError):
        gaussian_ergotropy(
            MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(2))
        )
    with pytest.raises(ValidationError):
        gaussian_ergotropy(two_mode(0.5 * np.eye(4)))


def test_convergence_error_carries_partial_protocol():
    rng = np.random.default_rng(31)
    st, _ = random_active_state(rng)
    with pytest.raises(ConvergenceError) as excinfo:
        gaussian_ergotropy(st, max_iters=1)
    assert len(excinfo.value.steps) > 0
    assert all(step.stage in ("P1-displace", "P2-local", "P3-tms") for step in excinfo.value.steps)


def test_extraction_property_loop():
    rng = np.random.default_rng(424242)
    for _ in range(60):
        st, nus = random_active_state(rng)
        report = gaussian_ergotropy(st)
        floor = minimal_gaussian_energy(nus, st.freqs)
        scale = max(1.0, abs(floor))
        assert abs(report.final_energy - floor) <= 1e-8 * scale
        assert report.certificate.passive
        assert abs(report.optimality_gap) <= 1e-8 * scale
        # monotone energy trace, displacement first
        energies = [report.initial_energy] + [s.energy_after for s in report.steps]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))
        stages = [s.stage for s in report.steps]
        assert stages == sorted(stages, key=lambda s: s[1])  # P1 < P2 < P3 < P4
        assert np.isclose(
            report.extracted_work,
            report.initial_energy - report.final_energy,
            atol=1e-12,
        )


def test_three_mode_sweeps_reach_floor():
    st = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag(np.repeat([1.2, 2.0, 3.0], 2)),
    )
    report = nmode_gaussian_ergotropy(st)
    assert np.isclose(report.initial_energy, 4.1, atol=1e-12)
    assert np.isclose(report.final_energy, 2.3, atol=1e-8)
    assert np.isclose(report.extracted_work, 1.8, atol=1e-8)
    assert report.certificate.passive
    assert report.sweeps is not None and report.sweeps <= 5


def test_nmode_property_loop():
    rng = np.random.default_rng(777)
    for _ in range(8):
        st, nus = random_active_state(rng, n_modes=3)
        report = nmode_gaussian_ergotropy(st)
        floor = minimal_gaussian_energy(nus, st.freqs)
        assert abs(report.final_energy - floor) <= 1e-7 * max(1.0, abs(floor))
        assert report.certificate.passive
        energies = [report.initial_energy] + [s.energy_after for s in report.steps]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))


def test_nmode_requires_two_modes():
    with pytest.raises(ValidationError):
        nmode_gaussian_ergotropy(
            MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(2))
        )


def test_nmode_two_mode_agrees_with_pipeline():
    rng = np.random.default_rng(13)
    st, _ = random_active_state(rng)
    direct = gaussian_ergotropy(st)
    swept = nmode_gaussian_ergotropy(st)
    assert np.isclose(direct.final_energy, swept.final_energy, atol=1e-10)


# ---------------------------------------------------------------------------
# thermal product shortcut


def test_thermal_product_passivity_against_verdict():
    # coth(freq / 2T) covariances assembled by hand must agree with the verdict
    for ta in (0.25, 1.0, 2.0, 4.0):
        for tb in (0.25, 1.0, 2.0, 4.0):
            nu_a = 1.0 / math.tanh(1.0 / (2.0 * ta))
            nu_b = 1.0 / math.tanh(2.0 / (2.0 * tb))
            st = two_mode(
                np.diag([nu_a, nu_a, nu_b, nu_b]), freqs=(1.0, 2.0)
            )
            assert thermal_product_passivity(1.0, 2.0, ta, tb) == bool(
                is_gaussian_passive(st).passive
            )


def test_thermal_product_boundary_is_passive():
    # temp_b = 2 temp_a makes both coth arguments equal: a tie counts as passive
    assert thermal_product_passivity(1.0, 2.0, 1.0, 2.0)
    assert thermal_product_passivity(1.0, 2.0, 3.0, 6.0)
    # just past the boundary the hotter high-frequency mode breaks passivity
    assert not thermal_product_passivity(1.0, 2.0, 1.0, 2.2)


def test_thermal_product_zero_temperature():
    assert thermal_product_passivity(1.0, 2.0, 0.0, 0.0)
    assert thermal_product_passivity(1.0, 2.0, 1.0, 0.0)
    assert not thermal_product_passivity(1.0, 2.0, 0.0, 1.0)


def test_thermal_product_argument_contracts():
    with pytest.raises(ValidationError):
        thermal_product_passivity(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        thermal_product_passivity(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        thermal_product_passivity(1.0, 2.0, -0.5, 1.0)
