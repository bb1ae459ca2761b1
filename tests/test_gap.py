"""Gap constructions: pure moment matches, fixed-entropy states, swap witnesses."""

import math
import warnings

import numpy as np
import pytest

from gausswork import (
    MomentState,
    TruncationError,
    ValidationError,
    energy_of,
    entropy_of,
    ergotropy_gap,
    fixed_entropy_state,
    match_pure_state,
    mean_energy,
    mixture,
    moments_of,
    occupation_entropy,
    pure_match_for_state,
    pure_match_vector,
    state_entropy,
    thermal_beta_for_entropy,
    thermal_fock_state,
    thermal_state,
    thermal_swap_witness,
)
from gausswork.fock import _population_diagonal
from gausswork.gap import _min_energy_at_entropy, _suggest_cutoff
from gausswork.ops import apply, beam_splitter, displacement, rotation, squeeze

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# pure moment matches


def test_match_parameters():
    m = match_pure_state(1.0)
    assert (m.level, m.weight) == (0, 1.0)
    m = match_pure_state(7.0)
    assert (m.level, m.weight) == (3, 1.0)
    m = match_pure_state(4.0)
    assert m.level == 1
    assert np.isclose(m.weight, 5.0 / 6.0, atol=1e-15)
    with pytest.raises(ValidationError):
        match_pure_state(0.5)


def test_match_vector_needs_room_for_the_offset():
    m = match_pure_state(7.0)
    v = pure_match_vector(m, 10)
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-15)
    assert v[3] == 1.0
    with pytest.raises(ValidationError):
        pure_match_vector(m, 6)


def test_pure_match_moments_and_entropy():
    for nu in (1.0, 2.2, 4.0, 7.0):
        rho = pure_match_for_state(MomentState(freqs=[1.0], x=np.zeros(2), cov=nu * np.eye(2)), 30)
        x, cov = moments_of(rho)
        assert np.max(np.abs(x)) < 1e-12
        assert np.max(np.abs(cov - nu * np.eye(2))) < 1e-9
        assert entropy_of(rho) < 1e-10


def test_pure_match_two_mode_moments():
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([3.0, 3.0, 1.5, 1.5]))
    rho = pure_match_for_state(st, 20)
    x, cov = moments_of(rho)
    assert np.max(np.abs(x)) < 1e-12
    assert np.max(np.abs(cov - np.diag([3.0, 3.0, 1.5, 1.5]))) < 1e-9
    assert entropy_of(rho) < 1e-10
    assert np.isclose(energy_of(rho), 1.0 + 0.5, atol=1e-9)


def test_pure_match_for_correlated_passive_state():
    cov = np.array(
        [
            [2.0, 0.0, 0.8, 0.0],
            [0.0, 2.0, 0.0, 0.8],
            [0.8, 0.0, 2.0, 0.0],
            [0.0, 0.8, 0.0, 2.0],
        ]
    )
    st = MomentState(freqs=[1.0, 1.0], x=np.zeros(4), cov=cov)
    rho = pure_match_for_state(st, 40)
    x, got = moments_of(rho)
    assert np.max(np.abs(x)) < 1e-9
    assert np.max(np.abs(got - cov)) < 1e-9
    assert entropy_of(rho) < 1e-9
    assert np.isclose(energy_of(rho), mean_energy(st), atol=1e-9)


def test_pure_match_for_product_passive_state():
    st = MomentState(
        freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([3.0, 3.0, 1.5, 1.5])
    )
    rho = pure_match_for_state(st, 30)
    _, got = moments_of(rho)
    assert np.max(np.abs(got - st.cov)) < 1e-9


def test_pure_match_for_rotated_coupling():
    # cross block c*1 + d*Omega: a rotation of mode 1 must precede the splitter
    st = MomentState(freqs=[1.0, 1.0], x=np.zeros(4), cov=np.diag([3.0, 3.0, 1.5, 1.5]))
    st = apply(rotation(0.9, 1, 2), apply(beam_splitter(0.4), st))
    rho = pure_match_for_state(st, 40)
    x, got = moments_of(rho)
    assert np.max(np.abs(x)) < 1e-9
    assert np.max(np.abs(got - st.cov)) < 1e-9
    assert entropy_of(rho) < 1e-9


def test_pure_match_rejects_active_states():
    st = MomentState(
        freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([1.5, 1.5, 3.0, 3.0])
    )
    with pytest.raises(ValidationError):
        pure_match_for_state(st, 30)


# ---------------------------------------------------------------------------
# entropy inversion and fixed-entropy construction


def test_thermal_beta_values():
    assert np.isclose(thermal_beta_for_entropy(2.0 * LN2), LN2, atol=1e-12)
    assert thermal_beta_for_entropy(0.0) == math.inf
    with pytest.raises(ValidationError):
        thermal_beta_for_entropy(-0.1)
    with pytest.raises(ValidationError):
        thermal_beta_for_entropy(1.0, freq=0.0)


def test_thermal_beta_at_high_entropy():
    # the occupation is about 1.9e21, where the direct entropy formula reads 0
    beta = thermal_beta_for_entropy(50.0)
    assert 0.0 < beta < 1e-20
    assert occupation_entropy(1.0 / math.expm1(beta)) == pytest.approx(50.0, rel=1e-12)


def test_thermal_beta_round_trip():
    rng = np.random.default_rng(808)
    for _ in range(25):
        beta = rng.uniform(0.05, 5.0)
        freq = rng.uniform(0.5, 3.0)
        entropy = occupation_entropy(1.0 / math.expm1(beta * freq))
        got = thermal_beta_for_entropy(entropy, freq)
        assert abs(got - beta) < 1e-10 * beta


def test_thermal_beta_at_tiny_entropy():
    # occupations near 1e-303 and 1e-16, below the old bracket and where
    # the old (m+1) ln(m+1) rounded m + 1
    for entropy in (1e-300, occupation_entropy(1e-16)):
        beta = thermal_beta_for_entropy(entropy)
        assert occupation_entropy(1.0 / math.expm1(beta)) == pytest.approx(entropy, rel=1e-12, abs=0.0)
    assert thermal_beta_for_entropy(occupation_entropy(1e-16)) == pytest.approx(
        math.log1p(1e16), rel=1e-12, abs=0.0
    )
    construction = fixed_entropy_state(3.0, 1e-300)
    assert entropy_of(construction.state) < 1e-12
    with pytest.raises(ValidationError):
        thermal_beta_for_entropy(1e-322)  # below the entropy of the least positive occupation


def test_thermal_beta_at_huge_entropy():
    # occupations near 1e30 and 1e303, above the old upper bracket
    for entropy in (70.0, 700.0):
        beta = thermal_beta_for_entropy(entropy)
        assert 0.0 < beta < 1e-29
        assert occupation_entropy(1.0 / math.expm1(beta)) == pytest.approx(entropy, rel=1e-12, abs=0.0)
    # the thermal occupation of entropy 70 (about 1e30) is far above (3 - 1) / 2
    with pytest.raises(ValidationError, match="forces occupation above the target covariance"):
        fixed_entropy_state(3.0, 70.0)
    with pytest.raises(ValidationError, match="out of solvable range"):
        thermal_beta_for_entropy(711.0)  # above the entropy of the largest float occupation


def test_both_entropy_inversions_answer_the_same_range():
    # one inversion behind both: _min_energy_at_entropy used to refuse from
    # S = 645.7 up and to answer 5e-324 at S = 1e-322
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for entropy in (3.68e-321, 1e-300, 1.0, 645.8, 700.0, 710.78):
            beta = thermal_beta_for_entropy(entropy)
            occupation = _min_energy_at_entropy(np.array([1.0]), entropy)
            assert 0.0 < beta < math.inf and 0.0 < occupation < math.inf
            if entropy >= 1e-300:
                assert occupation_entropy(occupation) == pytest.approx(entropy, rel=1e-12, abs=0.0)
        for entropy in (1e-322, 3.6e-321, 711.0):
            with pytest.raises(ValidationError, match="out of solvable range"):
                thermal_beta_for_entropy(entropy)
            with pytest.raises(ValidationError, match="out of solvable range"):
                _min_energy_at_entropy(np.array([1.0]), entropy)


def test_fixed_entropy_state_at_a_subnormal_entropy():
    # beta * freq is about 720 here, where 1 / expm1 used to overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = fixed_entropy_state(3.0, 1e-310)
    assert c.level == 3 and c.nu_thermal == 1.0
    x, cov = moments_of(c.state)
    assert np.max(np.abs(x)) < 1e-12
    assert np.max(np.abs(cov - 3.0 * np.eye(2))) < 1e-9
    assert entropy_of(c.state) < 1e-12


def test_min_energy_at_entropy_round_trip():
    # The least energy at the entropy of a common-temperature thermal product
    # is that product's own energy.
    rng = np.random.default_rng(809)
    for _ in range(60):
        freqs = rng.uniform(0.3, 4.0, rng.integers(1, 6))
        beta = rng.uniform(0.05, 5.0)
        entropy = sum(occupation_entropy(1.0 / math.expm1(beta * w)) for w in freqs)
        energy = sum(w / math.expm1(beta * w) for w in freqs)
        got = _min_energy_at_entropy(freqs, entropy)
        assert abs(got - energy) <= 1e-10 * energy


def test_fixed_entropy_construction_values():
    c = fixed_entropy_state(5.0, 2.0 * LN2)
    assert c.level == 3
    assert np.isclose(c.mixing, 16.0 / 21.0, atol=1e-12)
    assert np.isclose(c.mixing, 0.7619047619047619, atol=1e-12)
    assert np.isclose(c.beta, LN2, atol=1e-12)
    assert np.isclose(c.nu_thermal, 3.0, atol=1e-12)
    x, cov = moments_of(c.state)
    assert np.max(np.abs(x)) < 1e-12
    assert np.max(np.abs(cov - 5.0 * np.eye(2))) < 1e-9
    assert abs(entropy_of(c.state) - 2.0 * LN2) < 1e-10
    assert np.isclose(energy_of(c.state), 2.0, atol=1e-9)


def test_fixed_entropy_state_is_the_rotated_thermal_components():
    c = fixed_entropy_state(5.0, 2.0 * LN2, cutoff=60)
    vectors = c.state.vectors
    assert vectors.shape == (60, 60)
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(60))) <= 1e-15
    pops = math.exp(-c.beta) ** np.arange(60)
    assert np.allclose(c.state.weights, pops / pops.sum(), rtol=1e-12, atol=0.0)


def test_fixed_entropy_zero_excess_keeps_the_thermal_state():
    c = fixed_entropy_state(3.0, 2.0 * LN2)
    assert c.mixing == 0.0
    pops = _population_diagonal(c.state)
    expected = 0.5 * 0.5 ** np.arange(60)
    assert np.allclose(pops, expected / expected.sum(), atol=1e-12)


def test_fixed_entropy_rejects_unreachable_targets():
    with pytest.raises(ValidationError):
        fixed_entropy_state(2.9, 2.0 * LN2)


def test_fixed_entropy_cutoff_error_carries_suggestion():
    with pytest.raises(TruncationError, match="cutoff >= 20"):
        fixed_entropy_state(12.0, 2.0 * LN2, cutoff=12)
    retry = fixed_entropy_state(12.0, 2.0 * LN2, cutoff=20)
    assert retry.level == 10
    assert 0.0 < retry.mixing <= 1.0


def test_fixed_entropy_zero_entropy_is_a_pure_match():
    c = fixed_entropy_state(4.0, 0.0, cutoff=30)
    assert math.isinf(c.beta)
    x, cov = moments_of(c.state)
    assert np.max(np.abs(cov - 4.0 * np.eye(2))) < 1e-9
    assert entropy_of(c.state) < 1e-10


def test_fixed_entropy_preserves_entropy_across_targets():
    entropy = 1.1
    for nu in (2.5, 4.0, 6.0):
        c = fixed_entropy_state(nu, entropy)
        assert abs(entropy_of(c.state) - entropy) < 1e-10
        _, cov = moments_of(c.state)
        assert np.max(np.abs(cov - nu * np.eye(2))) < 1e-9


def _scanned_cutoff(beta, freq, excess):
    """The least even cutoff by scanning levels 3 ... 99999 in turn, or None without one."""
    q = math.exp(-beta * freq)
    p0 = -math.expm1(-beta * freq)
    for n in range(3, 100000):
        if n * (p0 - p0 * q**n) >= excess:
            return 2 * n
    return None


def test_suggested_cutoff_matches_a_linear_scan():
    rng = np.random.default_rng(2718)
    cases = [(10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.5, 2.5), 10.0 ** rng.uniform(-6.0, 2.0)) for _ in range(150)]
    # excesses met exactly at a level, and one no level below 100000 meets
    for beta, n in ((0.3, 7), (0.01, 2500), (2.0, 3)):
        q, p0 = math.exp(-beta), -math.expm1(-beta)
        cases.append((beta, 1.0, n * (p0 - p0 * q**n)))
    cases.append((1e-3, 1.0, 150.0))
    failing = 0
    for beta, freq, excess in cases:
        expected = _scanned_cutoff(beta, freq, excess)
        if expected is None:
            failing += 1
            with pytest.raises(ValidationError, match="no admissible rotation level exists"):
                _suggest_cutoff(beta, freq, excess)
        else:
            assert _suggest_cutoff(beta, freq, excess) == expected
    assert 1 <= failing < len(cases) // 2


@pytest.mark.parametrize("entropy", [30.0, 40.0, 50.0])
def test_fixed_entropy_at_high_entropy_has_no_level_and_no_zero_division(entropy):
    # above an entropy of about 38, 1 - exp(-beta) rounds to 0 and the
    # thermal populations were 0 / 0; expm1 keeps them finite
    beta = thermal_beta_for_entropy(entropy)
    nu_thermal = 2.0 / math.expm1(beta) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="no admissible rotation level exists"):
            fixed_entropy_state(2.0 * nu_thermal, entropy)


# ---------------------------------------------------------------------------
# ergotropy gap


def test_gap_for_pure_state_is_total_energy():
    st = MomentState(
        freqs=[1.0, 1.0],
        x=np.zeros(4),
        cov=np.diag([math.exp(-2.0), math.exp(2.0), 1.0, 1.0]),
    )
    report = ergotropy_gap(st)
    assert report.entropy == 0.0
    assert np.isclose(report.total_extractable, report.initial_energy, atol=1e-12)
    assert np.isclose(report.gaussian_extractable, report.initial_energy, atol=1e-9)
    assert abs(report.gap) < 1e-9


def test_gap_vanishes_for_common_temperature_thermal():
    st = thermal_state([1.0, 2.0], 2.0)
    report = ergotropy_gap(st)
    assert report.gaussian_extractable == 0.0
    assert abs(report.total_extractable) < 1e-9
    assert abs(report.gap) < 1e-9


def test_gap_for_isotropic_covariance():
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=3.0 * np.eye(4))
    report = ergotropy_gap(st)
    assert np.isclose(report.initial_energy, 3.0, atol=1e-12)
    assert np.isclose(report.entropy, 4.0 * LN2, atol=1e-12)
    assert report.gaussian_extractable == 0.0
    assert np.isclose(report.gap, 0.23724957791753187, atol=1e-9)
    assert np.isclose(report.gap, report.total_extractable, atol=1e-15)


def test_gap_at_a_tiny_prescribed_entropy():
    # The entropy floor's bracket must stay where expm1(beta * w) is finite.
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=3.0 * np.eye(4))
    report = ergotropy_gap(st, entropy=1e-100)
    assert report.entropy == 1e-100
    assert report.total_extractable == report.initial_energy


def test_gap_single_mode_path():
    st = MomentState(freqs=[2.0], x=[0.0, 0.0], cov=np.diag([0.25, 4.0]))
    report = ergotropy_gap(st)
    # nu = 1: pure squeezed mode, everything is Gaussian-extractable
    assert np.isclose(report.gaussian_extractable, report.initial_energy, atol=1e-9)
    assert abs(report.gap) < 1e-9


def test_gap_three_mode_path():
    st = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag(np.repeat([1.2, 2.0, 3.0], 2)),
    )
    report = ergotropy_gap(st)
    assert np.isclose(report.gaussian_extractable, 1.8, atol=1e-8)
    assert report.gap >= -1e-9


def test_gap_rejects_unattainable_entropy():
    st = MomentState(freqs=[1.0, 1.0], x=np.zeros(4), cov=np.eye(4))
    with pytest.raises(ValidationError):
        ergotropy_gap(st, entropy=50.0)
    with pytest.raises(ValidationError):
        ergotropy_gap(st, entropy=-1.0)


def test_gap_nonnegative_on_consistent_inputs():
    rng = np.random.default_rng(606)
    from gausswork.ops import compose, rotation, squeeze, two_mode_squeeze

    for _ in range(10):
        nus = 1.0 + rng.uniform(0.0, 4.0, 2)
        op = compose(
            [
                squeeze(rng.uniform(-0.6, 0.6), 0, 2),
                rotation(rng.uniform(-np.pi, np.pi), 1, 2),
                two_mode_squeeze(rng.uniform(-0.5, 0.5)),
            ]
        )
        st = MomentState(
            freqs=rng.uniform(0.5, 2.5, 2),
            x=np.zeros(4),
            cov=op.S @ np.diag(np.repeat(nus, 2)) @ op.S.T,
        )
        report = ergotropy_gap(st)
        assert report.gap >= -1e-9
        assert report.total_extractable >= report.gaussian_extractable - 1e-9


def test_gap_is_never_negative_when_both_figures_coincide():
    # Gaussian and entropy-limited figures agree here up to rounding (-2.8e-17 before)
    states = [
        MomentState(freqs=[1.5], x=[0.4, -0.3], cov=[[1.3, 0.2], [0.2, 0.9]])
    ]
    rng = np.random.default_rng(2402)
    for _ in range(100):
        st = MomentState(
            freqs=[rng.uniform(0.5, 2.5)], x=np.zeros(2), cov=rng.uniform(1.0, 6.0) * np.eye(2)
        )
        st = apply(rotation(rng.uniform(-np.pi, np.pi), 0, 1), apply(squeeze(rng.uniform(-3.0, 3.0), 0, 1), st))
        states.append(apply(displacement(rng.normal(size=2) * rng.uniform(0.0, 2.0)), st))
    for st in states:
        report = ergotropy_gap(st)
        assert type(report.total_extractable) is float
        assert type(report.gaussian_extractable) is float
        assert report.gap >= 0.0


def test_free_energy_gap():
    ref = thermal_state([1.0, 2.0], 1.5)
    report = ergotropy_gap(ref, t_ref=1.5)
    assert report.free_energy_gap == pytest.approx(0.0, abs=1e-9)
    other = thermal_state([1.0, 2.0], 3.0)
    report = ergotropy_gap(other, t_ref=1.5)
    assert report.free_energy_gap > 0.0
    # no reference temperature, no free-energy figure
    assert ergotropy_gap(other).free_energy_gap is None
    with pytest.raises(ValidationError):
        ergotropy_gap(other, t_ref=-1.0)


def test_gap_uses_prescribed_entropy():
    st = thermal_state([1.0, 1.0], 2.0)
    own = ergotropy_gap(st)
    pinned = ergotropy_gap(st, entropy=state_entropy(st))
    assert np.isclose(own.total_extractable, pinned.total_extractable, atol=1e-12)
    smaller = ergotropy_gap(st, entropy=0.5 * state_entropy(st))
    assert smaller.total_extractable > own.total_extractable


# ---------------------------------------------------------------------------
# thermal swap witness


def test_witness_frozen_values():
    w = thermal_swap_witness(1.0, 2.0)
    assert w.x == 4
    assert w.from_levels == (2, 2)
    assert w.to_levels == (0, 5)
    assert np.isclose(w.energy_drop, 0.008033143127396966, atol=1e-15)

    w = thermal_swap_witness(1.0, 3.0)
    assert w.x == 2
    assert w.from_levels == (1, 1)
    assert w.to_levels == (0, 3)
    assert np.isclose(w.energy_drop, 0.018685969046946513, atol=1e-15)


def test_witness_mirrors_hotter_first_mode():
    w = thermal_swap_witness(2.0, 1.0)
    assert w.x == 4
    assert w.to_levels == (5, 0)
    assert np.isclose(w.energy_drop, 0.008033143127396966, atol=1e-15)


def test_witness_zero_temperature_side():
    w = thermal_swap_witness(0.0, 2.0)
    assert w.x == 2
    assert w.from_levels == (1, 1)
    assert w.to_levels == (0, 3)
    assert w.energy_drop > 0


def test_witness_equal_temperatures_and_contracts():
    assert thermal_swap_witness(1.5, 1.5) is None
    assert thermal_swap_witness(0.0, 0.0) is None
    with pytest.raises(ValidationError):
        thermal_swap_witness(-1.0, 1.0)


def test_witness_drop_matches_oracle_swap():
    temp_a, temp_b = 1.0, 3.0
    w = thermal_swap_witness(temp_a, temp_b)
    dim = 80
    occs = [1.0 / math.expm1(1.0 / t) for t in (temp_a, temp_b)]
    rho = thermal_fock_state(occs, [1.0, 1.0], dim)
    diag = _population_diagonal(rho).copy()
    i_from = w.from_levels[0] * dim + w.from_levels[1]
    i_to = w.to_levels[0] * dim + w.to_levels[1]
    diag[i_from], diag[i_to] = diag[i_to], diag[i_from]
    keep = np.flatnonzero(diag > 0)
    vectors = np.zeros((keep.size, dim * dim))
    vectors[np.arange(keep.size), keep] = 1.0
    swapped = mixture(diag[keep], vectors, [1.0, 1.0], dim)
    drop = energy_of(rho) - energy_of(swapped)
    assert drop > 0
    assert np.isclose(drop, w.energy_drop, atol=1e-9)
