"""Passivity verdicts, standard-form reduction, and the extraction pipeline."""

import decimal
import itertools
import json
import logging
import math
import pathlib
import warnings

import numpy as np
import pytest

from gausswork import (
    ConvergenceError,
    MomentState,
    OptimalityWarning,
    ValidationError,
    apply,
    bs_angle,
    compose,
    gaussian_ergotropy,
    is_gaussian_passive,
    mean_energy,
    minimal_gaussian_energy,
    reduce_to_standard_form,
    symplectic_spectrum,
    thermal_product_passivity,
    tms_parameter,
)
from gausswork import extraction
from gausswork.core import DEFAULT_TOL
from gausswork.extraction import StandardFormParams, _isotropy_squeeze
from gausswork.fileio import state_from_dict
from gausswork.ops import (
    beam_splitter,
    displacement,
    rotation,
    squeeze,
    two_mode_squeeze,
)

SINH1_SQ = math.sinh(1.0) ** 2
DATA = pathlib.Path(__file__).parent / "data"


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
    assert is_gaussian_passive(st).passive
    st3 = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag([3.0, 3.0, 2.0, 2.0, 1.2, 1.2]),
    )
    assert is_gaussian_passive(st3).passive
    bad = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag([1.2, 1.2, 2.0, 2.0, 3.0, 3.0]),
    )
    verdict = is_gaussian_passive(bad)
    assert not verdict.passive
    assert any(v.startswith("modes (0,1)") for v in verdict.violations)


def test_passivity_mode_count_contracts():
    # one verdict for every mode count; the former n-mode name is the same function
    for n in (1, 2, 3):
        st = MomentState(freqs=[1.0] * n, x=np.zeros(2 * n), cov=np.eye(2 * n))
        verdict = is_gaussian_passive(st)
        assert verdict.passive and verdict.clause == "i"
        assert extraction.all_pairs_gaussian_passive(st) == verdict
    one = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.diag([0.5, 2.0]))
    assert not is_gaussian_passive(one).passive
    assert extraction.all_pairs_gaussian_passive(one) == is_gaussian_passive(one)


def test_rotated_equal_frequency_coupling_is_passive():
    # the cross block is c*1 + d*Omega with d != 0; the energy is the floor
    st = two_mode(np.diag([3.0, 3.0, 1.5, 1.5]))
    st = apply(rotation(0.9, 1, 2), apply(beam_splitter(0.4), st))
    assert mean_energy(st) == pytest.approx(1.25, abs=1e-12)
    verdict = is_gaussian_passive(st)
    assert verdict.passive
    assert verdict.clause == "ii"
    for extract in (gaussian_ergotropy, extraction.nmode_gaussian_ergotropy):
        report = extract(st)
        assert report.steps == ()
        assert report.extracted_work == 0.0


def test_coupled_group_below_a_higher_frequency_mode_is_active():
    # every pair is passive on its own, but the coupled pair's eigenvalue 2
    # lies below the 2.5 of the higher-frequency mode
    eye, zero = np.eye(2), np.zeros((2, 2))
    cov = np.block([[3 * eye, eye, zero], [eye, 3 * eye, zero], [zero, zero, 2.5 * eye]])
    st = MomentState(freqs=[1.0, 1.0, 2.0], x=np.zeros(6), cov=cov)
    assert np.allclose(symplectic_spectrum(cov), [4.0, 2.5, 2.0], atol=1e-12)
    verdict = is_gaussian_passive(st)
    assert not verdict.passive
    assert "spectrum ordering violates frequency ordering" in verdict.violations
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimalityWarning)
        report = gaussian_ergotropy(st)
    assert report.initial_energy == pytest.approx(3.5, abs=1e-12)
    assert abs(report.final_energy - 3.25) <= 1e-8 * 3.25
    assert report.certificate.passive


def _corpus_state(rng, n_modes, defect):
    """A state built from a passive one, with one defect or none.

    Modes fall into equal-frequency groups of one to three modes, in shuffled
    order.  The passive state is the Williamson diagonal with eigenvalues
    descending against ascending frequency, mixed by random beam splitters
    and rotations inside each group.
    """
    while True:
        sizes = []
        while sum(sizes) < n_modes:
            sizes.append(int(rng.integers(1, min(3, n_modes - sum(sizes)) + 1)))
        if len(sizes) > 1 or defect not in ("misorder", "coupling"):
            break
    group_freqs = np.cumsum(rng.uniform(0.3, 0.8, len(sizes)))
    order = rng.permutation(n_modes)
    groups = np.split(order, np.cumsum(sizes)[:-1])
    freqs = np.empty(n_modes)
    for g, w in zip(groups, group_freqs):
        freqs[g] = w
    nus = 1.0 + np.cumsum(rng.uniform(0.3, 1.5, n_modes))[::-1]
    nu_of = np.empty(n_modes)
    nu_of[order] = nus
    if defect == "misorder":
        a, b = rng.choice(len(groups), 2, replace=False)
        i, j = rng.choice(groups[a]), rng.choice(groups[b])
        nu_of[[i, j]] = nu_of[[j, i]]
    st = MomentState(freqs=freqs, x=np.zeros(2 * n_modes), cov=np.diag(np.repeat(nu_of, 2)))
    for g in groups:
        for _ in range(2 * len(g) - 1):
            if len(g) > 1:
                i, j = rng.choice(g, 2, replace=False)
                st = apply(beam_splitter(rng.uniform(-np.pi, np.pi), (i, j), n_modes), st)
            st = apply(rotation(rng.uniform(-np.pi, np.pi), rng.choice(g), n_modes), st)
    if defect == "coupling":
        a, b = rng.choice(len(groups), 2, replace=False)
        pair = (rng.choice(groups[a]), rng.choice(groups[b]))
        st = apply(beam_splitter(rng.uniform(0.3, 1.2), pair, n_modes), st)
    if defect == "displacement":
        d = rng.normal(size=2 * n_modes)
        st = apply(displacement(0.5 * d / np.linalg.norm(d)), st)
    return st


def test_verdict_matches_the_spectral_floor_on_grouped_corpus():
    # passive exactly when x = 0 and the energy is at the spectral floor
    rng = np.random.default_rng(20261018)
    passive_seen = active_seen = 0
    for n_modes in range(2, 7):
        for trial in range(24):
            defect = (None, "misorder", "coupling", "displacement")[trial % 4]
            st = _corpus_state(rng, n_modes, defect)
            floor = minimal_gaussian_energy(symplectic_spectrum(st.cov), st.freqs)
            at_floor = mean_energy(st) - floor <= 1e-9 * max(1.0, floor)
            truth = not np.any(st.x) and at_floor
            verdict = is_gaussian_passive(st)
            assert verdict.passive == truth, (n_modes, defect, verdict)
            passive_seen += truth
            active_seen += not truth
    assert passive_seen >= 25 and active_seen >= 60


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


def test_isotropy_squeeze_is_one_monotone_step():
    # from standard form, one squeeze at the root plus the local squeezes of
    # the next reduction leave the coupling isotropic, and the squeeze lies
    # between 0 and 2 r*, where it cannot raise the pair's energy
    rng = np.random.default_rng(4096)
    for _ in range(40):
        st, _ = random_active_state(rng)
        st = MomentState(freqs=st.freqs, x=np.zeros(4), cov=st.cov)
        reduced, _, params = reduce_to_standard_form(st)
        r_star = tms_parameter(params.a, params.b, params.c1, params.c2)
        r = _isotropy_squeeze(params)
        assert min(0.0, 2.0 * r_star) <= r <= max(0.0, 2.0 * r_star)
        squeezed = apply(two_mode_squeeze(r), reduced)
        assert mean_energy(squeezed) <= mean_energy(reduced)
        _, _, after = reduce_to_standard_form(squeezed)
        assert abs(after.c1 - after.c2) <= 1e-12 * max(abs(after.c1), abs(after.c2))


def _bisected_isotropy_squeeze(params):
    """The isotropy squeeze by bisecting h in 50-digit decimals, or r* without a sign change.

    After a squeeze r from standard form the local blocks are
    diag(p +- q + S c1, p +- q - S c2) and the coupling
    diag(S (a + b) / 2 + C c1, -S (a + b) / 2 + C c2), with C = cosh 2r,
    S = sinh 2r, p = (a + b) C / 2 and q = (a - b) / 2; the coupling turns
    isotropic where h(r) = K11 sqrt(A22 B22) - K22 sqrt(A11 B11) vanishes.
    """
    r_star = tms_parameter(params.a, params.b, params.c1, params.c2)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, c1, c2 = (decimal.Decimal(float(v)) for v in (params.a, params.b, params.c1, params.c2))
        half_sum, q = (a + b) / 2, (a - b) / 2

        def h(r):
            e = (2 * r).exp()
            C, S = (e + 1 / e) / 2, (e - 1 / e) / 2
            p = half_sum * C
            k1, k2 = S * half_sum + C * c1, -S * half_sum + C * c2
            return k1 * ((p + q - S * c2) * (p - q - S * c2)).sqrt() - k2 * (
                (p + q + S * c1) * (p - q + S * c1)
            ).sqrt()

        lo, hi = sorted((decimal.Decimal(0), decimal.Decimal(2.0 * r_star)))
        h_lo = h(lo)
        if h_lo * h(hi) > 0:
            return r_star
        for _ in range(200):
            mid = (lo + hi) / 2
            if (h(mid) > 0) == (h_lo > 0):
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


# a nearly pure, strongly correlated pair of the fixed sweeps item squeezed
# at r = 6.5, whose isotropy root lies beyond 2 r*
_STALLED_PAIR = StandardFormParams(
    a=161.10389242559103, b=178.18217164130792, c1=167.31511495129081, c2=167.3753376453092
)


def test_isotropy_root_matches_a_bisection_of_h():
    rng = np.random.default_rng(1977)
    cases = []
    for _ in range(30):
        st, _ = random_active_state(rng)
        st = MomentState(freqs=st.freqs, x=np.zeros(4), cov=st.cov)
        cases.append(reduce_to_standard_form(st)[2])
    # c1 close to c2, where c2 beta and c1 alpha nearly cancel, and to -c2
    for c1, c2 in [(1.2, 1.2 + 1e-7), (1.2, 1.2 - 1e-9), (-1.2, -1.2 - 1e-4), (1.5, -1.5 + 1e-6), (-1.5, 1.4999)]:
        cases.append(StandardFormParams(a=3.0, b=2.0, c1=c1, c2=c2))
    for params in cases:
        r = _isotropy_squeeze(params)
        assert r != tms_parameter(params.a, params.b, params.c1, params.c2)
        assert abs(r - _bisected_isotropy_squeeze(params)) <= 1e-12 * abs(r)
    r_star = tms_parameter(_STALLED_PAIR.a, _STALLED_PAIR.b, _STALLED_PAIR.c1, _STALLED_PAIR.c2)
    assert _bisected_isotropy_squeeze(_STALLED_PAIR) == r_star
    assert _isotropy_squeeze(_STALLED_PAIR) is None


def test_isotropy_fallback_logs_one_record(caplog):
    r_star = tms_parameter(_STALLED_PAIR.a, _STALLED_PAIR.b, _STALLED_PAIR.c1, _STALLED_PAIR.c2)
    with caplog.at_level(logging.DEBUG, logger="gausswork"):
        _isotropy_squeeze(StandardFormParams(a=3.0, b=2.0, c1=1.2, c2=-0.4))
        assert _isotropy_squeeze(_STALLED_PAIR) is None
    records = [r for r in caplog.records if r.name == "gausswork"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    assert (record.a, record.b, record.c1, record.c2) == (
        _STALLED_PAIR.a, _STALLED_PAIR.b, _STALLED_PAIR.c1, _STALLED_PAIR.c2
    )
    assert record.r_star == r_star
    assert record.root > 2.0 * r_star > 0.0
    assert record.getMessage().startswith("extraction.isotropy_fallback a=")


def test_one_two_mode_squeeze_per_state_on_a_bank():
    rng = np.random.default_rng(1608)
    single = 0
    for _ in range(200):
        st, nus = random_active_state(rng)
        report = gaussian_ergotropy(st)
        single += sum(s.op.kind == "two_mode_squeeze" for s in report.steps) == 1
        floor = minimal_gaussian_energy(nus, st.freqs)
        assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
        energies = [report.initial_energy] + [s.energy_after for s in report.steps]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))
    assert single >= 190


def squeezed_three_mode(r):
    """Three thermal modes, nu = (1.5, 2, 3), squeezed at r on mode 0 and mixed by two beam splitters."""
    nus = np.array([1.5, 2.0, 3.0])
    op = compose([squeeze(r, 0, 3), beam_splitter(0.7, (0, 1), 3), beam_splitter(0.4, (1, 2), 3)])
    st = MomentState(freqs=[1.0, 1.5, 2.0], x=np.zeros(6), cov=op.S @ np.diag(np.repeat(nus, 2)) @ op.S.T)
    return st, nus


@pytest.mark.parametrize("r", [11.0, 12.0])
def test_the_optimality_warning_names_the_rounding_scale(r):
    # the gaps (3.8e-7 and -1.4e-6) lie within eps max|Gamma| (7.0e-7 and 5.2e-6)
    st, _ = squeezed_three_mode(r)
    with pytest.warns(OptimalityWarning) as caught:
        gaussian_ergotropy(st)
    scale = np.finfo(float).eps * np.max(np.abs(st.cov))
    (message,) = [str(w.message) for w in caught]
    assert f"within the input's rounding scale eps*max|Gamma| = {scale:.3e}" in message


def test_three_modes_squeezed_at_r5_reach_the_floor():
    # the greedy squeeze stalled here at |c1 - c2| = 2.1e-9 (ConvergenceError)
    st, nus = squeezed_three_mode(5.0)
    report = gaussian_ergotropy(st)
    floor = minimal_gaussian_energy(nus, st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    assert report.certificate.passive


@pytest.mark.parametrize("r", [6.5, 8.0])
def test_three_modes_squeezed_beyond_the_isotropy_bracket_reach_the_floor(r):
    # every isotropy root of these nearly pure, strongly correlated pairs lay
    # beyond 2 r*, and squeezing by r* instead stalled (ConvergenceError after
    # 200 rounds at |c1 - c2| = 6.0e-2 and 3.1); the beam splitter converges
    st, nus = squeezed_three_mode(r)
    report = gaussian_ergotropy(st)
    floor = minimal_gaussian_energy(nus, st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    energies = [report.initial_energy] + [s.energy_after for s in report.steps]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-9 * max(1.0, abs(before))
    assert report.certificate.passive


def test_a_sweep_that_emits_no_step_ends_the_sweeps():
    # when a step updated the rows and columns of its modes separately, the
    # last pair step left this covariance asymmetric by 1.9e-9, which no pair
    # step removed: stopping on the certificate alone ran into
    # ConvergenceError after 50 sweeps, and the sweep that emitted no step
    # ended them after 4.  The step now keeps Gamma exactly symmetric, and
    # the certificate ends them (test_symmetric_steps_certify_strongly_squeezed_states)
    st, nus = squeezed_three_mode(9.25)
    report = gaussian_ergotropy(st)
    floor = minimal_gaussian_energy(nus, st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    assert report.sweeps <= 4


@pytest.mark.parametrize("r", [8.85, 9.25, 9.5, 9.7, 10.0, 10.5])
def test_symmetric_steps_certify_strongly_squeezed_states(r):
    # a step that computed the rows and columns of its modes apart left Gamma
    # asymmetric by up to 1.9e-9 here, which no pair step removes: the first
    # four certificates were non-passive after 4 sweeps.  At r = 10 and 10.5
    # an eigvalsh-based validation rejected the input ("not positive
    # definite", min eigenvalue -9.1e-9; "uncertainty relation violated",
    # -1.1e-7), where the Cholesky factor exists and nu - 1 is rounding
    st, nus = squeezed_three_mode(r)
    st = MomentState(freqs=st.freqs, x=st.x, cov=0.5 * (st.cov + st.cov.T))
    report = gaussian_ergotropy(st)
    assert report.certificate.passive  # at the default, absolute 1e-9
    assert np.array_equal(report.final_state.cov, report.final_state.cov.T)
    floor = minimal_gaussian_energy(nus, st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    energies = [report.initial_energy] + [s.energy_after for s in report.steps]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-9 * max(1.0, abs(before))


@pytest.mark.parametrize("r", [8.85, 9.5, 9.7])
def test_unsymmetrized_strongly_squeezed_states_validate_and_certify(r):
    # S @ diag @ S.T leaves Gamma asymmetric by rounding (relative 3-9e-17,
    # absolute 3.7e-9 to 7.5e-9); an absolute symmetry check rejected these
    st, nus = squeezed_three_mode(r)
    assert not np.array_equal(st.cov, st.cov.T)
    report = gaussian_ergotropy(st)
    assert report.certificate.passive
    assert np.array_equal(report.final_state.cov, report.final_state.cov.T)
    floor = minimal_gaussian_energy(nus, st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))


def test_a_sweep_without_a_step_is_a_fixed_point():
    # the coupling between modes 0 and 2 is isotropic and 5e-9: above the
    # certificate's 1e-9, but its squeeze root is 0 and its beam-splitter
    # angle 5e-14 is below the step threshold, so the first sweep emits no
    # step and ends the sweeps on the non-passive certificate it opened with
    cov = np.diag([1e5, 1e5, 2.0, 2.0, 1.5, 1.5])
    cov[0, 4] = cov[4, 0] = cov[1, 5] = cov[5, 1] = 5e-9
    st = MomentState(freqs=[1.0, 2.0, 3.0], x=np.zeros(6), cov=cov)
    report = gaussian_ergotropy(st)
    assert report.steps == () and report.sweeps == 1
    assert not report.certificate.passive
    assert report.certificate.violations == ("covariance not in Williamson form",)
    assert report.final_energy == report.initial_energy


def test_a_large_pair_gets_one_pass_per_sweep():
    # item 236 of the seed-4242 edge corpus, with entries up to 2,344: a
    # pair loop that iterated to an absolute |c1 - c2| <= 1e-12 raised
    # ConvergenceError after 200 iterations at 2.046e-12, where one pass per
    # pair and sweep reaches the floor
    data = json.loads((DATA / "pair_stall_4242_item236.json").read_text())
    st = state_from_dict(data)
    report = gaussian_ergotropy(st)
    assert report.certificate.passive
    floor = minimal_gaussian_energy(data["metadata"]["symplectic_spectrum"], st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    energies = [report.initial_energy] + [s.energy_after for s in report.steps]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-9 * max(1.0, abs(before))


def _sweep_pairs(monkeypatch, st):
    """Run the sweeps on st; return (state, i, j, extracted) for every pair test."""
    sweeps, extracted = [], []
    verdict, pair_extract = extraction.is_gaussian_passive, extraction._pair_extract

    def spy_verdict(state, tol):
        sweeps.append(state)
        return verdict(state, tol)

    def spy_extract(state, i, j, *args):
        out = pair_extract(state, i, j, *args)
        extracted.append((state, i, j, out))
        return out

    monkeypatch.setattr(extraction, "is_gaussian_passive", spy_verdict)
    monkeypatch.setattr(extraction, "_pair_extract", spy_extract)
    report = gaussian_ergotropy(st)
    monkeypatch.undo()
    tests, calls = [], iter(extracted)
    upcoming = next(calls, None)
    for state in sweeps[: len(sweeps) - report.certificate.passive]:
        for i, j in itertools.combinations(range(st.n_modes), 2):
            hit = upcoming is not None and upcoming[:3] == (state, i, j)
            tests.append((state, i, j, hit))
            if hit:
                state, upcoming = upcoming[3], next(calls, None)
    assert upcoming is None  # every extraction was matched to its pair test
    return tests


def test_the_pair_test_shortcut_agrees_with_the_verdict(monkeypatch):
    # a pair is skipped exactly when its own verdict, on the pair block cut
    # out with np.ix_, is Williamson-diagonal (clause "i")
    rng = np.random.default_rng(4108)
    skipped = 0
    for n in (4, 4, 8):
        st, _ = random_active_state(rng, n_modes=n)
        for state, i, j, hit in _sweep_pairs(monkeypatch, st):
            idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
            pair = extraction._passivity(
                state.freqs[[i, j]], state.x[idx], state.cov[np.ix_(idx, idx)], DEFAULT_TOL
            )
            assert (pair.clause == "i") != hit
            skipped += not hit
    assert skipped > 0


# Drawn once with perfbench/workloads.active_state(rng, n, 3, (1.0, 10.0),
# 1.0, 0.8, 3.0): items 149 and 219 of rng = default_rng(8) at n = 8, item 4
# of default_rng(16) at n = 16 (the "source" in each file's metadata).  When
# the sweeps stopped on an energy change of at most 1e-12, each ended with a
# pair just above the certificate's 1e-9 (1.008e-9, 1.028e-9, 1.088e-9).
@pytest.mark.parametrize("name", ["n8_item149", "n8_item219", "n16_item4"])
def test_sweeps_run_until_the_certificate_holds(name):
    data = json.loads((DATA / f"sweep_stop_{name}.json").read_text())
    st = state_from_dict(data)
    report = gaussian_ergotropy(st)
    assert report.certificate.passive  # at the default, absolute 1e-9
    floor = minimal_gaussian_energy(data["metadata"]["symplectic_spectrum"], st.freqs)
    assert abs(report.final_energy - floor) <= 1e-8 * max(1.0, abs(floor))
    energies = [report.initial_energy] + [s.energy_after for s in report.steps]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-9 * max(1.0, abs(before))


def test_the_passivity_criterion_runs_once_per_sweep(monkeypatch):
    # the certificate is the whole-state verdict that ended the sweeps, and
    # a two-mode pair test reuses that verdict: an active pair costs two
    # evaluations, one before and one after its pipeline
    verdicts = []

    def spy(freqs, x, cov, tol):
        verdict = passivity(freqs, x, cov, tol)
        verdicts.append((freqs.size, verdict))
        return verdict

    passivity = extraction._passivity
    monkeypatch.setattr(extraction, "_passivity", spy)
    rng = np.random.default_rng(55)
    st, _ = random_active_state(rng)
    report = gaussian_ergotropy(st)
    assert report.steps and report.certificate.passive
    assert len(verdicts) == 2
    assert report.certificate is verdicts[-1][1]

    # n modes: one whole-state verdict per sweep, and the last one, which
    # ended the sweeps, is the certificate
    for _ in range(6):
        verdicts.clear()
        st, _ = random_active_state(rng, n_modes=3)
        report = gaussian_ergotropy(st)
        whole = [v for size, v in verdicts if size == 3]
        assert report.certificate.passive
        assert len(whole) == report.sweeps
        assert report.certificate is whole[-1]


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


def _lapack_local_steps(block):
    """The reference local reduction: rotation and squeeze from LAPACK's eigh."""
    scale = max(abs(block[0, 0]), abs(block[1, 1]), 1.0)
    if abs(block[0, 1]) <= 1e-13 * scale:
        d1, d2 = block[0, 0], block[1, 1]
        return [squeeze(0.25 * math.log(d1 / d2), 0, 2)] if abs(d1 - d2) > 1e-13 * scale else []
    lam, vec = np.linalg.eigh(block)
    if np.linalg.det(vec) < 0:
        vec[:, 0] = -vec[:, 0]
    theta = math.atan2(vec[1, 0], vec[0, 0])
    return [rotation(theta, 0, 2), squeeze(0.25 * math.log(lam[0] / lam[1]), 0, 2)]


def _isotropy_residual(state):
    (p, q), (q2, s) = state.cov[:2, :2].tolist()
    return max(abs(p - s), abs(q), abs(q2)) / (0.5 * (p + s))


def test_closed_form_local_reduction_matches_eigh():
    rng = np.random.default_rng(6061)
    blocks = []
    for _ in range(400):
        nu, r, phi = rng.uniform(1.0, 10.0), rng.uniform(0.0, 6.0), rng.uniform(-math.pi, math.pi)
        turn = rotation(phi).block
        block = turn.T @ np.diag([nu * math.exp(-2 * r), nu * math.exp(2 * r)]) @ turn
        blocks.append(0.5 * (block + block.T))
    for p in (1.5, 40.0, 3e4):
        for q in (1e-14 * p, -1e-14 * p, 1e-12 * p, -1e-12 * p, 0.3, -0.3):
            for s in (p, p * (1 + 1e-15), p * (1 - 1e-13), 1.2 * p):
                blocks.append(np.array([[p, q], [q, s]]))
    closed, lapack = [], []
    for block in blocks:
        cov = np.eye(4)
        cov[:2, :2] = block
        st = two_mode(cov)
        run = extraction._Run(st)
        out, _ = extraction._reduce_pair(st, 0, 1, run, "P2-local")
        for step in run.steps:
            assert step.op.modes == (0,)
            if step.op.kind == "rotation":
                assert -math.pi / 2 < step.op.params["theta"] <= math.pi / 2
        closed.append(_isotropy_residual(out))
        ref = st
        for op in _lapack_local_steps(block):
            ref = apply(op, ref)
        lapack.append(_isotropy_residual(ref))
    assert max(closed) <= max(lapack)
    assert np.median(closed) <= np.median(lapack)


def test_closed_form_cross_rotations_match_svd():
    rng = np.random.default_rng(6062)
    crosses = []
    for _ in range(100):
        c = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        if np.linalg.det(c) > 0:
            c[0] = -c[0]
        crosses.append(c)  # det < 0
        crosses.append(np.outer(rng.normal(size=2), rng.normal(size=2)))  # rank 1
        crosses.append(-np.abs(rng.normal(size=(2, 2))) * np.array([[1.0, rng.normal()], [rng.normal(), 1.0]]))
    for c in crosses:
        sv = np.linalg.svd(c, compute_uv=False)
        k = 1.0 + 2.0 * sv[0]
        cov = np.block([[k * np.eye(2), c], [c.T, k * np.eye(2)]])
        st = two_mode(cov)
        out, params = extraction._reduce_pair(st, 0, 1, extraction._Run(st), "P2-local")
        (d1, upper), (lower, d2) = out.cov[:2, 2:].tolist()
        assert max(abs(upper), abs(lower)) <= 1e-13 * float(np.max(np.abs(c)))
        assert d1 >= abs(d2)
        assert (params.c1, params.c2) == (d1, d2)
        np.testing.assert_allclose([d1, abs(d2)], sv, rtol=0.0, atol=1e-12 * sv[0])


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


def test_extraction_requires_a_valid_state():
    with pytest.raises(ValidationError):
        gaussian_ergotropy(two_mode(0.5 * np.eye(4)))


def test_convergence_error_carries_partial_protocol(monkeypatch):
    # the sweep bound is the only bound: with one sweep allowed, the pair's
    # one pass runs whole, and the certificate that would open a second
    # sweep is never taken
    monkeypatch.setattr(extraction, "MAX_SWEEPS", 1)
    rng = np.random.default_rng(31)
    st, _ = random_active_state(rng)
    with pytest.raises(ConvergenceError) as excinfo:
        gaussian_ergotropy(st)
    stages = [step.stage for step in excinfo.value.steps]
    assert stages[0] == "P1-displace" and stages[-1] == "P4-beamsplit"
    assert stages.count("P3-tms") == 1
    assert set(stages) <= {"P1-displace", "P2-local", "P3-tms", "P3-realign", "P4-beamsplit"}


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


def test_step_energies_match_a_full_replay():
    # energy_after comes from the modes each step touches; replaying the
    # protocol from the input must give the same energies summed in full
    rng = np.random.default_rng(2024)
    for n_modes, count in ((2, 20), (4, 10)):
        for _ in range(count):
            st, _ = random_active_state(rng, n_modes)
            report = gaussian_ergotropy(st)
            assert report.steps
            replayed = st
            for step in report.steps:
                replayed = apply(step.op, replayed)
                assert step.energy_after == pytest.approx(mean_energy(replayed), rel=1e-12, abs=0.0)
            assert report.final_energy == report.steps[-1].energy_after


def test_extraction_leaves_an_undisplaced_input_untouched():
    rng = np.random.default_rng(31)
    for n in (2, 4):
        st, _ = random_active_state(rng, n_modes=n)
        st = MomentState(freqs=st.freqs, x=np.zeros(2 * n), cov=st.cov)
        x0, cov0 = st.x.tobytes(), st.cov.tobytes()
        report = gaussian_ergotropy(st)
        assert report.steps and report.certificate.passive
        assert st.x.tobytes() == x0 and st.cov.tobytes() == cov0
        assert not report.final_state.x.any()


def test_three_mode_sweeps_reach_floor():
    st = MomentState(
        freqs=[1.0, 2.0, 3.0],
        x=np.zeros(6),
        cov=np.diag(np.repeat([1.2, 2.0, 3.0], 2)),
    )
    report = gaussian_ergotropy(st)
    assert np.isclose(report.initial_energy, 4.1, atol=1e-12)
    assert np.isclose(report.final_energy, 2.3, atol=1e-8)
    assert np.isclose(report.extracted_work, 1.8, atol=1e-8)
    assert report.certificate.passive
    assert report.sweeps is not None and report.sweeps <= 5


def test_nmode_property_loop():
    rng = np.random.default_rng(777)
    for _ in range(8):
        st, nus = random_active_state(rng, n_modes=3)
        report = gaussian_ergotropy(st)
        floor = minimal_gaussian_energy(nus, st.freqs)
        assert abs(report.final_energy - floor) <= 1e-7 * max(1.0, abs(floor))
        assert report.certificate.passive
        energies = [report.initial_energy] + [s.energy_after for s in report.steps]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))


def test_nmode_accepts_one_mode():
    # the former n-mode name is the one extraction, and one mode answers
    report = extraction.nmode_gaussian_ergotropy(
        MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.diag([0.5, 2.0]))
    )
    assert report.extracted_work == pytest.approx(0.125, abs=1e-15)
    assert report.certificate.passive and report.sweeps == 2


def test_one_mode_extraction_takes_the_closed_form_work():
    # one mode: displace, turn, squeeze, and the work is E - omega (sqrt(det Gamma) - 1) / 2
    rng = np.random.default_rng(2210)
    for _ in range(200):
        w, nu = rng.uniform(0.5, 2.5), rng.uniform(1.0, 6.0)
        st = MomentState(freqs=[w], x=np.zeros(2), cov=nu * np.eye(2))
        st = apply(rotation(rng.uniform(-np.pi, np.pi), 0, 1), apply(squeeze(rng.uniform(-3.0, 3.0), 0, 1), st))
        st = apply(displacement(rng.normal(size=2) * rng.uniform(0.0, 2.0)), st)
        (p, q), (_, s) = st.cov
        energy = w * ((p + s - 2.0) / 4.0 + float(st.x @ st.x) / 2.0)
        closed = energy - w * (math.sqrt(p * s - q * q) - 1.0) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gaussian_ergotropy(st)
        assert abs(report.extracted_work - closed) <= 1e-12 * closed
        assert len(report.steps) <= 3
        assert [step.stage for step in report.steps[1:]] == ["P2-local"] * (len(report.steps) - 1)
        assert report.certificate.passive


def test_nmode_two_mode_agrees_with_pipeline():
    rng = np.random.default_rng(13)
    st, _ = random_active_state(rng)
    direct = gaussian_ergotropy(st)
    swept = extraction.nmode_gaussian_ergotropy(st)
    assert np.isclose(direct.final_energy, swept.final_energy, atol=1e-10)


# ---------------------------------------------------------------------------
# thermal product shortcut


def test_thermal_product_passivity_against_verdict():
    # coth(freq / 2T) covariances assembled by hand must agree with the verdict;
    # frequencies equal within 1e-12 make every product passive
    pairs = [(1.0, 2.0), (1.0, 1.0), (2.5, 2.5), (1.0, 1.0 + 4e-13), (3.0, 3.0 * (1.0 + 9e-13))]
    for freq_a, freq_b in pairs:
        for ta in (0.25, 1.0, 2.0, 4.0):
            for tb in (0.25, 1.0, 2.0, 4.0):
                nu_a = 1.0 / math.tanh(freq_a / (2.0 * ta))
                nu_b = 1.0 / math.tanh(freq_b / (2.0 * tb))
                st = two_mode(
                    np.diag([nu_a, nu_a, nu_b, nu_b]), freqs=(freq_a, freq_b)
                )
                assert thermal_product_passivity(freq_a, freq_b, ta, tb) == bool(
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
