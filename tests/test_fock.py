"""Truncated Fock-space oracle: states, moments, unitaries, brute-force floor."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from gausswork import (
    BudgetWarning,
    MomentState,
    TruncationError,
    TruncationWarning,
    ValidationError,
    apply_gaussian_unitary,
    brute_force_min_energy,
    density_matrix,
    energy_of,
    entropy_of,
    ergotropy_of,
    fixed_entropy_state,
    fock_state,
    gaussian_ergotropy,
    gaussian_unitary_matrix,
    ladder,
    mean_energy,
    minimal_gaussian_energy,
    moments_of,
    pure_state,
    symplectic_spectrum,
    thermal_fock_state,
    thermal_state,
    validate_state,
    verify,
)
from gausswork import bfgs, fock
from gausswork.fock import (
    TruncatedDensityMatrix,
    _bs_sectors,
    _family_energy,
    _internal_dim,
    _population_diagonal,
    _single_mode_unitary,
    _tms_sectors,
    mixture,
)
from gausswork.ops import (
    apply,
    beam_splitter,
    compose,
    displacement,
    rotation,
    squeeze,
    two_mode_squeeze,
)


# ---------------------------------------------------------------------------
# states and scalar functionals


def test_ladder_matrix_elements():
    a = ladder(4)
    v = np.zeros(4)
    v[3] = 1.0
    out = a @ v
    assert np.isclose(out[2], math.sqrt(3.0), atol=1e-15)
    assert np.count_nonzero(out) == 1
    with pytest.raises(ValidationError):
        ladder(1)


def test_state_constructors_validate():
    with pytest.raises(ValidationError):
        pure_state([1.0, 1.0], [1.0])  # norm sqrt(2)
    with pytest.raises(ValidationError):
        density_matrix(np.diag([0.6, 0.6]), [1.0])  # trace 1.2
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValidationError):
        density_matrix(bad / 2.0, [1.0])  # not Hermitian
    with pytest.raises(ValidationError):
        mixture([0.5, 0.4], [np.eye(3)[0], np.eye(3)[1]], [1.0])
    with pytest.raises(ValidationError):
        fock_state(5, [1.0], 4)
    with pytest.raises(ValidationError):
        thermal_fock_state(-0.5, [1.0], 10)
    with pytest.raises(ValidationError):
        fock_state(0, [1.0], 200)  # cutoff above the cap


@pytest.mark.parametrize(
    "occupations, freqs, dim",
    [([1.0] * 3, [1.0, 2.0, 3.0], 40), ([0.3, 0.2], [1.0, 2.0], 10**6)],
    ids=["three-modes", "cutoff-above-the-cap"],
)
def test_thermal_reference_is_refused_before_it_is_allocated(occupations, freqs, dim):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            thermal_fock_state(occupations, freqs, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("occupation", [math.nan, math.inf])
def test_thermal_reference_refuses_non_finite_occupations(occupation):
    # a NaN occupation used to give a state with no components, on which
    # moments_of returned Γ = 0 without an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            thermal_fock_state(occupation, [1.0], 10)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            thermal_fock_state([0.3, occupation], [1.0, 2.0], 10)


@pytest.mark.parametrize("occupation", [1e16, 1e17])
def test_a_flat_thermal_reference_is_refused_by_the_tail_check(occupation):
    # q = m / (m + 1) rounds to 1: the populations are flat and finite, so
    # moments_of refuses the state instead of returning Γ = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = thermal_fock_state(occupation, [1.0], 10)
        assert np.array_equal(rho.weights, np.full(10, 0.1))
        with pytest.raises(TruncationError):
            moments_of(rho)


def test_constructors_refuse_malformed_components():
    with pytest.raises(ValidationError, match="norm"):
        mixture([1.0], [[2, 0, 0, 0, 0, 0]], [1.0])  # trace 4
    with pytest.raises(ValidationError, match="norm"):
        mixture([0.5, 0.5], [np.eye(4)[0], 1.5 * np.eye(4)[1]], [1.0])
    with pytest.raises(ValidationError, match="one occupation per mode"):
        fock_state([1], [1.0, 2.0], 10)
    with pytest.raises(ValidationError, match="one occupation per mode"):
        fock_state([1, 2, 3], [1.0], 10)
    with pytest.raises(ValidationError, match="norm"):
        pure_state([0.5, 0.0, 0.0], [1.0])


def test_a_mixture_books_the_trace_its_components_lack_as_leak():
    # components that lost norm to a cutoff keep it; the missing trace is leak
    rho = mixture([0.5, 0.5], [np.eye(20)[0], 0.5 * np.eye(20)[1]], [1.0])
    assert rho.leak == pytest.approx(0.375, abs=1e-15)
    with pytest.raises(TruncationError):
        moments_of(rho)
    assert mixture([0.5, 0.5], np.eye(20)[:2], [1.0]).leak == 0.0


def test_vacuum_moments():
    x, cov = moments_of(fock_state(0, [1.0], 20))
    assert np.allclose(x, 0.0, atol=1e-14)
    assert np.allclose(cov, np.eye(2), atol=1e-12)


def test_number_state_moments():
    x, cov = moments_of(fock_state(3, [1.0], 20))
    assert np.allclose(x, 0.0, atol=1e-14)
    assert np.allclose(cov, 7.0 * np.eye(2), atol=1e-12)


def test_thermal_moments_match_coth():
    rho = thermal_fock_state(1.0, [1.0], 60)
    x, cov = moments_of(rho)
    assert np.allclose(x, 0.0, atol=1e-12)
    assert np.allclose(cov, 3.0 * np.eye(2), atol=1e-9)
    st = MomentState(freqs=[1.0], x=x, cov=cov)
    assert validate_state(st).ok


def test_two_mode_thermal_moments():
    rho = thermal_fock_state([1.0, 0.25], [1.0, 2.0], 50)
    x, cov = moments_of(rho)
    assert np.allclose(x, 0.0, atol=1e-12)
    assert np.allclose(cov, np.diag([3.0, 3.0, 1.5, 1.5]), atol=1e-9)
    assert np.isclose(energy_of(rho), 1.0 * 1.0 + 2.0 * 0.25, atol=1e-9)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_moments_match_traces_of_dense_ladder_products(n_modes):
    # <q_i> = Tr(rho q_i) and <q_i q_j + q_j q_i>/2 from explicit quadrature
    # matrices; random complex components give nonzero <p> and x-p correlations
    dim = 8
    rng = np.random.default_rng(91)
    low = np.zeros((dim,) * n_modes, dtype=bool)
    low[(slice(0, dim - 3),) * n_modes] = True
    vectors = np.zeros((3, dim**n_modes), dtype=complex)
    count = int(low.sum())
    vectors[:, low.reshape(-1)] = rng.normal(size=(3, count)) + 1j * rng.normal(size=(3, count))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    rho = mixture([0.5, 0.3, 0.2], vectors, [1.0, 2.0][:n_modes], dim)
    a, eye = ladder(dim), np.eye(dim)
    quads = []
    for m in range(n_modes):
        a_m = a if n_modes == 1 else (np.kron(a, eye) if m == 0 else np.kron(eye, a))
        quads += [(a_m + a_m.T) / math.sqrt(2.0), -1j * (a_m - a_m.T) / math.sqrt(2.0)]
    dense = rho.dense()
    x_ref = np.array([np.trace(dense @ q).real for q in quads])
    sym = np.array([[np.trace(dense @ (qi @ qj + qj @ qi)).real / 2.0 for qj in quads] for qi in quads])
    x, cov = moments_of(rho)
    assert np.max(np.abs(x_ref)) > 0.1 and np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(cov - (2.0 * sym - 2.0 * np.outer(x_ref, x_ref)))) <= 1e-12


def _dense_quadratures(dim, n_modes):
    """R = (X_1, P_1, ...) from ladder(dim) through np.kron; a' = a^T drops the top level."""
    a, eye = ladder(dim), np.eye(dim)
    quads = []
    for m in range(n_modes):
        a_m = a if n_modes == 1 else (np.kron(a, eye) if m == 0 else np.kron(eye, a))
        quads += [(a_m + a_m.T) / math.sqrt(2.0), -1j * (a_m - a_m.T) / math.sqrt(2.0)]
    return quads


def _evolved_mixed_state(seed, n_modes, dim):
    """A seeded thermal state, squeezed (two-mode squeezed and split on two modes), rotated, displaced."""
    rng = np.random.default_rng(seed)
    rho = thermal_fock_state(rng.uniform(0.02, 0.05, n_modes), [1.0, 2.0][:n_modes], dim)
    if n_modes == 1:
        ops = [squeeze(rng.uniform(-0.2, 0.2))]
    else:
        ops = [two_mode_squeeze(rng.uniform(0.05, 0.15)), beam_splitter(rng.uniform(-1.5, 1.5))]
    ops += [rotation(rng.uniform(-1.5, 1.5), 0, n_modes), displacement(rng.uniform(-0.4, 0.4, 2 * n_modes))]
    for op in ops:
        rho = apply_gaussian_unitary(op, rho)
    return rho


def _with_top_level_population(rho, weight):
    """rho mixed with a random component that puts about ``weight`` of population on the top level."""
    rng = np.random.default_rng(17)
    shape = (rho.dim,) * rho.n_modes
    extra = np.zeros(shape, dtype=complex)
    top = (slice(rho.dim - 3, None),) * rho.n_modes
    extra[top] = rng.normal(size=extra[top].shape) + 1j * rng.normal(size=extra[top].shape)
    extra = extra.reshape(-1) / np.linalg.norm(extra)
    weights = np.append(rho.weights * (1.0 - weight), weight)
    return mixture(weights / weights.sum(), [*rho.vectors.T, extra], rho.freqs, rho.dim)


@pytest.mark.parametrize(
    "n_modes, dim, seed, top",
    [(1, 12, 0, 0.0), (1, 16, 1, 0.0), (2, 12, 2, 0.0), (2, 16, 3, 0.0), (2, 14, 4, 3e-6), (1, 12, 5, 3e-6)],
)
def test_moments_match_the_truncated_operator_definition(n_modes, dim, seed, top):
    # x_i = Re tr(rho R_i) and Γ_ij = 2 Re tr(rho R_i R_j) - 2 x_i x_j on the
    # cutoff's levels, including states with population on the top level,
    # where a' = a^T drops it
    rho = _evolved_mixed_state(seed, n_modes, dim)
    if top:
        rho = _with_top_level_population(rho, top)
        assert np.max(_population_diagonal(rho).reshape((dim,) * n_modes)[..., dim - 1]) > 1e-7
    dense = rho.dense()
    quads = _dense_quadratures(dim, n_modes)
    x_ref = np.array([np.trace(dense @ q).real for q in quads])
    cov_ref = np.array(
        [[2.0 * np.trace(dense @ qi @ qj).real for qj in quads] for qi in quads]
    ) - 2.0 * np.outer(x_ref, x_ref)
    if top:
        with pytest.warns(TruncationWarning):
            x, cov = moments_of(rho)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            x, cov = moments_of(rho)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(cov_ref))))
    assert np.max(np.abs(x - x_ref)) <= scale
    assert np.max(np.abs(cov - cov_ref)) <= scale


def test_entropy_keeps_every_positive_eigenvalue():
    # the fixed-entropy witness at nu = 5, S = 2 ln 2: its thermal eigenvalues
    # below 1e-15 carry p ln p of about 6e-14, which a threshold would drop
    c = fixed_entropy_state(5.0, 2.0 * math.log(2.0), freq=1.0, cutoff=60)
    assert abs(entropy_of(c.state) - 2.0 * math.log(2.0)) <= 1e-15


def test_energy_and_entropy_values():
    rho = fock_state(3, [1.0], 20)
    assert np.isclose(energy_of(rho), 3.0, atol=1e-12)
    assert np.isclose(entropy_of(rho), 0.0, atol=1e-12)
    th = thermal_fock_state(1.0, [1.0], 60)
    assert np.isclose(energy_of(th), 1.0, atol=1e-12)
    assert np.isclose(entropy_of(th), 2.0 * math.log(2.0), atol=1e-12)


def test_ergotropy_values():
    assert np.isclose(ergotropy_of(fock_state(1, [1.0], 20)), 1.0, atol=1e-12)
    th = thermal_fock_state(0.5, [1.0], 40)
    assert abs(ergotropy_of(th)) < 1e-12


def _entropy_and_ergotropy_from_dense(rho):
    """The reference: eigvalsh of the assembled dim^n x dim^n matrix, rho itself left as it is."""
    eigs = np.linalg.eigvalsh((rho.vectors * rho.weights) @ rho.vectors.conj().T)
    kept = eigs[eigs > 1e-15]
    occupations = np.indices((rho.dim,) * rho.n_modes).reshape(rho.n_modes, -1)
    passive = float(np.clip(eigs[::-1], 0.0, None) @ np.sort(rho.freqs @ occupations))
    return float(-np.sum(kept * np.log(kept))), energy_of(rho) - passive


def _rotated_mixture():
    """Three non-orthogonal components on the low levels, then a two-mode squeeze and a beam splitter."""
    rng = np.random.default_rng(3)
    dim = 30
    low = np.zeros((dim, dim), dtype=bool)
    low[:4, :4] = True
    vectors = np.zeros((3, dim * dim), dtype=complex)
    vectors[:, low.reshape(-1)] = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    rho = mixture([0.6, 0.3, 0.1], vectors, [1.0, 2.0], dim)
    return apply_gaussian_unitary(beam_splitter(0.6), apply_gaussian_unitary(two_mode_squeeze(0.2), rho))


@pytest.mark.parametrize(
    "make",
    [
        lambda: thermal_fock_state([0.3, 0.2], [1.0, 2.0], 30),
        lambda: thermal_fock_state(0.8, [1.5], 40),
        lambda: apply_gaussian_unitary(squeeze(0.4, 1, 2), fock_state((1, 0), [1.0, 2.0], 20)),
        _rotated_mixture,
    ],
    ids=["thermal", "thermal-one-mode", "pure", "rotated-mixed"],
)
def test_entropy_and_ergotropy_match_the_dense_spectrum(make):
    rho = make()
    entropy, ergotropy = _entropy_and_ergotropy_from_dense(rho)
    assert entropy_of(rho) == pytest.approx(entropy, rel=1e-12, abs=1e-14)
    assert ergotropy_of(rho) == pytest.approx(ergotropy, rel=1e-12, abs=1e-14)


def test_tail_checks():
    top = fock_state(19, [1.0], 20)
    with pytest.raises(TruncationError):
        moments_of(top)
    with pytest.raises(TruncationError):
        energy_of(top)
    leaky = mixture(
        [1.0 - 6e-6, 6e-6], [np.eye(20)[0], np.eye(20)[19]], [1.0]
    )
    with pytest.warns(TruncationWarning):
        energy_of(leaky)


def test_ergotropy_checks_the_tail_once():
    # ergotropy_of used to check the tail, then call energy_of, which checked
    # it again: two warnings, the second attributed to fock.py
    leaky = mixture(
        [1.0 - 6e-6, 6e-6], [np.eye(20)[0], np.eye(20)[19]], [1.0]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = ergotropy_of(leaky)
    assert len(caught) == 1
    assert issubclass(caught[0].category, TruncationWarning)
    assert str(caught[0].message).startswith("ergotropy_of:")
    assert caught[0].filename == __file__
    assert value == pytest.approx(19 * 6e-6 - 6e-6, rel=1e-9)  # |19> onto |1>


def test_density_matrix_keeps_its_eigencomponents():
    matrix = thermal_fock_state(0.5, [1.0], 30).dense()
    rho = density_matrix(matrix, [1.0])
    assert abs(float(rho.weights.sum()) - 1.0) <= 1e-12
    assert np.max(np.abs(rho.dense() - matrix)) <= 1e-12
    with pytest.raises(ValidationError, match="does not match cutoff"):
        density_matrix(matrix, [1.0], 20)


def test_dense_and_component_forms_agree():
    rho = thermal_fock_state(0.5, [1.0], 30)
    dense = density_matrix(rho.dense(), [1.0])
    x1, cov1 = moments_of(rho)
    x2, cov2 = moments_of(dense)
    assert np.allclose(x1, x2, atol=1e-12)
    assert np.allclose(cov1, cov2, atol=1e-12)
    assert np.isclose(energy_of(rho), energy_of(dense), atol=1e-12)


# ---------------------------------------------------------------------------
# truncated unitaries


def test_rotation_unitary_is_number_diagonal():
    u = gaussian_unitary_matrix(rotation(0.7), 15)
    expected = np.diag(np.exp(-1j * 0.7 * np.arange(15)))
    assert np.allclose(u, expected, atol=1e-12)
    assert np.allclose(gaussian_unitary_matrix(rotation(0.0), 15), np.eye(15), atol=1e-14)


def test_squeeze_unitary_vacuum_moments():
    u = gaussian_unitary_matrix(squeeze(0.5), 40)
    vac = np.zeros(40)
    vac[0] = 1.0
    out = u @ vac
    rho = pure_state(out / np.linalg.norm(out), [1.0])
    x, cov = moments_of(rho)
    assert np.allclose(x, 0.0, atol=1e-10)
    assert np.allclose(cov, np.diag([math.exp(-1.0), math.exp(1.0)]), atol=1e-6)


def test_half_pi_beam_splitter_moves_the_photon():
    dim = 6
    u = gaussian_unitary_matrix(beam_splitter(math.pi / 2), dim)
    col = u[:, 1 * dim + 0]  # |1, 0>
    fidelity = abs(col[0 * dim + 1]) ** 2  # onto |0, 1>
    assert np.isclose(fidelity, 1.0, atol=1e-12)


def test_insufficient_cutoff_raises():
    with pytest.raises(TruncationError):
        gaussian_unitary_matrix(squeeze(2.5), 10)


def _dense_generator(op, dim):
    """The op's generator G (U = expm(G)) on dim levels per mode, built with np.kron."""
    a = ladder(dim)
    if op.n_modes == 1:
        lowers = [a]
    else:
        eye = np.eye(dim)
        lowers = [np.kron(a, eye), np.kron(eye, a)]
    raises = [m.T for m in lowers]
    if op.kind == "rotation":
        m = op.modes[0]
        return -1j * op.params["theta"] * raises[m] @ lowers[m]
    if op.kind == "squeeze":
        m = op.modes[0]
        return 0.5 * op.params["r"] * (lowers[m] @ lowers[m] - raises[m] @ raises[m])
    if op.kind == "displacement":
        g = 0.0
        for m in range(op.n_modes):
            alpha = complex(op.d[2 * m], op.d[2 * m + 1]) / math.sqrt(2.0)
            g = g + alpha * raises[m] - np.conj(alpha) * lowers[m]
        return g
    i, j = op.modes
    if op.kind == "two_mode_squeeze":
        return op.params["r"] * (raises[i] @ raises[j] - lowers[i] @ lowers[j])
    return op.params["theta"] * (raises[i] @ lowers[j] - lowers[i] @ raises[j])


@pytest.mark.parametrize(
    "op",
    [
        rotation(0.7),
        squeeze(-0.3),
        displacement([0.4, -0.2]),
        rotation(0.8, 0, 2),
        rotation(-0.5, 1, 2),
        squeeze(0.3, 0, 2),
        squeeze(-0.25, 1, 2),
        displacement([0.5, -0.3, 0.2, 0.4]),
        two_mode_squeeze(0.35),
        two_mode_squeeze(-0.3, (1, 0)),
        beam_splitter(0.9),
        beam_splitter(-1.1, (1, 0)),
    ],
    ids=lambda op: f"{op.kind}-{op.modes}-n{op.n_modes}",
)
def test_unitary_matches_dense_exponential(op):
    """P expm(G) P^T on the internal register, G built densely, as the reference."""
    dim = 8
    dim_int = _internal_dim(dim)
    g = _dense_generator(op, dim_int)
    u = scipy.linalg.expm(g)
    if op.kind == "beam_splitter":
        # the oracle's beam splitter carries the parity of its second mode
        occ = np.divmod(np.arange(dim_int**2), dim_int)[op.modes[1]]
        u = np.diag((-1.0) ** occ) @ u
    levels = np.arange(dim)
    keep = levels if op.n_modes == 1 else (levels[:, None] * dim_int + levels).reshape(-1)
    reference = u[np.ix_(keep, keep)]

    rng = np.random.default_rng(17)
    cols = 5
    vectors = rng.normal(size=(dim**op.n_modes, cols)) + 1j * rng.normal(
        size=(dim**op.n_modes, cols)
    )
    vectors /= np.linalg.norm(vectors, axis=0)
    weights = rng.uniform(0.1, 1.0, cols)
    freqs = [1.0, 2.0][: op.n_modes]
    rho = TruncatedDensityMatrix(
        dim=dim, freqs=freqs, weights=weights / weights.sum(), vectors=vectors
    )
    out = apply_gaussian_unitary(op, rho)
    assert np.max(np.abs(out.vectors - reference @ vectors)) < 1e-12
    assert np.max(np.abs(gaussian_unitary_matrix(op, dim) - reference)) < 1e-12


def _sector_reference(na, nb, raise_amps, t, dim):
    """Kept rows and columns of expm(t (R - R^T)) on one internal sector, R raising along it."""
    amps = t * raise_amps(na[:-1], nb[:-1])
    u = scipy.linalg.expm(np.diag(amps, -1) - np.diag(amps, 1))
    kept = np.flatnonzero((na < dim) & (nb < dim))
    return (na[kept], nb[kept]), u[np.ix_(kept, kept)]


def _assert_sectors_match(sectors, references):
    """The code's kept blocks are exactly the references' non-empty ones, each within 1e-12."""
    references = [(levels, block) for levels, block in references if levels[0].size]
    assert len(sectors) == len(references)
    for ((na, nb), block), ((ra, rb), ref) in zip(sectors, references):
        assert np.array_equal(na, ra) and np.array_equal(nb, rb)
        assert np.max(np.abs(block - ref)) < 1e-12


@pytest.mark.parametrize("theta", [0.4, -1.1, 2.5])
def test_beam_splitter_blocks_match_sector_exponentials(theta):
    """Every total-number sector at cutoff 40, the register-truncated ones (total >= 60) too."""
    dim, size = 40, _internal_dim(40)
    references = []
    for total in range(2 * size - 1):
        na = np.arange(max(0, total - (size - 1)), min(total, size - 1) + 1)
        (ka, kb), ref = _sector_reference(na, total - na, lambda a, b: np.sqrt((a + 1.0) * b), theta, dim)
        references.append(((ka, kb), (1.0 - 2.0 * (kb % 2))[:, None] * ref))
    _assert_sectors_match(sorted(_bs_sectors(theta, dim), key=lambda s: s[0][0][0] + s[0][1][0]), references)


@pytest.mark.parametrize("r", [0.35, -0.6, 1.0])
def test_two_mode_squeeze_blocks_match_sector_exponentials(r):
    """Every photon-number-difference sector at cutoff 40, |d| up to 59 included."""
    dim, size = 40, _internal_dim(40)
    references = []
    for d in range(-(size - 1), size):
        nb = np.arange(max(0, -d), min(size, size - d))
        references.append(_sector_reference(nb + d, nb, lambda a, b: np.sqrt((a + 1.0) * (b + 1.0)), r, dim))
    _assert_sectors_match(sorted(_tms_sectors(r, dim), key=lambda s: s[0][0][0] - s[0][1][0]), references)


@pytest.mark.parametrize(
    "kind, params",
    [("squeeze", {"r": r}) for r in (0.35, -0.6, 1.0)]
    + [("displacement", {"alpha": a}) for a in (0.4 - 0.3j, -1.1 + 0.8j, 2.5j)],
)
def test_single_mode_blocks_match_register_exponentials(kind, params):
    dim, size = 40, _internal_dim(40)
    a = ladder(size)
    if kind == "squeeze":
        g = 0.5 * params["r"] * (a @ a - a.T @ a.T)
    else:
        g = params["alpha"] * a.T - np.conj(params["alpha"]) * a
    reference = scipy.linalg.expm(g)[:dim, :dim]
    assert np.max(np.abs(_single_mode_unitary(kind, params, dim) - reference)) < 1e-12


def test_bases_log_once_per_cutoff(caplog):
    fock._bases.cache_clear()
    rho = thermal_fock_state([0.3, 0.2], [1.0, 2.0], 12)
    with caplog.at_level(logging.DEBUG, logger="gausswork"):
        apply_gaussian_unitary(beam_splitter(0.7), rho)
        first = [r for r in caplog.records if r.msg.startswith("fock.bases")]
        apply_gaussian_unitary(beam_splitter(-0.2), rho)
    records = [r for r in caplog.records if r.msg.startswith("fock.bases")]
    assert len(first) == len(records) == 1
    record = records[0]
    assert (record.kind, record.cutoff, record.sectors) == ("beam_splitter", 12, 23)
    assert record.seconds >= 0.0
    assert record.getMessage().startswith("fock.bases kind=beam_splitter cutoff=12 sectors=23 ")


def test_displacement_unitary_makes_coherent_state():
    dim = 40
    u = gaussian_unitary_matrix(displacement([2.0, 0.0]), dim)
    vac = np.zeros(dim)
    vac[0] = 1.0
    rho = pure_state(u @ vac, [2.0])
    assert np.isclose(energy_of(rho), 4.0, atol=1e-9)
    x, cov = moments_of(rho)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)
    assert np.allclose(cov, np.eye(2), atol=1e-8)


# ---------------------------------------------------------------------------
# conjugation against the moment-level law


def oracle_state(kind, dim):
    if kind == "thermal":
        return thermal_fock_state([0.3, 0.15], [1.0, 2.0], dim)
    vac = np.zeros(dim * dim)
    vac[0] = 1.0
    return pure_state(vac, [1.0, 2.0])


@pytest.mark.parametrize(
    "op",
    [
        rotation(0.8, 0, 2),
        rotation(-0.5, 1, 2),
        squeeze(0.4, 0, 2),
        squeeze(-0.3, 1, 2),
        two_mode_squeeze(0.35),
        two_mode_squeeze(0.25, (1, 0)),
        beam_splitter(0.9),
        beam_splitter(0.6, (1, 0)),
        displacement([0.7, -0.4, 0.2, 0.5]),
    ],
    ids=lambda op: f"{op.kind}-{op.modes}",
)
def test_conjugation_matches_moment_law(op):
    dim = 40
    for kind in ("thermal", "pure"):
        rho = oracle_state(kind, dim)
        x0, cov0 = moments_of(rho)
        st = MomentState(freqs=[1.0, 2.0], x=x0, cov=cov0)
        out = apply_gaussian_unitary(op, rho)
        x1, cov1 = moments_of(out)
        expected = apply(op, st)
        assert np.allclose(x1, expected.x, atol=1e-6)
        assert np.allclose(cov1, expected.cov, atol=1e-6)
        assert out.leak < 1e-8


def test_conjugation_preserves_entropy():
    rho = thermal_fock_state([0.3, 0.15], [1.0, 2.0], 25)
    s0 = entropy_of(rho)
    seq = [squeeze(0.3, 0, 2), two_mode_squeeze(0.2), beam_splitter(0.7)]
    out = rho
    for op in seq:
        out = apply_gaussian_unitary(op, out)
    assert np.isclose(entropy_of(out), s0, atol=1e-8)


def test_conjugation_round_trip_restores_populations():
    rho = thermal_fock_state(0.4, [1.0], 50)
    op = squeeze(0.5)
    there = apply_gaussian_unitary(op, rho)
    back = apply_gaussian_unitary(squeeze(-0.5), there)
    assert np.allclose(
        _population_diagonal(back), _population_diagonal(rho), atol=1e-9
    )
    assert back.leak >= there.leak >= rho.leak


@pytest.mark.parametrize(
    "op",
    [
        rotation(0.8, 0, 2),
        squeeze(0.4, 1, 2),
        two_mode_squeeze(0.35),
        beam_splitter(0.9),
        displacement([0.5, -0.3, 0.2, 0.4]),
    ],
    ids=lambda op: op.kind,
)
def test_conjugation_peak_memory(op):
    """No unitary is assembled: a call peaks at a few copies of the embedded stack."""
    rho = thermal_fock_state([0.3, 0.2], [1.0, 2.0], 40)
    stack_bytes = _internal_dim(rho.dim) ** 2 * rho.vectors.shape[1] * 16
    apply_gaussian_unitary(op, rho)  # the cached bases are built outside the peak
    tracemalloc.start()
    try:
        apply_gaussian_unitary(op, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack_bytes


@pytest.mark.parametrize(
    "op",
    [
        rotation(0.8, 1, 2),
        squeeze(0.4, 0, 2),
        squeeze(-0.3, 1, 2),
        two_mode_squeeze(0.35),
        two_mode_squeeze(0.25, (1, 0)),
        beam_splitter(0.9),
        beam_splitter(0.6, (1, 0)),
        displacement([0.5, -0.3, 0.2, 0.4]),
    ],
    ids=lambda op: f"{op.kind}-{op.modes}",
)
def test_a_conjugation_allocates_only_its_output(op):
    """Sector products write strided views of one output: the peak is the output's bytes."""
    rho = thermal_fock_state([0.3, 0.2], [1.0, 2.0], 40)
    assert rho.vectors.shape[1] == 275
    apply_gaussian_unitary(op, rho)  # the cached bases and sector rows are built outside the peak
    stack_bytes = rho.vectors.nbytes
    tracemalloc.start()
    try:
        out = apply_gaussian_unitary(op, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * stack_bytes
    # the float-view sums against the |v|^2 formulas they replace
    populations = np.abs(out.vectors) ** 2
    kept = fock._squared_norms(out.vectors) @ out.weights
    kept_ref = np.sum(out.weights * np.sum(populations, axis=0))
    assert abs(kept - kept_ref) <= 1e-14 * kept_ref
    diag, diag_ref = _population_diagonal(out), populations @ out.weights
    assert np.all(np.abs(diag - diag_ref) <= 1e-14 * diag_ref)


def test_moments_peak_memory():
    """The overlaps are taken slab by slab: a call allocates less than one copy of the components."""
    rho = apply_gaussian_unitary(
        displacement([0.5, -0.3, 0.2, 0.4]), thermal_fock_state([0.3, 0.2], [1.0, 2.0], 40)
    )
    moments_of(rho)
    tracemalloc.start()
    try:
        moments_of(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rho.vectors.nbytes


def test_conjugation_logs_one_record_per_call(caplog):
    rho = thermal_fock_state([0.3, 0.2], [1.0, 2.0], 20)
    seq = [displacement([0.5, -0.3, 0.2, 0.4]), two_mode_squeeze(0.35)]
    with caplog.at_level(logging.DEBUG, logger="gausswork"):
        outs = []
        for op in seq:
            rho = apply_gaussian_unitary(op, rho)
            outs.append(rho)
    # a cold basis cache adds fock.bases records; see test_bases_log_once_per_cutoff
    records = [r for r in caplog.records if r.name == "gausswork" and r.msg.startswith("fock.apply")]
    assert len(records) == len(seq)
    for record, op, out in zip(records, seq, outs):
        assert record.levelno == logging.DEBUG
        assert record.kind == op.kind
        assert record.columns == out.vectors.shape[1]
        assert record.build_s >= 0.0 and record.apply_s >= 0.0
        assert record.leak == out.leak
        assert record.getMessage().startswith(f"fock.apply.{op.kind} columns=")
    assert records[1].leak >= records[0].leak


def test_conjugation_mode_count_mismatch():
    rho = thermal_fock_state(0.2, [1.0], 20)
    with pytest.raises(ValidationError):
        apply_gaussian_unitary(beam_splitter(0.3), rho)


# ---------------------------------------------------------------------------
# brute-force energy floor


def test_brute_force_on_passive_state():
    st = MomentState(
        freqs=[1.0, 2.0],
        x=np.zeros(4),
        cov=np.diag([3.0, 3.0, 1.5, 1.5]),
    )
    floor = minimal_gaussian_energy([3.0, 1.5], [1.0, 2.0])
    best = brute_force_min_energy(st, starts=6)
    assert abs(best - floor) < 1e-6
    assert best > floor - 1e-4


def test_brute_force_on_squeezed_vacuum():
    op = compose([squeeze(0.8, 0, 2), two_mode_squeeze(0.4)])
    st = MomentState(
        freqs=[1.0, 1.5], x=np.zeros(4), cov=op.S @ np.eye(4) @ op.S.T
    )
    best = brute_force_min_energy(st, starts=8)
    assert abs(best) < 1e-5
    assert best > -1e-4


def test_brute_force_budget_warning():
    st = MomentState(
        freqs=[1.0, 2.0],
        x=np.zeros(4),
        cov=np.diag([1.5, 1.5, 3.0, 3.0]),
    )
    with pytest.warns(BudgetWarning):
        best = brute_force_min_energy(st, budget=100)
    assert math.isfinite(best)
    assert best > minimal_gaussian_energy([3.0, 1.5], [1.0, 2.0]) - 1e-4


@pytest.mark.parametrize("budget", [1, 5, 11, 12])
def test_an_exhausted_budget_returns_the_best_value_seen(budget):
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([1.5, 1.5, 3.0, 3.0]))
    with pytest.warns(BudgetWarning, match="best-so-far"):
        best = brute_force_min_energy(st, budget=budget)
    assert math.isfinite(best)
    assert best >= minimal_gaussian_energy([3.0, 1.5], [1.0, 2.0]) - 1e-4


def _family_matrix(p):
    """Reference search family as explicit 4x4 products, stage by stage."""
    t1, r1, f1, t2, r2, f2, rt, u1, u2, tb = p

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s], [-s, c]])

    def local(t, r, f):
        return rot(t) @ np.diag([math.exp(-r), math.exp(r)]) @ rot(f)

    eye, sz, zero = np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2))
    locals_ = np.block([[local(t1, r1, f1), zero], [zero, local(t2, r2, f2)]])
    ch, sh = math.cosh(rt), math.sinh(rt)
    tms = np.block([[ch * eye, sh * sz], [sh * sz, ch * eye]])
    realign = np.block([[rot(u1), zero], [zero, rot(u2)]])
    c, s = math.cos(tb), math.sin(tb)
    bs = np.block([[c * eye, s * eye], [s * eye, -c * eye]])
    return bs @ realign @ tms @ locals_


def _product_energy(st, p):
    s = _family_matrix(p)
    g = s @ st.cov @ s.T
    w0, w1 = st.freqs
    return (w0 * (g[0, 0] + g[1, 1] - 2.0) + w1 * (g[2, 2] + g[3, 3] - 2.0)) / 4.0


def _random_active_state(rng, r_max=3.0, freqs=None):
    """Built like criterion 02's bank, with every squeeze drawn from [-r_max, r_max]."""
    nus = rng.uniform(1.0, 10.0, 2)
    op = compose(
        [
            rotation(rng.uniform(-np.pi, np.pi), 0, 2),
            squeeze(rng.uniform(-r_max, r_max), 0, 2),
            rotation(rng.uniform(-np.pi, np.pi), 1, 2),
            squeeze(rng.uniform(-r_max, r_max), 1, 2),
            two_mode_squeeze(rng.uniform(-r_max, r_max)),
            beam_splitter(rng.uniform(-np.pi, np.pi)),
        ]
    )
    cov = op.S @ np.diag([nus[0], nus[0], nus[1], nus[1]]) @ op.S.T
    freqs = rng.uniform(0.5, 2.5, 2) if freqs is None else freqs
    return MomentState(freqs=freqs, x=np.zeros(4), cov=cov)


def _random_point(rng):
    """Six family parameters (t1, r1, f1, r2, f2, rt): angles in [-pi, pi], squeezes in [-1, 1]."""
    p = rng.uniform(-1.0, 1.0, 6)
    p[[0, 2, 4]] *= math.pi
    return p


def _closed_form_tail(st, p):
    """The realign difference u1 - u2 and the beam splitter tb that the closed form assumes."""
    t1, r1, f1, r2, f2, rt = p
    # B(0) = diag(1, -1) on the mode pairs; undo it to read T(rt) (L1 + L2) alone
    s = np.diag([1.0, 1.0, -1.0, -1.0]) @ _family_matrix([t1, r1, f1, 0.0, r2, f2, rt, 0.0, 0.0, 0.0])
    m = s @ st.cov @ s.T
    cross = m[:2, 2:]
    x, y = cross[0, 0] + cross[1, 1], cross[1, 0] - cross[0, 1]
    half_gap = (np.trace(m[:2, :2]) - np.trace(m[2:, 2:])) / 2.0
    sign = 1.0 if st.freqs[0] >= st.freqs[1] else -1.0
    return math.atan2(y, x), math.atan2(-sign * math.hypot(x, y), -sign * half_gap) / 2.0


def test_family_energy_matches_matrix_products():
    """The six-parameter energy is the product energy at the closed-form (u1 - u2, tb)."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(30):
        st = _random_active_state(rng)
        energy = _family_energy(st.cov, st.freqs)
        for _ in range(10):
            p = _random_point(rng)
            p[[1, 3, 5]] *= 3.0
            t1, r1, f1, r2, f2, rt = p
            u, tb = _closed_form_tail(st, p)
            ref = _product_energy(st, [t1, r1, f1, 0.0, r2, f2, rt, u, 0.0, tb])
            worst = max(worst, abs(energy(p)[0] - ref) / abs(ref))
    assert worst < 1e-12


def test_family_energy_is_never_above_the_product_energy():
    rng = np.random.default_rng(32)
    for _ in range(30):
        st = _random_active_state(rng)
        energy = _family_energy(st.cov, st.freqs)
        for _ in range(10):
            t1, r1, f1, r2, f2, rt = _random_point(rng)
            t2, u1, u2, tb = rng.uniform(-np.pi, np.pi, 4)
            # t2 is a gauge: it moves into t1 (see the next test)
            value = energy([t1 + t2, r1, f1, r2, f2, rt])[0]
            ref = _product_energy(st, [t1, r1, f1, t2, r2, f2, rt, u1, u2, tb])
            assert value <= ref + 1e-12 * abs(ref)


def test_family_gauges_leave_the_product_energy_unchanged():
    """T(rt) commutes with R(phi) + R(-phi), so t2 moves into t1 and the realign;
    a common realign angle commutes with the beam splitter and leaves each mode's energy."""
    rng = np.random.default_rng(33)
    for _ in range(30):
        st = _random_active_state(rng)
        t1, r1, f1, r2, f2, rt = _random_point(rng)
        t2, u1, u2, tb, phi = rng.uniform(-np.pi, np.pi, 5)
        ref = _product_energy(st, [t1, r1, f1, t2, r2, f2, rt, u1, u2, tb])
        moved = _product_energy(st, [t1 + t2, r1, f1, 0.0, r2, f2, rt, u1 - t2, u2 + t2, tb])
        common = _product_energy(st, [t1, r1, f1, t2, r2, f2, rt, u1 + phi, u2 + phi, tb])
        assert abs(moved - ref) <= 1e-12 * abs(ref)
        assert abs(common - ref) <= 1e-12 * abs(ref)


def test_family_gradient_matches_central_differences():
    rng = np.random.default_rng(34)
    h = 1e-6
    worst = 0.0
    for _ in range(30):
        st = _random_active_state(rng, r_max=1.0)
        energy = _family_energy(st.cov, st.freqs)
        p = _random_point(rng)
        _, grad = energy(p)
        steps = h * np.eye(6)
        central = [(energy(p + e)[0] - energy(p - e)[0]) / (2.0 * h) for e in steps]
        scale = max(1.0, float(np.max(np.abs(central))))
        worst = max(worst, float(np.max(np.abs(np.array(grad) - central))) / scale)
    assert worst < 1e-6


def test_family_energy_overflow_is_infinite_without_warnings():
    st = _random_active_state(np.random.default_rng(35))
    energy = _family_energy(st.cov, st.freqs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ([0.1, 400.0, 0.2, 0.0, 0.3, 0.0], [0.1, 300.0, 0.2, 250.0, 0.3, 200.0]):
            value, grad = energy(np.array(p))
            assert value == math.inf
            assert list(grad) == [0.0] * 6


def _floor(st):
    return minimal_gaussian_energy(symplectic_spectrum(st.cov), st.freqs)


@pytest.mark.parametrize("r_max, seed", [(2.0, 23), (3.0, 33)])
def test_brute_force_reaches_the_floor_on_strongly_squeezed_states(r_max, seed):
    """Results below the floor come only from rounding, which grows with the squeezing."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(12):
            st = _random_active_state(rng, r_max=r_max)
            floor = _floor(st)
            best = brute_force_min_energy(st)
            assert -1e-6 <= (best - floor) / max(1.0, abs(floor)) <= 1e-8


def test_brute_force_on_equal_thermal_modes_of_distinct_frequencies():
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=2.5 * np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best = brute_force_min_energy(st)
    assert abs(best - minimal_gaussian_energy([2.5, 2.5], [1.0, 2.0])) <= 1e-12


def test_brute_force_on_equal_frequencies():
    rng = np.random.default_rng(36)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(4):
            st = _random_active_state(rng, r_max=1.0, freqs=[1.5, 1.5])
            floor = _floor(st)
            assert abs(brute_force_min_energy(st) - floor) <= 1e-8 * max(1.0, abs(floor))


def test_brute_force_survives_overflowing_line_searches():
    rng = np.random.default_rng(37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            st = _random_active_state(rng, r_max=4.0)
            floor = _floor(st)
            best = brute_force_min_energy(st)
            assert abs(best - floor) <= 1e-6 * max(1.0, abs(floor))


def _scipy_bfgs(fun, x0, gtol):
    return scipy.optimize.minimize(fun, x0, jac=True, method="BFGS", options={"gtol": gtol})


def _recording(solve, log):
    """``solve`` with each local solve's (nfev, objective calls) appended to ``log``."""

    def recorded(fun, x0, gtol):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return fun(x)

        try:
            result = solve(counted, x0, gtol)
        except fock._SolveStopped:
            log.append((None, calls))
            raise
        log.append((result.nfev, calls))
        return result

    return recorded


@pytest.mark.parametrize(
    "settings", [{}, {"maxfev": 50}, {"budget": 700}, {"starts": 1, "maxfev": 50}]
)
def test_the_search_takes_scipys_bfgs_steps(monkeypatch, settings):
    """The in-repo BFGS gives SciPy's values, per-solve nfev and objective calls, and warnings."""
    port = fock.minimize
    for seed in range(20, 26):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            st = _random_active_state(rng)
            runs = []
            for solve in (port, _scipy_bfgs):
                log = []
                monkeypatch.setattr(fock, "minimize", _recording(solve, log))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    best = brute_force_min_energy(st, **settings)
                runs.append((best, log, [str(w.message) for w in caught]))
            assert runs[0] == runs[1]


def test_bfgs_matches_scipy_through_the_fallback_line_search(monkeypatch):
    """Where the Moré–Thuente search fails, the Wolfe fallback finds SciPy's step."""
    st = _random_active_state(np.random.default_rng(20))
    energy = _family_energy(st.cov, st.freqs)
    fallback_steps = []
    wolfe2 = bfgs._wolfe2

    def spy(*args):
        out = wolfe2(*args)
        fallback_steps.append(out[0] is not None)
        return out

    monkeypatch.setattr(bfgs, "_wolfe2", spy)
    rng = np.random.default_rng(21)
    for _ in range(8):
        x0 = _random_point(rng)
        our_log, their_log = [], []
        ours = _recording(bfgs.minimize, our_log)(energy, x0, 1e-8)
        theirs = _recording(_scipy_bfgs, their_log)(energy, x0, 1e-8)
        assert ours.fun == theirs.fun
        assert np.array_equal(ours.x, theirs.x)
        assert our_log == their_log
    assert any(fallback_steps)


def test_brute_force_logs_one_record_per_call(caplog):
    st = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([1.5, 1.5, 3.0, 3.0]))
    with caplog.at_level(logging.DEBUG, logger="gausswork"):
        brute_force_min_energy(st, starts=3)
        with pytest.warns(BudgetWarning):
            brute_force_min_energy(st, budget=20)
        brute_force_min_energy(st, starts=2, maxfev=1)
    records = [r for r in caplog.records if r.getMessage().startswith("fock.search")]
    assert len(records) == 3
    full, short, capped = records
    assert full.levelno == logging.DEBUG
    assert (full.starts, full.capped, full.budget_exhausted) == (3, 0, False)
    assert full.converged >= 4  # three starts and at least one polish round
    assert full.evaluations > 0 and full.seconds >= 0.0
    assert short.budget_exhausted is True and short.evaluations == 20
    assert capped.capped >= 1 and capped.evaluations == capped.capped + capped.converged


def test_brute_force_argument_contracts():
    one = MomentState(freqs=[1.0], x=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ValidationError):
        brute_force_min_energy(one)
    two = MomentState(freqs=[1.0, 1.0], x=np.zeros(4), cov=np.eye(4))
    with pytest.raises(ValidationError):
        brute_force_min_energy(two, starts=0)
    with pytest.raises(ValidationError):
        brute_force_min_energy(two, maxfev=0)
    with pytest.raises(ValidationError):
        brute_force_min_energy(two, budget=0)


def test_moments_feed_the_validator():
    rho = thermal_fock_state([0.5, 0.2], [1.0, 2.0], 40)
    x, cov = moments_of(rho)
    st = MomentState(freqs=[1.0, 2.0], x=x, cov=cov)
    report = validate_state(st)
    assert report.ok
    assert np.isclose(mean_energy(st), energy_of(rho), atol=1e-8)


# ---------------------------------------------------------------------------
# verify: the oracle's verdict on a state and its protocol


def test_verify_an_empty_protocol_on_a_passive_state():
    state = thermal_state([1.0, 2.0], [0.5, 0.5])
    report = verify(state, [], state, cutoff=30, starts=2)
    assert report.replay_residual == 0.0
    assert report.moment_residual < 1e-9 and report.energy_residual < 1e-9
    assert report.spectrum == [float(v) for v in symplectic_spectrum(state.cov)]
    assert abs(report.floor_residual) < 1e-9
    assert report.spectral_floor == minimal_gaussian_energy(report.spectrum, state.freqs)


@pytest.mark.parametrize("cutoff", [12, 40])
def test_verify_reports_the_replayed_states_leak(monkeypatch, cutoff):
    state = MomentState(freqs=[1.0, 1.5], x=np.zeros(4), cov=np.diag([math.exp(-0.5), math.exp(0.5), 1.2, 1.2]))
    report = gaussian_ergotropy(state)
    replayed = []

    def recording_moments_of(rho):
        replayed.append(rho)
        return moments_of(rho)

    monkeypatch.setattr(fock, "moments_of", recording_moments_of)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        checked = verify(state, report.steps, report.final_state, cutoff=cutoff, starts=2)
    [rho] = replayed
    assert abs(checked.leak - (1.0 - float(rho.weights @ np.linalg.norm(rho.vectors, axis=0) ** 2))) <= 1e-15
    assert checked.leak == rho.leak
    assert verify(state, starts=2).leak is None


def test_verify_refuses_what_it_cannot_check():
    one = thermal_state([1.0], [1.0])
    two = thermal_state([1.0, 2.0], [1.0, 1.0])
    three = thermal_state([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="mode counts differ"):
        verify(two, [], one)
    with pytest.raises(ValidationError, match="one or two modes"):
        verify(three, [], three, cutoff=10)
    # a protocol file's final state is outside input, validated like the state itself
    bad = MomentState(freqs=[1.0, 2.0], x=np.zeros(4), cov=np.diag([0.5, 0.5, 1.0, 1.0]))
    with pytest.raises(ValidationError, match="uncertainty"):
        verify(two, [], bad)
