"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a one-line PASS/FAIL
summary (collected by conftest) in the terminal summary, with the measured
residuals and runtimes inline.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import record_criterion

from gausswork import (
    MomentState,
    apply_gaussian_unitary,
    brute_force_min_energy,
    energy_of,
    entropy_of,
    fixed_entropy_state,
    fock_state,
    gaussian_ergotropy,
    is_gaussian_passive,
    mean_energy,
    minimal_gaussian_energy,
    mixture,
    moments_of,
    pure_match_for_state,
    thermal_fock_state,
    thermal_product_passivity,
    thermal_swap_witness,
)
from gausswork.fock import _population_diagonal
from gausswork.ops import (
    apply,
    beam_splitter,
    compose,
    displacement,
    rotation,
    squeeze,
    two_mode_squeeze,
)

LN2 = math.log(2.0)


@contextmanager
def criterion(num, title):
    info = {"detail": ""}
    try:
        yield info
    except AssertionError:
        suffix = f": {info['detail']}" if info["detail"] else ""
        record_criterion(f"criterion {num:02d} FAIL - {title}{suffix}")
        raise
    suffix = f": {info['detail']}" if info["detail"] else ""
    record_criterion(f"criterion {num:02d} PASS - {title}{suffix}")


_STATE_BANK: list = []


def random_two_mode_states(count=200, seed=20240214):
    """Seeded bank of active two-mode states with known symplectic spectra."""
    while len(_STATE_BANK) < count:
        rng = np.random.default_rng(seed)
        _STATE_BANK.clear()
        for _ in range(count):
            nus = rng.uniform(1.0, 10.0, 2)
            seq = [
                rotation(rng.uniform(-np.pi, np.pi), 0, 2),
                squeeze(rng.uniform(-1.0, 1.0), 0, 2),
                rotation(rng.uniform(-np.pi, np.pi), 1, 2),
                squeeze(rng.uniform(-1.0, 1.0), 1, 2),
                two_mode_squeeze(rng.uniform(-0.8, 0.8)),
                beam_splitter(rng.uniform(-np.pi, np.pi)),
            ]
            op = compose(seq)
            d = rng.normal(size=4)
            d *= rng.uniform(0.0, 3.0) / max(float(np.linalg.norm(d)), 1e-12)
            freqs = rng.uniform(0.5, 2.5, 2)
            _STATE_BANK.append(
                (
                    MomentState(
                        freqs=freqs,
                        x=d,
                        cov=op.S @ np.diag(np.repeat(nus, 2)) @ op.S.T,
                    ),
                    np.sort(nus)[::-1],
                )
            )
    return _STATE_BANK[:count]


def test_criterion_01_pipeline_optimality():
    with criterion(1, "pipeline reaches the spectral floor on 200 random states") as info:
        start = time.monotonic()
        worst = 0.0
        for st, nus in random_two_mode_states(200):
            report = gaussian_ergotropy(st)
            floor = minimal_gaussian_energy(nus, st.freqs)
            resid = abs(report.final_energy - floor) / max(1.0, abs(floor))
            worst = max(worst, resid)
            assert resid <= 1e-8
            energies = [report.initial_energy] + [
                s.energy_after for s in report.steps
            ]
            for before, after in zip(energies, energies[1:]):
                assert after <= before + 1e-9 * max(1.0, abs(before))
            assert report.certificate.passive
        elapsed = time.monotonic() - start
        info["detail"] = f"max relative residual {worst:.2e}, {elapsed:.1f}s"
        assert elapsed <= 10.0


def test_criterion_02_brute_force_agreement():
    with criterion(2, "direct search confirms the pipeline floor on 20 states") as info:
        start = time.monotonic()
        lo, hi = math.inf, -math.inf
        for st, _ in random_two_mode_states(200)[:20]:
            report = gaussian_ergotropy(st)
            brute = brute_force_min_energy(st)
            diff = brute - report.final_energy
            lo, hi = min(lo, diff), max(hi, diff)
            assert -1e-4 <= diff <= 1e-3
        elapsed = time.monotonic() - start
        info["detail"] = f"brute-final in [{lo:.1e}, {hi:.1e}], {elapsed:.1f}s"
        assert elapsed <= 60.0


def test_criterion_03_thermal_product_boundary():
    with criterion(3, "thermal-product shortcut matches the full verdict on a 20x20 grid") as info:
        start = time.monotonic()
        freq_a, freq_b = 1.0, 2.0
        boundary = 0
        for ka in range(1, 21):
            for kb in range(1, 21):
                ta, tb = ka / 4.0, kb / 4.0
                if tb == 2.0 * ta:
                    boundary += 1
                nu_a = 1.0 / math.tanh(freq_a / (2.0 * ta))
                nu_b = 1.0 / math.tanh(freq_b / (2.0 * tb))
                st = MomentState(
                    freqs=[freq_a, freq_b],
                    x=np.zeros(4),
                    cov=np.diag([nu_a, nu_a, nu_b, nu_b]),
                )
                shortcut = thermal_product_passivity(freq_a, freq_b, ta, tb)
                assert shortcut == bool(is_gaussian_passive(st).passive)
        elapsed = time.monotonic() - start
        info["detail"] = f"400 grid points, {boundary} on the equality boundary, {elapsed:.2f}s"
        assert boundary >= 10
        assert elapsed <= 1.0


def test_criterion_04_closed_form_work_values():
    with criterion(4, "closed-form work values") as info:
        st = MomentState(
            freqs=[1.0, 1.0],
            x=np.zeros(4),
            cov=np.diag([math.exp(-2.0), math.exp(2.0), 1.0, 1.0]),
        )
        w1 = gaussian_ergotropy(st).extracted_work
        assert abs(w1 - math.sinh(1.0) ** 2) <= 1e-9
        st = MomentState(
            freqs=[1.0, 2.0],
            x=np.zeros(4),
            cov=np.diag([1.5, 1.5, 3.0, 3.0]),
        )
        w2 = gaussian_ergotropy(st).extracted_work
        assert abs(w2 - 0.75) <= 1e-9
        info["detail"] = (
            f"squeezed vacuum gives {w1:.12f} (sinh^2(1)), "
            f"mis-ordered thermal gives {w2:.12f}"
        )


def test_criterion_05_pure_moment_match():
    with criterion(5, "pure states reproduce thermal-shaped moments") as info:
        worst_cov, worst_x, worst_purity = 0.0, 0.0, 1.0
        for nu in (1.0, 2.2, 4.0, 7.0, 11.6):
            occ = (nu - 1.0) / 2.0
            dim = int(math.floor(occ)) + 20 + 4
            rho = pure_match_for_state(MomentState(freqs=[1.0], x=np.zeros(2), cov=nu * np.eye(2)), dim)
            x, cov = moments_of(rho)
            worst_cov = max(worst_cov, float(np.max(np.abs(cov - nu * np.eye(2)))))
            worst_x = max(worst_x, float(np.linalg.norm(x)))
            dense = rho.dense()
            purity = float(np.real(np.trace(dense @ dense)))
            worst_purity = min(worst_purity, purity)
            assert np.max(np.abs(cov - nu * np.eye(2))) <= 1e-9
            assert np.linalg.norm(x) <= 1e-12
            assert purity >= 1.0 - 1e-10
        info["detail"] = (
            f"max |Gamma - nu*1| {worst_cov:.1e}, max |x| {worst_x:.1e}, "
            f"min purity {worst_purity:.12f}"
        )


def test_criterion_06_fixed_entropy_construction():
    with criterion(6, "fixed-entropy rotation hits the target moments") as info:
        c = fixed_entropy_state(5.0, 2.0 * LN2, freq=1.0, cutoff=60)
        assert c.level == 3
        assert abs(c.mixing - 16.0 / 21.0) <= 1e-12
        entropy_resid = abs(entropy_of(c.state) - 2.0 * LN2)
        x, cov = moments_of(c.state)
        moment_resid = max(
            float(np.max(np.abs(cov - 5.0 * np.eye(2)))), float(np.max(np.abs(x)))
        )
        energy_resid = abs(energy_of(c.state) - 2.0)
        assert entropy_resid <= 1e-10
        assert moment_resid <= 1e-9
        assert energy_resid <= 1e-9
        info["detail"] = (
            f"level 3, mixing 16/21, entropy residual {entropy_resid:.1e}, "
            f"moment residual {moment_resid:.1e}, energy residual {energy_resid:.1e}"
        )


def _oracle_swap_drop(temp_a, temp_b, witness):
    dim = 80
    occs = [1.0 / math.expm1(1.0 / t) for t in (temp_a, temp_b)]
    rho = thermal_fock_state(occs, [1.0, 1.0], dim)
    diag = _population_diagonal(rho).copy()
    i_from = witness.from_levels[0] * dim + witness.from_levels[1]
    i_to = witness.to_levels[0] * dim + witness.to_levels[1]
    diag[i_from], diag[i_to] = diag[i_to], diag[i_from]
    keep = np.flatnonzero(diag > 0)
    vectors = np.zeros((keep.size, dim * dim))
    vectors[np.arange(keep.size), keep] = 1.0
    swapped = mixture(diag[keep], vectors, [1.0, 1.0], dim)
    return energy_of(rho) - energy_of(swapped)


def test_criterion_07_swap_witnesses():
    with criterion(7, "population-swap witnesses lower the oracle energy") as info:
        w12 = thermal_swap_witness(1.0, 2.0)
        assert w12.x == 4
        assert w12.from_levels == (2, 2)
        assert w12.to_levels == (0, 5)
        drop12 = _oracle_swap_drop(1.0, 2.0, w12)
        assert drop12 > 0.0
        assert abs(drop12 - w12.energy_drop) <= 1e-9

        w13 = thermal_swap_witness(1.0, 3.0)
        assert w13.x == 2
        assert w13.from_levels == (1, 1)
        assert w13.to_levels == (0, 3)
        drop13 = _oracle_swap_drop(1.0, 3.0, w13)
        assert drop13 > 0.0
        assert abs(drop13 - w13.energy_drop) <= 1e-9
        info["detail"] = (
            f"(1,2): x=4, oracle drop {drop12:.12f}; "
            f"(1,3): x=2, oracle drop {drop13:.12f}"
        )


def test_criterion_08_energy_convention_audit():
    with criterion(8, "coherent-state energy convention") as info:
        dim = 40
        rho = fock_state(0, [2.0], dim)
        rho = apply_gaussian_unitary(displacement([2.0, 0.0]), rho)
        oracle_energy = energy_of(rho)
        st = MomentState(freqs=[2.0], x=[2.0, 0.0], cov=np.eye(2))
        moment_energy = mean_energy(st)
        assert abs(oracle_energy - 4.0) <= 1e-9
        assert abs(moment_energy - 4.0) <= 1e-12
        info["detail"] = (
            f"x=(2,0), Gamma=1, omega=2 gives oracle {oracle_energy:.12f} and "
            f"moment {moment_energy:.12f}; pins E = sum_m omega_m*(Tr(Gamma_m)-2)/4 "
            f"+ omega_m*|x_m|^2/2, i.e. first-moment coefficient 1/2"
        )


def test_criterion_09_transformation_law():
    with criterion(9, "oracle conjugation reproduces the affine moment law") as info:
        start = time.monotonic()
        dim = 40
        ops = [
            rotation(0.8, 0, 2),
            squeeze(0.4, 1, 2),
            two_mode_squeeze(0.35),
            beam_splitter(0.9),
            displacement([0.5, -0.3, 0.2, 0.4]),
        ]
        thermal_occs = [
            (0.1, 0.1),
            (0.3, 0.2),
            (0.25, 0.05),
            (0.15, 0.3),
            (0.05, 0.25),
        ]
        states = [thermal_fock_state(o, [1.0, 2.0], dim) for o in thermal_occs]
        for na, nb in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
            states.append(fock_state((na, nb), [1.0, 2.0], dim))
        worst = 0.0
        for op in ops:
            for rho in states:
                x0, cov0 = moments_of(rho)
                st = MomentState(freqs=[1.0, 2.0], x=x0, cov=cov0)
                out = apply_gaussian_unitary(op, rho)
                x1, cov1 = moments_of(out)
                expected = apply(op, st)
                resid = max(
                    float(np.max(np.abs(cov1 - expected.cov))),
                    float(np.max(np.abs(x1 - expected.x))),
                )
                worst = max(worst, resid)
                assert resid <= 1e-6
        elapsed = time.monotonic() - start
        info["detail"] = (
            f"5 op kinds x 10 states at cutoff {dim}, worst residual "
            f"{worst:.1e}, {elapsed:.1f}s"
        )
        assert elapsed <= 30.0


def test_criterion_10_three_mode_sweeps():
    with criterion(10, "pairwise sweeps settle the three-mode example") as info:
        st = MomentState(
            freqs=[1.0, 2.0, 3.0],
            x=np.zeros(6),
            cov=np.diag(np.repeat([1.2, 2.0, 3.0], 2)),
        )
        report = gaussian_ergotropy(st)
        resid = abs(report.final_energy - 2.3)
        assert resid <= 1e-8
        assert report.sweeps is not None and report.sweeps <= 5
        assert report.certificate.passive
        info["detail"] = (
            f"4.1 -> {report.final_energy:.10f} (floor 2.3, residual {resid:.1e}) "
            f"in {report.sweeps} sweep(s)"
        )
