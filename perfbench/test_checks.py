"""Each output check of the benchmark rejects a corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import dataclasses

import numpy as np
import pytest

import symplectic as sp
import tracing
import workloads as wl
from gausswork import extraction, fock, ops
from gausswork.exceptions import ConvergenceError


@pytest.fixture(scope="module")
def pair():
    item = wl.Pairs().make_round(np.random.default_rng([5, 0]))[0]
    return item, extraction.gaussian_ergotropy(item.state)


def test_extraction_check_accepts_the_program(pair):
    item, report = pair
    assert wl.check_extraction(item, report) == []


def test_extraction_check_rejects_a_missed_floor(pair):
    item, report = pair
    bad = dataclasses.replace(report, final_energy=report.final_energy + 1e-6)
    assert any("floor" in p for p in wl.check_extraction(item, bad))


def test_extraction_check_rejects_a_rising_energy(pair):
    item, report = pair
    steps = list(report.steps)
    steps[1] = dataclasses.replace(steps[1], energy_after=steps[0].energy_after + 1.0)
    bad = dataclasses.replace(report, steps=tuple(steps))
    assert any("rises" in p for p in wl.check_extraction(item, bad))


def test_extraction_check_rejects_an_active_certificate(pair):
    item, report = pair
    bad = dataclasses.replace(report, certificate=dataclasses.replace(report.certificate, passive=False))
    assert "certificate is not passive" in wl.check_extraction(item, bad)


def test_extraction_check_rejects_a_wrong_step(pair):
    item, report = pair
    steps = list(report.steps)
    k = next(i for i, s in enumerate(steps) if s.op.kind == "two_mode_squeeze")
    op = steps[k].op
    wrong = ops.two_mode_squeeze(op.params["r"] + 1e-3, op.modes, op.n_modes)
    steps[k] = dataclasses.replace(steps[k], op=wrong)
    bad = dataclasses.replace(report, steps=tuple(steps))
    assert any("rebuilt protocol" in p for p in wl.check_extraction(item, bad))


def test_rebuilt_map_matches_the_program_on_every_kind():
    rng = np.random.default_rng(3)
    cases = [
        ops.rotation(0.3, 1, 3),
        ops.squeeze(-0.4, 2, 3),
        ops.two_mode_squeeze(0.5, (2, 0), 3),
        ops.beam_splitter(1.1, (1, 2), 3),
        ops.displacement(rng.normal(size=6)),
    ]
    S, d = sp.affine_map([(op.kind, op.params, op.modes) for op in cases], 3)
    total = ops.compose(cases)
    assert np.allclose(S, total.S, atol=1e-14) and np.allclose(d, total.d, atol=1e-14)


@pytest.fixture(scope="module")
def oracle_case():
    item = wl.Oracle().make_round(np.random.default_rng([5, 0]))[2]
    return item, wl.Oracle().run(item)


def test_oracle_check_accepts_the_program(oracle_case):
    item, out = oracle_case
    assert wl.Oracle().check(item, out) == []


@pytest.mark.parametrize(
    "field, corrupt, phrase",
    [
        ("cov", lambda v: v + 1e-5, "input moments"),
        ("x", lambda v: v + 1e-5, "input moments"),
        ("energy", lambda v: v + 1e-5, "energy"),
        ("truncation_warnings", lambda v: 1, "truncation"),
        ("search", lambda v: v + 2e-3, "direct search"),
        ("search", lambda v: v - 2e-4, "direct search"),
    ],
)
def test_oracle_check_rejects_corruption(oracle_case, field, corrupt, phrase):
    item, out = oracle_case
    bad = dict(out, **{field: corrupt(copy.deepcopy(out[field]))})
    assert any(phrase in p for p in wl.Oracle().check(item, bad))


def test_known_failure_must_be_a_convergence_error():
    item = wl.squeezed_three_mode(6.5)
    assert wl.expected_failure_problem(item, ConvergenceError("stuck")) == []
    assert wl.expected_failure_problem(item, ValueError("other")) != []


def cli_outputs(item):
    """What a correct CLI prints for an item, computed by the benchmark."""
    if item.kind == "witness":
        drop = wl.thermal_population((0, 5), (1.0, 2.0)) - wl.thermal_population((2, 2), (1.0, 2.0))
        return {"stdout": {"x": 4, "from_levels": [2, 2], "to_levels": [0, 5], "energy_drop": drop}}
    floor = sp.spectral_floor(item.nus, item.state.freqs)
    if item.kind == "validate":
        return {"stdout": {"valid": True}}
    if item.kind == "check":
        return {"stdout": {"passive": False}}
    if item.kind == "spectrum":
        return {"stdout": {"spectrum": list(item.nus)}}
    if item.kind == "gap":
        return {"stdout": {"total_extractable": 2.0, "gaussian_extractable": 1.0, "initial_energy": 3.0}}
    if item.kind == "oracle_verify":
        return {"stdout": {"brute_force_min_energy": floor}}
    report = extraction.nmode_gaussian_ergotropy(item.state)
    protocol = {
        "steps": [
            {"kind": s.op.kind, "parameters": s.op.params, "target_modes": list(s.op.modes)}
            for s in report.steps
        ],
        "final_state": {
            "covariance": report.final_state.cov.tolist(),
            "first_moments": report.final_state.x.tolist(),
        },
    }
    return {"stdout": {"final_energy": report.final_energy, "passive": True}, "protocol": protocol}


CLI_CORRUPTIONS = {
    "validate": [lambda o: o["stdout"].update(valid=False)],
    "check": [lambda o: o["stdout"].update(passive=True)],
    "spectrum": [lambda o: o["stdout"].update(spectrum=[v * (1 + 1e-6) for v in o["stdout"]["spectrum"]])],
    "extract": [
        lambda o: o["stdout"].update(final_energy=o["stdout"]["final_energy"] + 1e-5),
        lambda o: o["stdout"].update(passive=False),
        lambda o: o["protocol"]["final_state"]["covariance"][0].__setitem__(0, 1e3),
    ],
    "gap": [
        lambda o: o["stdout"].update(total_extractable=0.5),
        lambda o: o["stdout"].update(gaussian_extractable=-0.1, total_extractable=-0.1),
    ],
    "witness": [
        lambda o: o["stdout"].update(x=6),
        lambda o: o["stdout"].update(to_levels=[5, 0]),
        lambda o: o["stdout"].update(energy_drop=o["stdout"]["energy_drop"] * 1.001),
    ],
    "oracle_verify": [lambda o: o["stdout"].update(brute_force_min_energy=o["stdout"]["brute_force_min_energy"] + 2e-3)],
}


@pytest.fixture(scope="module")
def cli_items(tmp_path_factory):
    cli = wl.Cli(str(tmp_path_factory.mktemp("cli")))
    return cli, cli.make_round(np.random.default_rng([5, 0]))


def test_cli_checks_accept_correct_outputs_and_reject_corrupted_ones(cli_items):
    cli, items = cli_items
    for item in items:
        assert cli.check(item, cli_outputs(item)) == [], item.argv
        for corrupt in CLI_CORRUPTIONS[item.kind]:
            out = cli_outputs(item)
            corrupt(out)
            assert cli.check(item, out) != [], (item.argv, corrupt)


def test_tracer_self_time_subtracts_direct_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
    totals = tracing.span_totals(spans)
    assert totals["a.s"] == 6.0 and totals["b.s"] == 3.0 and totals["c.s"] == 1.0
    assert totals["b.calls"] == 2


def test_instrument_counts_layers_and_restores_the_program(pair):
    item, _ = pair
    original = extraction.apply
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        report = extraction.gaussian_ergotropy(item.state)
        fock.brute_force_min_energy(item.state, starts=1, maxfev=50)
    finally:
        restore()
    assert extraction.apply is original
    totals = tracing.span_totals(tracer.spans)
    assert totals["ops.apply.calls"] == len(report.steps)
    assert totals["extraction.calls"] == 1 and totals["fock.search.calls"] == 1
    assert tracer.counters["extraction.steps"] == len(report.steps)
    assert tracer.counters["fock.search.nfev"] >= 50
