"""Command-line interface and file formats."""

import csv
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gausswork
from gausswork import (
    FileFormatError,
    MomentState,
    load_state,
    save_state,
    state_from_dict,
    state_to_dict,
    steps_from_dict,
)
from gausswork.cli import main
from gausswork.ops import apply, beam_splitter, compose, two_mode_squeeze


def write_state(path, freqs, cov, x=None, **extra):
    n = len(freqs)
    data = {
        "modes": [{"frequency": float(w)} for w in freqs],
        "first_moments": [float(v) for v in (x if x is not None else [0.0] * (2 * n))],
        "covariance": [[float(v) for v in row] for row in np.asarray(cov)],
    }
    data.update(extra)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def squeezed_file(tmp_path):
    return write_state(
        tmp_path / "squeezed.json",
        [1.0, 1.0],
        np.diag([math.exp(-2.0), math.exp(2.0), 1.0, 1.0]),
    )


@pytest.fixture
def passive_file(tmp_path):
    return write_state(
        tmp_path / "passive.json", [1.0, 2.0], np.diag([3.0, 3.0, 1.5, 1.5])
    )


@pytest.fixture
def misordered_file(tmp_path):
    return write_state(
        tmp_path / "misordered.json", [1.0, 2.0], np.diag([1.5, 1.5, 3.0, 3.0])
    )


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# ---------------------------------------------------------------------------
# validate / check / spectrum


def test_validate_good_state(capsys, passive_file):
    code, payload, _ = run_json(capsys, ["validate", passive_file])
    assert code == 0
    assert payload == {"valid": True, "n_modes": 2, "violations": []}


def test_validate_uncertainty_violation(capsys, tmp_path):
    path = write_state(tmp_path / "bad.json", [1.0], 0.5 * np.eye(2))
    code, payload, _ = run_json(capsys, ["validate", path])
    assert code == 1
    assert payload["valid"] is False
    assert any("uncertainty" in v for v in payload["violations"])
    assert any("-5.000e-01" in v for v in payload["violations"])


def test_validate_missing_file(capsys, tmp_path):
    code, payload, err = run_json(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 1
    assert payload is None
    assert "error:" in err


def test_validate_truncated_json(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"modes": [{"frequency"')
    code, _, err = run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert "not valid JSON" in err


def test_validate_missing_field(capsys, tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps({"modes": [{"frequency": 1.0}]}))
    code, _, err = run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert "first_moments" in err


def test_check_reports_clause(capsys, passive_file, misordered_file):
    code, payload, _ = run_json(capsys, ["check", passive_file])
    assert code == 0
    assert payload["passive"] is True
    assert payload["clause"] == "i"
    code, payload, _ = run_json(capsys, ["check", misordered_file])
    assert code == 0
    assert payload["passive"] is False
    assert "spectrum ordering violates frequency ordering" in payload["violations"]


def test_check_answers_a_single_mode(capsys, tmp_path):
    squeezed = write_state(tmp_path / "one.json", [1.0], np.diag([0.5, 2.0]))
    code, payload, _ = run_json(capsys, ["check", squeezed])
    assert code == 0
    assert payload["passive"] is False
    assert payload["violations"] == ["covariance not in Williamson form"]
    thermal = write_state(tmp_path / "thermal.json", [1.0], 3.0 * np.eye(2))
    code, payload, _ = run_json(capsys, ["check", thermal])
    assert code == 0
    assert payload["passive"] is True and payload["clause"] == "i"


def test_check_rejects_invalid_state(capsys, tmp_path):
    path = write_state(tmp_path / "bad.json", [1.0, 1.0], 0.5 * np.eye(4))
    protocol = tmp_path / "protocol.json"
    protocol.write_text(json.dumps({"steps": [], "final_state": json.loads(pathlib.Path(path).read_text())}))
    _, report, _ = run_json(capsys, ["validate", path])
    for argv in (
        ["check", path],
        ["oracle-verify", path],
        ["oracle-verify", path, "--protocol", str(protocol)],
    ):
        code, payload, err = run_json(capsys, argv)
        assert code == 1, argv
        assert payload is None, argv
        assert "uncertainty" in err
        assert err == "error: " + "; ".join(report["violations"]) + "\n"


def test_spectrum_output(capsys, misordered_file):
    code, payload, _ = run_json(capsys, ["spectrum", misordered_file])
    assert code == 0
    assert np.allclose(payload["spectrum"], [3.0, 1.5], atol=1e-12)
    assert np.isclose(payload["mean_energy"], 2.25, atol=1e-12)
    assert np.isclose(payload["minimal_gaussian_energy"], 1.5, atol=1e-12)
    assert payload["entropy"] > 0


def test_spectrum_entropy_at_high_occupation(capsys, tmp_path):
    path = write_state(tmp_path / "hot.json", [1.0], 1e17 * np.eye(2))
    code, payload, _ = run_json(capsys, ["spectrum", path])
    assert code == 0
    # ln(m) + 1 + O(1/m) at occupation m = (1e17 - 1) / 2
    assert payload["entropy"] == pytest.approx(math.log(5e16) + 1.0, rel=1e-12)
    assert payload["entropy"] == pytest.approx(39.45, abs=0.01)


@pytest.mark.parametrize(
    "cov, message",
    [
        # Γ[0][2] = 5 but Γ[2][0] = 0
        (np.eye(4) + np.diag([5.0, 0.0], k=2), "covariance not symmetric"),
        (np.diag([1.0, 1.0, 2.0, -0.5]), "covariance not positive definite"),
    ],
    ids=["asymmetric", "indefinite"],
)
def test_spectrum_rejects_invalid_state(capsys, tmp_path, cov, message):
    path = write_state(tmp_path / "bad.json", [1.0, 2.0], cov)
    _, report, _ = run_json(capsys, ["validate", path])
    code, payload, err = run_json(capsys, ["spectrum", path])
    assert code == 1
    assert payload is None
    assert message in err
    assert err == "error: " + "; ".join(report["violations"]) + "\n"


# ---------------------------------------------------------------------------
# extract


def test_extract_squeezed_state(capsys, tmp_path, squeezed_file):
    out = tmp_path / "protocol.json"
    trace = tmp_path / "trace.csv"
    code, payload, _ = run_json(
        capsys, ["extract", squeezed_file, "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    assert np.isclose(payload["extracted_work"], 1.3810978455418157, atol=1e-12)
    assert payload["passive"] is True

    data = json.loads(out.read_text())
    assert np.isclose(data["extracted_work"], payload["extracted_work"], atol=1e-15)
    assert data["certificate"]["passive"] is True
    assert np.allclose(data["spectrum"], [1.0, 1.0], atol=1e-10)

    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step_index", "stage", "description", "energy_after"]
    assert len(rows) == 1 + len(data["steps"])
    assert rows[1] == ["0", "P2-local", "squeeze(r=-1) on mode 0", "0"]


def test_protocol_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(5150)
    nus = np.array([2.5, 1.4])
    from gausswork.ops import beam_splitter, rotation, squeeze, two_mode_squeeze

    op = compose(
        [
            rotation(0.6, 0, 2),
            squeeze(0.5, 1, 2),
            two_mode_squeeze(0.4),
            beam_splitter(1.2),
        ]
    )
    cov = op.S @ np.diag(np.repeat(nus, 2)) @ op.S.T
    x = rng.uniform(-1.0, 1.0, 4)
    path = write_state(tmp_path / "state.json", [1.0, 2.0], cov, x=x)
    out = tmp_path / "protocol.json"
    code, payload, _ = run_json(capsys, ["extract", path, "--out", str(out)])
    assert code == 0

    data = json.loads(out.read_text())
    steps = steps_from_dict(data)
    assert len(steps) == len(data["steps"])
    assert all(s.stage == raw["stage"] for s, raw in zip(steps, data["steps"]))
    total = compose([s.op for s in steps])
    initial = load_state(path)
    replayed = apply(total, initial)
    final = state_from_dict(data["final_state"])
    assert np.max(np.abs(replayed.cov - final.cov)) < 1e-9
    assert np.max(np.abs(replayed.x - final.x)) < 1e-9
    assert np.isclose(
        data["final_energy"], data["initial_energy"] - data["extracted_work"],
        atol=1e-12,
    )


def test_extract_passive_state_is_a_no_op(capsys, tmp_path, passive_file):
    out = tmp_path / "protocol.json"
    code, payload, _ = run_json(capsys, ["extract", passive_file, "--out", str(out)])
    assert code == 0
    assert payload["extracted_work"] == 0.0
    assert payload["steps"] == 0
    assert json.loads(out.read_text())["steps"] == []


def test_extract_misordered_thermal(capsys, misordered_file):
    code, payload, _ = run_json(capsys, ["extract", misordered_file])
    assert code == 0
    assert np.isclose(payload["extracted_work"], 0.75, atol=1e-12)
    assert payload["steps"] == 1


def test_extract_three_modes_without_the_flag(capsys, tmp_path):
    # --nmode is accepted and changes nothing
    path = write_state(
        tmp_path / "three.json",
        [1.0, 2.0, 3.0],
        np.diag(np.repeat([1.2, 2.0, 3.0], 2)),
    )
    code, payload, _ = run_json(capsys, ["extract", path])
    assert code == 0
    assert np.isclose(payload["extracted_work"], 1.8, atol=1e-8)
    code, flagged, _ = run_json(capsys, ["extract", path, "--nmode"])
    assert code == 0
    assert flagged == payload


def test_extract_single_mode(capsys, tmp_path):
    # squeezed vacuum: the closed-form work is E - omega (nu - 1) / 2 = 0.125
    path = write_state(tmp_path / "one.json", [1.0], np.diag([0.5, 2.0]))
    code, payload, _ = run_json(capsys, ["extract", path])
    assert code == 0
    assert payload["extracted_work"] == pytest.approx(0.125, abs=1e-15)
    assert payload["passive"] is True and payload["steps"] == 1


def test_extract_convergence_failure_writes_partial_trace(capsys, tmp_path, monkeypatch):
    from gausswork import extraction
    from gausswork.ops import beam_splitter, squeeze, two_mode_squeeze

    # one sweep is too few for this state: the sweep bound raises after the
    # first pass over its pair
    monkeypatch.setattr(extraction, "MAX_SWEEPS", 1)
    op = compose([squeeze(0.7, 0, 2), two_mode_squeeze(0.5), beam_splitter(0.8)])
    cov = op.S @ np.diag([2.0, 2.0, 4.0, 4.0]) @ op.S.T
    path = write_state(tmp_path / "slow.json", [1.0, 2.0], cov)
    trace = tmp_path / "partial.csv"
    code, _, err = run_json(capsys, ["extract", path, "--trace", str(trace)])
    assert code == 2
    assert "did not converge" in err
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step_index", "stage", "description", "energy_after"]
    assert len(rows) > 1


# ---------------------------------------------------------------------------
# gap / witness


def test_gap_command(capsys, tmp_path, squeezed_file):
    code, payload, _ = run_json(capsys, ["gap", squeezed_file])
    assert code == 0
    assert np.isclose(payload["entropy"], 0.0, atol=1e-12)
    assert np.isclose(
        payload["total_extractable"], payload["initial_energy"], atol=1e-12
    )
    assert abs(payload["gap"]) < 1e-9
    assert "free_energy_gap" not in payload

    code, payload, _ = run_json(capsys, ["gap", squeezed_file, "--tref", "1.5"])
    assert code == 0
    assert "free_energy_gap" in payload

    iso = write_state(tmp_path / "iso.json", [1.0, 2.0], 3.0 * np.eye(4))
    code, payload, _ = run_json(capsys, ["gap", iso])
    assert code == 0
    assert np.isclose(payload["gap"], 0.23724957791753187, atol=1e-9)
    assert payload["gaussian_extractable"] == 0.0


def test_gap_with_prescribed_entropy(capsys, squeezed_file):
    code, payload, _ = run_json(capsys, ["gap", squeezed_file, "--entropy", "0.0"])
    assert code == 0
    assert payload["entropy"] == 0.0


def test_gap_at_tiny_entropy(capsys, tmp_path):
    # the inverse-temperature bracket passes beta = 709, where e^beta overflows
    path = write_state(tmp_path / "iso.json", [1.0, 2.0], 3.0 * np.eye(4))
    code, payload, err = run_json(capsys, ["gap", path, "--entropy", "1e-300"])
    assert code == 0, err
    assert payload["entropy"] == 1e-300
    assert 0.0 < payload["total_extractable"] <= payload["initial_energy"]
    assert math.isfinite(payload["gap"])


def test_gap_answers_the_whole_entropy_range(capsys, tmp_path):
    # one inversion for every entropy: gap used to refuse from S = 645.7 up,
    # and to answer below the entropy of the least positive occupation
    path = write_state(tmp_path / "hot.json", [1.0], 1e305 * np.eye(2))
    for entropy in ("645.8", "700"):
        code, payload, err = run_json(capsys, ["gap", path, "--entropy", entropy])
        assert code == 0, err
        assert 0.0 < payload["total_extractable"] <= payload["initial_energy"]
    # the least energy at S = 710.78 is about the largest float, above any state's
    code, payload, err = run_json(capsys, ["gap", path, "--entropy", "710.78"])
    assert code == 1 and "is unattainable" in err
    for entropy in ("1e-322", "3.6e-321", "711"):
        code, payload, err = run_json(capsys, ["gap", path, "--entropy", entropy])
        assert code == 1 and payload is None
        assert "out of solvable range" in err


def test_witness_command(capsys):
    code, payload, _ = run_json(capsys, ["witness", "--ta", "1.0", "--tb", "2.0"])
    assert code == 0
    assert payload["x"] == 4
    assert payload["from_levels"] == [2, 2]
    assert payload["to_levels"] == [0, 5]
    assert np.isclose(payload["energy_drop"], 0.008033143127396966, atol=1e-15)

    code, payload, _ = run_json(capsys, ["witness", "--ta", "1.0", "--tb", "1.0"])
    assert code == 0
    assert payload == {"witness": "none"}

    code, _, err = run_json(capsys, ["witness", "--ta", "-1.0", "--tb", "1.0"])
    assert code == 1
    assert "nonnegative" in err


@pytest.mark.parametrize("ta", ["nan", "inf"])
def test_witness_refuses_non_finite_temperatures(capsys, ta):
    # --ta nan exited 2 with "unexpected failure", --ta inf exited 1 with an
    # internal-inconsistency message
    code, payload, err = run_json(capsys, ["witness", "--ta", ta, "--tb", "1"])
    assert code == 1
    assert payload is None
    assert "temperatures must be finite and nonnegative" in err


# ---------------------------------------------------------------------------
# oracle-verify


def test_oracle_verify_protocol_replay(capsys, tmp_path):
    # An undisplaced local squeeze, and a displaced two-mode-squeezed thermal
    # state whose replay runs the displacement and two-mode-squeeze unitaries.
    tms = apply(
        two_mode_squeeze(0.3),
        MomentState(
            freqs=[1.0, 1.5],
            x=[0.6, -0.4, 0.3, 0.5],
            cov=np.diag([1.2, 1.2, 1.1, 1.1]),
        ),
    )
    cases = [
        (
            write_state(
                tmp_path / "mild.json",
                [1.0, 1.0],
                np.diag([math.exp(-1.0), math.exp(1.0), 1.0, 1.0]),
            ),
            {"squeeze"},
            [1.0, 1.0],
        ),
        (
            write_state(tmp_path / "displaced.json", tms.freqs, tms.cov, tms.x),
            {"displacement", "two_mode_squeeze"},
            [1.2, 1.1],
        ),
    ]
    for k, (path, kinds, spectrum) in enumerate(cases):
        out = tmp_path / f"protocol-{k}.json"
        code, _, _ = run_json(capsys, ["extract", path, "--out", str(out)])
        assert code == 0
        steps = json.loads(out.read_text())["steps"]
        assert kinds <= {step["kind"] for step in steps}
        code, payload, _ = run_json(
            capsys, ["oracle-verify", path, "--protocol", str(out), "--cutoff", "40"]
        )
        assert code == 0
        assert payload["replay_residual"] < 1e-9
        assert payload["moment_residual"] < 1e-6
        assert payload["energy_residual"] < 1e-6
        assert abs(payload["floor_residual"]) < 1e-4
        assert np.allclose(payload["spectrum"], spectrum, atol=1e-9)


@pytest.mark.parametrize("shift", [None, [0.4, -0.2, 0.3, 0.1]], ids=["no-steps", "one-step"])
def test_oracle_verify_replays_from_a_coupled_equal_frequency_final_state(capsys, tmp_path, shift):
    # a clause-"ii" passive pair at equal frequencies: the thermal reference is
    # the product the pair splits into, turned back, not the thermal state of
    # the diagonal of Γ (moment_residual 0.631 before)
    splitter = beam_splitter(0.5).S
    cov = splitter @ np.diag([3.0, 3.0, 1.5, 1.5]) @ splitter.T
    path = write_state(tmp_path / "coupled.json", [1.0, 1.0], cov, shift)
    out = tmp_path / "protocol.json"
    code, payload, _ = run_json(capsys, ["extract", path, "--out", str(out)])
    assert code == 0 and payload["passive"] is True
    assert payload["steps"] == (0 if shift is None else 1)
    code, payload, err = run_json(
        capsys, ["oracle-verify", path, "--protocol", str(out), "--cutoff", "40"]
    )
    assert code == 0, err
    assert payload["replay_residual"] < 1e-12
    assert payload["moment_residual"] <= 1e-9
    assert payload["energy_residual"] <= 1e-9


def test_oracle_verify_without_protocol(capsys, misordered_file):
    code, payload, _ = run_json(
        capsys, ["oracle-verify", misordered_file, "--starts", "8"]
    )
    assert code == 0
    assert np.isclose(payload["spectral_floor"], 1.5, atol=1e-12)
    assert abs(payload["floor_residual"]) < 1e-4
    assert "replay_residual" not in payload


def test_oracle_verify_replays_a_single_mode_protocol(capsys, tmp_path):
    # displaced, rotated and squeezed thermal mode: three steps, replayed in Fock space
    cov = np.array([[1.3, 0.2], [0.2, 0.9]])
    path = write_state(tmp_path / "one.json", [1.5], cov, x=[0.4, -0.3])
    out = tmp_path / "protocol.json"
    code, payload, _ = run_json(capsys, ["extract", path, "--out", str(out)])
    assert code == 0
    assert payload["passive"] is True and payload["steps"] == 3
    protocol = json.loads(out.read_text())
    assert [s["kind"] for s in protocol["steps"]] == ["displacement", "rotation", "squeeze"]
    code, payload, _ = run_json(
        capsys, ["oracle-verify", path, "--protocol", str(out), "--cutoff", "40"]
    )
    assert code == 0
    assert payload["replay_residual"] <= 1e-6
    assert payload["moment_residual"] <= 1e-6
    assert payload["energy_residual"] <= 1e-6
    assert np.allclose(payload["spectrum"], [math.sqrt(1.3 * 0.9 - 0.04)], atol=1e-12)
    assert "floor_residual" not in payload


def test_oracle_verify_prints_the_library_report(capsys, tmp_path):
    path = write_state(
        tmp_path / "mild.json", [1.0, 1.5], np.diag([math.exp(-0.5), math.exp(0.5), 1.2, 1.2])
    )
    out = tmp_path / "protocol.json"
    assert main(["extract", path, "--out", str(out)]) == 0
    capsys.readouterr()
    steps, data = gausswork.load_protocol_steps(out)
    state, final_state = load_state(path), state_from_dict(data["final_state"])
    for argv, report in (
        (["--starts", "4"], gausswork.verify(state, starts=4)),
        (["--protocol", str(out)], gausswork.verify(state, steps, final_state)),
    ):
        code, payload, _ = run_json(capsys, ["oracle-verify", path, *argv])
        assert code == 0
        fields = {k: v for k, v in vars(report).items() if v is not None}
        assert payload == fields
        assert list(payload) == list(fields)


def test_oracle_verify_refuses_an_unsupported_cutoff_before_allocating(capsys, tmp_path):
    # the thermal reference used to allocate dim^2 x r entries (7.28 TiB at a
    # cutoff of 10^6) before the state checked the cutoff, and without a
    # protocol the cutoff was echoed back
    path = write_state(
        tmp_path / "mild.json", [1.0, 1.5], np.diag([math.exp(-0.5), math.exp(0.5), 1.2, 1.2])
    )
    out = tmp_path / "protocol.json"
    assert main(["extract", path, "--out", str(out)]) == 0
    capsys.readouterr()
    for argv in (["--protocol", str(out)], []):
        code, payload, err = run_json(capsys, ["oracle-verify", path, "--cutoff", "1000000", *argv])
        assert code == 1
        assert payload is None
        assert "cutoff 1000000 outside supported range [2, 80]" in err


def test_an_overflowing_energy_is_refused(capsys, tmp_path):
    state = MomentState(freqs=[1.0, 2.0], x=[1e160, 0.0, 0.0, 0.0], cov=np.eye(4))
    for fn in (gausswork.mean_energy, gausswork.gaussian_ergotropy, gausswork.ergotropy_gap):
        with pytest.raises(gausswork.ValidationError, match="not finite"):
            fn(state)
    path = write_state(tmp_path / "huge.json", state.freqs, state.cov, state.x)
    for verb in ("gap", "spectrum", "extract"):
        code, payload, err = run_json(capsys, [verb, path])
        assert code == 1, verb
        assert payload is None, verb
        assert "not finite" in err


def test_oracle_verify_single_mode_needs_protocol(capsys, tmp_path):
    path = write_state(tmp_path / "one.json", [1.0], np.diag([0.5, 2.0]))
    code, _, err = run_json(capsys, ["oracle-verify", path])
    assert code == 1
    assert "two-mode" in err


# ---------------------------------------------------------------------------
# argument handling and file formats


def test_help_and_bad_flags(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["extract"]) == 1
    capsys.readouterr()


def _checkout_env():
    """Environment for a fresh interpreter that imports this ``gausswork``."""
    env = dict(os.environ)
    package_parent = str(pathlib.Path(gausswork.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p
    )
    return env


# Runs a ``module:attr`` entry point the way an installed console script does.
_SCRIPT_LAUNCHER = """\
import importlib, sys
target = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])
sys.argv = ["gausswork"] + sys.argv[3:]
sys.exit(target())
"""


def test_console_script_smoke(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "gausswork" in scripts
    module, _, attr = scripts["gausswork"].partition(":")
    path = write_state(
        tmp_path / "vac.json", [1.0, 2.0], np.eye(4)
    )
    runs = [([sys.executable, "-c", _SCRIPT_LAUNCHER, module, attr], _checkout_env())]
    exe = shutil.which("gausswork")
    if exe is not None:
        runs.append(([exe], None))
    for command, run_env in runs:
        proc = subprocess.run(
            command + ["validate", path], capture_output=True, text=True, env=run_env
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["valid"] is True


# Runs ``main`` on each argv in one fresh interpreter and records, after the
# package import and after every verb, which SciPy modules are loaded.
_SCIPY_PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import gausswork
from gausswork.cli import main

record = {"import": scipy_modules(), "verbs": []}
for argv in json.loads(sys.argv[1]):
    record["verbs"].append([argv, main(argv), scipy_modules()])
record["unresolved"] = [n for n in gausswork.__all__ if not hasattr(gausswork, n)]
record["same_object"] = gausswork.moments_of is gausswork.fock.moments_of
with open(sys.argv[2], "w") as fh:
    json.dump(record, fh)
"""


def test_moment_verbs_start_without_scipy(tmp_path, squeezed_file):
    # The test process has SciPy loaded already, so the verbs run elsewhere.
    thermal = MomentState(
        freqs=[1.0, 2.0, 3.0], x=np.zeros(6), cov=np.diag(np.repeat([1.2, 2.0, 3.0], 2))
    )
    three = apply(two_mode_squeeze(0.5, (0, 2), 3), thermal)
    three_file = write_state(tmp_path / "three.json", three.freqs, three.cov)
    verbs = [
        ["validate", squeezed_file],
        ["check", squeezed_file],
        ["spectrum", squeezed_file],
        ["extract", squeezed_file],
        ["extract", three_file, "--nmode"],
        ["gap", squeezed_file],
        ["witness", "--ta", "1.0", "--tb", "2.0"],
        ["oracle-verify", squeezed_file, "--starts", "2"],
    ]
    out = tmp_path / "record.json"
    argv_list = json.dumps(verbs)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, argv_list, str(out)],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["import"] == []
    for argv, code, loaded in record["verbs"]:
        assert code == 0, argv
        assert loaded == [], argv
    assert record["unresolved"] == []
    assert record["same_object"] is True


# Runs the Fock oracle without and then with a direct search in one fresh
# interpreter, and records which SciPy modules are loaded after each.
_FOCK_SCIPY_PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import gausswork.fock as fock
from gausswork import gap
from gausswork.core import MomentState
from gausswork.ops import beam_splitter, displacement, rotation, squeeze, two_mode_squeeze

record = {"import": scipy_modules()}
rho = fock.thermal_fock_state([0.3, 0.2], [1.0, 2.0], 20)
for op in (
    rotation(0.4, 0, 2),
    squeeze(0.3, 1, 2),
    two_mode_squeeze(0.2),
    beam_splitter(0.7),
    displacement([0.3, -0.2, 0.1, 0.4]),
):
    rho = fock.apply_gaussian_unitary(op, rho)
fock.gaussian_unitary_matrix(beam_splitter(0.7), 20)
x, cov = fock.moments_of(rho)
fock.energy_of(rho)
fock.entropy_of(rho)
fock.ergotropy_of(rho)
gap.fixed_entropy_state(3.0, 0.5)
record["oracle"] = scipy_modules()
fock.brute_force_min_energy(MomentState(freqs=[1.0, 2.0], x=x, cov=cov), starts=1)
record["search"] = scipy_modules()
json.dump(record, sys.stdout)
"""


def test_fock_oracle_and_direct_search_never_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _FOCK_SCIPY_PROBE],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["import"] == []
    assert record["oracle"] == []
    assert record["search"] == []


def test_state_file_round_trip(tmp_path):
    st = MomentState(
        freqs=[1.0, 2.0],
        x=[0.1, -0.2, 0.3, 0.0],
        cov=np.diag([2.0, 2.0, 1.5, 1.5]),
    )
    path = tmp_path / "state.json"
    save_state(st, path, name="fixture", metadata={"note": "round trip"})
    data = json.loads(path.read_text())
    assert data["name"] == "fixture"
    assert data["metadata"] == {"note": "round trip"}
    back = load_state(path)
    assert np.allclose(back.x, st.x, atol=0)
    assert np.allclose(back.cov, st.cov, atol=0)
    assert np.allclose(back.freqs, st.freqs, atol=0)


def test_state_dict_errors():
    with pytest.raises(FileFormatError, match="modes"):
        state_from_dict({"first_moments": [0, 0], "covariance": [[1, 0], [0, 1]]})
    with pytest.raises(FileFormatError, match="frequency"):
        state_from_dict({"modes": [{"freq": 1.0}]})
    with pytest.raises(FileFormatError, match="length 2"):
        state_from_dict(
            {
                "modes": [{"frequency": 1.0}],
                "first_moments": [0, 0, 0],
                "covariance": np.eye(2).tolist(),
            }
        )
    good = {
        "modes": [{"frequency": 1.0}],
        "first_moments": [0, 0],
        "covariance": np.eye(2).tolist(),
    }
    st = state_from_dict(good)
    assert st.n_modes == 1
    assert state_to_dict(st)["covariance"] == [[1.0, 0.0], [0.0, 1.0]]


def test_protocol_dict_errors():
    final = {
        "modes": [{"frequency": 1.0}, {"frequency": 1.0}],
        "first_moments": [0.0] * 4,
        "covariance": np.eye(4).tolist(),
    }
    with pytest.raises(FileFormatError, match="steps"):
        steps_from_dict({"final_state": final})
    with pytest.raises(FileFormatError, match="unknown stage"):
        steps_from_dict(
            {
                "final_state": final,
                "steps": [
                    {
                        "stage": "P9-magic",
                        "kind": "rotation",
                        "parameters": {"theta": 0.1},
                        "target_modes": [0],
                        "energy_after": 0.0,
                    }
                ],
            }
        )
    with pytest.raises(FileFormatError, match="missing 'kind'"):
        steps_from_dict(
            {
                "final_state": final,
                "steps": [{"stage": "P2-local"}],
            }
        )
    with pytest.raises(FileFormatError, match="not a valid operation"):
        steps_from_dict(
            {
                "final_state": final,
                "steps": [
                    {
                        "stage": "P2-local",
                        "kind": "teleport",
                        "parameters": {},
                        "target_modes": [0],
                        "energy_after": 0.0,
                    }
                ],
            }
        )
    # a one-mode op on two targets used to load as that op on the first one
    with pytest.raises(FileFormatError, match="rotation acts on 1 mode"):
        steps_from_dict(
            {
                "final_state": final,
                "steps": [
                    {
                        "stage": "P2-local",
                        "kind": "rotation",
                        "parameters": {"theta": 0.3},
                        "target_modes": [0, 1],
                        "energy_after": 0.0,
                    }
                ],
            }
        )
