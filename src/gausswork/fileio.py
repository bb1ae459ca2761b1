r"""JSON state files, JSON protocol files, and CSV trace tables.

State files::

    {
      "name": "optional label",
      "modes": [{"frequency": 1.0}, {"frequency": 2.0}],
      "first_moments": [0.0, 0.0, 0.0, 0.0],
      "covariance": [[...], ...],
      "metadata": {...}            # optional, passed through untouched
    }

Protocol files::

    {
      "initial_energy": ..., "final_energy": ..., "extracted_work": ...,
      "spectrum": [...], "optimality_gap": ..., "certificate": {...},
      "sweeps": ...,
      "steps": [{"stage": "P2-local", "kind": "rotation",
                 "parameters": {"theta": ...}, "target_modes": [0],
                 "energy_after": ...}, ...],
      "final_state": { ...state file fields... }
    }

Trace tables are CSV with columns step_index, stage, description,
energy_after.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .core import MomentState
from .exceptions import FileFormatError
from .extraction import ExtractionReport, PassivityVerdict
from .ops import PROTOCOL_STAGES, ProtocolStep, describe, op_from_label

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "load_state",
    "save_state",
    "protocol_to_dict",
    "steps_from_dict",
    "load_protocol_steps",
    "save_protocol",
    "write_trace_csv",
    "verdict_to_dict",
]


def state_to_dict(state: MomentState, name: str | None = None,
                  metadata: dict | None = None) -> dict:
    out = {
        "modes": [{"frequency": float(w)} for w in state.freqs],
        "first_moments": [float(v) for v in state.x],
        "covariance": [[float(v) for v in row] for row in state.cov],
    }
    if name is not None:
        out["name"] = name
    if metadata is not None:
        out["metadata"] = metadata
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FileFormatError(message)


def state_from_dict(data: dict) -> MomentState:
    _require(isinstance(data, dict), "state file must contain a JSON object")
    _require("modes" in data, "state file is missing the 'modes' list")
    modes = data["modes"]
    _require(
        isinstance(modes, list) and len(modes) >= 1,
        "'modes' must be a non-empty list",
    )
    freqs = []
    for k, mode in enumerate(modes):
        _require(
            isinstance(mode, dict) and "frequency" in mode,
            f"mode {k} must be an object with a 'frequency' field",
        )
        try:
            freqs.append(float(mode["frequency"]))
        except (TypeError, ValueError):
            raise FileFormatError(f"mode {k} frequency is not a number") from None
    n = len(freqs)
    _require("first_moments" in data, "state file is missing 'first_moments'")
    _require("covariance" in data, "state file is missing 'covariance'")
    try:
        x = np.asarray(data["first_moments"], dtype=float)
        cov = np.asarray(data["covariance"], dtype=float)
    except (TypeError, ValueError):
        raise FileFormatError("moments must be numeric arrays") from None
    _require(
        x.shape == (2 * n,),
        f"first_moments must have length {2 * n}, got shape {x.shape}",
    )
    _require(
        cov.shape == (2 * n, 2 * n),
        f"covariance must be {2 * n}x{2 * n}, got shape {cov.shape}",
    )
    try:
        return MomentState(freqs=freqs, x=x, cov=cov)
    except Exception as exc:
        raise FileFormatError(f"invalid state data: {exc}") from exc


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_state(path) -> MomentState:
    return state_from_dict(_read_json(path))


def save_state(state: MomentState, path, name: str | None = None,
               metadata: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state, name, metadata), fh, indent=2)
        fh.write("\n")


def _step_to_dict(step: ProtocolStep) -> dict:
    return {
        "stage": step.stage,
        "kind": step.op.kind,
        "parameters": step.op.params,
        "target_modes": [int(m) for m in step.op.modes],
        "energy_after": float(step.energy_after),
    }


def verdict_to_dict(verdict: PassivityVerdict) -> dict:
    return {
        "passive": bool(verdict.passive),
        "clause": verdict.clause,
        "violations": list(verdict.violations),
        "residuals": {k: float(v) for k, v in verdict.residuals.items()},
    }


def protocol_to_dict(report: ExtractionReport) -> dict:
    return {
        "initial_energy": float(report.initial_energy),
        "final_energy": float(report.final_energy),
        "extracted_work": float(report.extracted_work),
        "spectrum": [float(v) for v in report.spectrum],
        "optimality_gap": float(report.optimality_gap),
        "certificate": verdict_to_dict(report.certificate),
        "sweeps": int(report.sweeps),
        "steps": [_step_to_dict(s) for s in report.steps],
        "final_state": state_to_dict(report.final_state),
    }


def steps_from_dict(data: dict) -> list[ProtocolStep]:
    """Rebuild protocol steps (with their final state context) from JSON data."""
    _require(isinstance(data, dict), "protocol file must contain a JSON object")
    _require("steps" in data, "protocol file is missing 'steps'")
    _require("final_state" in data, "protocol file is missing 'final_state'")
    final_state = state_from_dict(data["final_state"])
    n = final_state.n_modes
    steps = []
    for k, raw in enumerate(data["steps"]):
        _require(isinstance(raw, dict), f"step {k} must be an object")
        for field in ("stage", "kind", "parameters", "target_modes", "energy_after"):
            _require(field in raw, f"step {k} is missing '{field}'")
        _require(
            raw["stage"] in PROTOCOL_STAGES,
            f"step {k} has unknown stage {raw['stage']!r}",
        )
        try:
            op = op_from_label(raw["kind"], raw["parameters"], raw["target_modes"], n)
        except Exception as exc:
            raise FileFormatError(f"step {k} is not a valid operation: {exc}") from exc
        steps.append(
            ProtocolStep(op=op, stage=raw["stage"],
                         energy_after=float(raw["energy_after"]))
        )
    return steps


def load_protocol_steps(path) -> tuple[list[ProtocolStep], dict]:
    """Load a protocol file; returns (steps, full JSON dict)."""
    data = _read_json(path)
    return steps_from_dict(data), data


def save_protocol(report: ExtractionReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(report), fh, indent=2)
        fh.write("\n")


def write_trace_csv(steps, path) -> None:
    """Write protocol steps as a CSV trace table (also accepts partial lists)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step_index", "stage", "description", "energy_after"])
        for k, step in enumerate(steps):
            writer.writerow(
                [k, step.stage, describe(step.op), f"{step.energy_after:.12g}"]
            )
