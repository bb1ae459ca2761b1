r"""Command-line front end.

Verbs: validate, check, extract, spectrum, gap, witness, oracle-verify.
Exit codes: 0 success, 1 invalid input, 2 numerical failure.  Reports are
JSON on standard output; protocols and trace tables go to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    gaussian_entropy,
    mean_energy,
    purity,
    require_valid,
    validate_state,
)
from .exceptions import (
    ConvergenceError,
    FileFormatError,
    TruncationError,
    ValidationError,
)
from .extraction import gaussian_ergotropy, is_gaussian_passive, minimal_gaussian_energy
from .fileio import (
    load_protocol_steps,
    load_state,
    save_protocol,
    state_from_dict,
    verdict_to_dict,
    write_trace_csv,
)
from .gap import ergotropy_gap, thermal_swap_witness


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def cmd_validate(args) -> int:
    state = load_state(args.path)
    report = validate_state(state, args.tol)
    _emit_json(
        {
            "valid": report.ok,
            "n_modes": state.n_modes,
            "violations": list(report.violations),
        }
    )
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    state = load_state(args.path)
    require_valid(state)
    verdict = is_gaussian_passive(state, args.tol)
    _emit_json(verdict_to_dict(verdict))
    return 0


def cmd_spectrum(args) -> int:
    state = load_state(args.path)
    spectrum = require_valid(state)
    _emit_json(
        {
            "spectrum": [float(v) for v in spectrum],
            "mean_energy": mean_energy(state),
            "minimal_gaussian_energy": minimal_gaussian_energy(
                spectrum, state.freqs
            ),
            "entropy": gaussian_entropy(spectrum),
            "purity": purity(state),
        }
    )
    return 0


def cmd_extract(args) -> int:
    state = load_state(args.path)
    try:
        report = gaussian_ergotropy(state)
    except ConvergenceError as exc:
        if args.trace is not None:
            write_trace_csv(exc.steps, args.trace)
        raise
    if args.out is not None:
        save_protocol(report, args.out)
    if args.trace is not None:
        write_trace_csv(report.steps, args.trace)
    _emit_json(
        {
            "extracted_work": report.extracted_work,
            "initial_energy": report.initial_energy,
            "final_energy": report.final_energy,
            "steps": len(report.steps),
            "optimality_gap": report.optimality_gap,
            "passive": report.certificate.passive,
        }
    )
    return 0


def cmd_gap(args) -> int:
    state = load_state(args.path)
    report = ergotropy_gap(state, entropy=args.entropy, t_ref=args.tref)
    payload = dataclasses.asdict(report)
    if payload["free_energy_gap"] is None:
        del payload["free_energy_gap"]
    _emit_json(payload)
    return 0


def cmd_witness(args) -> int:
    witness = thermal_swap_witness(args.ta, args.tb)
    if witness is None:
        _emit_json({"witness": "none"})
    else:
        _emit_json(
            {
                "x": witness.x,
                "from_levels": list(witness.from_levels),
                "to_levels": list(witness.to_levels),
                "energy_drop": witness.energy_drop,
            }
        )
    return 0


def cmd_oracle_verify(args) -> int:
    from . import fock  # the only verb that loads the oracle

    state = load_state(args.path)
    steps = final_state = None
    if args.protocol is not None:
        steps, data = load_protocol_steps(args.protocol)
        final_state = state_from_dict(data["final_state"])
    report = fock.verify(state, steps, final_state, args.cutoff, args.seed, args.starts)
    _emit_json({k: v for k, v in dataclasses.asdict(report).items() if v is not None})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausswork",
        description=(
            "Decide Gaussian passivity, extract work with explicit Gaussian "
            "protocols, and cross-check against a Fock-space oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="decide Gaussian passivity")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extract", help="run the work-extraction pipeline")
    p.add_argument("path")
    p.add_argument("--out", default=None, help="write the protocol JSON here")
    p.add_argument("--trace", default=None, help="write the CSV trace table here")
    p.add_argument(
        "--nmode", action="store_true",
        help="accepted and ignored: every mode count takes the same extraction",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("spectrum", help="symplectic spectrum and derived figures")
    p.add_argument("path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap", help="Gaussian vs entropy-limited extractable work")
    p.add_argument("path")
    p.add_argument(
        "--entropy", type=float, default=None,
        help="prescribed entropy (default: entropy of the matching Gaussian)",
    )
    p.add_argument(
        "--tref", type=float, default=None,
        help="reference temperature for the free-energy comparison",
    )
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("witness", help="two-level swap witness for thermal pairs")
    p.add_argument("--ta", type=float, required=True)
    p.add_argument("--tb", type=float, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "oracle-verify",
        help="re-derive energies and moments in truncated Fock space",
    )
    p.add_argument("path")
    p.add_argument("--cutoff", type=int, default=40)
    p.add_argument("--protocol", default=None)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--starts", type=int, default=16)
    p.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (FileFormatError, ValidationError, OSError) as exc:
        _error(str(exc))
        return 1
    except (ConvergenceError, TruncationError, np.linalg.LinAlgError) as exc:
        _error(str(exc))
        return 2
    except Exception as exc:  # malformed input must never produce a traceback
        _error(f"unexpected failure: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
