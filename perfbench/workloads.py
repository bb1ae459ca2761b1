"""The four workloads: seeded inputs, the timed item, and the output checks.

A run repeats rounds.  Every round of a workload has the same make-up (the
same number of items of each kind, the same fixed failing items), and round
``r`` of seed ``s`` draws its states from ``numpy.random.default_rng([s, r])``,
so a run covers more distinct states the longer it lasts while the share of
failed items stays the same in every run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

import symplectic as sp

from gausswork import extraction, fock, ops
from gausswork.core import MomentState
from gausswork.exceptions import ConvergenceError, TruncationWarning

# Tolerances taken from the acceptance criteria the outputs are held to.
FLOOR_RTOL = 1e-8  # criterion 01: final energy against the spectral floor
MONOTONE_RTOL = 1e-9  # criterion 01: energy trace never increases
MAP_RTOL = 1e-8  # rebuilt symplectic product against final_state
ORACLE_TOL = 1e-6  # criterion 09: Fock-space moments against the moment law
SEARCH_WINDOW = (-1e-4, 1e-3)  # criterion 02: direct search minus the floor
CUTOFF = 40  # the CLI's default oracle cutoff


@dataclass
class Item:
    """One unit of timed work and what the benchmark knows about its input."""

    kind: str
    state: MomentState | None = None
    nus: np.ndarray | None = None
    expect_failure: bool = False
    argv: list = field(default_factory=list)


def energy(state: MomentState) -> float:
    """Mean energy from the moments, computed by the benchmark."""
    total = 0.0
    for m, w in enumerate(state.freqs):
        tr = state.cov[2 * m, 2 * m] + state.cov[2 * m + 1, 2 * m + 1]
        total += w * (0.25 * (tr - 2.0) + 0.5 * float(state.x[2 * m : 2 * m + 2] @ state.x[2 * m : 2 * m + 2]))
    return total


def active_state(rng, n_modes, layers, nu_range, r_local, r_tms, shift_max) -> Item:
    """A seeded state with a known symplectic spectrum and random moments."""
    nus = rng.uniform(*nu_range, n_modes)
    S = sp.random_symplectic(rng, n_modes, layers, r_local, r_tms)
    d = rng.normal(size=2 * n_modes)
    d *= rng.uniform(0.0, shift_max) / max(float(np.linalg.norm(d)), 1e-12)
    freqs = rng.uniform(0.5, 2.5, n_modes)
    state = MomentState(freqs=freqs, x=d, cov=sp.williamson_cov(S, nus))
    return Item(kind=f"n{n_modes}", state=state, nus=np.sort(nus)[::-1])


def ordered_state(rng, n_modes, nu_range, r_max, shift_range) -> Item:
    """A displaced, locally squeezed two-mode-squeezed thermal state.

    A two-mode squeeze on modes 0 and 1 (r in [r_max/2, r_max]) is followed by
    a squeeze (r in [r_max/4, r_max/2]) and a rotation on every mode.  The
    spectrum ascends against ascending frequencies, so every pair is
    mis-ordered and the protocol has a length fixed by the mode count and by
    whether the state is displaced; only its parameters depend on the seed.
    """
    nus = np.sort(rng.uniform(*nu_range, n_modes))
    freqs = np.sort(rng.uniform(0.5, 2.5, n_modes))
    S = np.eye(2 * n_modes)
    sp.left_multiply(S, "two_mode_squeeze", {"r": rng.uniform(r_max / 2, r_max)}, (0, 1))
    for m in range(n_modes):
        sp.left_multiply(S, "squeeze", {"r": rng.uniform(r_max / 4, r_max / 2)}, (m,))
        sp.left_multiply(S, "rotation", {"theta": rng.uniform(-math.pi, math.pi)}, (m,))
    d = rng.normal(size=2 * n_modes)
    d *= rng.uniform(*shift_range) / float(np.linalg.norm(d))
    state = MomentState(freqs=freqs, x=d, cov=sp.williamson_cov(S, nus))
    return Item(kind=f"n{n_modes}", state=state, nus=nus[::-1].copy())


def squeezed_three_mode(r: float) -> Item:
    """A valid 3-mode state squeezed at r; fixed, independent of the seed.

    The pairwise loop stops on an absolute |c1 - c2| bound while the entries
    grow as e^{2r}, so these fail with ConvergenceError.
    """
    S = np.eye(6)
    sp.left_multiply(S, "squeeze", {"r": r}, (0,))
    sp.left_multiply(S, "beam_splitter", {"theta": 0.7}, (0, 1))
    sp.left_multiply(S, "beam_splitter", {"theta": 0.4}, (1, 2))
    nus = np.array([1.5, 2.0, 3.0])
    state = MomentState(freqs=[1.0, 1.5, 2.0], x=np.zeros(6), cov=sp.williamson_cov(S, nus))
    return Item(kind=f"squeezed_r{r:g}", state=state, nus=nus[::-1].copy(), expect_failure=True)


def check_extraction(item: Item, report) -> list[str]:
    """The protocol reaches the floor, never raises the energy, and replays."""
    problems = []
    state = item.state
    floor = sp.spectral_floor(item.nus, state.freqs)
    if abs(report.final_energy - floor) > FLOOR_RTOL * max(1.0, abs(floor)):
        problems.append(f"final energy {report.final_energy!r} is not the floor {floor!r}")
    energies = [report.initial_energy] + [s.energy_after for s in report.steps]
    for k, (before, after) in enumerate(zip(energies, energies[1:])):
        if after > before + MONOTONE_RTOL * max(1.0, abs(before)):
            problems.append(f"energy rises at step {k}: {before!r} -> {after!r}")
            break
    if not report.certificate.passive:
        problems.append("certificate is not passive")
    labels = [(s.op.kind, s.op.params, s.op.modes) for s in report.steps]
    S, d = sp.affine_map(labels, state.n_modes)
    final = report.final_state
    scale = max(1.0, float(np.max(np.abs(final.cov))), float(np.max(np.abs(state.cov))))
    resid = max(
        float(np.max(np.abs(S @ state.cov @ S.T - final.cov))),
        float(np.max(np.abs(S @ state.x + d - final.x))),
    )
    if resid > MAP_RTOL * scale:
        problems.append(f"rebuilt protocol misses final_state by {resid:.3e}")
    return problems


class Pairs:
    """gaussian_ergotropy on active two-mode states built like criterion 01's bank."""

    size = 200

    def make_round(self, rng) -> list[Item]:
        return [active_state(rng, 2, 1, (1.0, 10.0), 1.0, 0.8, 3.0) for _ in range(self.size)]

    def run(self, item: Item):
        return extraction.gaussian_ergotropy(item.state)

    def steps(self, item, out) -> int:
        return len(out.steps)

    def check(self, item, out) -> list[str]:
        return check_extraction(item, out)


class Sweeps(Pairs):
    """nmode_gaussian_ergotropy on four-mode states, plus three states that fail.

    Eight and sixteen modes are left out: there the pairwise sweeps can stop
    with a pair just above the certificate's tolerance, so the certificate
    fails on some seeds and not on others.
    """

    n_modes = 4
    size = 30
    failing = (5.0, 6.5, 8.0)

    def make_round(self, rng) -> list[Item]:
        items = [active_state(rng, self.n_modes, 3, (1.0, 10.0), 1.0, 0.8, 3.0) for _ in range(self.size)]
        return items + [squeezed_three_mode(r) for r in self.failing]

    def run(self, item: Item):
        return extraction.nmode_gaussian_ergotropy(item.state)


class Oracle(Pairs):
    """oracle-verify --protocol in process: extract, replay in Fock space, search.

    Low-occupation states (nu in [1.08, 1.12]) from ``ordered_state``, two in
    three displaced; their protocols use every kind of operation and have
    fixed lengths, and a cutoff of 40 holds them without a truncation warning.
    """

    shifts = ((0.5, 1.0), (0.5, 1.0), (0.0, 0.0))

    def make_round(self, rng) -> list[Item]:
        return [ordered_state(rng, 2, (1.08, 1.12), 0.4, shift) for shift in self.shifts]

    def run(self, item: Item):
        state = item.state
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = extraction.gaussian_ergotropy(state)
            final = report.final_state
            replayed = ops.apply(ops.compose([s.op for s in report.steps]), state)
            occupations = [
                (0.5 * (final.cov[2 * m, 2 * m] + final.cov[2 * m + 1, 2 * m + 1]) - 1.0) / 2.0
                for m in range(final.n_modes)
            ]
            rho = fock.thermal_fock_state(occupations, final.freqs, CUTOFF)
            for step in reversed(report.steps):
                rho = fock.apply_gaussian_unitary(ops.inverse(step.op), rho)
            x, cov = fock.moments_of(rho)
            fock_energy = fock.energy_of(rho)
            search = fock.brute_force_min_energy(state)
        truncation = sum(issubclass(w.category, TruncationWarning) for w in caught)
        return {
            "report": report,
            "replayed": replayed,
            "x": x,
            "cov": cov,
            "energy": fock_energy,
            "search": search,
            "truncation_warnings": truncation,
        }

    def steps(self, item, out) -> int:
        return len(out["report"].steps)

    def check(self, item, out) -> list[str]:
        state = item.state
        problems = check_extraction(item, out["report"])
        final = out["report"].final_state
        moment_replay = max(
            float(np.max(np.abs(out["replayed"].cov - final.cov))),
            float(np.max(np.abs(out["replayed"].x - final.x))),
        )
        if moment_replay > MAP_RTOL * max(1.0, float(np.max(np.abs(final.cov)))):
            problems.append(f"composed protocol misses final_state by {moment_replay:.3e}")
        resid = max(
            float(np.max(np.abs(out["cov"] - state.cov))),
            float(np.max(np.abs(out["x"] - state.x))),
        )
        if resid > ORACLE_TOL:
            problems.append(f"Fock replay misses the input moments by {resid:.3e}")
        if abs(out["energy"] - energy(state)) > ORACLE_TOL:
            problems.append(f"Fock replay energy {out['energy']!r} is not {energy(state)!r}")
        if out["truncation_warnings"]:
            problems.append(f"{out['truncation_warnings']} truncation warning(s)")
        problems += search_problems(out["search"], item)
        return problems


def search_problems(search: float, item: Item) -> list[str]:
    floor = sp.spectral_floor(item.nus, item.state.freqs)
    lo, hi = SEARCH_WINDOW
    if not lo <= search - floor <= hi:
        return [f"direct search minus floor is {search - floor:.3e}"]
    return []


def write_state(state: MomentState, path: str) -> None:
    """A state file in the documented JSON schema, written by the benchmark."""
    data = {
        "modes": [{"frequency": float(w)} for w in state.freqs],
        "first_moments": state.x.tolist(),
        "covariance": state.cov.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def thermal_population(levels, temps) -> float:
    """Population of joint level (n_a, n_b) of unit-frequency thermal modes."""
    out = 1.0
    for n, t in zip(levels, temps):
        q = math.exp(-1.0 / t)
        out *= (1.0 - q) * q**n
    return out


class Cli:
    """Sequential ``python -m gausswork`` invocations, one client, closed loop.

    A round writes a two-mode and a three-mode state file from
    ``ordered_state`` and makes twelve invocations of seven verbs; their fixed protocol
    lengths keep ``protocol_steps`` the same for every seed.
    """

    def __init__(self, workdir: str, launcher: str | None = None):
        self.workdir = workdir
        self.launcher = launcher

    def make_round(self, rng) -> list[Item]:
        os.makedirs(self.workdir, exist_ok=True)
        two = ordered_state(rng, 2, (1.0, 10.0), 1.0, (0.5, 3.0))
        three = ordered_state(rng, 3, (1.0, 10.0), 1.0, (0.5, 3.0))
        items = []
        for tag, src, verbs in (
            ("two", two, ("validate", "check", "spectrum", "extract", "gap", "oracle_verify")),
            ("three", three, ("validate", "check", "spectrum", "extract", "gap")),
        ):
            path = os.path.join(self.workdir, f"{tag}.json")
            write_state(src.state, path)
            for verb in verbs:
                argv = [verb.replace("_", "-"), path]
                if verb == "extract":
                    argv += ["--out", os.path.join(self.workdir, f"{tag}-protocol.json")]
                    argv += ["--trace", os.path.join(self.workdir, f"{tag}-trace.csv")]
                    if tag == "three":
                        argv.append("--nmode")
                items.append(Item(kind=verb, state=src.state, nus=src.nus, argv=argv))
        items.append(Item(kind="witness", argv=["witness", "--ta", "1", "--tb", "2"]))
        return items

    def command(self, item: Item, spans: str | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "gausswork", *item.argv]
        return [sys.executable, self.launcher, "--spans", spans, *item.argv]

    def run(self, item: Item, spans: str | None = None):
        proc = subprocess.run(self.command(item, spans), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(item.argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        out = {"stdout": json.loads(proc.stdout)}
        if item.kind == "extract":
            with open(item.argv[item.argv.index("--out") + 1]) as fh:
                out["protocol"] = json.load(fh)
        return out

    def steps(self, item, out) -> int:
        return out["stdout"]["steps"] if item.kind == "extract" else 0

    def check(self, item, out) -> list[str]:
        got = out["stdout"]
        if item.kind == "validate":
            return [] if got["valid"] is True else ["validate says invalid"]
        if item.kind == "check":
            return [] if got["passive"] is False else ["an active state checked passive"]
        if item.kind == "witness":
            drop = thermal_population((0, 5), (1.0, 2.0)) - thermal_population((2, 2), (1.0, 2.0))
            ok = (
                got["x"] == 4
                and got["from_levels"] == [2, 2]
                and got["to_levels"] == [0, 5]
                and abs(got["energy_drop"] - drop) <= 1e-12
            )
            return [] if ok else [f"witness {got} is not x=4, (2,2)->(0,5), drop {drop!r}"]
        floor = sp.spectral_floor(item.nus, item.state.freqs)
        if item.kind == "spectrum":
            spectrum = np.asarray(got["spectrum"])
            if np.max(np.abs(spectrum - item.nus)) > FLOOR_RTOL * float(item.nus[0]):
                return [f"spectrum {spectrum} is not {item.nus}"]
            return []
        if item.kind == "extract":
            problems = []
            if abs(got["final_energy"] - floor) > FLOOR_RTOL * max(1.0, abs(floor)):
                problems.append(f"extract ends at {got['final_energy']!r}, floor {floor!r}")
            if got["passive"] is not True:
                problems.append("extract ends in an active state")
            problems += protocol_file_problems(item, out["protocol"])
            return problems
        if item.kind == "gap":
            total, gaussian = got["total_extractable"], got["gaussian_extractable"]
            slack = 1e-9 * max(1.0, abs(got["initial_energy"]))
            return [] if total >= gaussian - slack and gaussian >= 0.0 else [f"gap report {got}"]
        if item.kind == "oracle_verify":
            return search_problems(got["brute_force_min_energy"], item)
        return [f"no check for {item.kind}"]


def protocol_file_problems(item: Item, protocol: dict) -> list[str]:
    """The protocol file's steps, rebuilt from their labels, reach its final state."""
    state = item.state
    labels = [(s["kind"], s["parameters"], s["target_modes"]) for s in protocol["steps"]]
    S, d = sp.affine_map(labels, state.n_modes)
    final_cov = np.asarray(protocol["final_state"]["covariance"])
    final_x = np.asarray(protocol["final_state"]["first_moments"])
    resid = max(
        float(np.max(np.abs(S @ state.cov @ S.T - final_cov))),
        float(np.max(np.abs(S @ state.x + d - final_x))),
    )
    scale = max(1.0, float(np.max(np.abs(final_cov))), float(np.max(np.abs(state.cov))))
    if resid > MAP_RTOL * scale:
        return [f"protocol file misses its final_state by {resid:.3e}"]
    return []


def expected_failure_problem(item: Item, exc: BaseException | None) -> list[str]:
    """A known-failing item must fail the known way."""
    if exc is None or isinstance(exc, ConvergenceError):
        return []
    return [f"{item.kind} failed with {type(exc).__name__}: {exc}"]
