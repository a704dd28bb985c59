"""The benchmark's workloads: inputs drawn from a seed, task lists, output checks.

README.md beside this file says why each workload exists, which layers it
loads and which it bypasses.  `PLANS[workload](rng)` draws a workload's
inputs from the seed; `BUILDERS[workload](plan, out_dir)` turns them into a
task list.  Each task's `check` runs after the timed region and reads the
task's outcome: its return value, or the typed error it raised.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from winterdyn import cli, evolution, poles
from winterdyn.errors import AccuracyError, WinterError

PI = math.pi
X_SPEC = f"0:{PI!r}:129"  # the CLI's default cavity grid
X = np.linspace(0.0, PI, 129)  # the same grid, for library calls
G_RANGE = (0.1, 0.3)
EVOLVE_TOL = 1e-6  # `evolve` default quadrature tolerance

# figures
JITTER = 0.02  # relative jitter of the t-grid endpoints
# The script's --points (t-grid size; its default is 201).  At the default a
# list took 21-46 s on a shared 2-CPU host; half of it halves the two evolve
# tasks and keeps a run short.  The crossing searches do not depend on it.
FIGURE_POINTS = 101
WINDOW_FUNDAMENTAL = (24.0, 36.0)  # criterion 06
WINDOW_OFFDIAGONAL = (3.6, 5.6)  # criterion 07
WINDOW_TAKEOVER = (128.0, 192.0)  # criterion 07
REFERENCE_TOL = 1e-10  # tolerance of the recomputed power norms
NORM_CHECK_ROWS = tuple(i * (FIGURE_POINTS - 1) // 4 for i in range(5))  # rows checked

# snapshots
T_STRATA = (0.0, 0.5, 5.0, 20.0, 50.0)
TABLE_SIZE = 26
TABLE_TOL = 1e-10  # what `evolve` solves its pole table to
IDENTITY_BOUND = 1e-5  # criterion 05: |direct - exponential - power|_inf
T0_BOUND = 1e-5  # criterion 04: |direct(t=0) - sqrt(2/pi) sin(l x)|_inf

# index
POLES_N = 200
POLES_TOL = 1e-12  # `poles` default
UINV_BOUND = 1e-10
MIXING_EMIT = "A,A2,AH,H,V0,V1,V2,Z1,Z2,U,Uinv,expgap"


class Refused(WinterError):
    """A CLI command returned a nonzero exit code."""


@dataclass
class Check:
    ok: bool
    error: float | None = None  # reference-check error, enters accuracy_digits
    note: str = ""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[["Task"], Check] = field(default=lambda task: Check(True))
    argv: list[str] | None = None  # CLI arguments; the output directory is last
    outcome: object = None  # return value, or the typed error raised

    @property
    def refused(self) -> bool:
        return isinstance(self.outcome, WinterError)

    @property
    def out(self) -> str:
        return self.argv[-1]


def _g_pair(rng: random.Random) -> tuple[float, float]:
    """A seeded coupling and its mirror image in G_RANGE.

    The pole continuation costs O(g), so a task list that solves at g and at
    G_RANGE[0] + G_RANGE[1] - g costs nearly the same for every seed.
    """
    g = round(rng.uniform(*G_RANGE), 4)
    return g, round(G_RANGE[0] + G_RANGE[1] - g, 4)


def _run_cli(argv: list[str]) -> int:
    rc = cli.main(argv)
    if rc != 0:
        raise Refused(f"exit code {rc}")
    return rc


def _cli_task(name: str, argv: list[str], check=None) -> Task:
    return Task(name, lambda: _run_cli(argv), check or _outputs_check, argv)


def _outputs_check(task: Task) -> Check:
    """The command exited 0 and every output its manifest lists is there."""
    if task.refused:
        return Check(False, note=str(task.outcome))
    with open(os.path.join(task.out, f"{task.argv[0]}_manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    missing = [
        name for name in outputs
        if not os.path.isfile(os.path.join(task.out, name))
        or os.path.getsize(os.path.join(task.out, name)) == 0
    ]
    return Check(not missing, note=f"missing outputs {missing}" if missing else "")


def _pole_residual(g: float, ks) -> tuple[float, bool]:
    """Worst |b(k)| recomputed through e^{2 pi i k} - 1 + 2 pi i g k = 4 pi g k b(k).

    The left side grows like 4 pi g |k| at fixed |b| (6.6e-11 at n = 200,
    g = 0.3), so it is divided by that factor to compare with the solver
    tolerance, which bounds |b|.  Also says whether every pole lies in the
    octant Im k < 0 < |Im k| < Re k.
    """
    ks = np.asarray(ks, dtype=complex)
    rel = np.abs(np.exp(2j * PI * ks) - 1.0 + 2j * PI * g * ks)
    octant = bool(np.all((ks.imag < 0) & (ks.real > np.abs(ks.imag))))
    return float(np.max(rel / (4.0 * PI * g * np.abs(ks)))), octant


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _jittered(rng: random.Random, lo: float, hi: float, count: int) -> str:
    def j(v):
        return round(v * (1.0 + rng.uniform(-JITTER, JITTER)), 4)

    return f"{j(lo)!r}:{j(hi)!r}:{count}"


def plan_figures(rng: random.Random) -> dict:
    return {
        "fundamental_t": _jittered(rng, 0.5, 200.0, FIGURE_POINTS),
        "fundamental_search": _jittered(rng, 5.0, 80.0, 76),
        "excited_t": _jittered(rng, 0.5, 300.0, FIGURE_POINTS),
        "offdiagonal_search": _jittered(rng, 1.0, 20.0, 39),
        "takeover_search": _jittered(rng, 100.0, 260.0, 33),
    }


def _crossing_check(window):
    def check(task: Task) -> Check:
        base = _outputs_check(task)
        if not base.ok:
            return base
        with open(os.path.join(task.out, "crossings.json")) as fh:
            t = json.load(fh)["crossings"][0]["t"]
        ok = window[0] <= t <= window[1]
        return Check(ok, note=f"crossover t = {t:.6g}" + ("" if ok else f" outside {window}"))

    return check


def _norm_bound(norm: float, tol: float) -> float:
    """|N - N_true| when every point is within tol: 2 sqrt(pi N) tol + pi tol^2."""
    return 2.0 * math.sqrt(PI * norm) * tol + PI * tol * tol


def _power_norm_check(g: float, l: int):
    """Emitted power norms against the same norm recomputed at REFERENCE_TOL.

    A difference below the reference's own bound cannot be told apart from
    zero, so the reported error never goes below that resolution.  A point
    that misses REFERENCE_TOL keeps its best value and widens the resolution
    to its error estimate, so lost digits show in the error, not as a crash.
    """

    def reference_point(xi: float, t: float) -> tuple[complex, float]:
        try:
            return evolution.psi_power_quad(l, xi, t, g, REFERENCE_TOL), REFERENCE_TOL
        except AccuracyError as exc:
            return exc.best, max(exc.estimate, REFERENCE_TOL)

    def check(task: Task) -> Check:
        base = _outputs_check(task)
        if not base.ok:
            return base
        rows = _read_csv(os.path.join(task.out, "evolve_power_norm.csv"))
        worst, ok = 0.0, True
        for t, norm in rows[list(NORM_CHECK_ROWS)]:
            vals, estimates = zip(*(reference_point(xi, t) for xi in X))
            ref = float(simpson(np.abs(vals) ** 2, x=X))
            resolution = _norm_bound(ref, max(estimates))
            err = abs(norm - ref)
            ok &= err <= _norm_bound(ref, EVOLVE_TOL) + resolution
            worst = max(worst, err, resolution)
        return Check(ok, worst, "" if ok else "power norm outside its tolerance bound")

    return check


def figures(plan: dict, out: str) -> list[Task]:
    """The CLI sequence of scripts/reproduce_figures.py with --points FIGURE_POINTS."""
    d1 = os.path.join(out, "fig_fundamental")
    d2 = os.path.join(out, "fig_excited")
    d3 = os.path.join(out, "poles_g0.2")
    return [
        _cli_task("evolve split g=0.2 l=1", [
            "evolve", "--g", "0.2", "--l", "1", "--parts", "split",
            "--t", plan["fundamental_t"], "--x", X_SPEC, "--out", d1],
            _power_norm_check(0.2, 1)),
        _cli_task("crossings exponential/power g=0.2 l=1", [
            "crossings", "--g", "0.2", "--l", "1", "--curve-a", "exponential",
            "--curve-b", "power", "--t", plan["fundamental_search"], "--out", d1],
            _crossing_check(WINDOW_FUNDAMENTAL)),
        _cli_task("evolve fig3 g=0.1 l=2", [
            "evolve", "--g", "0.1", "--l", "2", "--parts", "fig3",
            "--t", plan["excited_t"], "--x", X_SPEC, "--out", d2],
            _power_norm_check(0.1, 2)),
        _cli_task("crossings pole:1/pole:2 g=0.1 l=2", [
            "crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
            "--curve-b", "pole:2", "--t", plan["offdiagonal_search"], "--out", d2],
            _crossing_check(WINDOW_OFFDIAGONAL)),
        _cli_task("crossings pole:1/power g=0.1 l=2", [
            "crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
            "--curve-b", "power", "--t", plan["takeover_search"],
            "--out", os.path.join(d2, "takeover")],
            _crossing_check(WINDOW_TAKEOVER)),
        _cli_task("poles g=0.2 n=10", [
            "poles", "--g", "0.2", "--n-max", "10", "--out", d3]),
    ]


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def plan_snapshots(rng: random.Random) -> dict:
    g1, g2 = _g_pair(rng)
    return {"draws": [[1, g1], [2, g2]]}


def _power_snapshot(l: int, t: float, g: float) -> np.ndarray:
    """Power route on the grid; at t = 0 the marginal point x = pi takes the
    cutoff-limited value, as the CLI's power norm does."""
    if t > 0:
        return evolution.power_field(l, X, t, g, EVOLVE_TOL).values
    vals = np.empty(len(X), dtype=complex)
    for i, xi in enumerate(X):
        try:
            vals[i] = evolution.psi_power_quad(l, xi, t, g, EVOLVE_TOL)
        except AccuracyError as exc:
            if xi < PI - 1e-12 or exc.best is None:
                raise
            vals[i] = exc.best
    return vals


def _snapshot_tasks(l: int, g: float) -> list[Task]:
    label = f"l={l} g={g}"
    table = Task(f"pole table {label}", lambda: poles.pole_table(g, TABLE_SIZE, TABLE_TOL))

    def check_table(task: Task) -> Check:
        if task.refused:
            return Check(False, note=str(task.outcome))
        worst, octant = _pole_residual(g, task.outcome.k_values)
        ok = octant and worst <= TABLE_TOL and len(task.outcome) == TABLE_SIZE
        return Check(ok, note="" if ok else f"|b| {worst:.2e}, octant {octant}")

    table.check = check_table

    def exponential(t):
        if table.refused:
            raise table.outcome
        return evolution.exponential_field(l, X, t, g, table.outcome).values

    tasks = [table]
    for t in T_STRATA:
        direct = Task(f"direct {label} t={t:g}",
                      lambda t=t: evolution.direct_field(l, X, t, g, EVOLVE_TOL).values)
        expo = Task(f"exponential {label} t={t:g}", lambda t=t: exponential(t))
        power = Task(f"power {label} t={t:g}", lambda t=t: _power_snapshot(l, t, g))
        direct.check = _direct_check(l, t, expo, power)
        tasks += [direct, expo, power]
    return tasks


def _direct_check(l: int, t: float, expo: Task, power: Task):
    """t = 0: the initial state sqrt(2/pi) sin(l x); t > 0: direct = exponential
    + power.  The best field a refused task carries still enters the error."""

    def check(task: Task) -> Check:
        values = task.outcome
        if isinstance(values, AccuracyError) and values.best is not None:
            values = values.best.values
        if isinstance(values, Exception):
            return Check(False, note=str(values))
        if t == 0:
            err, bound = np.abs(values - math.sqrt(2.0 / PI) * np.sin(l * X)), T0_BOUND
        elif expo.refused or power.refused:
            return Check(True, note="identity not checked: another route was refused")
        else:
            err, bound = np.abs(values - expo.outcome - power.outcome), IDENTITY_BOUND
        err = float(np.max(err))
        ok = err <= bound and not task.refused
        return Check(ok, err, str(task.outcome) if task.refused else f"error {err:.2e}")

    return check


def snapshots(plan: dict, out: str) -> list[Task]:
    """Field snapshots of all three routes on the 129-point cavity grid."""
    return [task for l, g in plan["draws"] for task in _snapshot_tasks(l, g)]


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def plan_index(rng: random.Random) -> dict:
    g1, g2 = _g_pair(rng)
    return {"g": [g1, g2]}


def _poles_check(task: Task) -> Check:
    base = _outputs_check(task)
    if not base.ok:
        return base
    with open(os.path.join(task.out, "poles.json")) as fh:
        table = json.load(fh)
    ks = [complex(p["re_k"], p["im_k"]) for p in table["poles"]]
    worst, octant = _pole_residual(table["g"], ks)
    ok = octant and worst <= POLES_TOL and [p["n"] for p in table["poles"]] == list(
        range(1, POLES_N + 1)
    )
    return Check(ok, worst, "" if ok else f"|b| {worst:.2e}, octant {octant}")


def _uinv_check(task: Task) -> Check:
    base = _outputs_check(task)
    if not base.ok:
        return base
    with open(os.path.join(task.out, "mixing_Uinv.json")) as fh:
        residual = json.load(fh)["meta"]["residual"]
    ok = residual <= UINV_BOUND
    return Check(ok, residual, "" if ok else f"U U^-1 residual {residual:.2e}")


def _contamination_check(task: Task) -> Check:
    base = _outputs_check(task)
    if not base.ok:
        return base
    norms = _read_csv(os.path.join(task.out, "mixing_contamination_l1.csv"))[:, 1]
    ok = bool(np.all(np.isfinite(norms)) and np.all(norms >= 0))
    return Check(ok, note="" if ok else "contamination norms not finite and >= 0")


def index(plan: dict, out: str) -> list[Task]:
    """Pole tables and index-space algebra through the CLI."""
    g1, g2 = (repr(g) for g in plan["g"])
    return [
        _cli_task(f"poles g={g1} n={POLES_N}", [
            "poles", "--g", g1, "--n-max", str(POLES_N),
            "--out", os.path.join(out, "poles_a")], _poles_check),
        _cli_task(f"poles g={g2} n={POLES_N}", [
            "poles", "--g", g2, "--n-max", str(POLES_N),
            "--out", os.path.join(out, "poles_b")], _poles_check),
        _cli_task(f"mixing g={g1} n=256 json", [
            "mixing", "--g", g1, "--n", "256", "--emit", MIXING_EMIT,
            "--format", "json", "--rotate", "1",
            "--out", os.path.join(out, "mixing_256")], _uinv_check),
        _cli_task(f"mixing g={g2} n=64 contamination", [
            "mixing", "--g", g2, "--n", "64", "--emit", "V", "--contamination", "1",
            "--out", os.path.join(out, "mixing_64")], _contamination_check),
    ]


PLANS = {"figures": plan_figures, "snapshots": plan_snapshots, "index": plan_index}
BUILDERS = {"figures": figures, "snapshots": snapshots, "index": index}
