"""Command-line driver emitting CSV/JSON artifacts with reproducible manifests.

Subcommands
-----------
poles      solve the resonance poles, write table + perturbative comparison
evolve     cavity-norm time series and field snapshots for the state parts
mixing     index-space matrices, rotated states, exponentiation gap
crossings  bisection for crossing times between two norm curves
rerun      re-execute a run from its manifest (byte-identical outputs)

Every command writes `<command>_manifest.json` first, then its data files,
all atomically (temp file + rename).  Exit codes are stable: 2 input/solver,
3 quadrature accuracy, 4 linear algebra, 5 crossing search.

Norm curves named `exponential` and `pole:<n>` in evolve --parts and in
crossings reproduce survival-probability figures in the first-order
resonance model (order-g mixing weights, order-g^2 widths, unit-normalized
pole states); `exponential-exact` gives the full residue-sum norm instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .errors import (
    AccuracyError,
    CrossingNotFoundError,
    DomainError,
    IllConditionedError,
    PoleConvergenceError,
)
from .evolution import (
    TimeSeries,
    WaveField,
    _csv_text,
    _power_values,
    _ray_accuracy_error,
    asymptotic_field,
    cavity_norm,
    direct_field,
    exponential_field,
    power_field,
    resonance_exponential_norm,
    resonance_term_norm,
)
from .mixing import (
    IndexMatrix,
    U_inverse,
    U_truncated,
    V_order,
    Z_order,
    counter_rotate,
    diagonal_evolution_check,
    exponentiation_gap,
    matrix_A,
    matrix_A_squared_closed,
    matrix_AH,
    matrix_H,
    mixing_V_exact,
)
from .poles import freq_pert, pole_table, width_pert

EXIT_SOLVER = 2
EXIT_QUADRATURE = 3
EXIT_LINALG = 4
EXIT_SEARCH = 5

# Relative width of the bracket at which find_crossings stops bisecting.
CROSSING_RTOL = 1e-4


# ---------------------------------------------------------------------------
# grid specs and atomic IO
# ---------------------------------------------------------------------------

def parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive), 'logspace:start:stop:count', or a number.

    Raises DomainError for a spec it cannot read.
    """
    log = spec.startswith("logspace:")
    parts = spec.split(":")[1:] if log else spec.split(":")
    if len(parts) not in ((3,) if log else (1, 3)):
        raise DomainError(f"bad grid spec {spec!r}; use start:stop:count")
    try:
        lo = float(parts[0])
        if len(parts) == 1:
            return np.array([lo])
        hi, cnt = float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"bad grid spec {spec!r}; use start:stop:count") from None
    if cnt < 1:
        raise DomainError(f"grid spec {spec!r} needs a count >= 1")
    if log:
        if lo <= 0 or hi <= 0:
            raise DomainError(f"grid spec {spec!r}: logspace bounds must be positive")
        return np.logspace(math.log10(lo), math.log10(hi), cnt)
    return np.linspace(lo, hi, cnt)


def _position_grid(spec: str) -> np.ndarray:
    """Parse --x, refusing a grid that no field can be built on."""
    x = parse_grid(spec)
    if not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
        raise DomainError(f"--x {spec!r} must give finite, strictly increasing positions")
    return x


def _time_grid(spec: str) -> np.ndarray:
    """Parse --t, refusing a grid that no time series can be built on."""
    t = parse_grid(spec)
    if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0) or np.any(t < 0):
        raise DomainError(f"--t {spec!r} must give finite, strictly increasing times >= 0")
    return t


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(out_dir: str, command: str, params: dict, outputs: list[str]) -> str:
    manifest = {
        "command": command,
        "params": params,
        "outputs": outputs,
        "version": __version__,
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    atomic_write(path, json.dumps(manifest, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def cmd_poles(args) -> int:
    params = {"g": args.g, "n_max": args.n_max, "tol": args.tol}
    outputs = ["poles.json", "poles.csv"]
    write_manifest(args.out, "poles", params, outputs)

    table = pole_table(args.g, args.n_max, args.tol)
    atomic_write(os.path.join(args.out, "poles.json"), table.to_json() + "\n")
    ns = [p.n for p in table.poles]
    text = _csv_text(
        "n,re_k,im_k,omega,gamma,residual,omega_pert1,omega_pert2,gamma_pert2,gamma_pert3",
        ns,
        table.k_values.real,
        table.k_values.imag,
        [p.omega for p in table.poles],
        [p.gamma for p in table.poles],
        [p.residual for p in table.poles],
        [freq_pert(n, args.g, 1) for n in ns],
        [freq_pert(n, args.g, 2) for n in ns],
        [width_pert(n, args.g, 2) for n in ns],
        [width_pert(n, args.g, 3) for n in ns],
    )
    atomic_write(os.path.join(args.out, "poles.csv"), text)
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _power_norm(l, g, t, x, tol) -> float:
    """Cavity norm of the power part, tolerating the single marginal point.

    Only (x, t) = (pi, 0), where the ray integral is marginally divergent,
    may miss tol; its cutoff-limited value enters the norm with a warning.
    """
    values, estimates = _power_values(l, x, t, g, tol)
    missed = ~(estimates <= tol)
    fatal = missed & ((t != 0) | (x < math.pi - 1e-12))
    if fatal.any():
        i = int(np.argmax(np.where(fatal, estimates, -np.inf)))
        raise _ray_accuracy_error(l, x[i], t, g, tol, estimates[i], complex(values[i]))
    if missed.any():
        warnings.warn(
            "ray integral is marginally divergent at (x, t) = (pi, 0); "
            "using the cutoff-limited value for the norm",
            stacklevel=2,
        )
    return cavity_norm(WaveField(x_grid=x, t=t, values=values, part="power"))


def _norm_series(l, g, method, t_grid, x, table, tol) -> TimeSeries:
    norms = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        if method == "direct":
            fld = direct_field(l, x, t, g, tol)
            norms[i] = cavity_norm(fld)
        elif method == "exponential":
            fld = exponential_field(l, x, t, g, table)
            norms[i] = cavity_norm(fld)
        elif method == "power":
            norms[i] = _power_norm(l, g, t, x, tol)
        elif method == "asymptotic":
            norms[i] = cavity_norm(asymptotic_field(l, x, t, g))
        else:
            raise ValueError(method)
    return TimeSeries(t_grid=np.asarray(t_grid, dtype=float), norms=norms)


def cmd_evolve(args) -> int:
    t_grid = _time_grid(args.t)
    x = _position_grid(args.x)
    params = {
        "g": args.g,
        "l": args.l,
        "n_max": args.n_max,
        "tol": args.tol,
        "t": args.t,
        "x": args.x,
        "method": args.method,
        "parts": args.parts,
    }

    if args.parts:
        if args.parts == "split":
            outputs = ["evolve_exponential_norm.csv", "evolve_power_norm.csv"]
        else:
            outputs = [
                "evolve_pole_diag_norm.csv",
                "evolve_pole_offdiag_norm.csv",
                "evolve_power_norm.csv",
            ]
        write_manifest(args.out, "evolve", params, outputs)
        if args.parts == "split":
            res = resonance_exponential_norm(args.l, args.g, args.n_max, t_grid)
            atomic_write(
                os.path.join(args.out, "evolve_exponential_norm.csv"),
                TimeSeries(t_grid, res).to_csv(),
            )
        else:
            diag = resonance_term_norm(args.l, args.l, args.g, t_grid)
            off = resonance_term_norm(args.l, 1, args.g, t_grid)
            atomic_write(
                os.path.join(args.out, "evolve_pole_diag_norm.csv"),
                TimeSeries(t_grid, diag).to_csv(),
            )
            atomic_write(
                os.path.join(args.out, "evolve_pole_offdiag_norm.csv"),
                TimeSeries(t_grid, off).to_csv(),
            )
        norms = np.array([_power_norm(args.l, args.g, t, x, args.tol) for t in t_grid])
        atomic_write(
            os.path.join(args.out, "evolve_power_norm.csv"),
            TimeSeries(t_grid, norms).to_csv(),
        )
        return 0

    methods = (
        ["direct", "exponential", "power", "asymptotic"]
        if args.method == "all"
        else [args.method]
    )
    table = None
    if "exponential" in methods:
        table = pole_table(args.g, args.n_max, min(args.tol, 1e-10))

    single_t = len(t_grid) == 1
    outputs = []
    for m in methods:
        outputs.append(
            f"evolve_field_{m}.csv" if single_t else f"evolve_{m}_norm.csv"
        )
    write_manifest(args.out, "evolve", params, outputs)

    for m, name in zip(methods, outputs):
        if single_t:
            t = float(t_grid[0])
            if m == "direct":
                fld = direct_field(args.l, x, t, args.g, args.tol)
            elif m == "exponential":
                fld = exponential_field(args.l, x, t, args.g, table)
            elif m == "power":
                fld = power_field(args.l, x, t, args.g, args.tol)
            else:
                fld = asymptotic_field(args.l, x, t, args.g)
            atomic_write(os.path.join(args.out, name), fld.to_csv())
        else:
            series = _norm_series(args.l, args.g, m, t_grid, x, table, args.tol)
            atomic_write(os.path.join(args.out, name), series.to_csv())
    return 0


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

_MATRIX_MAKERS = {
    "A": lambda args, table: matrix_A(args.n),
    "A2": lambda args, table: matrix_A_squared_closed(args.n),
    "AH": lambda args, table: matrix_AH(args.n),
    "H": lambda args, table: matrix_H(args.n),
    "V": lambda args, table: mixing_V_exact(args.g, table),
    "V0": lambda args, table: V_order(0, args.n),
    "V1": lambda args, table: V_order(1, args.n),
    "V2": lambda args, table: V_order(2, args.n),
    "Z1": lambda args, table: Z_order(1, args.n),
    "Z2": lambda args, table: Z_order(2, args.n),
    "U": lambda args, table: U_truncated(args.g, args.n, args.order),
    "Uinv": lambda args, table: U_inverse(args.g, args.n, args.order, args.mode),
}


def cmd_mixing(args) -> int:
    tokens = [t.strip() for t in (args.emit.split(",") if args.emit else []) if t.strip()]
    for tok in tokens:
        if tok not in _MATRIX_MAKERS and tok != "expgap":
            raise DomainError(f"unknown --emit token {tok!r}")

    outputs = []
    for tok in tokens:
        if tok == "expgap":
            outputs.append("mixing_expgap.json")
        else:
            outputs.append(f"mixing_{tok}.csv")
            if args.format == "json":
                outputs.append(f"mixing_{tok}.json")
    if args.rotate is not None:
        outputs.append(f"mixing_rotated_l{args.rotate}.csv")
    if args.contamination is not None:
        outputs.append(f"mixing_contamination_l{args.contamination}.csv")
    params = {
        "g": args.g,
        "n": args.n,
        "order": args.order,
        "mode": args.mode,
        "emit": args.emit,
        "rotate": args.rotate,
        "contamination": args.contamination,
        "t": args.t,
        "tol": args.tol,
        "format": args.format,
    }
    write_manifest(args.out, "mixing", params, outputs)

    table = None
    needs_table = "V" in tokens or args.contamination is not None
    if needs_table:
        if args.g <= 0:
            raise DomainError("exact mixing requires g > 0")
        table = pole_table(args.g, args.n, args.tol)

    for tok in tokens:
        if tok == "expgap":
            gap = exponentiation_gap(args.g, args.n)
            gap_with_ah = exponentiation_gap(args.g, args.n, subtract_ah=False)
            atomic_write(
                os.path.join(args.out, "mixing_expgap.json"),
                json.dumps(
                    {"g": args.g, "n": args.n, "gap": gap, "gap_without_ah_subtraction": gap_with_ah},
                    indent=2,
                )
                + "\n",
            )
            continue
        mat: IndexMatrix = _MATRIX_MAKERS[tok](args, table)
        atomic_write(os.path.join(args.out, f"mixing_{tok}.csv"), mat.to_csv())
        if args.format == "json":
            atomic_write(
                os.path.join(args.out, f"mixing_{tok}.json"),
                json.dumps(mat.to_json_block(), indent=2) + "\n",
            )

    if args.rotate is not None:
        state = counter_rotate(args.rotate, args.g, args.n, args.order, args.mode)
        atomic_write(
            os.path.join(args.out, f"mixing_rotated_l{args.rotate}.csv"), state.to_csv()
        )
    if args.contamination is not None:
        series = diagonal_evolution_check(
            args.contamination, args.g, table, parse_grid(args.t), args.order, args.mode
        )
        atomic_write(
            os.path.join(args.out, f"mixing_contamination_l{args.contamination}.csv"),
            series.to_csv(),
        )
    return 0


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

def _curve_function(spec: str, l: int, g: float, n_max: int, x, tol, cache: dict):
    """Scalar t -> norm for one curve spec."""
    if spec.startswith("pole:"):
        n = int(spec.split(":", 1)[1])
        return lambda t: float(resonance_term_norm(l, n, g, t))
    if spec == "exponential":
        return lambda t: float(resonance_exponential_norm(l, g, n_max, t))
    if spec == "power":
        return lambda t: _power_norm(l, g, t, x, tol)
    if spec == "asymptotic":
        return lambda t: cavity_norm(asymptotic_field(l, x, t, g))
    if spec == "exponential-exact":
        if "table" not in cache:
            cache["table"] = pole_table(g, n_max, 1e-12)
        table = cache["table"]
        return lambda t: cavity_norm(exponential_field(l, x, t, g, table))
    raise DomainError(f"unknown curve spec {spec!r}")


def find_crossings(fa, fb, t_grid):
    """Sign changes of log fa - log fb on the grid, bisected to CROSSING_RTOL."""
    diffs = np.array([math.log(fa(t)) - math.log(fb(t)) for t in t_grid])
    out = []
    for i in range(len(t_grid) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0:
            out.append((float(t_grid[i]), (float(t_grid[i]), float(t_grid[i]))))
            continue
        if d0 * d1 < 0:
            lo, hi = float(t_grid[i]), float(t_grid[i + 1])
            flo = d0
            while (hi - lo) > CROSSING_RTOL * hi:
                mid = 0.5 * (lo + hi)
                fm = math.log(fa(mid)) - math.log(fb(mid))
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            out.append((0.5 * (lo + hi), (lo, hi)))
    return out


def cmd_crossings(args) -> int:
    t_grid = parse_grid(args.t)
    if t_grid[0] <= 0:
        raise DomainError("crossing search needs t > 0 (norm curves are compared on a log scale)")
    x = _position_grid(args.x)
    params = {
        "g": args.g,
        "l": args.l,
        "n_max": args.n_max,
        "tol": args.tol,
        "t": args.t,
        "x": args.x,
        "curve_a": args.curve_a,
        "curve_b": args.curve_b,
    }
    write_manifest(args.out, "crossings", params, ["crossings.json"])

    cache: dict = {}
    fa = _curve_function(args.curve_a, args.l, args.g, args.n_max, x, args.tol, cache)
    fb = _curve_function(args.curve_b, args.l, args.g, args.n_max, x, args.tol, cache)
    found = find_crossings(fa, fb, t_grid)
    if not found:
        raise CrossingNotFoundError(
            f"no crossing of {args.curve_a} and {args.curve_b} for t in "
            f"[{t_grid[0]:g}, {t_grid[-1]:g}]"
        )
    payload = {
        "curve_a": args.curve_a,
        "curve_b": args.curve_b,
        "crossings": [{"t": t, "bracket": [lo, hi]} for t, (lo, hi) in found],
    }
    atomic_write(
        os.path.join(args.out, "crossings.json"), json.dumps(payload, indent=2) + "\n"
    )
    return 0


# ---------------------------------------------------------------------------
# rerun
# ---------------------------------------------------------------------------

def cmd_rerun(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    command = manifest["command"]
    params = manifest["params"]
    argv = [command]
    for key, val in params.items():
        if val is None:
            continue
        argv.append(f"--{key.replace('_', '-')}")
        argv.append(str(val))
    argv += ["--out", args.out]
    parser = build_parser()
    sub = parser.parse_args(argv)
    return sub.func(sub)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _coupling(value: str) -> float:
    g = float(value)
    if not g >= 0:
        raise argparse.ArgumentTypeError("g must be >= 0")
    return g


def _positive_coupling(value: str) -> float:
    g = float(value)
    if not g > 0:
        raise argparse.ArgumentTypeError("g must be > 0 for this command")
    return g


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winterdyn",
        description="Metastable-state dynamics of a delta-barrier cavity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p, coupling):
        p.add_argument("--g", type=coupling, required=True, help="coupling")
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--out", default=".", help="output directory")

    p = subs.add_parser("poles", help="solve resonance poles")
    common(p, _positive_coupling)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=cmd_poles)

    p = subs.add_parser("evolve", help="time evolution norms and fields")
    common(p, _positive_coupling)
    p.add_argument("--l", type=int, default=1, help="initial box mode")
    p.add_argument("--n-max", type=int, default=24, help="pole table size")
    p.add_argument("--t", default="0:50:101", help="time grid spec")
    p.add_argument("--x", default=f"0:{math.pi!r}:129", help="position grid spec")
    p.add_argument(
        "--method",
        choices=("direct", "exponential", "power", "asymptotic", "all"),
        default="all",
    )
    p.add_argument(
        "--parts",
        choices=("split", "fig3"),
        default=None,
        help="figure-style curve sets (first-order resonance model + power)",
    )
    p.set_defaults(func=cmd_evolve)
    # evolve tolerances are quadrature targets, not the pole tol
    p.set_defaults(tol=1e-6)

    p = subs.add_parser("mixing", help="index-space matrices and rotations")
    common(p, _coupling)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n", type=int, default=64, help="truncation")
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--mode", choices=("series", "numeric"), default="numeric")
    p.add_argument("--emit", default="", help="comma list: A,A2,AH,H,V,V0,V1,V2,Z1,Z2,U,Uinv,expgap")
    p.add_argument("--rotate", type=int, default=None, metavar="L")
    p.add_argument("--contamination", type=int, default=None, metavar="L")
    p.add_argument("--t", default="0:50:51", help="time grid for contamination")
    p.set_defaults(func=cmd_mixing)

    p = subs.add_parser("crossings", help="crossing times of two norm curves")
    common(p, _positive_coupling)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--n-max", type=int, default=24)
    p.add_argument("--t", default="1:300:300", help="search grid (t > 0)")
    p.add_argument("--x", default=f"0:{math.pi!r}:129")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    p.set_defaults(func=cmd_crossings)
    p.set_defaults(tol=1e-8)

    p = subs.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PoleConvergenceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (IllConditionedError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINALG
    except CrossingNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
