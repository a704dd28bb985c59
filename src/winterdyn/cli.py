"""Command-line driver emitting CSV/JSON artifacts with reproducible manifests.

Subcommands
-----------
poles      solve the resonance poles, write table + perturbative comparison
evolve     cavity-norm time series and field snapshots for the state parts
mixing     index-space matrices, rotated states, exponentiation gap
crossings  bisection for crossing times between two norm curves
rerun      re-execute a run from its manifest (byte-identical outputs)

This is the one module that turns results into text: every CSV and JSON
format is defined here, and every number a CSV holds is its repr, checked
finite (DomainError).  Every command is a generator of (file name, text)
pairs; `publish` runs it,
staging each text and then `<command>_manifest.json` in a temporary directory
inside --out, and moves the staged files into place, the manifest last, once
all are staged.  `main` maps every failure after argument parsing in one
handler, and a failure leaves --out as it was.  Exit codes are
stable (the table is in `errors`): 2 input, manifest, --out, overflow, memory
or pole solver, 3 quadrature, 4 linear algebra, 5 crossing search.

evolve and crossings reach the four routes (direct, exponential, power,
asymptotic) through one route table of their points x times kernels: a field
snapshot reads the values of its single time, a norm curve integrates the
values of all its times over the cavity, and the domain of every selected
route is checked on the whole grid before any route computes.  `exponential`
and `pole:<n>` reproduce survival-probability figures in the first-order
resonance model (order-g mixing weights, order-g^2 widths, unit-normalized
pole states); `exponential-exact` (evolve --method exponential) gives the
full residue-sum norm.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from itertools import islice

import numpy as np

from . import __version__
from .errors import FOREIGN_EXIT_CODES, CrossingNotFoundError, DomainError, WinterError, exit_code
from .evolution import (
    _asymptotic_values,
    _cavity_norms,
    _certify,
    _check_norm_grid,
    _direct_values,
    _exponential_values,
    _inputs,
    _power_values,
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
from .poles import PoleTable, freq_pert, pole_table, width_pert

# Relative width of the bracket at which find_crossings stops bisecting.
CROSSING_RTOL = 1e-4

# Levels of the bisection tree that find_crossings evaluates per curve call.
_BISECTION_DEPTH = 3


# ---------------------------------------------------------------------------
# text formats: every CSV and JSON text a run writes
# ---------------------------------------------------------------------------

def _reprs(column) -> list[str]:
    """The repr of every value of an array, as the CSV and JSON texts write it.

    Every number a CSV holds passes through here, so a value that is not
    finite raises DomainError before its file is staged.
    """
    column = np.asarray(column)
    if not np.all(np.isfinite(column)):
        raise DomainError("values to write must be finite")
    return list(map(repr, column.tolist()))


def _csv_text(header: str, *columns) -> str:
    """CSV text: the header, then one row per entry of the columns of value strings."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _complex_csv(header: str, index, values) -> str:
    """CSV text of complex values against an index column: header, re, im."""
    return _csv_text(f"{header},re,im", *map(_reprs, (index, values.real, values.imag)))


def _norm_csv(t, norms) -> str:
    """CSV text of a norm curve: t, norm."""
    return _csv_text("t,norm", _reprs(t), _reprs(norms))


def _pole_json(table: PoleTable) -> str:
    """JSON text of a pole table: g, tol, its warnings and one object per pole."""
    keys = ("n", "re_k", "im_k", "omega", "gamma", "residual")
    columns = (table.n, table.k_values.real, table.k_values.imag, table.omega, table.gamma,
               table.residual)
    return json.dumps(
        {
            "g": table.g,
            "tol": table.tol,
            "warnings": list(table.warnings),
            "poles": [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))],
        },
        indent=2,
    ) + "\n"


def _matrix_texts(mat: IndexMatrix, fmt: str):
    """Yield ("csv", text), then for fmt "json" also ("json", text).

    Each entry is turned into text once, by repr, and both texts are
    assembled from those strings.  The JSON is the text of
    json.dumps(block, indent=2) + "\n" for the block {label, dim, entries,
    meta}, entries being rows of [re, im] pairs and meta its int, float
    and str items: the entries are finite, so repr is json's float text,
    and they are spliced into the dump of the rest row by row (an empty
    matrix keeps the dump's []).
    """
    ent = np.asarray(mat.entries, dtype=complex).ravel()
    re_s, im_s = _reprs(ent.real), _reprs(ent.imag)
    idx = [str(i) for i in range(1, mat.dim + 1)]
    yield "csv", _csv_text("row,col,re,im", (r for r in idx for _ in idx),
                           (c for _ in idx for c in idx), re_s, im_s)
    if fmt != "json":
        return
    meta = {k: v for k, v in mat.meta.items() if isinstance(v, (int, float, str))}
    head = json.dumps({"label": mat.label, "dim": mat.dim, "entries": [], "meta": meta},
                      indent=2)
    before, after = head.split('"entries": []', 1)
    pairs = map("[\n        %s,\n        %s\n      ]".__mod__, zip(re_s, im_s))
    rows = ("[\n      %s\n    ]" % ",\n      ".join(islice(pairs, mat.dim)) for _ in idx)
    yield "json", "".join([before, '"entries": [\n    ', ",\n    ".join(rows), "\n  ]",
                           after, "\n"] if idx else [head, "\n"])


# ---------------------------------------------------------------------------
# grid specs and publishing
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
    if not np.all((x >= 0) & (x <= math.pi)) or np.any(np.diff(x) <= 0):
        raise DomainError(f"--x {spec!r} must give strictly increasing positions in [0, pi]")
    return x


def _time_grid(spec: str) -> np.ndarray:
    """Parse --t, refusing a grid that no time series can be built on."""
    t = parse_grid(spec)
    if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0) or np.any(t < 0):
        raise DomainError(f"--t {spec!r} must give finite, strictly increasing times >= 0")
    return t


def publish(args) -> int:
    """Run the command args.func, then publish its outputs and manifest in --out.

    Every file of the run is written to a private staging directory inside
    --out: each output as soon as the command yields it, then the manifest,
    which records them.  Only once every file is staged and no destination in
    --out is a directory are they moved into place, the manifest last.  A run
    that raises leaves --out as it found it, down to the directories it had
    to create for it.  Files follow the umask.
    """
    out = args.out
    made = []  # the directories makedirs creates, innermost first
    d = os.path.abspath(out)
    while not os.path.isdir(d):
        made.append(d)
        d = os.path.dirname(d)
    names = []
    try:
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
            def stage(name, text):
                with open(os.path.join(staging, name), "w") as fh:
                    fh.write(text)
                names.append(name)

            for name, text in args.func(args):
                stage(name, text)
                del text  # free it before the command computes the next output
            manifest = {
                "command": args.command,
                "params": {k: v for k, v in vars(args).items()
                           if k not in ("command", "func", "out")},
                "outputs": names[:],
                "version": __version__,
            }
            stage(f"{args.command}_manifest.json", json.dumps(manifest, indent=2) + "\n")
            if clash := [n for n in names if os.path.isdir(os.path.join(out, n))]:
                raise IsADirectoryError(f"{os.path.join(out, clash[0])!r} is a directory")
            for name in names:
                os.replace(os.path.join(staging, name), os.path.join(out, name))
    except BaseException:
        for d in made:
            if os.path.isdir(d):  # makedirs may have failed before making it
                os.rmdir(d)
        raise
    return 0


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def cmd_poles(args):
    table = pole_table(args.g, args.n_max, args.tol)
    yield "poles.json", _pole_json(table)
    yield "poles.csv", _csv_text(
        "n,re_k,im_k,omega,gamma,residual,omega_pert1,omega_pert2,gamma_pert2,gamma_pert3",
        *map(_reprs, (
            table.n,
            table.k_values.real,
            table.k_values.imag,
            table.omega,
            table.gamma,
            table.residual,
            freq_pert(table.n, args.g, 1),
            freq_pert(table.n, args.g, 2),
            width_pert(table.n, args.g, 2),
            width_pert(table.n, args.g, 3),
        )),
    )


# ---------------------------------------------------------------------------
# evolve, and the route table and norm curves that crossings shares
# ---------------------------------------------------------------------------

# route -> the route's points x times values and estimates at times ts (None
# where the route has no estimate held to --tol: the asymptotic form has none,
# and a CLI run drops the exponential route's tail estimate)
_ROUTES = {
    "direct": lambda a, x, ts, table: _direct_values(a.l, x, ts, a.g, a.tol)[:2],
    "exponential": lambda a, x, ts, table: (_exponential_values(a.l, x, ts, a.g, table)[0], None),
    "power": lambda a, x, ts, table: _power_values(a.l, x, ts, a.g, a.tol),
    "asymptotic": lambda a, x, ts, table: (_asymptotic_values(a.l, x, ts, a.g), None),
}

# the curve spec of each route's cavity norm
_ROUTE_CURVES = {**{route: route for route in _ROUTES}, "exponential": "exponential-exact"}


def _route_readers(routes, args, x, t_grid, pole_tol, norm):
    """For each route, a function from an array of times to its points x times values.

    Every route's domain is checked on the whole grid, and the pole table the
    routes need is solved, before any route computes (DomainError).  Values
    are certified at --tol where the route has an estimate: a snapshot is
    strict, a norm lets the power route's marginal point (pi, 0) through with
    a warning.
    """
    for route in routes:
        _inputs(route, args.l, x, t_grid, args.g)
    table = pole_table(args.g, args.n_max, pole_tol) if "exponential" in routes else None

    def read(route, ts):
        values, estimates = _ROUTES[route](args, x, ts, table)
        if estimates is not None:
            _certify(route, args.l, x, ts, args.g, args.tol, estimates, values, norm)
        return values

    return [lambda ts, route=route: read(route, ts) for route in routes]


def _curves(specs, args, x, t_grid, pole_tol) -> list:
    """For each curve spec, a function from an array of times to cavity norms.

    `pole:<n>` and `exponential` are the first-order resonance model;
    `exponential-exact`, `power`, `asymptotic` and `direct` integrate that
    route's values over the cavity, every time of a call at once.  Raises
    DomainError for an unknown spec or a grid outside a route's domain,
    before any curve computes.
    """
    l, g = args.l, args.g
    curves = {"exponential": lambda ts: resonance_exponential_norm(l, g, args.n_max, ts)}
    routes = {spec: route for route, spec in _ROUTE_CURVES.items() if spec in specs}
    for spec in specs:
        n = spec.removeprefix("pole:")
        if n != spec and n.isdecimal() and int(n) >= 1:
            curves[spec] = lambda ts, n=int(n): resonance_term_norm(l, n, g, ts)
        elif spec not in curves and spec not in routes:
            raise DomainError(f"unknown curve spec {spec!r}; use pole:<n >= 1>, exponential, "
                              "exponential-exact, power, asymptotic or direct")
    if routes:
        _check_norm_grid(x)
    readers = _route_readers(list(routes.values()), args, x, t_grid, pole_tol, norm=True)
    for spec, read in zip(routes, readers):
        curves[spec] = lambda ts, read=read: _cavity_norms(x, read(ts))
    return [curves[spec] for spec in specs]


def cmd_evolve(args):
    t_grid = _time_grid(args.t)
    x = _position_grid(args.x)
    if args.parts == "fig3" and args.l < 2:
        raise DomainError("--parts fig3 sets pole l against pole 1, so it needs --l >= 2")
    methods = list(_ROUTES) if args.method == "all" else [args.method]
    pole_tol = min(args.tol, 1e-10)
    if args.parts is None and len(t_grid) == 1:
        readers = _route_readers(methods, args, x, t_grid, pole_tol, norm=False)
        for m, read in zip(methods, readers):
            yield f"evolve_field_{m}.csv", _complex_csv("x_or_t", x, read(t_grid)[:, 0])
        return

    # output name -> curve spec; --method exponential is the exact residue sum
    curves = {
        "split": {"evolve_exponential_norm.csv": "exponential", "evolve_power_norm.csv": "power"},
        "fig3": {
            "evolve_pole_diag_norm.csv": f"pole:{args.l}",
            "evolve_pole_offdiag_norm.csv": "pole:1",
            "evolve_power_norm.csv": "power",
        },
        None: {f"evolve_{m}_norm.csv": _ROUTE_CURVES[m] for m in methods},
    }[args.parts]
    norms = _curves(list(curves.values()), args, x, t_grid, pole_tol)
    for name, norm in zip(curves, norms):
        yield name, _norm_csv(t_grid, norm(t_grid))


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


def cmd_mixing(args):
    tokens = [t.strip() for t in (args.emit.split(",") if args.emit else []) if t.strip()]
    for tok in tokens:
        if tok not in _MATRIX_MAKERS and tok != "expgap":
            raise DomainError(f"unknown --emit token {tok!r}")
    if any(l is not None and not 1 <= l <= args.n for l in (args.rotate, args.contamination)):
        raise DomainError(f"--rotate and --contamination need 1 <= l <= N = {args.n}")
    t_grid = _time_grid(args.t) if args.contamination is not None else None
    table = None
    if "V" in tokens or args.contamination is not None:
        table = pole_table(args.g, args.n, args.tol)

    for tok in tokens:
        if tok == "expgap":
            gap, gap_with_ah = exponentiation_gap(args.g, args.n)
            yield "mixing_expgap.json", json.dumps(
                {"g": args.g, "n": args.n, "gap": gap, "gap_without_ah_subtraction": gap_with_ah},
                indent=2,
            ) + "\n"
            continue
        for ext, text in _matrix_texts(_MATRIX_MAKERS[tok](args, table), args.format):
            yield f"mixing_{tok}.{ext}", text
            del text  # free the CSV before _matrix_texts builds the JSON

    if args.rotate is not None:
        row = counter_rotate(args.rotate, args.g, args.n, args.order, args.mode)
        yield f"mixing_rotated_l{args.rotate}.csv", _complex_csv("n", range(1, len(row) + 1), row)
    if args.contamination is not None:
        norms = diagonal_evolution_check(
            args.contamination, args.g, table, t_grid, args.order, args.mode
        )
        yield f"mixing_contamination_l{args.contamination}.csv", _norm_csv(t_grid, norms)


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

def _bisection_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint the next `depth` bisection steps of [lo, hi] can probe."""
    if depth == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_bisection_tree(lo, mid, depth - 1), *_bisection_tree(mid, hi, depth - 1)]


def find_crossings(fa, fb, t_grid):
    """Sign changes of log fa - log fb on the grid, bisected to CROSSING_RTOL.

    fa and fb map an array of times to an array of norms.  A grid point with a
    gap of exactly 0, the last one included, is a crossing of zero width; two
    neighbouring ones mean the curves coincide there (DomainError).  A norm of
    0 has log -inf, so a gap between two zero norms is nan and never a sign
    change.  All brackets are bisected in lock-step: each curve call holds the
    next _BISECTION_DEPTH levels of the bisection tree of every open bracket
    (7 probes each), and each bracket then descends as far as they reach.
    """

    def gap(ts):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(fa(ts)) - np.log(fb(ts))

    t, d = t_grid.tolist(), [*gap(t_grid), np.nan]
    brackets = []  # [lo, hi, gap at lo], in grid order
    for i, (d0, d1) in enumerate(zip(d, d[1:])):
        if d0 == 0.0 == d1:
            raise DomainError(f"curves coincide on [{t[i]:g}, {t[i + 1]:g}]: no crossing to find")
        if d0 == 0.0 or d0 * d1 < 0:
            brackets.append([t[i], t[i] if d0 == 0.0 else t[i + 1], d0])
    while live := [b for b in brackets if b[1] - b[0] > CROSSING_RTOL * b[1]]:
        probes = [p for lo, hi, _ in live for p in _bisection_tree(lo, hi, _BISECTION_DEPTH)]
        known = dict(zip(probes, gap(np.array(probes))))
        for b in live:
            while b[1] - b[0] > CROSSING_RTOL * b[1] and (mid := 0.5 * (b[0] + b[1])) in known:
                if b[2] * known[mid] <= 0:
                    b[1] = mid
                else:
                    b[0], b[2] = mid, known[mid]
    return [(0.5 * (lo + hi), (lo, hi)) for lo, hi, _ in brackets]


def cmd_crossings(args):
    t_grid = _time_grid(args.t)
    if t_grid[0] <= 0:
        raise DomainError("crossing search needs t > 0 (norm curves are compared on a log scale)")
    x = _position_grid(args.x)
    fa, fb = _curves([args.curve_a, args.curve_b], args, x, t_grid, 1e-12)
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
    yield "crossings.json", json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# rerun
# ---------------------------------------------------------------------------

def _rerun_args(args) -> argparse.Namespace:
    """The parsed arguments of the run that --manifest records, writing to --out.

    Raises DomainError for a file that is not a manifest (OSError if it
    cannot be read).
    """
    with open(args.manifest) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"manifest {args.manifest!r} is not JSON: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("params"), dict)
            and manifest.get("command") in ("poles", "evolve", "mixing", "crossings")):
        raise DomainError(
            f"manifest {args.manifest!r} records no poles, evolve, mixing or crossings run"
        )
    argv = [manifest["command"], "--out", args.out]
    for key, val in manifest["params"].items():
        if val is not None:
            argv.append(f"--{key.replace('_', '-')}={val}")
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _coupling(value: str) -> float:
    g = float(value)
    if not g >= 0:
        raise argparse.ArgumentTypeError("g must be >= 0")
    return g


def _positive(value: str) -> float:
    v = float(value)
    if not v > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return v


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winterdyn",
        description="Metastable-state dynamics of a delta-barrier cavity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p, coupling, tol):
        p.add_argument("--g", type=coupling, required=True, help="coupling")
        p.add_argument("--tol", type=_positive, default=tol)
        p.add_argument("--out", default=".", help="output directory")

    p = subs.add_parser("poles", help="solve resonance poles")
    common(p, _positive, 1e-12)
    p.add_argument("--n-max", type=_positive_int, default=10)
    p.set_defaults(func=cmd_poles)

    p = subs.add_parser("evolve", help="time evolution norms and fields")
    # evolve tolerances are quadrature targets, not the pole tol
    common(p, _positive, 1e-6)
    p.add_argument("--l", type=_positive_int, default=1, help="initial box mode")
    p.add_argument("--n-max", type=_positive_int, default=24, help="pole table size")
    p.add_argument("--t", default="0.5:50:100", help="time grid spec")
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

    p = subs.add_parser("mixing", help="index-space matrices and rotations")
    common(p, _coupling, 1e-12)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n", type=int, default=64, help="truncation")
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--mode", choices=("series", "numeric"), default="numeric")
    p.add_argument("--emit", default="", help=f"comma list: {','.join(_MATRIX_MAKERS)},expgap")
    p.add_argument("--rotate", type=int, default=None, metavar="L")
    p.add_argument("--contamination", type=int, default=None, metavar="L")
    p.add_argument("--t", default="0:50:51", help="time grid for contamination")
    p.set_defaults(func=cmd_mixing)

    p = subs.add_parser("crossings", help="crossing times of two norm curves")
    common(p, _positive, 1e-8)
    p.add_argument("--l", type=_positive_int, default=1)
    p.add_argument("--n-max", type=_positive_int, default=24)
    p.add_argument("--t", default="1:300:300", help="search grid (t > 0)")
    p.add_argument("--x", default=f"0:{math.pi!r}:129")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    p.set_defaults(func=cmd_crossings)

    p = subs.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            args = _rerun_args(args)
        return publish(args)
    except (WinterError, *FOREIGN_EXIT_CODES) as exc:
        message = exc if isinstance(exc, WinterError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
