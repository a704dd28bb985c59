import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from winterdyn import DomainError, WinterError, cli, errors, evolution
from winterdyn.cli import CROSSING_RTOL, build_parser, find_crossings, main, parse_grid
from winterdyn.quadrature import TRUNCATION_PANEL_CAP


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_parse_grid_linear():
    g = parse_grid("0:10:11")
    assert len(g) == 11 and g[0] == 0.0 and g[-1] == 10.0


def test_parse_grid_logspace():
    g = parse_grid("logspace:1e3:1e5:3")
    assert np.allclose(g, [1e3, 1e4, 1e5])


def test_parse_grid_scalar():
    assert list(parse_grid("2.5")) == [2.5]


def test_parse_grid_bad():
    with pytest.raises(ValueError):
        parse_grid("1:2")


@pytest.mark.parametrize(
    "spec", ["1:2", "1:2:2:5", "0:abc:40", "abc", "0:1:4.5", "0:1:0", "logspace:0:1:3",
             "logspace:1:10", "logspace:1:10:-1"]
)
def test_parse_grid_rejects_with_domain_error(spec):
    with pytest.raises(DomainError):
        parse_grid(spec)


EVOLVE = ["evolve", "--g", "0.2", "--method", "exponential", "--n-max", "4"]
CROSSINGS = ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1", "--curve-b", "pole:2"]


@pytest.mark.parametrize(
    "grid",
    [
        ["--t", "1:2:2", "--x", "0:abc:40"],
        ["--t", "1:2:2:5"],
        ["--t", "logspace:0:10:3"],
        ["--t", "1:2:0"],
    ],
)
@pytest.mark.parametrize("command", [EVOLVE, CROSSINGS])
def test_malformed_grid_exits_2_before_manifest(tmp_path, command, grid):
    rc = main(command + grid + ["--out", str(tmp_path)])
    assert rc == 2
    assert not any(tmp_path.iterdir())


def test_evolve_rejects_decreasing_times_before_manifest(tmp_path):
    rc = main(EVOLVE + ["--t", "2:1:2", "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "evolve_manifest.json").exists()


@pytest.mark.parametrize("spec", ["-1:1:3", "0:inf:3"])
def test_evolve_rejects_negative_or_non_finite_times(tmp_path, spec):
    rc = main(EVOLVE + [f"--t={spec}", "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "evolve_manifest.json").exists()


def test_poles_command(tmp_path):
    rc = main(["poles", "--g", "0.1", "--n-max", "5", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "poles.csv")
    assert len(rows) == 5
    assert all(float(r["residual"]) < 1e-12 for r in rows)
    manifest = json.loads((tmp_path / "poles_manifest.json").read_text())
    assert manifest["command"] == "poles"
    table = json.loads((tmp_path / "poles.json").read_text())
    assert len(table["poles"]) == 5


def test_poles_small_g_first_order_column(tmp_path):
    main(["poles", "--g", "0.01", "--n-max", "10", "--out", str(tmp_path)])
    for r in read_csv(tmp_path / "poles.csv"):
        n = int(r["n"])
        assert abs(float(r["re_k"]) - n * 0.99) / n < 2e-3


def test_poles_rejects_zero_coupling(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["poles", "--g", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mixing", "--g", "0", "--n", "1", "--rotate", "1"],  # N >= 2 at g = 0 too
    ["poles", "--g", "0.0469", "--n-max", "4200"],  # |b| floors from n = 4103
])
def test_refused_run_exits_2_and_creates_no_out(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_evolve_parts_split(tmp_path):
    rc = main(
        ["evolve", "--g", "0.2", "--l", "1", "--parts", "split",
         "--t", "10:60:6", "--x", f"0:{math.pi!r}:65", "--out", str(tmp_path)]
    )
    assert rc == 0
    exp_rows = read_csv(tmp_path / "evolve_exponential_norm.csv")
    pw_rows = read_csv(tmp_path / "evolve_power_norm.csv")
    assert len(exp_rows) == len(pw_rows) == 6
    # resonance-model curve starts above the power curve and ends below it
    assert float(exp_rows[0]["norm"]) > float(pw_rows[0]["norm"])
    assert float(exp_rows[-1]["norm"]) < float(pw_rows[-1]["norm"])


def test_evolve_field_snapshot(tmp_path):
    rc = main(
        ["evolve", "--g", "0.2", "--l", "1", "--method", "power",
         "--t", "2.0", "--x", f"0:{math.pi!r}:33", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "evolve_field_power.csv")
    assert len(rows) == 33


def test_evolve_exponential_t0_warns(tmp_path):
    with pytest.warns(UserWarning, match="1/n"):
        main(
            ["evolve", "--g", "0.1", "--l", "2", "--method", "exponential",
             "--t", "0", "--x", f"0:{math.pi!r}:33", "--n-max", "6",
             "--out", str(tmp_path)]
        )


def test_mixing_emit_and_residual(tmp_path):
    rc = main(
        ["mixing", "--g", "0.1", "--n", "64", "--emit", "U,Uinv", "--order", "2",
         "--format", "json", "--out", str(tmp_path)]
    )
    assert rc == 0
    blob = json.loads((tmp_path / "mixing_Uinv.json").read_text())
    assert blob["meta"]["residual"] < 1e-10
    rows = read_csv(tmp_path / "mixing_U.csv")
    assert len(rows) == 64 * 64


def test_mixing_rotate_free_coupling(tmp_path):
    rc = main(["mixing", "--g", "0", "--n", "8", "--rotate", "3", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "mixing_rotated_l3.csv")
    coeffs = [complex(float(r["re"]), float(r["im"])) for r in rows]
    assert coeffs[2] == 1.0
    assert all(c == 0.0 for i, c in enumerate(coeffs) if i != 2)


def test_mixing_expgap(tmp_path):
    rc = main(["mixing", "--g", "0.02", "--n", "8", "--emit", "expgap", "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "mixing_expgap.json").read_text())
    assert blob["gap"] < blob["gap_without_ah_subtraction"]


def test_crossings_two_pole_terms(tmp_path):
    rc = main(
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
         "--curve-b", "pole:2", "--t", "1:20:40", "--out", str(tmp_path)]
    )
    assert rc == 0
    blob = json.loads((tmp_path / "crossings.json").read_text())
    t = blob["crossings"][0]["t"]
    assert t == pytest.approx(4.581, abs=0.05)


@pytest.mark.parametrize(
    "g, l, t, bracket",
    [("0.2", "1", 99.06640625, [99.0625, 99.0703125]),
     ("0.1", "2", 280.2578125, [280.25, 280.265625])],
)
def test_exact_exponential_power_crossovers_pinned(tmp_path, g, l, t, bracket):
    # the exact residue sum hands over to the power part at t = 99.07
    # (g = 0.2, l = 1) and 280.26 (g = 0.1, l = 2); the first-order model
    # puts these crossovers at 31.7 and 164
    assert main(["crossings", "--g", g, "--l", l, "--curve-a", "exponential-exact",
                 "--curve-b", "power", "--out", str(tmp_path)]) == 0
    (found,) = json.loads((tmp_path / "crossings.json").read_text())["crossings"]
    assert found == {"t": t, "bracket": bracket}


@pytest.mark.parametrize("g, l", [("0.2", "1"), ("0.1", "2")])
def test_exact_crossovers_stable_in_n_max(tmp_path, g, l):
    # 24 poles already fix the exact crossovers: 200 poles move them by less
    # than 1e-3 relative
    found = {}
    for n_max in ("24", "200"):
        out = tmp_path / n_max
        assert main(["crossings", "--g", g, "--l", l, "--curve-a", "exponential-exact",
                     "--curve-b", "power", "--n-max", n_max, "--out", str(out)]) == 0
        blob = json.loads((out / "crossings.json").read_text())
        found[n_max] = [c["t"] for c in blob["crossings"]]
    assert len(found["24"]) == len(found["200"]) == 1
    assert found["200"][0] == pytest.approx(found["24"][0], rel=1e-3)


def test_crossings_of_underflowing_curves_exit_5(tmp_path):
    # pole 5 decays as exp(-4 pi 125 g^2 t) and both norms reach 0 on the grid:
    # log 0 = -inf, and the nan gap of two zero norms is no sign change
    rc = main(
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:5",
         "--curve-b", "pole:1", "--t", "1:1e5:10", "--out", str(tmp_path)]
    )
    assert rc == 5
    assert not (tmp_path / "crossings.json").exists()


def find_crossings_one_probe(fa, fb, t_grid):
    """Reference form: bisection that calls each curve once per probe."""

    def gap(ts):
        return [math.log(a) - math.log(b) for a, b in zip(fa(ts), fb(ts))]

    diffs = gap(t_grid)
    out = []
    for i in range(len(t_grid) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0 and d1 == 0.0:
            raise DomainError("curves coincide")
        if d0 == 0.0:
            out.append((float(t_grid[i]), (float(t_grid[i]), float(t_grid[i]))))
            continue
        if d0 * d1 < 0:
            lo, hi = float(t_grid[i]), float(t_grid[i + 1])
            flo = d0
            while (hi - lo) > CROSSING_RTOL * hi:
                mid = 0.5 * (lo + hi)
                fm = gap(np.array([mid]))[0]
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            out.append((0.5 * (lo + hi), (lo, hi)))
    if diffs[-1] == 0.0:
        out.append((float(t_grid[-1]), (float(t_grid[-1]), float(t_grid[-1]))))
    return out


def lock_step_calls(fa, fb, t_grid):
    """The probe count of each curve call that lock-step bisection makes.

    Counted from the reference: a bracket of s one-probe steps takes ceil(s/3)
    rounds, and each round makes 7 probes for every bracket still open.
    """
    times = []

    def recorded(ts):
        times.append(ts)
        return fa(ts)

    find_crossings_one_probe(recorded, fb, t_grid)
    cells = np.searchsorted(t_grid, [t for ts in times[1:] for t in ts])
    rounds = -(-np.bincount(cells) // 3)
    return [len(t_grid)] + [7 * int(np.sum(rounds > k)) for k in range(max(rounds, default=0))]


@settings(max_examples=60, deadline=None)
@given(
    rates=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
    weight=st.floats(1e-3, 1e3),
    wiggle=st.floats(0.0, 0.9),
    freq=st.floats(0.1, 5.0),
    lo=st.floats(0.01, 10.0),
    span=st.floats(0.1, 100.0),
    count=st.integers(2, 40),
)
# nine crossings, open together for the first rounds
@example(rates=(0.5, 0.5), weight=1.0, wiggle=0.5, freq=1.0, lo=0.5, span=30.0, count=31)
def test_batched_bisection_equals_one_probe_bisection(rates, weight, wiggle, freq, lo, span,
                                                      count):
    # two exponentials, one with a wiggle so that several crossings can occur
    calls = []

    def fa(ts):
        calls.append(len(ts))
        return np.exp(-rates[0] * ts) * (1.0 + wiggle * np.sin(freq * ts))

    def fb(ts):
        return weight * np.exp(-rates[1] * ts)

    t_grid = np.linspace(lo, lo + span, count)
    try:
        found, batched = find_crossings(fa, fb, t_grid), list(calls)
    except DomainError:  # equal curves
        with pytest.raises(DomainError):
            find_crossings_one_probe(fa, fb, t_grid)
        return
    # one grid call, then one call a round with 7 probes for each open bracket,
    # for as many rounds as the deepest bracket needs
    assert batched == lock_step_calls(fa, fb, t_grid)
    assert found == find_crossings_one_probe(fa, fb, t_grid)


def test_lock_step_bisects_every_bracket_in_one_call_a_round():
    # log(2 + sin t) - log 2 changes sign at pi, 2 pi, ..., 7 pi; the bracket
    # at 7 pi needs 9 bisection steps, the others 10 to 12
    calls = []

    def fa(ts):
        calls.append(len(ts))
        return 2.0 + np.sin(ts)

    def fb(ts):
        return np.full(len(ts), 2.0)

    t_grid = np.linspace(0.5, 22.5, 23)
    found = find_crossings(fa, fb, t_grid)
    assert calls == [23, 49, 49, 49, 42]
    assert lock_step_calls(fa, fb, t_grid) == [23, 49, 49, 49, 42]
    assert found == find_crossings_one_probe(fa, fb, t_grid)
    assert [round(t / math.pi, 3) for t, _ in found] == [1, 2, 3, 4, 5, 6, 7]


def test_exact_zero_gap_at_any_grid_point_is_a_crossing():
    # the gap is exactly 0 at t = 1, 3 and 5, the first, an interior and the
    # last grid point, and has no sign change in between
    def fa(ts):
        return np.ones(len(ts))

    def fb(ts):
        return 1.0 + 0.01 * (ts - 1.0) * (ts - 3.0) * (ts - 5.0)

    t_grid = np.linspace(1.0, 5.0, 5)
    expected = [(t, (t, t)) for t in (1.0, 3.0, 5.0)]
    assert find_crossings(fa, fb, t_grid) == expected
    assert find_crossings_one_probe(fa, fb, t_grid) == expected


def test_crossings_disjoint_exit_5(tmp_path):
    rc = main(
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
         "--curve-b", "pole:2", "--t", "6:20:20", "--out", str(tmp_path)]
    )
    assert rc == 5


def test_rerun_reproduces_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    main(["poles", "--g", "0.1", "--n-max", "5", "--out", str(first)])
    rc = main(["rerun", "--manifest", str(first / "poles_manifest.json"),
               "--out", str(second)])
    assert rc == 0
    assert (first / "poles.csv").read_bytes() == (second / "poles.csv").read_bytes()
    assert (first / "poles.json").read_bytes() == (second / "poles.json").read_bytes()


def test_evolve_parts_fig3_with_t0(tmp_path):
    # t = 0 hits the marginally divergent ray point at x = pi; the norm
    # pipeline substitutes the cutoff-limited value and warns
    with pytest.warns(UserWarning, match="marginally divergent"):
        rc = main(
            ["evolve", "--g", "0.1", "--l", "2", "--parts", "fig3",
             "--t", "0:10:3", "--x", f"0:{math.pi!r}:65", "--out", str(tmp_path)]
        )
    assert rc == 0
    for name in ("evolve_pole_diag_norm.csv", "evolve_pole_offdiag_norm.csv",
                 "evolve_power_norm.csv"):
        rows = read_csv(tmp_path / name)
        assert len(rows) == 3
        assert all(np.isfinite(float(r["norm"])) for r in rows)


def test_mixing_rotate_order1(tmp_path):
    rc = main(["mixing", "--g", "0.1", "--n", "64", "--rotate", "1",
               "--order", "1", "--mode", "series", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "mixing_rotated_l1.csv")
    coeffs = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    n = np.arange(1, 65)
    x = np.linspace(0, 0.9 * math.pi, 100)
    synth = math.sqrt(2 / math.pi) * (np.sin(np.outer(x, n)) @ coeffs)
    target = math.sqrt(2 / math.pi) * (1 - 0.05) * np.sin(0.9 * x)
    assert np.max(np.abs(synth - target)) < 6 * 0.1**2


def test_rerun_mixing_json_reproduces_file_set(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    main(["mixing", "--g", "0.1", "--n", "8", "--emit", "U", "--format", "json",
          "--out", str(first)])
    rc = main(["rerun", "--manifest", str(first / "mixing_manifest.json"),
               "--out", str(second)])
    assert rc == 0
    names = sorted(p.name for p in first.iterdir())
    assert "mixing_U.json" in names
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_evolve_power_norm_rejects_short_grid(tmp_path):
    # the power norm runs through the same grid check as every other norm
    rc = main(
        ["evolve", "--g", "0.2", "--method", "power", "--t", "1:2:2",
         "--x", "0:3.14:10", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_evolve_rejects_decreasing_grid_before_manifest(tmp_path):
    rc = main(
        ["evolve", "--g", "0.2", "--method", "exponential", "--n-max", "4",
         "--t", "1:2:2", "--x", "3.141592653589793:0:40", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert not (tmp_path / "evolve_manifest.json").exists()


def test_crossings_rejects_non_finite_grid_before_manifest(tmp_path):
    rc = main(
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
         "--curve-b", "pole:2", "--t", "1:20:39", "--x", "0:inf:65",
         "--out", str(tmp_path)]
    )
    assert rc == 2
    assert not (tmp_path / "crossings_manifest.json").exists()


def test_evolve_power_t0_writes_norm_and_warns(tmp_path):
    # default grid: only the marginal point (pi, 0) may miss the tolerance
    with pytest.warns(UserWarning, match="marginally divergent"):
        rc = main(["evolve", "--g", "0.2", "--method", "power", "--t", "0:1:2",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "evolve_power_norm.csv")
    assert [float(r["t"]) for r in rows] == [0.0, 1.0]
    assert all(np.isfinite(float(r["norm"])) and float(r["norm"]) > 0 for r in rows)


def test_artifact_bytes_pinned(tmp_path):
    rc = main(["mixing", "--g", "0", "--n", "2", "--emit", "A,H", "--format", "json",
               "--rotate", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "mixing_A.csv").read_text() == (
        "row,col,re,im\n"
        "1,1,0.0,0.0\n"
        "1,2,1.3333333333333333,0.0\n"
        "2,1,-1.3333333333333333,0.0\n"
        "2,2,0.0,0.0\n"
    )
    assert (tmp_path / "mixing_A.json").read_text() == (
        '{\n  "label": "A",\n  "dim": 2,\n  "entries": [\n'
        "    [\n      [\n        0.0,\n        0.0\n      ],\n"
        "      [\n        1.3333333333333333,\n        0.0\n      ]\n    ],\n"
        "    [\n      [\n        -1.3333333333333333,\n        0.0\n      ],\n"
        "      [\n        0.0,\n        0.0\n      ]\n    ]\n  ],\n"
        '  "meta": {}\n}\n'
    )
    assert (tmp_path / "mixing_H.csv").read_text() == (
        "row,col,re,im\n1,1,1.0,0.0\n1,2,0.0,0.0\n2,1,0.0,0.0\n2,2,2.0,0.0\n"
    )
    assert (tmp_path / "mixing_rotated_l1.csv").read_text() == "n,re,im\n1,1.0,0.0\n2,0.0,0.0\n"


def test_pole_artifact_bytes_pinned(tmp_path):
    with pytest.warns(UserWarning, match="2 of 2 poles"):
        assert main(["poles", "--g", "0.2", "--n-max", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "poles.json").read_text() == (
        '{\n  "g": 0.2,\n  "tol": 1e-12,\n  "warnings": [\n'
        '    "n=1: perturbative width 0.503 exceeds 0.1*omega 0.06; resonance picture marginal",\n'
        '    "n=2: perturbative width 4.02 exceeds 0.1*omega 0.24; resonance picture marginal"\n'
        '  ],\n  "poles": [\n'
        '    {\n      "n": 1,\n      "re_k": 0.8627413005714853,\n'
        '      "im_k": -0.05665891602548523,\n      "omega": 0.741112318946595,\n'
        '      "gamma": 0.1955279476031908,\n      "residual": 1.465052919388339e-16\n    },\n'
        '    {\n      "n": 2,\n      "re_k": 1.8054317931391886,\n'
        '      "im_k": -0.1402407635633841,\n      "omega": 3.2399164879129447,\n'
        '      "gamma": 1.0127805329257982,\n      "residual": 2.454329063158811e-16\n    }\n'
        "  ]\n}\n"
    )
    assert (tmp_path / "poles.csv").read_text() == (
        "n,re_k,im_k,omega,gamma,residual,omega_pert1,omega_pert2,gamma_pert2,gamma_pert3\n"
        "1,0.8627413005714853,-0.05665891602548523,0.741112318946595,0.1955279476031908,"
        "1.465052919388339e-16,0.6,0.72,0.5026548245743669,0.10053096491487337\n"
        "2,1.8054317931391886,-0.1402407635633841,3.2399164879129447,1.0127805329257982,"
        "2.454329063158811e-16,2.4,2.88,4.0212385965949355,0.804247719318987\n"
    )


X33 = f"0:{math.pi!r}:33"


def test_curve_artifact_bytes_pinned(tmp_path):
    split, fig3, cross = tmp_path / "split", tmp_path / "fig3", tmp_path / "cross"
    assert main(["evolve", "--g", "0.2", "--parts", "split", "--t", "1:10:3", "--x", X33,
                 "--out", str(split)]) == 0
    assert main(["evolve", "--g", "0.1", "--l", "2", "--parts", "fig3", "--t", "1:10:3",
                 "--x", X33, "--out", str(fig3)]) == 0
    assert main(CROSSINGS + ["--t", "1:20:39", "--out", str(cross)]) == 0
    assert (split / "evolve_exponential_norm.csv").read_text() == (
        "t,norm\n1.0,0.6061976664797118\n5.5,0.06300119812723168\n10.0,0.006561419936306071\n"
    )
    assert (split / "evolve_power_norm.csv").read_text() == (
        "t,norm\n1.0,0.0004395734530654488\n5.5,1.601951125155861e-05\n"
        "10.0,3.381473765500581e-06\n"
    )
    assert (fig3 / "evolve_pole_diag_norm.csv").read_text() == (
        "t,norm\n1.0,0.3659313069412933\n5.5,0.003969150963242845\n10.0,4.305223158055476e-05\n"
    )
    assert (fig3 / "evolve_pole_offdiag_norm.csv").read_text() == (
        "t,norm\n1.0,0.01567842450307869\n5.5,0.008906655926190766\n10.0,0.005059725214862742\n"
    )
    assert (fig3 / "evolve_power_norm.csv").read_text() == (
        "t,norm\n1.0,2.4986350040615784e-05\n5.5,4.362105694806584e-07\n"
        "10.0,8.180518194393037e-08\n"
    )
    assert (cross / "crossings.json").read_text() == (
        '{\n  "curve_a": "pole:1",\n  "curve_b": "pole:2",\n  "crossings": [\n    {\n'
        '      "t": 4.5811767578125,\n      "bracket": [\n        4.5810546875,\n'
        '        4.581298828125\n      ]\n    }\n  ]\n}\n'
    )


def test_field_and_mixing_artifact_bytes_pinned(tmp_path):
    # a field snapshot (signed zeros included), a series-mode inverse with its
    # meta, and a contamination curve
    field, mixing = tmp_path / "field", tmp_path / "mixing"
    assert main(["evolve", "--g", "0.2", "--method", "asymptotic", "--t", "5", "--x", "0:3:3",
                 "--out", str(field)]) == 0
    assert main(["mixing", "--g", "0.1", "--n", "2", "--emit", "Uinv", "--mode", "series",
                 "--format", "json", "--contamination", "1", "--t", "0:2:3",
                 "--out", str(mixing)]) == 0
    assert (field / "evolve_field_asymptotic.csv").read_text() == (
        "x_or_t,re,im\n0.0,0.0,-0.0\n1.5,-0.0035920947497258488,-0.0001346852127738007\n"
        "3.0,-0.005926401262108066,-0.0015271586628912333\n"
    )
    assert (mixing / "mixing_Uinv.json").read_text() == (
        '{\n  "label": "U_inverse",\n  "dim": 2,\n  "entries": [\n'
        "    [\n      [\n        0.9823006593315178,\n        0.0\n      ],\n"
        "      [\n        -0.10444444444444444,\n        -0.08377580409572782\n      ]\n    ],\n"
        "    [\n      [\n        0.1488888888888889,\n        0.04188790204786391\n      ],\n"
        "      [\n        0.9329526373260709,\n        0.0\n      ]\n    ]\n  ],\n"
        '  "meta": {\n    "g": 0.1,\n    "order": 2,\n    "mode": "series"\n  }\n}\n'
    )
    assert (mixing / "mixing_contamination_l1.csv").read_text() == (
        "t,norm\n0.0,0.0012323424237461415\n1.0,0.0010527091560968756\n"
        "2.0,0.0007403104388309962\n"
    )


def test_power_norms_match_per_time_kernel_literals(tmp_path):
    # the power norms the per-t ray kernel wrote, before times shared a cell
    # set per band and a matrix product
    per_t = {
        ("0.2", "1"): [0.00043957345306544867, 1.6019511251558602e-05, 3.3814737655005822e-06],
        ("0.1", "2"): [2.4986350040615797e-05, 4.3621056948065844e-07, 8.180518194393035e-08],
    }
    for (g, l), old in per_t.items():
        out = tmp_path / g
        assert main(["evolve", "--g", g, "--l", l, "--method", "power", "--t", "1:10:3",
                     "--x", X33, "--out", str(out)]) == 0
        norms = [float(r["norm"]) for r in read_csv(out / "evolve_power_norm.csv")]
        np.testing.assert_allclose(norms, old, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1", "--curve-b", "pole:2",
         "--t", "20:1:39"],
        ["mixing", "--g", "0.1", "--n", "8", "--contamination", "1", "--t", "5:1:3"],
        ["mixing", "--g", "0.1", "--n", "8", "--contamination", "1", "--t", "0:abc:3"],
        ["mixing", "--g", "0", "--n", "8", "--contamination", "1"],
        ["evolve", "--g", "0.1", "--l", "1", "--parts", "fig3", "--t", "1:10:3"],
        ["mixing", "--g", "0.1", "--n", "4", "--rotate", "9"],
        ["mixing", "--g", "0.1", "--n", "4", "--contamination", "9"],
        ["mixing", "--g", "0", "--n", "4", "--rotate", "0"],
        ["mixing", "--g", "0.1", "--n", "1", "--emit", "U"],
        ["mixing", "--g", "0.1", "--n", "4", "--emit", "V", "--contamination", "5"],
        ["evolve", "--g", "0.2", "--method", "power", "--t", "1:2:2", "--x", "0:3.1:40"],
        ["crossings", "--g", "0.2", "--curve-a", "power", "--curve-b", "exponential",
         "--t", "1:5:3", "--x", "0:3.1:40"],
        ["evolve", "--g", "0.2", "--method", "asymptotic", "--t", "0:10:3"],
        ["evolve", "--g", "0.2", "--method", "exponential", "--t", "1:2:2", "--x=-1:3.2:129"],
        ["evolve", "--g", "0.2", "--method", "exponential", "--t", "1:2:2", "--x", "0:4:129"],
        ["evolve", "--g", "0.2", "--method", "direct", "--t", "1", "--x", "0:4:33"],
        ["evolve", "--g", "0.2", "--method", "asymptotic", "--t", "1", "--x=-0.5:3:33"],
        ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1", "--curve-b", "asymptotic",
         "--t", "1:20:39", "--x", "0:3.2:129"],
        CROSSINGS + ["--t", "0:5:3"],
        ["mixing", "--g", "0.1", "--n", "4", "--emit", "A,bogus"],
        # equal norms: the gap is exactly 0 at neighbouring grid points
        ["crossings", "--g", "0.2", "--curve-a", "power", "--curve-b", "power", "--t", "5:80:6"],
        ["crossings", "--g", "0.2", "--curve-a", "exponential", "--curve-b", "pole:1",
         "--n-max", "1"],
    ]
    + [["crossings", "--g", "0.1", "--l", "2", "--curve-a", spec, "--curve-b", "pole:2",
        "--t", "1:20:39"] for spec in ("pole:abc", "pole:0", "pole:", "bogus", "exponential:2")],
    ids=["crossings-decreasing-t", "mixing-decreasing-t", "mixing-malformed-t",
         "mixing-zero-coupling", "evolve-fig3-l1", "mixing-rotate-9",
         "mixing-contamination-9", "mixing-rotate-0", "mixing-n-1", "mixing-V-contamination-5",
         "evolve-power-short-x", "crossings-power-short-x", "evolve-asymptotic-t0",
         "evolve-exponential-x-below-0", "evolve-exponential-x-beyond-pi",
         "evolve-direct-x-beyond-pi", "evolve-asymptotic-x-below-0", "crossings-x-beyond-pi",
         "crossings-t0", "mixing-emit-bogus", "crossings-power-power",
         "crossings-exponential-pole1-n-max-1", "pole-abc",
         "pole-0", "pole-empty", "bogus", "exponential-suffix"],
)
def test_bad_input_exits_2_before_manifest(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, code",
    [
        # the asymptotic route refuses t = 0 before any route computes
        (["evolve", "--g", "0.2", "--method", "all", "--t", "0:1:2", "--tol", "1e-5",
          "--x", X33], 2),
        (["evolve", "--g", "0.2", "--method", "power", "--t", "0"], 3),
        # mixing_A.csv is staged before expgap overflows
        (["mixing", "--g", "1e300", "--n", "8", "--emit", "A,expgap"], 2),
    ],
    ids=["evolve-all-direct-t0", "evolve-power-snapshot-t0", "mixing-staged-then-overflow"],
)
def test_failure_mid_run_leaves_no_out_dir(tmp_path, argv, code):
    out = tmp_path / "new" / "out"
    assert main(argv + ["--out", str(out)]) == code
    assert not any(tmp_path.iterdir())


def test_failed_run_keeps_earlier_outputs(tmp_path):
    argv = ["evolve", "--g", "0.2", "--method", "asymptotic", "--out", str(tmp_path)]
    assert main(argv + ["--t", "1:10:3"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv + ["--t", "0:10:3"]) == 2
    # iterdir lists hidden names, so a .staging-* directory left behind shows here
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "text, error",
    [("\udc80", UnicodeEncodeError), (b"bytes", TypeError)],
    ids=["unencodable", "not-str"],
)
def test_failed_write_reraises_and_leaves_out_unchanged(tmp_path, text, error):
    def command(args):
        yield "poles.json", "good output\n"
        yield "poles.csv", text

    (tmp_path / "poles.json").write_text("before\n")
    args = argparse.Namespace(command="poles", func=command, out=str(tmp_path))
    with pytest.raises(error):
        cli.publish(args)
    # iterdir lists hidden names, so a .staging-* directory left behind shows here
    assert [p.name for p in tmp_path.iterdir()] == ["poles.json"]
    assert (tmp_path / "poles.json").read_text() == "before\n"


def test_outputs_staged_then_manifest_written_last(tmp_path, monkeypatch):
    moves, staged = [], []
    replace = os.replace

    def recorder(src, dst):
        if not moves:  # what the staging directory holds when the first file moves
            staged.extend(sorted(os.listdir(os.path.dirname(src))))
        moves.append((os.path.relpath(src, tmp_path), os.path.relpath(dst, tmp_path)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recorder)
    assert main(["poles", "--g", "0.2", "--n-max", "3", "--out", str(tmp_path)]) == 0
    names = ["poles.json", "poles.csv", "poles_manifest.json"]
    assert staged == sorted(names)
    assert [dst for _, dst in moves] == names
    for src, dst in moves:
        assert os.path.dirname(src).startswith(".staging-") and os.path.basename(src) == dst
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".staging-")]


@pytest.mark.parametrize("directory", ["poles.csv", "poles_manifest.json"])
def test_destination_directory_exits_2_and_leaves_out_unchanged(tmp_path, directory):
    (tmp_path / "poles.json").write_text("earlier output\n")
    (tmp_path / directory).mkdir()
    (tmp_path / directory / "kept").write_text("kept\n")
    before = tree(tmp_path), {p: p.stat().st_mode for p in tmp_path.rglob("*")}
    assert main(["poles", "--g", "0.2", "--n-max", "3", "--out", str(tmp_path)]) == 2
    assert (tree(tmp_path), {p: p.stat().st_mode for p in tmp_path.rglob("*")}) == before


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_published_files_follow_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert main(["poles", "--g", "0.2", "--n-max", "3", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["poles.json", "poles.csv", "poles_manifest.json"],
                                  0o666 & ~umask)


def record_direct_panels(monkeypatch) -> list:
    """The arguments (g, n_panels) of every panel_edges call the direct route makes."""
    panels = []
    edges = evolution.panel_edges

    def recorder(*args):
        panels.append(args)
        return edges(*args)

    monkeypatch.setattr(evolution, "panel_edges", recorder)
    return panels


@pytest.mark.parametrize(
    "argv",
    [
        # every route's domain is checked first: asymptotic refuses t = 0
        ["evolve", "--g", "0.2", "--method", "all", "--t", "0:50:101"],
        # the direct route refuses g below 1/(80 pi)
        ["evolve", "--g", "0.001", "--method", "direct", "--t", "0"],
    ],
    ids=["evolve-all-t0", "evolve-direct-g-0.001"],
)
def test_domain_refusal_before_any_direct_node_set(tmp_path, monkeypatch, argv):
    panels = record_direct_panels(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert panels == []  # refused before any direct node set is built
    assert not any(tmp_path.iterdir())


def test_direct_next_to_barrier_at_t0_exits_0(tmp_path):
    # within 1.6e-3 of the barrier the panel sums carry a slow mode
    # cos((pi - x) j) that a fitted tail could not certify (exit 3); the
    # closed-form tail gives the initial state to 1e-12, imaginary part 0.0
    argv = ["evolve", "--g", "0.2", "--method", "direct", "--t", "0", "--x", "3.14:3.1415:5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "evolve_field_direct.csv")
    assert len(rows) == 5 and all(r["im"] == "0.0" for r in rows)
    for r in rows:
        exact = math.sqrt(2.0 / math.pi) * math.sin(float(r["x_or_t"]))
        assert abs(float(r["re"]) - exact) <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--g", "0.2", "--method", "all", "--x", "0:3:129"],
        ["evolve", "--g", "0.2", "--method", "power", "--t", "1:2:2", "--x", "0:3.1:40"],
        ["evolve", "--g", "0.2", "--method", "exponential", "--t", "1:2:2",
         "--x", f"0:{math.pi!r}:32"],
        ["crossings", "--g", "0.2", "--curve-a", "direct", "--curve-b", "pole:1",
         "--t", "40:120:5", "--x", f"0.5:{math.pi!r}:129"],
    ],
    ids=["evolve-all-short-x", "evolve-power-short-x", "evolve-exponential-32-points",
         "crossings-direct-x-from-0.5"],
)
def test_norm_grid_refused_before_any_route_computes(tmp_path, monkeypatch, argv):
    calls = []
    for route, kernel in cli._ROUTES.items():
        monkeypatch.setitem(cli._ROUTES, route,
                            lambda *a, route=route, kernel=kernel: calls.append(route) or kernel(*a))
    (tmp_path / "poles.csv").write_text("earlier output\n")
    before = tree(tmp_path)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert calls == []
    assert tree(tmp_path) == before


@pytest.mark.parametrize("flag", ["--rotate", "--contamination"])
def test_mixing_l_beyond_n_refused_before_any_matrix(tmp_path, monkeypatch, flag):
    calls = []
    for tok, make in cli._MATRIX_MAKERS.items():
        monkeypatch.setitem(cli._MATRIX_MAKERS, tok,
                            lambda *a, tok=tok, make=make: calls.append(tok) or make(*a))
    for name in ("exponentiation_gap", "pole_table"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    (tmp_path / "mixing_A.json").write_text("earlier output\n")
    before = tree(tmp_path)
    argv = ["mixing", "--g", "0.17", "--n", "8", "--emit", "A,A2,U,Uinv,expgap", "--format",
            "json", flag, "9", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert calls == []
    assert tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["evolve", "--g", "0.2", "--method", "direct", "--t", "40:60:2"],
         ["evolve_direct_norm.csv"]),
        (["evolve", "--g", "0.2", "--method", "all", "--t", "60"],
         [f"evolve_field_{m}.csv" for m in ("direct", "exponential", "power", "asymptotic")]),
        # direct and power first cross at t = 99.34, next to the exact
        # exponential/power crossover 99.07
        (["crossings", "--g", "0.2", "--curve-a", "direct", "--curve-b", "power",
          "--t", "40:120:5"], ["crossings.json"]),
    ],
    ids=["evolve-direct", "evolve-all-snapshot", "crossings-direct"],
)
def test_direct_past_t50_exits_0_certified(tmp_path, monkeypatch, argv, outputs):
    # the direct route has no time cap: runs past t = 50 integrate its panels
    # and certify every value at --tol (a miss would exit 3)
    panels = record_direct_panels(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert panels
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
    if argv[0] == "crossings":
        found = json.loads((tmp_path / "crossings.json").read_text())["crossings"]
        assert found[0]["t"] == pytest.approx(99.34, abs=0.01)


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--g", "0.2", "--method", "direct", "--t", "40:60:2"],
        ["crossings", "--g", "0.2", "--curve-a", "direct", "--curve-b", "power",
         "--t", "40:120:5"],
    ],
    ids=["evolve", "crossings"],
)
def test_direct_past_t50_integrates_t_free_cells(tmp_path, monkeypatch, argv):
    # past the old cap every direct call builds panels 0..J-1 once, from the
    # t = 0 cells panel_edges(g, J): no per-time panels, no chirp cells
    panels = record_direct_panels(monkeypatch)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert panels
    assert all(g == 0.2 and 48 <= n <= TRUNCATION_PANEL_CAP for g, n in panels)
    if argv[0] == "evolve":
        assert len(panels) == 1  # t = 40 and t = 60 share one node set


@pytest.mark.parametrize("flag", [["--l", "0"], ["--n-max", "0"], ["--l", "-1"]])
@pytest.mark.parametrize(
    "command",
    [EVOLVE + ["--t", "1:2:2"],
     ["crossings", "--g", "0.1", "--curve-a", "pole:1", "--curve-b", "pole:2"]],
)
def test_mode_and_table_size_checked_by_parser(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command + flag + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["poles", "--g", "0.2", "--n-max", "6"],
        ["evolve", "--g", "0.2", "--method", "exponential", "--n-max", "6",
         "--t", "0.5:10:4", "--x", X33],
        ["evolve", "--g", "0.2", "--method", "all", "--n-max", "6", "--t", "2", "--x", X33],
        ["evolve", "--g", "0.2", "--parts", "split", "--t", "1:10:3", "--x", X33],
        ["evolve", "--g", "0.1", "--l", "2", "--parts", "fig3", "--t", "1:10:3", "--x", X33],
        ["mixing", "--g", "0.1", "--n", "6",
         "--emit", "A,A2,AH,H,V,V0,V1,V2,Z1,Z2,U,Uinv,expgap", "--format", "json",
         "--rotate", "2", "--contamination", "1", "--order", "1", "--mode", "series",
         "--t", "0:10:6"],
        CROSSINGS + ["--t", "1:20:39"],
        # a value that starts with '-' must not read as an option on rerun
        ["evolve", "--g", "0.2", "--method", "exponential", "--n-max", "4", "--t", "2",
         "--x=-0:3:40"],
    ],
    ids=["poles", "evolve-norms", "evolve-field", "evolve-split", "evolve-fig3", "mixing",
         "crossings", "evolve-negative-x"],
)
def test_rerun_reproduces_every_output(tmp_path, argv):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(first)]) == 0
    manifest = first / f"{argv[0]}_manifest.json"
    blob = json.loads(manifest.read_text())
    outputs = blob["outputs"]
    # every option but --out is recorded, so rerun drops none
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest for a in commands.choices[argv[0]]._actions} - {"help", "out"}
    assert set(blob["params"]) == options
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(outputs + [manifest.name])
    assert main(["rerun", "--manifest", str(manifest), "--out", str(second)]) == 0
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command", [["poles", "--g", "0.2"], EVOLVE, CROSSINGS])
def test_format_exists_only_on_mixing(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("g", ["-0.1", "nan"])
def test_mixing_rejects_negative_coupling(tmp_path, g):
    with pytest.raises(SystemExit) as exc:
        main(["mixing", f"--g={g}", "--n", "4", "--emit", "A", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize(
    "command",
    [["poles", "--g", "0.2"], ["mixing", "--g", "0.1", "--n", "4", "--emit", "V"],
     EVOLVE + ["--t", "1:2:2"], CROSSINGS],
    ids=["poles", "mixing", "evolve", "crossings"],
)
def test_tol_checked_by_parser(tmp_path, monkeypatch, command, tol):
    monkeypatch.setattr(cli, "pole_table", None)  # a pole solve would fail the test
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--tol={tol}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_rerun_checks_tol_before_writing(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    main(["poles", "--g", "0.1", "--n-max", "3", "--out", str(first)])
    manifest = first / "poles_manifest.json"
    blob = json.loads(manifest.read_text())
    blob["params"]["tol"] = math.nan
    manifest.write_text(json.dumps(blob))
    with pytest.raises(SystemExit) as exc:
        main(["rerun", "--manifest", str(manifest), "--out", str(second)])
    assert exc.value.code == 2
    assert not second.exists()


def test_rerun_checks_coupling_before_writing(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    main(["poles", "--g", "0.1", "--n-max", "3", "--out", str(first)])
    manifest = first / "poles_manifest.json"
    blob = json.loads(manifest.read_text())
    blob["params"]["g"] = 0
    manifest.write_text(json.dumps(blob))
    with pytest.raises(SystemExit) as exc:
        main(["rerun", "--manifest", str(manifest), "--out", str(second)])
    assert exc.value.code == 2
    assert not second.exists() or not any(second.iterdir())


def exit_code_of(argv):
    """main's return value, or the code of the SystemExit the parser raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def tree(root):
    """Every path under root with its bytes (None for a directory), hidden names too."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["evolve", "--g", "1e300", "--parts", "split", "--t", "1:2:2"], 2),
        (["crossings", "--g", "1e300", "--l", "2", "--curve-a", "pole:1", "--curve-b", "pole:2",
          "--t", "1:5:3"], 2),
        (["evolve", "--g", "1e-300", "--method", "direct", "--t", "1"], 2),
        (["evolve", "--g", "1e-6", "--method", "direct", "--t", "0"], 2),
        (["evolve", "--g", "1e-300", "--method", "power", "--t", "1"], 3),
        (["mixing", "--g", "1e300", "--n", "4", "--emit", "Uinv"], 4),
        (["mixing", "--g", "1e200", "--n", "4", "--rotate", "1"], 4),
        (["mixing", "--g", "1e300", "--n", "4", "--emit", "U"], 2),
        (["mixing", "--g", "1e300", "--n", "4", "--emit", "Uinv", "--mode", "series"], 2),
        (["mixing", "--g", "1e300", "--n", "4", "--emit", "expgap"], 2),
        # the asymptotic form has no estimate: only the CSV writer refuses its overflow
        (["evolve", "--g", "0.2", "--method", "asymptotic", "--t", "1e-300"], 2),
    ],
    ids=["evolve-split-overflow", "crossings-overflow", "evolve-direct-g-1e-300",
         "evolve-direct-g-1e-6", "evolve-power-nan-field", "mixing-Uinv-nan-cond",
         "mixing-rotate-nan-cond", "mixing-U-overflow", "mixing-Uinv-series-overflow",
         "mixing-expgap-overflow", "evolve-asymptotic-overflow"],
)
def test_failure_exit_code_leaves_out_as_it_was(tmp_path, argv, code):
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "poles.csv").write_text("earlier output\n")
    before = tree(tmp_path)
    for out in (tmp_path / "old", tmp_path / "new" / "out"):
        assert main(argv + ["--out", str(out)]) == code
        assert tree(tmp_path) == before


@pytest.mark.parametrize(
    "text",
    [None, '{"command": "poles", "par', '{"foo": 1}', '{"command": "poles"}',
     '{"params": {"g": 0.2}}', "[]", '{"command": "rerun", "params": {}}'],
    ids=["missing", "truncated", "no-command-or-params", "no-params", "no-command", "list",
         "rerun"],
)
def test_rerun_of_unreadable_manifest_exits_2(tmp_path, text):
    manifest = tmp_path / "run_manifest.json"
    if text is not None:
        manifest.write_text(text)
    before = tree(tmp_path)
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert tree(tmp_path) == before


@pytest.mark.parametrize(
    "out",
    [["afile"], ["afile", "sub"], ["new", "x" * 300]],
    ids=["file", "below-file", "name-too-long-below-new-dir"],
)
def test_unusable_out_exits_2_and_creates_nothing(tmp_path, out):
    (tmp_path / "afile").write_text("kept\n")
    before = tree(tmp_path)
    assert main(["poles", "--g", "0.2", "--n-max", "3", "--out", os.path.join(tmp_path, *out)]) == 2
    assert tree(tmp_path) == before


def test_memory_error_exits_2_and_leaves_out(tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "pole_table", out_of_memory)
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "poles.csv").write_text("earlier output\n")
    before = tree(tmp_path)
    for out in (tmp_path / "old", tmp_path / "new" / "out"):
        assert main(["poles", "--g", "0.2", "--out", str(out)]) == 2
        assert tree(tmp_path) == before


# --g and --tol values from out of range to beyond floating-point range
NUMBERS = ["-1", "0", "1e-300", "1e-5", "0.2", "1e154", "1e300", "inf", "nan"]


@st.composite
def grid_spec(draw, starts, stops, max_count):
    start, stop = draw(st.sampled_from(starts)), draw(st.sampled_from(stops))
    return f"{start}:{stop}:{draw(st.integers(1, max_count))}"


X_SPECS = grid_spec(["-1", "-0", "0", "1"], ["3", repr(math.pi), "4"], 33)
T_SPECS = grid_spec(["0", "0.5", "1", "10"], ["0.2", "2", "30", "1e6"], 5)
CHEAP_CURVES = st.sampled_from(["pole:1", "pole:2", "pole:3", "exponential", "asymptotic"])


@st.composite
def cli_argv(draw):
    """Any command but rerun, without the direct route or a power crossing search (slow)."""
    command = draw(st.sampled_from(["poles", "mixing", "evolve", "crossings"]))
    argv = [command, f"--g={draw(st.sampled_from(NUMBERS))}"]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(st.sampled_from(NUMBERS))}")
    if command == "poles":
        argv.append(f"--n-max={draw(st.integers(1, 30))}")
    elif command == "mixing":
        tokens = draw(st.lists(st.sampled_from([*cli._MATRIX_MAKERS, "expgap"]), unique=True))
        argv += [f"--n={draw(st.integers(1, 16))}", f"--emit={','.join(tokens)}",
                 f"--mode={draw(st.sampled_from(['series', 'numeric']))}",
                 f"--format={draw(st.sampled_from(['csv', 'json']))}", f"--t={draw(T_SPECS)}"]
        for flag in ("--rotate", "--contamination"):
            l = draw(st.sampled_from([None, 0, 1, 9]))
            if l is not None:
                argv.append(f"{flag}={l}")
    else:
        argv += [f"--l={draw(st.integers(1, 2))}", f"--x={draw(X_SPECS)}", f"--t={draw(T_SPECS)}"]
        if command == "evolve":
            argv.append(draw(st.sampled_from(["--method=exponential", "--method=asymptotic",
                                              "--parts=split", "--parts=fig3"])))
        else:
            argv += [f"--curve-a={draw(CHEAP_CURVES)}", f"--curve-b={draw(CHEAP_CURVES)}"]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv(), existing=st.booleans())
def test_every_invocation_exits_with_a_stable_code(argv, existing):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        out = root / "out" if existing else root / "new" / "out"
        if existing:
            out.mkdir()
            (out / "poles.csv").write_text("earlier output\n")
        before = tree(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = exit_code_of(argv + ["--out", str(out)])
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert tree(root) == before


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any scipy import now fails
from winterdyn.cli import main
out, x33 = sys.argv[1], sys.argv[2]
runs = [
    ["poles", "--g", "0.2", "--n-max", "6"],
    ["evolve", "--g", "0.2", "--parts", "split", "--t", "1:10:3", "--x", x33],
    ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1", "--curve-b", "pole:2",
     "--t", "1:20:39"],
    ["mixing", "--g", "0.1", "--n", "6", "--emit", "A,A2,AH,H,V,V0,V1,V2,Z1,Z2,U,Uinv,expgap",
     "--rotate", "1", "--contamination", "1", "--t", "0:10:6"],
]
print([main(argv + ["--out", f"{out}/{i}"]) for i, argv in enumerate(runs)])
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is the tests' reference only
    src = pathlib.Path(cli.__file__).parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", NO_SCIPY_SCRIPT, str(tmp_path), X33],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0]", proc.stderr


def test_every_package_error_carries_an_exit_code():
    kinds = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, WinterError)]
    codes = {k.__name__: k.exit_code for k in kinds if k is not WinterError}
    assert codes == {"DomainError": 2, "PoleConvergenceError": 2, "OctantViolationError": 2,
                     "AccuracyError": 3, "IllConditionedError": 4, "CrossingNotFoundError": 5}
    assert [errors.exit_code(e) for e in (FileNotFoundError(), OverflowError(), MemoryError(),
                                          np.linalg.LinAlgError())] == [2, 2, 2, 4]
