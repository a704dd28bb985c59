"""Acceptance gate: every stated tolerance pinned, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test prints its measured numbers next to the bound it is held to.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import simpson
from test_evolution import psi_power_asym
from test_mixing import rotated_state_closed_form, series_identities_check, synthesize
from test_poles import exact_relation_residual, find_pole, pole_seed

from winterdyn import (
    Z_exact,
    cavity_norm,
    coef_a,
    coef_b,
    counter_rotate,
    diagonal_evolution_check,
    direct_field,
    exponential_field,
    exponentiation_gap,
    matrix_A,
    matrix_A_squared_closed,
    mixing_V_exact,
    pole_table,
    power_field,
    psi_power_quad,
    resonance_exponential_norm,
    resonance_term_norm,
    V_order,
)
from winterdyn.cli import find_crossings, main

PI = math.pi

warnings.filterwarnings("ignore", message=".*resonance picture marginal.*")
warnings.filterwarnings("ignore", message=".*1/n.*")


def report(num, text):
    print(f"\ncriterion {num}: PASS  ({text})")


def inf_norm(m):
    return np.abs(m).sum(axis=1).max()


def test_criterion_01_pole_residuals_and_octant():
    t0 = time.perf_counter()
    worst = 0.0
    for g in (0.01, 0.1, 0.5):
        for n in range(1, 11):
            table = pole_table(g, n, tol=1e-12)
            k, residual = table[n], table.residual[-1]
            worst = max(worst, residual)
            assert residual < 1e-12
            assert k.imag < 0 and k.real > abs(k.imag)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"30 poles, worst |b| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_exact_pole_identity():
    worst = 0.0
    for g in (0.01, 0.1, 0.5):
        for n in range(1, 11):
            r = exact_relation_residual(find_pole(n, g, tol=1e-12), g)
            worst = max(worst, r)
            assert r < 1e-10
    report(2, f"max |exp(2 pi i k) - 1 + 2 pi i g k| = {worst:.2e}")


def test_criterion_03_symmetries():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        k = complex(rng.uniform(-30, 30), rng.uniform(-3, 3))
        if abs(k) < 1e-3:
            continue
        g = rng.choice([-1, 1]) * rng.uniform(0.01, 3.0)
        kr = k.real if abs(k.real) > 1e-3 else 1.0
        lhs1 = complex(coef_a(-kr, g))
        rhs1 = -complex(coef_b(kr, g))
        rel1 = abs(lhs1 - rhs1) / max(abs(lhs1), 1e-300)
        lhs2 = complex(coef_a(k, g)).conjugate()
        rhs2 = complex(coef_b(k.conjugate(), g))
        rel2 = abs(lhs2 - rhs2) / max(abs(lhs2), 1e-300)
        worst = max(worst, rel1, rel2)
        assert rel1 <= 1e-13 and rel2 <= 1e-13
    report(3, f"1000 samples, worst relative deviation = {worst:.2e}")


def test_criterion_04_t0_reconstruction():
    x = np.linspace(0, PI, 129)
    worst_dev = 0.0
    worst_norm = 0.0
    for l in (1, 2):
        for g in (0.1, 0.2):
            fld = direct_field(l, x, 0.0, g, tol=1e-5)
            dev = np.max(np.abs(fld.values - math.sqrt(2 / PI) * np.sin(l * x)))
            nrm = cavity_norm(fld)
            worst_dev = max(worst_dev, dev)
            worst_norm = max(worst_norm, abs(nrm - 1.0))
            assert dev < 1e-5
            assert abs(nrm - 1.0) < 1e-5
    report(4, f"max grid deviation = {worst_dev:.2e}, max |norm-1| = {worst_norm:.2e}")


def test_criterion_05_decomposition_identity():
    t0 = time.perf_counter()
    g, l = 0.2, 1
    table = pole_table(g, 26, tol=1e-13)
    x = np.linspace(0, PI, 65)
    worst = 0.0
    for t in (1.0, 5.0, 20.0):
        d = direct_field(l, x, t, g, tol=2e-6).values
        e = exponential_field(l, x, t, g, table).values
        p = power_field(l, x, t, g, tol=1e-7).values
        worst = max(worst, float(np.max(np.abs(d - (e + p)))))
        assert worst < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"max pointwise gap = {worst:.2e}, {elapsed:.1f} s")


def _power_norm_curve(l, g, ts, x):
    out = []
    for t in ts:
        vals = power_field(l, x, t, g, tol=1e-10).values
        out.append(float(simpson(np.abs(vals) ** 2, x=x)))
    return np.array(out)


def test_criterion_06_exponential_power_crossover():
    # survival-probability split for the fundamental state at g = 0.2:
    # the first-order resonance curve hands over to the power tail near t = 30
    g, l = 0.2, 1
    x = np.linspace(0, PI, 129)
    fa = lambda ts: resonance_exponential_norm(l, g, 12, ts)
    fb = lambda ts: _power_norm_curve(l, g, ts, x)
    found = find_crossings(fa, fb, np.linspace(5.0, 80.0, 76))
    assert found, "no crossing located"
    t_star = found[0][0]
    assert 24.0 <= t_star <= 36.0  # 30 +- 20%
    report(6, f"crossover at t = {t_star:.1f} (window [24, 36])")


def test_criterion_07_first_excited_windows():
    g, l = 0.1, 2
    # diagonal pole-2 term vs off-diagonal pole-1 term
    fa = lambda ts: resonance_term_norm(l, 1, g, ts)
    fb = lambda ts: resonance_term_norm(l, 2, g, ts)
    found = find_crossings(fa, fb, np.linspace(1.0, 20.0, 39))
    assert found
    t1 = found[0][0]
    assert 3.6 <= t1 <= 5.6  # 4.6 +- 1
    # power takeover of the surviving pole-1 term
    x = np.linspace(0, PI, 129)
    fc = lambda ts: _power_norm_curve(l, g, ts, x)
    found2 = find_crossings(fa, fc, np.linspace(100.0, 260.0, 33))
    assert found2
    t2 = found2[0][0]
    assert 128.0 <= t2 <= 192.0  # 160 +- 20%
    report(7, f"t1 = {t1:.2f} (window [3.6, 5.6]), t2 = {t2:.0f} (window [128, 192])")


def test_criterion_08_power_tail():
    g, l = 0.2, 1
    x = np.linspace(0, PI, 129)
    ts = np.logspace(3, 5, 9)
    norms = _power_norm_curve(l, g, ts, x)
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert abs(slope - (-3.0)) < 0.03
    worst_rel = 0.0
    for t in (1e3, 1e4, 1e5):
        for xi in (PI / 4, PI / 2, PI):
            q = psi_power_quad(l, xi, t, g, tol=1e-12)
            a = psi_power_asym(l, xi, t, g)
            worst_rel = max(worst_rel, abs(q - a) / abs(q))
            assert abs(q - a) / abs(q) < 0.01
    report(8, f"slope = {slope:.4f} (-3 +- 0.03), asym-vs-quad worst rel = {worst_rel:.1e}")


def _fitted_power(gs, values):
    """Least-squares exponent of values ~ g^p over the halving ladder."""
    return float(np.polyfit(np.log(gs), np.log(values), 1)[0])


def test_criterion_09_perturbative_scalings():
    # each gap is measured over g in {0.04, 0.02, 0.01} and its fitted
    # power must land within 25% of the nominal one
    gs = (0.04, 0.02, 0.01)
    # (a) pole expansion residual O(g^4)
    gaps = [abs(find_pole(1, g, tol=1e-13) - pole_seed(1, g)) for g in gs]
    p_pole = _fitted_power(gs, gaps)
    assert 3.0 <= p_pole <= 5.0
    # (b) V_exact minus order-2 series O(g^3)  (N=4 keeps g||A|| small)
    N = 4
    v1, v2 = V_order(1, N).entries, V_order(2, N).entries
    rems = []
    for g in gs:
        t = pole_table(g, N, tol=1e-13)
        rems.append(inf_norm(mixing_V_exact(g, t).entries - np.eye(N) - g * v1 - g * g * v2))
    p_v = _fitted_power(gs, rems)
    assert 2.25 <= p_v <= 3.75
    # (c) Z_exact minus (1 + g/2) O(g^2); the g^3 coefficient is ~30x the
    # g^2 one, so only the fitted power (not each raw halving) is clean here
    zgaps = []
    for g in gs:
        t = pole_table(g, 2, tol=1e-13)
        zgaps.append(abs(Z_exact(1, g, t) - (1 + 0.5 * g)))
    p_z = _fitted_power(gs, zgaps)
    assert 1.5 <= p_z <= 2.5
    # (d) exponentiation gap (AH subtracted) O(g^3)
    egaps = [exponentiation_gap(g, 8)[0] for g in gs]
    p_e = _fitted_power(gs, egaps)
    assert 2.25 <= p_e <= 3.75
    report(
        9,
        f"fitted powers: pole {p_pole:.2f} (4 +- 25%), V {p_v:.2f} (3 +- 25%), "
        f"Z {p_z:.2f} (2 +- 25%), expgap {p_e:.2f} (3 +- 25%)",
    )


def test_criterion_10_matrix_identities():
    a40 = matrix_A(40).entries
    assert np.all(a40 + a40.T == 0.0)

    closed = matrix_A_squared_closed(5).entries
    tops = {}
    for N in (250, 500, 1000, 2000):
        a = matrix_A(N).entries
        tops[N] = a[:5, :] @ a[:, :5]
    # truncation gap follows C/N with C = 4 l n exactly; the exemplified
    # low-index entries sit below 5e-3 at N=2000 and the block does in the
    # row-sum-relative sense (the absolute corner gap is 4*25/2000 = 5e-2
    # by the tail law, so the bound cannot hold entrywise there)
    gap2000 = np.abs(tops[2000] - closed)
    assert gap2000[0, 0] < 5e-3 and gap2000[0, 1] < 5e-3 and gap2000[1, 0] < 5e-3
    rel_norm = np.abs(tops[2000] - closed).sum(axis=1).max() / np.abs(closed).sum(axis=1).max()
    assert rel_norm < 5e-3
    ln = np.arange(1, 6, dtype=float)
    c_model = 4.0 * np.outer(ln, ln)
    for N in (500, 1000, 2000):
        assert np.all(np.abs(tops[N] - closed) < 1.1 * c_model / N + 1e-12)

    # Richardson in 1/N (three eliminations over the halving ladder)
    fs = [tops[250], tops[500], tops[1000], tops[2000]]
    hs = [1 / 250, 1 / 500, 1 / 1000, 1 / 2000]
    for m in range(1, 4):
        fs = [
            (hs[i] / hs[i + m] * fs[i + 1] - fs[i]) / (hs[i] / hs[i + m] - 1.0)
            for i in range(len(fs) - 1)
        ]
    rich_err = np.abs(fs[0] - closed).max()
    assert rich_err < 1e-6

    worst = 0.0
    for m in (1, 2, 3):
        s1, s2 = series_identities_check(m, 100_000)
        d1 = abs(s1 - 3.0 / (4 * m * m))
        d2 = abs(s2 - (PI**2 / 12 + 1.0 / (16 * m * m)))
        worst = max(worst, d1, d2)
        assert d1 < 1e-5 and d2 < 1e-5
    report(
        10,
        f"A antisym exact; corner-gap law C/N verified, Richardson err = {rich_err:.1e}; "
        f"series identities worst dev = {worst:.1e}",
    )


def test_criterion_11_counter_rotation():
    # closed-form match on [0, 0.9 pi] with fitted C <= 5
    x = np.linspace(0, 0.9 * PI, 257)
    cs = []
    for g in (0.1, 0.05):
        row = counter_rotate(1, g, 256, order=1, mode="series")
        dev = np.max(np.abs(synthesize(row, x) - rotated_state_closed_form(1, g, x)))
        cs.append(dev / g**2)
    c_fit = max(cs)
    assert c_fit <= 5.0

    # contamination: exactly zero at g = 0
    norms0 = diagonal_evolution_check(1, 0.0, None, [0.0, 1.0, 10.0])
    assert np.all(norms0 == 0.0)

    # order-1 contamination (squared cavity norm, as returned) scales as g^2
    norms = []
    for g in (0.1, 0.05):
        t = pole_table(g, 8, tol=1e-13)
        norms.append(diagonal_evolution_check(2, g, t, [2.0], order=1, mode="series")[0])
    ratio = norms[0] / norms[1]
    assert 3.0 <= ratio <= 5.0
    report(11, f"C fitted = {c_fit:.2f} (<= 5); g=0 exact; contamination ratio = {ratio:.2f} in [3,5]")


def test_criterion_12_cli_reproducibility(tmp_path):
    runs = [
        (
            ["poles", "--g", "0.1", "--n-max", "5"],
            "poles_manifest.json",
            ["poles.csv", "poles.json"],
        ),
        (
            ["evolve", "--g", "0.2", "--l", "1", "--parts", "split",
             "--t", "20:40:3", "--x", f"0:{PI!r}:65"],
            "evolve_manifest.json",
            ["evolve_exponential_norm.csv", "evolve_power_norm.csv"],
        ),
        (
            ["crossings", "--g", "0.1", "--l", "2", "--curve-a", "pole:1",
             "--curve-b", "pole:2", "--t", "1:20:20"],
            "crossings_manifest.json",
            ["crossings.json"],
        ),
    ]
    for argv, manifest, outputs in runs:
        first = tmp_path / (argv[0] + "_a")
        second = tmp_path / (argv[0] + "_b")
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["rerun", "--manifest", str(first / manifest), "--out", str(second)]) == 0
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    report(12, "poles/evolve/crossings byte-identical under rerun")
