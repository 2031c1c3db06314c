"""Out-of-process checker for the benchmark's outputs.

    python3 benchmark/oracle.py < checks.json

It reads the `checks` object a worker printed, recomputes what it can from
scipy and mpmath alone and prints one JSON object {"correct", "failures",
"details"}.  It never imports abtool: the Bessel zeros come from
`mpmath.besseljzero`, J_nu and J_nu' from `scipy.special.jv`/`jvp`, the
integrals from `scipy.integrate.quad`, and the nu = 1/2 radial marginal from
J_{1/2}(x) = sqrt(2 / (pi x)) sin x in closed form.
"""
from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, special

LZ_TOL = 1e-8            # hbar; total, canonical and osmotic L_z
RESIDUAL_TOL = 1e-6      # energy identity
ORACLE_REL_TOL = 1e-8    # tau, kinetic energy, rho and Re xi against scipy/mpmath
KS_TOL = 0.02            # pooled radial KS distance
DOT_TOL = 1e-12          # |Gamma . Delta|
ERGODIC_TOL = 1e-9       # hbar; sampled M r v_quasi,theta average
J_ABS_ERR = 1e-12         # absolute error of J_nu, abtool or scipy, on the grid
QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=400)


@lru_cache(maxsize=None)
def bessel_zero(nu, n):
    return float(mpmath.besseljzero(mpmath.mpf(nu), int(n)))


@lru_cache(maxsize=None)
def radial_norm(nu, n, a, b):
    """(k, N) with N^2 * 2 pi * int_a^b J_nu(k (r - a))^2 r dr = 1."""
    k = bessel_zero(nu, n) / (b - a)
    val, _ = integrate.quad(lambda r: special.jv(nu, k * (r - a)) ** 2 * r, a, b, **QUAD)
    return k, 1.0 / math.sqrt(2.0 * math.pi * val)


def kinetic_total(s):
    """int |(P - qA/c) psi|^2 / 2M over the wall-inset annulus for the state
    record s: (pi hbar^2 / M) int [R'^2 + (m + lambda)^2 R^2 / r^2] r dr.

    Near the inner wall R'^2 grows like (r - a)^(2 nu - 2), so that stretch
    is integrated in log(r - a)."""
    nu, a, b = s["nu"], s["a"], s["b"]
    k, norm = radial_norm(nu, s["n"], a, b)
    ml2 = (s["m"] + s["lam"]) ** 2
    inset = s["wall_margin"] * (b - a)

    def f(r):
        x = k * (r - a)
        j, jp = special.jv(nu, x), special.jvp(nu, x)
        return (k * k * jp * jp + ml2 * j * j / (r * r)) * r

    split = a + 0.05 * (b - a)
    near, _ = integrate.quad(lambda u: f(a + math.exp(u)) * math.exp(u),
                             math.log(inset), math.log(split - a), **QUAD)
    far, _ = integrate.quad(f, split, b - inset, **QUAD)
    return math.pi * s["hbar"] ** 2 / s["mass"] * norm * norm * (near + far)


def half_order_cdf(r, a, b, n):
    """CDF of the radial marginal 2 pi r |psi|^2 for nu = 1/2, state n.

    With J_{1/2}(x) = sqrt(2 / (pi x)) sin x, x = k (r - a), k = n pi / d:
    int_0^s (a + t) sin^2(k t) / t dt = (a / 2) Cin(2 k s)
    + s / 2 - sin(2 k s) / (4 k), where Cin(z) = gamma + ln z - Ci(z)."""
    k = n * math.pi / (b - a)

    def g(s):
        s = np.asarray(s, dtype=float)
        z = 2.0 * k * s
        with np.errstate(divide="ignore", invalid="ignore"):
            cin = np.where(z > 0.0, np.euler_gamma + np.log(z) - special.sici(z)[1], 0.0)
        return 0.5 * a * cin + 0.5 * s - np.sin(z) / (4.0 * k)

    return g(np.asarray(r) - a) / g(b - a)


def check_trajectories(c, fail):
    s = c["state"]
    a, b = s["a"], s["b"]
    lo, hi, nbins = c["edges"]
    counts = np.asarray(c["counts"], dtype=float)
    total = counts.sum()
    if total != c["expected_samples"]:
        fail(f"histogram holds {total:.0f} radii, expected {c['expected_samples']}")
    if abs(s["nu"] - 0.5) > 1e-12:
        fail(f"closed-form marginal needs nu = 1/2, got {s['nu']}")
        return {}
    edges = np.linspace(lo, hi, int(nbins) + 1)
    cdf = half_order_cdf(edges, a, b, s["n"])
    emp = np.concatenate([[0.0], np.cumsum(counts)]) / total
    # sup over the edges, plus the most probability one bin can hide
    ks = float(np.abs(emp - cdf).max() + np.diff(cdf).max())
    if ks > KS_TOL:
        fail(f"pooled radial KS distance {ks:.4g} > {KS_TOL}")
    if c["aborted"]:
        fail(f"{c['aborted']} trajectories aborted")
    if not (a < c["r_min"] and c["r_max"] < b):
        fail(f"retained radius outside (a, b): [{c['r_min']}, {c['r_max']}]")
    target = s["hbar"] * (s["m"] + s["lam"])
    worst = max(abs(v - target) for v in c["ergodic_lz"])
    if worst > ERGODIC_TOL:
        fail(f"ergodic L_z off by {worst:.3g} hbar")
    if not c["repeat_identical"]:
        fail("a repeated seed gave different positions")
    return {"ks_distance": ks, "ergodic_lz_error": worst}


def check_observables(c, fail):
    worst = dict.fromkeys(("lz", "residual", "tau", "kinetic"), 0.0)
    for s in c["states"]:
        hbar, m, lam = s["hbar"], s["m"], s["lam"]
        label = f"(m={m}, n={s['n']}, lambda={lam})"
        for key, want in (("total", m + lam), ("canonical", m), ("osmotic", lam)):
            err = abs(s[key] - hbar * want) / hbar
            worst["lz"] = max(worst["lz"], err)
            if err > LZ_TOL:
                fail(f"{key} L_z of {label} off by {err:.3g} hbar")
        worst["residual"] = max(worst["residual"], s["residual"])
        if s["residual"] > RESIDUAL_TOL:
            fail(f"energy identity residual {s['residual']:.3g} for {label}")
        tau = bessel_zero(s["nu"], s["n"])
        err = abs(s["tau"] - tau) / tau
        worst["tau"] = max(worst["tau"], err)
        if err > ORACLE_REL_TOL:
            fail(f"tau of {label} differs from mpmath by {err:.3g}")
        kin = kinetic_total(dict(s, wall_margin=c["wall_margin"]))
        err = abs(s["kinetic_total"] - kin) / abs(kin)
        worst["kinetic"] = max(worst["kinetic"], err)
        if err > ORACLE_REL_TOL:
            fail(f"kinetic energy of {label} differs from scipy by {err:.3g}")
    if not c["states"]:
        fail("no state to check")
    if not c["repeat_identical"]:
        fail("a repeated sweep gave different values")
    return {f"worst_{k}": v for k, v in worst.items()}


def field_oracle(s, x, y):
    """(rho, Re xi_x, Re xi_y) of the state record s at points (x, y)."""
    nu, a, b = s["nu"], s["a"], s["b"]
    k, norm = radial_norm(nu, s["n"], a, b)
    r = np.hypot(x, y)
    arg = k * (r - a)
    j, jp = special.jv(nu, arg), special.jvp(nu, arg)
    xi_r = -(s["hbar"] / s["mass"]) * k * jp / j      # -(hbar/2M) grad(rho)/rho
    return (norm * j) ** 2, xi_r * x / r, xi_r * y / r


def check_fields(c, fail):
    if c["worst_gamma_dot_delta"] > DOT_TOL:
        fail(f"|Gamma . Delta| reaches {c['worst_gamma_dot_delta']:.3g}")
    if c["worst_lz_excess"] > LZ_TOL:
        fail(f"M r v_quasi,theta off by {c['worst_lz_excess']:.3g} hbar "
             "beyond float64 rounding")
    sample = np.asarray(c["sample"], dtype=float)
    worst_rho = worst_xi = 0.0
    for i, s in enumerate(c["states"]):
        rows = sample[sample[:, 0] == i]
        if not len(rows):
            continue
        rho, xx, xy = field_oracle(s, rows[:, 1], rows[:, 2])
        # Errors relative to |value| plus the field's own scale: rho <= N^2
        # since |J_nu| <= 1, and Re xi is of order (hbar/M) k.  Re xi passes
        # through 0 where J_nu' does, and there float64 cannot give a small
        # relative error, in abtool or in scipy.  Near a node of J_nu, Re xi
        # = -(hbar/M) k J'/J also inherits J's absolute error over |J|.
        _, norm = radial_norm(s["nu"], s["n"], s["a"], s["b"])
        xi_scale = s["hbar"] / s["mass"] * s["k"]
        err_rho = float(np.max(np.abs(rows[:, 3] - rho) / (rho + norm * norm)))
        xi = np.hypot(xx, xy)
        node = J_ABS_ERR * norm / np.sqrt(rho) / ORACLE_REL_TOL
        err_xi = float(np.max(np.hypot(rows[:, 4] - xx, rows[:, 5] - xy)
                              / (xi * (1.0 + node) + xi_scale)))
        worst_rho, worst_xi = max(worst_rho, err_rho), max(worst_xi, err_xi)
    if not len(sample):
        fail("no subsample to check")
    if worst_rho > ORACLE_REL_TOL:
        fail(f"rho differs from scipy by {worst_rho:.3g} of |rho| + N^2")
    if worst_xi > ORACLE_REL_TOL:
        fail(f"Re xi differs from scipy by {worst_xi:.3g} of |Re xi| + k hbar/M")
    return {"worst_rho": worst_rho, "worst_xi": worst_xi,
            "worst_lz_excess": c["worst_lz_excess"],
            "sampled_points": int(len(sample))}


CHECKS = {
    "trajectories_64": check_trajectories,
    "observables_grid": check_observables,
    "field_batches": check_fields,
}


def verify(checks):
    failures = []
    details = CHECKS[checks["workload"]](checks, failures.append)
    return {"correct": not failures, "failures": failures, "details": details}


if __name__ == "__main__":
    print(json.dumps(verify(json.load(sys.stdin))))
