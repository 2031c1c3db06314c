"""Tests of the benchmark's oracle: each check passes on outputs built from
the oracle's own references and fails once one output is corrupted.

    python3 -m pytest benchmark/tests
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oracle  # noqa: E402

A, B = 1.0, 3.0
STATE = {"m": 1, "n": 1, "lam": -0.5, "nu": 0.5, "a": A, "b": B,
         "hbar": 1.0, "mass": 1.0}
BINS = 4096


def failures(check, payload):
    out = []
    check(payload, out.append)
    return out


def test_half_order_cdf_matches_quadrature():
    k = math.pi / (B - A)
    pdf = lambda r: r * special.jv(0.5, k * (r - A)) ** 2
    total = integrate.quad(pdf, A, B, epsrel=1e-12)[0]
    for r in (1.1, 1.7, 2.0, 2.6, 2.95):
        want = integrate.quad(pdf, A, r, epsrel=1e-12)[0] / total
        assert oracle.half_order_cdf(r, A, B, 1) == pytest.approx(want, abs=1e-12)


def trajectory_payload(radii):
    counts, _ = np.histogram(radii, bins=np.linspace(A, B, BINS + 1))
    return {"state": dict(STATE, tau=math.pi), "edges": [A, B, BINS],
            "counts": counts.tolist(), "expected_samples": radii.size,
            "r_min": float(radii.min()), "r_max": float(radii.max()),
            "aborted": 0, "ergodic_lz": [0.5, 0.5], "repeat_identical": True}


def target_radii(count, seed):
    grid = np.linspace(A, B, 20001)
    cdf = oracle.half_order_cdf(grid, A, B, 1)
    return np.interp(np.random.default_rng(seed).random(count), cdf, grid)


def test_trajectories_pass_on_draws_from_the_target():
    assert failures(oracle.check_trajectories,
                    trajectory_payload(target_radii(200_000, 1))) == []


def test_trajectories_fail_on_uniform_radii():
    radii = np.random.default_rng(2).uniform(A + 1e-9, B - 1e-9, 200_000)
    out = failures(oracle.check_trajectories, trajectory_payload(radii))
    assert any("KS distance" in f for f in out)


def test_trajectories_fail_on_a_wall_point():
    payload = trajectory_payload(target_radii(200_000, 3))
    payload["r_max"] = B
    assert any("outside (a, b)" in f for f in failures(oracle.check_trajectories, payload))


def observables_payload():
    s = dict(STATE, tau=oracle.bessel_zero(0.5, 1), total=0.5, canonical=1.0,
             osmotic=-0.5, residual=0.0)
    s["kinetic_total"] = oracle.kinetic_total(dict(s, wall_margin=1e-7))
    return {"wall_margin": 1e-7, "states": [s], "repeat_identical": True}


def test_observables_pass_on_exact_values():
    assert failures(oracle.check_observables, observables_payload()) == []


@pytest.mark.parametrize("key", ["total", "canonical", "osmotic"])
def test_observables_fail_on_lz_shifted_by_1e6_hbar(key):
    payload = observables_payload()
    payload["states"][0][key] += 1e-6
    assert any(f"{key} L_z" in f for f in failures(oracle.check_observables, payload))


def test_observables_fail_on_kinetic_energy_off_by_1e7():
    payload = observables_payload()
    payload["states"][0]["kinetic_total"] *= 1.0 + 1e-7
    assert any("kinetic energy" in f for f in failures(oracle.check_observables, payload))


def field_payload():
    s = dict(STATE, k=oracle.bessel_zero(0.5, 1) / (B - A))
    rng = np.random.default_rng(4)
    r = A + 2e-3 + (B - A - 4e-3) * rng.random(64)
    th = 2.0 * np.pi * rng.random(64)
    x, y = r * np.cos(th), r * np.sin(th)
    rho, xx, xy = oracle.field_oracle(s, x, y)
    sample = np.stack([np.zeros_like(x), x, y, rho, xx, xy], axis=1)
    return {"states": [s], "worst_gamma_dot_delta": 0.0, "worst_lz_excess": 0.0,
            "sample": sample.tolist()}


def test_fields_pass_on_reference_values():
    assert failures(oracle.check_fields, field_payload()) == []


def test_fields_fail_on_rho_scaled_by_1_plus_1e6():
    payload = field_payload()
    for row in payload["sample"]:
        row[3] *= 1.0 + 1e-6
    assert any("rho differs" in f for f in failures(oracle.check_fields, payload))


def test_fields_fail_on_re_xi_off_by_1e6():
    payload = field_payload()
    row = payload["sample"][5]
    row[4], row[5] = row[4] * (1.0 + 1e-6), row[5] * (1.0 + 1e-6)
    assert any("Re xi differs" in f for f in failures(oracle.check_fields, payload))


def test_fields_pass_where_re_xi_vanishes():
    """At a maximum of J_nu, Re xi is 0: float64 error there is absolute,
    about eps * k, and must not read as a relative error."""
    payload = field_payload()
    s = payload["states"][0]
    x_max = 1.1655611852072112                 # tan x = 2 x: J_{1/2}' = 0
    r = A + x_max / s["k"]
    rho, xx, xy = oracle.field_oracle(s, np.array([r]), np.array([0.0]))
    payload["sample"].append([0, r, 0.0, rho[0], xx[0] + 1e-13, xy[0]])
    assert failures(oracle.check_fields, payload) == []


def test_fields_pass_next_to_a_node():
    """Within 1e-9 of a node, Re xi is about 1e9 k and inherits J's absolute
    error over |J|: 1e-14 / 1e-9 relative must not fail."""
    payload = field_payload()
    s = dict(payload["states"][0], n=2)
    s["k"] = oracle.bessel_zero(0.5, 2) / (B - A)
    payload["states"] = [s]
    r = A + math.pi / s["k"] + 1e-9            # J_{1/2} has its node at x = pi
    rho, xx, xy = oracle.field_oracle(s, np.array([r]), np.array([0.0]))
    payload["sample"] = [[0, r, 0.0, rho[0], xx[0] * (1.0 + 1e-5), xy[0]]]
    assert failures(oracle.check_fields, payload) == []


def test_fields_fail_on_lz_beyond_rounding():
    payload = field_payload()
    payload["worst_lz_excess"] = 2e-8
    assert any("M r v_quasi,theta" in f for f in failures(oracle.check_fields, payload))
