"""Acceptance suite: every release criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them).

Criteria 1-7 and 9-11 drive the library through the shared check
implementations plus independent frozen anchors.  Criterion 12 runs the CLI
`check` subcommand in two concurrent fresh processes and compares manifests
byte for byte; criterion 8, the full-budget sampler, reads its entry from
those manifests, so the suite runs that sampler twice, not three times.
"""
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from abtool import checks
from abtool.annulus import (AnnulusConfig, diffusion_velocity, eigenstate,
                            angular_momenta)
from abtool.madelung import circulation
from abtool.numerics import bessel_j_zero
from abtool.sde import SdeConfig

CFG = AnnulusConfig()
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def check_runs(tmp_path_factory):
    """The full `check` at the default seed in two fresh processes at once,
    each with its own caches (the two finish in about the time of one):
    both manifests' bytes and the pair's wall time."""
    base = tmp_path_factory.mktemp("check")
    outs = [base / "one", base / "two"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    runs = [subprocess.Popen([sys.executable, "-m", "abtool.cli", "check",
                              "--out", str(out), "--seed", str(SdeConfig().seed)],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
            for out in outs]
    try:
        for run in runs:
            err = run.communicate(timeout=600)[1]
            assert run.returncode == 0, err.decode()
    finally:
        for run in runs:
            run.kill()
            run.wait()
    elapsed = time.perf_counter() - t0
    return [(out / "manifest_check.json").read_bytes() for out in outs], elapsed


def report(result):
    print(f"\n{result.line()}")
    for key, value in result.details.items():
        print(f"    {key} = {value}")
    assert result.passed, result.details


class TestAcceptance:
    def test_01_angular_momentum_theorem(self):
        # anchor: the reference state by direct quadrature
        mom = angular_momenta(eigenstate(CFG, 1, 1))
        assert mom["total"] == pytest.approx(0.5, abs=1e-8)
        assert mom["osmotic"] == pytest.approx(-0.5, abs=1e-8)
        t0 = time.perf_counter()
        result = checks.check_angular_momentum()
        assert time.perf_counter() - t0 < 10.0
        report(result)

    def test_02_orthogonality(self):
        report(checks.check_orthogonality())

    def test_03_circulation_and_vorticity(self):
        # anchor: enclosing-loop circulation is 2 pi lambda hbar / M = -pi
        got = circulation(lambda pts: diffusion_velocity(CFG, pts),
                          (0.0, 0.0), 2.0)
        assert got == pytest.approx(-math.pi, abs=1e-9)
        report(checks.check_circulation_vorticity())

    def test_04_energy_identity(self):
        report(checks.check_energy_identity())

    def test_05_magnetic_force_equivalence(self):
        report(checks.check_magnetic_force())

    def test_06_gaussian_packet(self):
        report(checks.check_gaussian_packet())

    def test_07_airy_packet(self):
        report(checks.check_airy_packet())

    def test_08_nelson_sampler(self, check_runs):
        # check 8 at the default budget and seed, as the determinism runs
        # report it; tests/test_cli.py checks the library's check 8 against
        # `trajectories` at a reduced budget
        manifests, elapsed = check_runs
        manifest = json.loads(manifests[0])
        assert manifest["config"]["sde"] == asdict(SdeConfig())
        [entry] = [c for c in manifest["checks"]
                   if c["name"] == "nelson diffusion sampler"]
        result = checks.CheckResult(**entry)
        assert result.details["ks_distance"] <= 0.02
        assert result.details["angular_p_value"] > 0.01
        assert result.details["ergodic_rel_error"] <= 0.02
        assert result.details["rejection_fraction"] < 0.01
        # the stated budget targets < 60 s on a 4-core laptop; allow 2x for
        # slower single-core environments, and report the measured value
        # (of the whole check, two processes at once)
        print(f"\n    elapsed_seconds = {elapsed:.3f}")
        assert elapsed < 120.0
        report(result)

    def test_09_gauge_family(self):
        report(checks.check_gauge_family())

    def test_10_special_function_oracles(self):
        for n in (1, 4, 10):
            assert abs(bessel_j_zero(0.5, n) - n * math.pi) <= 1e-10
        report(checks.check_special_functions())

    def test_11_gauge_invariance(self):
        report(checks.check_gauge_invariance())

    def test_12_check_determinism(self, check_runs):
        (bytes_one, bytes_two), _ = check_runs
        identical = bytes_one == bytes_two
        print(f"\n[{'PASS' if identical else 'FAIL'}] check manifests "
              f"byte-identical ({len(bytes_one)} bytes)")
        assert identical
        manifest = json.loads(bytes_one)
        assert manifest["all_passed"] is True
        assert manifest["wall_clock_seconds"] is None
