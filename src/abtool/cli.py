"""Command-line driver.

    abtool <spectrum|fields|trajectories|packets|models|check>
           --config <path> [--out <dir>] [--seed <u64>]
           [--format csv|json] [--svg]

Every run writes a machine-readable manifest next to its outputs; re-running
with the manifest's echoed configuration reproduces all numbers exactly.
Exit codes: 0 success, 2 configuration error (including a state outside the
supported window), 3 numerical failure (non-convergence, or a density below
the floor where a velocity field divides by it, as `fields` does next to a
wall), 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, annulus, checks, models, sde, wavepackets
from ._svg import line_chart
from .annulus import AnnulusConfig, eigenstate, flux_parameter, solenoid_potential
from .madelung import Constants, DensityFloorError, decompose
from .numerics import NonConvergenceError, RandomStream
from .sde import SdeConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    annulus: AnnulusConfig
    m: int
    n: int
    nr: int
    ntheta: int
    sde: SdeConfig
    out_format: str

    def echo(self):
        return {
            **_annulus_blocks(self.annulus),
            "state": {"m": self.m, "n": self.n},
            "grid": {"nr": self.nr, "ntheta": self.ntheta},
            "sde": asdict(self.sde),
            "output": {"format": self.out_format},
        }


def _annulus_blocks(ann):
    """An AnnulusConfig's constants (madelung.Constants) and geometry blocks."""
    geometry = asdict(ann)
    constants = {f.name: geometry.pop(f.name) for f in fields(Constants)}
    return {"constants": constants, "geometry": geometry}


# every configuration key with its default; the default's type (float, int
# or str) is the type the key accepts
_DEFAULTS = {
    **_annulus_blocks(AnnulusConfig()),
    "state": {"m": 1, "n": 1},
    "grid": {"nr": 64, "ntheta": 16},
    "sde": asdict(SdeConfig()),
    "output": {"format": "csv"},
}


def _coerce(block, key, value, kind):
    where = f"{block}.{key}"
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:       # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{where}: expected a finite number")
        return number
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def parse_config(text):
    """Parse and validate a JSON configuration, applying natural-unit
    defaults; unknown keys are rejected with their path."""
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    merged = {block: dict(defaults) for block, defaults in _DEFAULTS.items()}
    for block, content in raw.items():
        if block not in _DEFAULTS:
            raise ConfigError(f"unknown configuration block {block!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"{block}: expected an object")
        for key, value in content.items():
            if key not in _DEFAULTS[block]:
                raise ConfigError(f"unknown key {block}.{key}")
            merged[block][key] = _coerce(block, key, value,
                                         type(_DEFAULTS[block][key]))
    if merged["output"]["format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    if merged["grid"]["nr"] < 2 or merged["grid"]["ntheta"] < 1:
        raise ConfigError("grid: need nr >= 2 and ntheta >= 1")
    try:
        ann = AnnulusConfig(**merged["constants"], **merged["geometry"])
        sde_cfg = SdeConfig(**merged["sde"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(annulus=ann, m=merged["state"]["m"], n=merged["state"]["n"],
                     nr=merged["grid"]["nr"], ntheta=merged["grid"]["ntheta"],
                     sde=sde_cfg, out_format=merged["output"]["format"])


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    """obj as indented, key-sorted JSON; numpy scalars and arrays are written
    as the Python values their tolist() gives."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


def _write_table(path, header, rows, out_format):
    if out_format == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
    else:
        _write_json(path, [dict(zip(header, row)) for row in rows])


def _base_manifest(subcommand, cfg):
    return {
        "artifact": {"name": "abtool", "version": __version__},
        "subcommand": subcommand,
        "config": cfg.echo(),
        "seed": cfg.sde.seed,
        "lambda": flux_parameter(cfg.annulus),
    }


def _table_run(subcommand, cfg, out_dir, header, rows):
    """Write the subcommand's table as <subcommand>.<format> in out_dir and
    return the manifest listing it."""
    table = f"{subcommand}.{cfg.out_format}"
    _write_table(os.path.join(out_dir, table), header, rows, cfg.out_format)
    manifest = _base_manifest(subcommand, cfg)
    manifest["outputs"] = [table]
    return manifest


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def run_spectrum(cfg, out_dir, want_svg):
    ann = cfg.annulus
    m_span = max(2, abs(cfg.m))
    n_max = max(2, cfg.n)
    header = ["m", "n", "nu", "tau", "k", "E",
              "Lz_total", "Lz_canonical", "Lz_osmotic"]
    rows = []
    for m in range(-m_span, m_span + 1):
        for n in range(1, n_max + 1):
            state = eigenstate(ann, m, n)
            mom = annulus.angular_momenta(state)
            rows.append([m, n, state.nu, state.tau, state.k, state.energy,
                         mom["total"], mom["canonical"], mom["osmotic"]])
    manifest = _table_run("spectrum", cfg, out_dir, header, rows)
    manifest["rows"] = len(rows)
    return manifest


def run_fields(cfg, out_dir, want_svg):
    ann = cfg.annulus
    state = eigenstate(ann, cfg.m, cfg.n)
    a_spec = solenoid_potential(ann)
    margin = 1e-6 * ann.d
    rs = np.linspace(ann.a + margin, ann.b - margin, cfg.nr)
    ths = np.linspace(0.0, 2.0 * np.pi, cfg.ntheta, endpoint=False)
    header = ("r,theta,rho,eta_r,eta_t,xi_re_r,xi_re_t,xi_im_r,xi_im_t,"
              "gamma_r,gamma_t,delta_r,delta_t,v_r,v_t,w_r,w_t,Q,F_r").split(",")
    e_r = np.stack([np.cos(ths), np.sin(ths)], axis=-1)
    e_t = np.stack([-np.sin(ths), np.cos(ths)], axis=-1)
    blocks = []
    for r in rs:
        pts = np.stack([r * np.cos(ths), r * np.sin(ths)], axis=-1)
        dec = decompose(state, a_spec, ann, pts)
        qf = annulus.closed_form_q_and_force(state, r)
        vecs = np.stack([dec.eta, dec.xi_real, dec.xi_imag, dec.gamma,
                         dec.delta, dec.v_quasi, dec.w_quasi])
        # (field, r/theta component, point) -> eta_r, eta_t, xi_re_r, ...
        comps = np.stack([np.sum(vecs * e_r, axis=-1),
                          np.sum(vecs * e_t, axis=-1)], axis=1).reshape(14, -1)
        ones = np.ones_like(ths)
        blocks.append(np.column_stack([r * ones, ths, dec.rho, *comps,
                                       qf["Q"] * ones, qf["F_r"] * ones]))
    rows = np.concatenate(blocks).tolist()
    manifest = _table_run("fields", cfg, out_dir, header, rows)
    if want_svg:
        rho_line = state.radial_density(rs)
        v_line = (state.m + state.lam) * ann.hbar / (ann.mass * rs)
        q_line = annulus.closed_form_q_and_force(state, rs)["Q"]
        line_chart(os.path.join(out_dir, "fields.svg"), rs, [
            ([rho_line], ["rho(r)"], "probability density"),
            ([v_line], ["v_quasi_theta(r)"], "quasi-current velocity"),
            ([q_line], ["Q(r)"], "quantum potential"),
        ])
        manifest["outputs"].append("fields.svg")
    manifest["state"] = {"nu": state.nu, "tau": state.tau, "E": state.energy}
    return manifest


def run_trajectories(cfg, out_dir, want_svg):
    ann = cfg.annulus
    state = eigenstate(ann, cfg.m, cfg.n)
    trajectories = sde.simulate(state, cfg.sde)
    pooled = sum(len(t.positions) for t in trajectories)
    thin = sde.chi2_thin(cfg.sde)
    if pooled >= 10_000:
        stat = sde.stationarity_test(trajectories, state, bins=40, thin=thin)
        ang = sde.angular_uniformity_test(trajectories, bins=16, thin=thin)
    else:
        stat = ang = None
    erg = sde.ergodic_angular_momentum(trajectories, state)
    stride = max(1, len(trajectories[0].positions) // 1000)
    header = ["trajectory", "step", "x", "y"]
    rows = []
    for i, t in enumerate(trajectories[:8]):
        for s in range(0, len(t.positions), stride):
            rows.append([i, s, float(t.positions[s, 0]), float(t.positions[s, 1])])
    manifest = _table_run("trajectories", cfg, out_dir, header, rows)
    manifest["stationarity"] = {
        "ergodic_Lz": erg["value"], "ergodic_Lz_stderr": erg["stderr"],
        "rejection_fraction": sde.rejection_fraction(trajectories, cfg.sde),
        "aborted": sum(t.aborted for t in trajectories),
    }
    if stat is not None:
        manifest["stationarity"].update({
            "ks_distance": stat["ks_distance"], "chi2": stat["chi2"],
            "chi2_p_value": stat["p_value"],
            "angular_chi2_p_value": ang["p_value"],
        })
    else:
        manifest["stationarity"]["skipped"] = \
            "fewer than 1e4 pooled samples; goodness-of-fit not meaningful"
    return manifest


def run_packets(cfg, out_dir, want_svg):
    g = wavepackets.GaussianPacketConfig()
    a = wavepackets.AiryPacketConfig()
    header = ["system", "t", "x", "rho", "eta", "xi", "F_Q", "delta"]
    rows = []
    residuals = {}
    for t in (g.T / 2.0, g.T, 3.0 * g.T):
        eps = float(g.epsilon(t))
        grid = np.linspace(g.u0 * t - 4.0 * eps, g.u0 * t + 4.0 * eps, 200)
        f = wavepackets.gaussian_fields(g, grid, t)
        for i in range(0, len(grid), 10):
            rows.append(["gaussian", float(t), float(grid[i]), float(f["rho"][i]),
                         float(f["eta"][i]), float(f["xi"][i]), float(f["F_Q"][i]),
                         float(f["delta"][i])])
        res = wavepackets.gaussian_consistency(g, grid, t)
        residuals[f"gaussian_t={t:g}"] = res
    xs = wavepackets.airy_force_probe_points(a, 0.7)
    fa = wavepackets.airy_fields(a, xs, 0.7)
    for i, x in enumerate(xs):
        rows.append(["airy", 0.7, float(x), float(fa["rho"][i]),
                     float(fa["eta"][i]), "", float(fa["F_Q"][i]), ""])
    residuals["airy_force_max_rel_err"] = float(
        np.abs(fa["F_Q"] - a.k).max() / a.k)
    manifest = _table_run("packets", cfg, out_dir, header, rows)
    manifest["residuals"] = residuals
    return manifest


def run_models(cfg, out_dir, want_svg):
    header = ["model", "level", "quantity", "value"]
    rows = []
    worst_jd = 0.0
    stream = RandomStream(3)
    for n in range(1, 4):
        for l in range(n):
            for m_l in range(-l, l + 1):
                st = models.HydrogenState(n, l, m_l)
                u = stream.uniforms(200).reshape(2, 100)
                r = 0.3 + 12.0 * u[0]
                th = 0.15 + (np.pi - 0.3) * u[1]
                f = models.hydrogen_fields(st, r, th)
                dots = float(np.abs(np.sum(f["J"] * f["D"], axis=-1)).max())
                worst_jd = max(worst_jd, dots)
                rows.append([f"hydrogen({n},{l},{m_l})", n, "max|J.D|", dots])
    for n in (1, 2, 3):
        am = models.linear_airy_model(1.0, 1.0, n)
        rows.append(["linear_airy", n, "E_n", float(am["E_n"])])
        rows.append(["half_harmonic", n, "E_n",
                     float(models.half_harmonic_energy(1.0, 1.0, n))])
        rows.append(["box", n, "E_n", float(models.box_energy(1.0, 1.0, n))])
    slopes = {kind: models.mass_scaling_fit(kind, 1, [1.0, 2.0, 4.0, 8.0])
              for kind in ("linear_airy", "half_harmonic", "box")}
    for kind, slope in slopes.items():
        rows.append([kind, 1, "mass_scaling_slope", float(slope)])
    manifest = _table_run("models", cfg, out_dir, header, rows)
    manifest["hydrogen_max_JdotD"] = worst_jd
    manifest["mass_scaling_slopes"] = slopes
    return manifest


def run_check(cfg, out_dir, want_svg):
    results = checks.run_all(cfg.sde)
    for res in results:
        print(res.line())
    manifest = _base_manifest("check", cfg)
    manifest["checks"] = [
        {"name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]
    manifest["all_passed"] = all(r.passed for r in results)
    return manifest


_SUBCOMMANDS = {
    "spectrum": run_spectrum,
    "fields": run_fields,
    "trajectories": run_trajectories,
    "packets": run_packets,
    "models": run_models,
    "check": run_check,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="abtool",
        description="Flux-threaded annulus bound states, velocity-field "
                    "decompositions and diffusion-process sampling.")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sde seed")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the output format")
    parser.add_argument("--svg", action="store_true",
                        help="also render SVG line plots where supported")
    args = parser.parse_args(argv)

    try:
        text = "{}"
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, sde=replace(cfg.sde, seed=args.seed))
        if args.format is not None:
            cfg = replace(cfg, out_format=args.format)
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"abtool: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = time.perf_counter()
    try:
        manifest = _SUBCOMMANDS[args.subcommand](cfg, args.out, args.svg)
    except NonConvergenceError as exc:
        print(f"abtool: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except DensityFloorError as exc:      # a ValueError: caught before it
        print(f"abtool: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ValueError as exc:
        # arguments the configuration chose, e.g. a state outside the
        # supported window of eigenstate
        print(f"abtool: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - started

    # The check manifest is the determinism contract (two runs with the same
    # seed must be byte-identical), so it carries no timing; other runs do.
    manifest["wall_clock_seconds"] = (None if args.subcommand == "check"
                                      else round(elapsed, 3))
    _write_json(os.path.join(args.out, f"manifest_{args.subcommand}.json"),
                manifest)

    if args.subcommand == "check" and not manifest["all_passed"]:
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
