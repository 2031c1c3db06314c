"""Command-line driver.

    abtool <spectrum|fields|trajectories|packets|models|check>
           --config <path> [--out <dir>] [--seed <u64>]
           [--format csv|json] [--svg]

Every run writes a machine-readable manifest next to its outputs; re-running
with the manifest's echoed configuration reproduces all numbers exactly.
Exit codes: 0 success, 2 usage or configuration error (including a state
outside the supported window, a budget whose arrays cannot be allocated, or
an output that cannot be written), 3 numerical failure (non-convergence, or
a density below the floor where a velocity field divides by it, as `fields`
does next to a wall), 4 verification failure.  Every failure prints one
line on stderr.
"""
from __future__ import annotations

import argparse
import csv
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
from .numerics import MAX_ZERO_INDEX, NonConvergenceError
from .sde import SdeConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    annulus: AnnulusConfig = AnnulusConfig()
    m: int = 1
    n: int = 1
    nr: int = 64
    ntheta: int = 16
    sde: SdeConfig = SdeConfig()
    out_format: str = "csv"

    def echo(self):
        """The configuration blocks; `Constants`' fields of the annulus form
        the constants block, the rest of it the geometry block."""
        geometry = asdict(self.annulus)
        constants = {f.name: geometry.pop(f.name) for f in fields(Constants)}
        return {
            "constants": constants,
            "geometry": geometry,
            "state": {"m": self.m, "n": self.n},
            "grid": {"nr": self.nr, "ntheta": self.ntheta},
            "sde": asdict(self.sde),
            "output": {"format": self.out_format},
        }


# every configuration key with its default; the default's type (float, int
# or str) is the type the key accepts
_DEFAULTS = RunConfig().echo()


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
        if abs(value) > sys.float_info.max:
            raise ConfigError(f"{where}: expected an integer within the float range")
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
    if not 1 <= merged["state"]["n"] <= MAX_ZERO_INDEX:
        raise ConfigError(f"state.n: need 1 <= n <= {MAX_ZERO_INDEX}")
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
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
    margin = 1e-6 * ann.d
    rs = np.linspace(ann.a + margin, ann.b - margin, cfg.nr)
    ths = np.linspace(0.0, 2.0 * np.pi, cfg.ntheta, endpoint=False)
    header = ("r,theta,rho,eta_r,eta_t,xi_re_r,xi_re_t,xi_im_r,xi_im_t,"
              "gamma_r,gamma_t,delta_r,delta_t,v_r,v_t,w_r,w_t,Q,F_r").split(",")
    # the nr x ntheta grid, radius-major
    r, th = (g.ravel() for g in np.meshgrid(rs, ths, indexing="ij"))
    e_r = np.stack([np.cos(th), np.sin(th)], axis=-1)
    e_t = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    dec = decompose(state, solenoid_potential(ann), ann, r[:, None] * e_r)
    qf = annulus.closed_form_q_and_force(state, r)
    vecs = np.stack([dec.eta, dec.xi_real, dec.xi_imag, dec.gamma,
                     dec.delta, dec.v_quasi, dec.w_quasi])
    # (field, r/theta component, point) -> eta_r, eta_t, xi_re_r, ...
    comps = np.stack([np.sum(vecs * e_r, axis=-1),
                      np.sum(vecs * e_t, axis=-1)], axis=1).reshape(14, -1)
    rows = np.column_stack([r, th, dec.rho, *comps, qf["Q"], qf["F_r"]]).tolist()
    manifest = _table_run("fields", cfg, out_dir, header, rows)
    if want_svg:
        rho_line = state.radial_density(rs)
        v_line = (state.m + state.lam) * ann.hbar / (ann.mass * rs)
        q_line = annulus.closed_form_q_and_force(state, rs)["Q"]
        line_chart(os.path.join(out_dir, "fields.svg"), rs, [
            (rho_line, "rho(r)", "probability density"),
            (v_line, "v_quasi_theta(r)", "quasi-current velocity"),
            (q_line, "Q(r)", "quantum potential"),
        ])
        manifest["outputs"].append("fields.svg")
    manifest["state"] = {"nu": state.nu, "tau": state.tau, "E": state.energy}
    return manifest


def run_trajectories(cfg, out_dir, want_svg):
    state = eigenstate(cfg.annulus, cfg.m, cfg.n)
    trajectories = sde.simulate(state, cfg.sde)
    stride = max(1, len(trajectories[0].positions) // 1000)
    header = ["trajectory", "step", "x", "y"]
    rows = []
    for i, t in enumerate(trajectories[:8]):
        for s in range(0, len(t.positions), stride):
            rows.append([i, s, float(t.positions[s, 0]), float(t.positions[s, 1])])
    manifest = _table_run("trajectories", cfg, out_dir, header, rows)
    manifest["stationarity"] = sde.run_statistics(trajectories, state, cfg.sde)
    return manifest


def run_packets(cfg, out_dir, want_svg):
    g = wavepackets.GaussianPacketConfig()
    header = ["system", "t", "x", "rho", "eta", "xi", "F_Q", "delta"]
    rows = []
    residuals = {}
    for t, (grid, res) in wavepackets.gaussian_report(g).items():
        f = wavepackets.gaussian_fields(g, grid, t)
        for i in range(0, len(grid), 10):
            rows.append(["gaussian", float(t), float(grid[i]), float(f["rho"][i]),
                         float(f["eta"][i]), float(f["xi"][i]), float(f["F_Q"][i]),
                         float(f["delta"][i])])
        residuals[f"gaussian_t={t:g}"] = res
    airy = wavepackets.airy_force_report()
    fa = airy["fields"]
    for i, x in enumerate(airy["x"]):
        rows.append(["airy", airy["t"], float(x), float(fa["rho"][i]),
                     float(fa["eta"][i]), "", float(fa["F_Q"][i]), ""])
    residuals["airy_force_max_rel_err"] = airy["max_rel_err"]
    manifest = _table_run("packets", cfg, out_dir, header, rows)
    manifest["residuals"] = residuals
    return manifest


def run_models(cfg, out_dir, want_svg):
    header = ["model", "level", "quantity", "value"]
    jd = models.hydrogen_orthogonality()
    rows = [[f"hydrogen({st.n},{st.l},{st.m_l})", st.n, "max|J.D|", dots]
            for st, dots in jd.items()]
    for n in (1, 2, 3):
        am = models.linear_airy_model(1.0, n)
        rows.append(["linear_airy", n, "E_n", float(am["E_n"])])
        rows.append(["half_harmonic", n, "E_n",
                     float(models.half_harmonic_energy(1.0, n))])
        rows.append(["box", n, "E_n", float(models.box_energy(1.0, n))])
    slopes = models.mass_scaling_slopes()
    for kind, slope in slopes.items():
        rows.append([kind, 1, "mass_scaling_slope", float(slope)])
    manifest = _table_run("models", cfg, out_dir, header, rows)
    manifest["hydrogen_max_JdotD"] = max(jd.values())
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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):       # a usage error exits 2 with one line
        raise ConfigError(message)


# the characters str.splitlines breaks at, each as its escape: a failure
# prints one line even where argparse quotes an argument as it was given
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in
                              "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def main(argv=None):
    parser = _ArgumentParser(
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

    try:
        args = parser.parse_args(argv)
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
        started = time.perf_counter()
        manifest = _SUBCOMMANDS[args.subcommand](cfg, args.out, args.svg)
        # the check manifest is the determinism contract (two runs with the
        # same seed are byte-identical), so it carries no timing
        manifest["wall_clock_seconds"] = (None if args.subcommand == "check" else
                                          round(time.perf_counter() - started, 3))
        _write_json(os.path.join(args.out, f"manifest_{args.subcommand}.json"),
                    manifest)
    except NonConvergenceError as exc:
        found = [f"{name} {np.asarray(value).tolist()}" for name, value in
                 (("best estimate", exc.best_estimate), ("error bound", exc.error_bound))
                 if value is not None]
        code, message = EXIT_NUMERICS, f"numerical non-convergence: {exc}" + (
            f" ({', '.join(found)})" if found else "")
    except DensityFloorError as exc:      # a ValueError: caught before it
        code, message = EXIT_NUMERICS, f"numerical failure: {exc}"
    except (ValueError, OSError) as exc:
        # ConfigError (usage too), a --seed SdeConfig rejects, a state outside
        # eigenstate's window, a file that cannot be read or written
        code, message = EXIT_CONFIG, f"configuration error: {exc}"
    except MemoryError as exc:
        # a budget (sde.steps, grid.nr, ...) too large to allocate
        code, message = EXIT_CONFIG, ("configuration error: cannot allocate "
                                      f"the configured budget: {exc}")
    else:
        return EXIT_CHECK if args.subcommand == "check" and not manifest["all_passed"] \
            else EXIT_OK
    print(f"abtool: {message}".translate(_LINE_BREAKS), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
