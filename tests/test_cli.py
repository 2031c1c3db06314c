"""Configuration parsing, subcommand outputs, manifests and exit codes."""
import csv
import json
import math
import re
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from abtool import checks, cli
from abtool.cli import (_DEFAULTS, EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERICS,
                        EXIT_OK, ConfigError, main, parse_config)
from abtool.numerics import NonConvergenceError
from abtool.sde import SdeConfig
import pins

README = Path(__file__).resolve().parents[1] / "README.md"

FIELDS_HEADER = ("r,theta,rho,eta_r,eta_t,xi_re_r,xi_re_t,xi_im_r,xi_im_t,"
                 "gamma_r,gamma_t,delta_r,delta_t,v_r,v_t,w_r,w_t,Q,F_r")


class TestParseConfig:
    def test_empty_gives_natural_defaults(self):
        cfg = parse_config("{}")
        assert cfg.annulus.hbar == 1.0
        assert cfg.annulus.a == 1.0
        assert cfg.annulus.b == 3.0
        assert cfg.annulus.B == 1.0
        assert cfg.m == 1 and cfg.n == 1
        assert cfg.sde.dt == 1e-3
        assert cfg.out_format == "csv"

    def test_geometry_order_enforced(self):
        with pytest.raises(ConfigError, match="a < b"):
            parse_config('{"geometry": {"a": 3, "b": 1}}')

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key state.q"):
            parse_config('{"state": {"q": 2}}')
        with pytest.raises(ConfigError, match="unknown configuration block"):
            parse_config('{"states": {}}')
        for block, key, value in (("output", "path", "out.csv"),
                                  ("sde", "boundary_policy", "reject_resample"),
                                  ("sde", "max_retries", 4)):
            config = {block: {key: value}}
            with pytest.raises(ConfigError, match=f"unknown key {block}.{key}"):
                parse_config(json.dumps(config))
            assert run_cli(["spectrum"], tmp_path, config=config) == EXIT_CONFIG

    def test_types_checked_with_path(self):
        with pytest.raises(ConfigError, match="state.m"):
            parse_config('{"state": {"m": "one"}}')

    def test_json_errors_are_line_anchored(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n  "state": }')

    def test_sde_validation_propagates(self):
        with pytest.raises(ConfigError):
            parse_config('{"sde": {"dt": -0.5}}')


class TestConfigDoc:
    def test_readme_table_lists_every_key_and_default(self):
        # README's "The N keys are:" table, one row per block with cells
        # `key` (default); a string key's default is its first listed value
        text = README.read_text(encoding="utf-8")
        found = re.search(r"The (\d+) keys are:\n\n\| block \| keys \(default\) \|\n"
                          r"\|---\|---\|\n((?:\|.*\|\n)+)", text)
        assert found, "config table not found in README.md"
        table = {}
        for line in found.group(2).splitlines():
            block, keys = (cell.strip() for cell in line.strip("|").split("|"))
            table[block.strip("`")] = dict(re.findall(r"`(\w+)` \(([^)]*)\)", keys))
        assert table.keys() == _DEFAULTS.keys()
        for block, defaults in _DEFAULTS.items():
            assert table[block].keys() == defaults.keys(), block
            for key, default in defaults.items():
                doc = table[block][key]
                if isinstance(default, str):
                    assert doc.split()[0].strip("`") == default, (block, key)
                else:
                    assert float(doc) == default, (block, key)
        assert int(found.group(1)) == sum(map(len, _DEFAULTS.values()))


def run_cli(args, tmp_path, config=None):
    argv = list(args) + ["--out", str(tmp_path)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return main(argv)


def spectrum_rows(out_dir, config):
    """[((m, n), {column: value})] of the spectrum.csv that `abtool
    spectrum` writes in out_dir at config; it must exit 0."""
    out_dir.mkdir()
    assert run_cli(["spectrum"], out_dir, config=config) == EXIT_OK
    with open(out_dir / "spectrum.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [((int(row.pop("m")), int(row.pop("n"))),
             {key: float(value) for key, value in row.items()})
            for row in rows]


class TestSpectrum:
    def test_default_run(self, tmp_path):
        assert run_cli(["spectrum"], tmp_path) == EXIT_OK
        rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        table = {}
        for line in rows[1:]:
            vals = line.split(",")
            table[(int(vals[0]), int(vals[1]))] = dict(
                zip(header[2:], map(float, vals[2:])))
        entry = table[(1, 1)]
        assert entry["nu"] == pytest.approx(0.5, abs=1e-12)
        assert entry["tau"] == pytest.approx(math.pi, abs=1e-10)
        assert entry["E"] == pytest.approx(math.pi ** 2 / 8.0, rel=1e-10)
        assert entry["Lz_total"] == pytest.approx(0.5, abs=1e-8)
        # manifest echoes lambda
        manifest = json.loads((tmp_path / "manifest_spectrum.json").read_text())
        assert manifest["lambda"] == -0.5
        assert manifest["subcommand"] == "spectrum"

    def test_lambda_echo_for_custom_config(self, tmp_path):
        code = run_cli(["spectrum"], tmp_path,
                       config={"state": {"m": 1}, "geometry": {"B": 1}})
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest_spectrum.json").read_text())
        assert manifest["lambda"] == -0.5

    def test_states_with_underflowing_density(self, tmp_path):
        # nu up to 6.5: rho underflows the 1e-30 floor at the GK nodes next
        # to r = a; the angular momenta divide by nothing, so they still
        # come out, and equal hbar (m + lambda)
        code = run_cli(["spectrum"], tmp_path, config={"state": {"m": 6}})
        assert code == EXIT_OK
        rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert len(rows) == 1 + 13 * 2
        for line in rows[1:]:
            entry = dict(zip(header, line.split(",")))
            assert abs(float(entry["Lz_total"]) - (int(entry["m"]) - 0.5)) <= 1e-8

    def test_orders_up_to_twenty(self, tmp_path):
        # rows m = -20..20 reach nu = 20.5, with zeros past the split x = 9.25
        code = run_cli(["spectrum"], tmp_path, config={"state": {"m": 20}})
        assert code == EXIT_OK
        rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert len(rows) == 1 + 41 * 2
        for line in rows[1:]:
            entry = dict(zip(header, line.split(",")))
            assert abs(float(entry["Lz_total"]) - (int(entry["m"]) - 0.5)) <= 1e-8

    @pytest.mark.parametrize("config,ms", [
        # lambda = -48.5: state m = 2 has nu = 46.5, the row m = -2 has 50.5
        ({"geometry": {"B": 97}, "state": {"m": 2}}, range(-1, 3)),
        # lambda = -1/2: state m = 50 has nu = 49.5, the row m = -50 has 50.5
        ({"state": {"m": 50}}, range(-49, 51)),
        # lambda = -100: only the rows m = 50..100 of -100..100 are inside
        ({"geometry": {"B": 200}, "state": {"m": 100}}, range(50, 101))],
        ids=["B97-m2", "m50", "B200-m100"])
    def test_rows_past_the_order_window_are_left_out(self, tmp_path, config, ms):
        assert run_cli(["spectrum"], tmp_path, config=config) == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "spectrum.csv").read_text().strip().split("\n")[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(m, n) for m in ms for n in (1, 2)]
        assert max(float(r[2]) for r in rows) <= 50.0
        manifest = json.loads((tmp_path / "manifest_spectrum.json").read_text())
        assert manifest["rows"] == len(rows)

    def test_large_flux(self, tmp_path):
        # lambda = -500: the rows m = 449..500 reach s = 0, where the
        # integrals once failed to converge
        rows = spectrum_rows(tmp_path / "B1000",
                             {"geometry": {"B": 1000}, "state": {"m": 500}})
        assert [mn for mn, _ in rows] == [(m, n) for m in range(450, 501)
                                          for n in (1, 2)]
        assert all(row["nu"] == abs(m - 500) for (m, _), row in rows)

    def test_a_flux_quantum_shift_keeps_the_rows(self, tmp_path):
        # (m + N, lambda - N) with N = 1e8 is (m, lambda) up to the gauge
        # e^{i N theta}: the rows of equal s = m + lambda and n agree bit for
        # bit in every gauge-invariant column
        far = {(m - 100000000, n): row for (m, n), row in spectrum_rows(
            tmp_path / "far", {"geometry": {"B": 200000001},
                               "state": {"m": 100000000}})}
        near = dict(spectrum_rows(tmp_path / "near",
                                  {"geometry": {"B": 1}, "state": {"m": 1}}))
        shared = far.keys() & near.keys()
        assert sorted(shared) == [(m, n) for m in (-2, -1, 0) for n in (1, 2)]
        for key in shared:
            for column in ("nu", "tau", "k", "E", "Lz_total"):
                assert far[key][column] == near[key][column], (key, column)

    def test_table_reproducible(self, tmp_path):
        run_cli(["spectrum"], tmp_path / "one")
        run_cli(["spectrum"], tmp_path / "two")
        assert (tmp_path / "one" / "spectrum.csv").read_bytes() == \
            (tmp_path / "two" / "spectrum.csv").read_bytes()


class TestFields:
    def test_header_exact_and_svg(self, tmp_path):
        code = run_cli(["fields", "--svg"], tmp_path,
                       config={"grid": {"nr": 8, "ntheta": 4}})
        assert code == EXIT_OK
        text = (tmp_path / "fields.csv").read_text()
        assert text.split("\n", 1)[0] == FIELDS_HEADER
        assert (tmp_path / "fields.svg").exists()
        svg = (tmp_path / "fields.svg").read_text()
        assert svg.startswith("<svg ")
        n_rows = len(text.strip().split("\n")) - 1
        assert n_rows == 8 * 4

    def test_locale_independent_floats(self, tmp_path):
        run_cli(["fields"], tmp_path, config={"grid": {"nr": 4, "ntheta": 2}})
        body = (tmp_path / "fields.csv").read_text()
        assert "," in body and ";" not in body
        for token in body.strip().split("\n")[1].split(","):
            float(token)   # every cell parses as a plain float

    def test_json_format(self, tmp_path):
        run_cli(["fields", "--format", "json"], tmp_path,
                config={"grid": {"nr": 4, "ntheta": 2}})
        payload = json.loads((tmp_path / "fields.json").read_text())
        assert len(payload) == 8
        assert set(payload[0]) == set(FIELDS_HEADER.split(","))

    def test_tiny_mass_overflows_nothing(self, tmp_path, capsys):
        # M = 1e-300 puts v = (m + lambda) hbar / (M r) near 1e300: every
        # value is finite, and the closed-form centripetal check must not
        # overflow on v^2 (this suite turns warnings into errors)
        config = {"constants": {"mass": 1e-300}, "grid": {"nr": 4, "ntheta": 2}}
        assert run_cli(["fields"], tmp_path, config=config) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestPacketsAndModels:
    def test_packets_manifest_residuals(self, tmp_path):
        assert run_cli(["packets"], tmp_path) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest_packets.json").read_text())
        res = manifest["residuals"]
        assert res["airy_force_max_rel_err"] <= 1e-4
        for key, block in res.items():
            if key.startswith("gaussian_t="):
                assert block["continuity_residual"] <= 1e-6

    def test_models_manifest(self, tmp_path):
        assert run_cli(["models"], tmp_path) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest_models.json").read_text())
        assert manifest["hydrogen_max_JdotD"] <= 1e-12
        slopes = manifest["mass_scaling_slopes"]
        assert slopes["linear_airy"] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert slopes["half_harmonic"] == pytest.approx(-0.5, abs=1e-10)
        assert slopes["box"] == pytest.approx(-1.0, abs=1e-10)

    def test_checks_report_the_manifests_numbers(self, tmp_path):
        # checks 2, 6, 7 and 10 take the report `packets` or `models` writes
        assert run_cli(["packets"], tmp_path) == EXIT_OK
        assert run_cli(["models"], tmp_path) == EXIT_OK
        packets = json.loads((tmp_path / "manifest_packets.json").read_text())
        models = json.loads((tmp_path / "manifest_models.json").read_text())
        residuals = packets["residuals"]
        gaussian = [block for key, block in residuals.items()
                    if key.startswith("gaussian_t=")]
        assert len(gaussian) == 3
        details = checks.check_gaussian_packet().details
        for key in gaussian[0]:
            assert details[key] == max(block[key] for block in gaussian)
        assert checks.check_airy_packet().details["force_rel_error"] == \
            residuals["airy_force_max_rel_err"]
        assert checks.check_special_functions().details["slopes"] == \
            models["mass_scaling_slopes"]
        assert checks.check_orthogonality().details["worst_hydrogen"] == \
            models["hydrogen_max_JdotD"]

    def test_models_csv_rows_match_the_header(self, tmp_path):
        # the hydrogen labels hold commas, so they must come back as one field
        assert run_cli(["models"], tmp_path) == EXIT_OK
        with open(tmp_path / "models.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["model", "level", "quantity", "value"]
        assert len(rows) == 14 + 9 + 3     # hydrogen states, levels, slopes
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows[:4]] == [
            "hydrogen(1,0,0)", "hydrogen(2,0,0)", "hydrogen(2,1,-1)",
            "hydrogen(2,1,0)"]


class TestTrajectories:
    def test_small_run_stats(self, tmp_path):
        config = {"sde": {"steps": 3000, "burn_in": 500, "n_trajectories": 8,
                          "seed": 33}}
        assert run_cli(["trajectories"], tmp_path, config=config) == EXIT_OK
        manifest = json.loads(
            (tmp_path / "manifest_trajectories.json").read_text())
        stats = manifest["stationarity"]
        assert stats["rejection_fraction"] < 0.01
        assert stats["aborted"] == 0
        assert 0.0 <= stats["ks_distance"] <= 1.0
        table = (tmp_path / "trajectories.csv").read_text().strip().split("\n")
        assert table[0] == "trajectory,step,x,y"
        assert len(table) > 8

    def test_state_with_node_at_mid_radius(self, tmp_path):
        # nu = 1/2, n = 2: R vanishes at r = (a + b)/2
        config = {"state": {"m": 1, "n": 2},
                  "sde": {"steps": 3000, "burn_in": 500, "n_trajectories": 16,
                          "seed": 8}}
        assert run_cli(["trajectories"], tmp_path, config=config) == EXIT_OK
        manifest = json.loads(
            (tmp_path / "manifest_trajectories.json").read_text())
        assert manifest["stationarity"]["aborted"] == 0
        assert manifest["stationarity"]["rejection_fraction"] < 0.01

    def test_seed_override_recorded(self, tmp_path):
        config = {"sde": {"steps": 2000, "burn_in": 200, "n_trajectories": 4}}
        run_cli(["trajectories", "--seed", "99"], tmp_path, config=config)
        manifest = json.loads(
            (tmp_path / "manifest_trajectories.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["sde"]["seed"] == 99


class TestSamplerStatistics:
    """`trajectories` writes, and check 8 reads, one `sde.run_statistics`."""

    # 4 x 500 retained steps: 2000 pooled samples, below the 1e4 needed
    SHORT = {"steps": 600, "burn_in": 100, "n_trajectories": 4}

    def test_short_run_writes_skipped_with_the_other_entries(self, tmp_path):
        assert run_cli(["trajectories"], tmp_path,
                       config={"sde": self.SHORT}) == EXIT_OK
        stats = json.loads(
            (tmp_path / "manifest_trajectories.json").read_text())["stationarity"]
        assert set(stats) == {"ergodic_Lz", "ergodic_Lz_stderr",
                              "rejection_fraction", "aborted", "skipped"}
        assert stats["aborted"] == 0

    def test_short_check_is_2_with_one_line(self, tmp_path, capsys):
        assert run_cli(["check"], tmp_path,
                       config={"sde": self.SHORT}) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error:")
        assert "1e4 pooled samples" in err

    def test_check_8_reports_the_trajectories_statistics(self, tmp_path):
        # both run state (1, 1) of the default annulus
        block = {"steps": 3000, "burn_in": 500, "n_trajectories": 16}
        assert run_cli(["trajectories"], tmp_path,
                       config={"sde": block}) == EXIT_OK
        stats = json.loads(
            (tmp_path / "manifest_trajectories.json").read_text())["stationarity"]
        details = checks.check_nelson_sampler(SdeConfig(**block)).details
        assert details["ks_distance"] == stats["ks_distance"]
        assert details["radial_p_value"] == stats["chi2_p_value"]
        assert details["angular_p_value"] == stats["angular_chi2_p_value"]
        assert details["ergodic_Lz"] == stats["ergodic_Lz"]
        assert details["rejection_fraction"] == stats["rejection_fraction"]


OUTPUTS = pins.PinSet("cli_outputs")
REDUCED_SDE = {"sde": {"steps": 3000, "burn_in": 500, "n_trajectories": 16}}


def output_of(args, output, config=None, codes=(EXIT_OK,)):
    """The record of the file `output` that `abtool args` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli(args, Path(tmp), config=config) in codes
        return pins.output_file(Path(tmp) / output)


# a test id leaves the digest to the ledger, so a moved pin keeps its id
DEFAULT_TABLES = [
    pytest.param(OUTPUTS.add(f"{subcommand}.csv", partial(
        output_of, [subcommand], f"{subcommand}.csv")), id=subcommand)
    for subcommand in ("spectrum", "fields", "packets", "models")]
REDUCED_BUDGET = [
    pytest.param(OUTPUTS.add(output, partial(
        output_of, [subcommand], output, REDUCED_SDE, (EXIT_OK, EXIT_CHECK))),
        id=f"{subcommand}-{output}")
    for subcommand, output in (("trajectories", "trajectories.csv"),
                               ("check", "manifest_check.json"))]
OUTPUTS.add("fields.svg", partial(output_of, ["fields", "--svg"], "fields.svg"))


class TestPinnedOutputs:
    """Output files pinned bit for bit (`pins.output_file`): the four tables
    and `fields.svg` at the default configuration, and `trajectories.csv`
    and the check manifest at a reduced sampler budget."""

    @pytest.mark.parametrize("name", DEFAULT_TABLES)
    def test_default_tables(self, name):
        OUTPUTS.check(name)

    def test_fields_svg(self):
        OUTPUTS.check("fields.svg")

    @pytest.mark.parametrize("name", REDUCED_BUDGET)
    def test_reduced_sampler_budget(self, name):
        OUTPUTS.check(name)


class TestCheck:
    def test_reduced_sampler_budget_writes_its_manifest(self, tmp_path):
        # check 8 thins its chi-square samples by the rule `trajectories`
        # uses, which keeps enough of them to bin on a short run
        config = {"sde": {"steps": 3000, "burn_in": 500, "n_trajectories": 16}}
        assert run_cli(["check"], tmp_path, config=config) in (EXIT_OK, EXIT_CHECK)
        manifest = json.loads((tmp_path / "manifest_check.json").read_text())
        assert len(manifest["checks"]) == 11


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"geometry": {"a": 5, "b": 1}}', encoding="utf-8")
        assert main(["spectrum", "--config", str(bad),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_file_that_is_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["spectrum", "--config", str(bad),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_state_outside_window_is_2(self, tmp_path, capsys):
        # nu = |m + lambda| = 59.5 > 50
        assert run_cli(["fields"], tmp_path,
                       config={"state": {"m": 60}}) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "supported window" in err

    @pytest.mark.parametrize("m", [51, -50])
    def test_spectrum_past_the_order_window_is_2(self, tmp_path, capsys, m):
        # the requested state has nu = 50.5 > 50 (rows past it are left out)
        assert run_cli(["spectrum"], tmp_path,
                       config={"state": {"m": m}}) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "supported window" in err

    def test_density_below_floor_is_3(self, tmp_path, capsys):
        # nu = 3.5: rho at the first grid radius, 1e-6 d from the wall,
        # is below the floor decompose divides by
        assert run_cli(["fields"], tmp_path,
                       config={"state": {"m": 4}}) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "density below floor" in err

    @pytest.mark.parametrize("best,bound,text", [
        (2.25, 0.0625, "(best estimate 2.25, error bound 0.0625)"),
        (np.array([1.5, -0.5]), np.array([3e-9, 4e-9]),
         "(best estimate [1.5, -0.5], error bound [3e-09, 4e-09])")])
    def test_nonconvergence_is_3_with_its_estimate(self, tmp_path, capsys,
                                                   monkeypatch, best, bound, text):
        def fail(*args):
            raise NonConvergenceError("integrate_1d: tolerance not met",
                                      best_estimate=best, error_bound=bound)
        monkeypatch.setitem(cli._SUBCOMMANDS, "spectrum", fail)
        assert run_cli(["spectrum"], tmp_path) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert err == ("abtool: numerical non-convergence: integrate_1d: "
                       f"tolerance not met {text}\n")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_directory_is_2(self, tmp_path, capsys, out):
        # --out names an existing file, or a directory below one
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert main(["spectrum", "--out", str(tmp_path / out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("abtool: configuration error:")

    @pytest.mark.parametrize("subcommand,config", [
        ("trajectories", {"sde": {"dt": math.nan}}),
        ("fields", {"constants": {"hbar": math.inf}}),
        ("trajectories", {"constants": {"hbar": math.inf}}),
        ("spectrum", {"geometry": {"B": math.nan}}),
        ("spectrum", {"geometry": {"b": 10 ** 400}}),
        ("spectrum", {"geometry": {"a": 1e-300, "b": 2e-300}}),
        ("fields", {"geometry": {"a": 1e-200, "b": 2e-200}}),
        ("spectrum", {"geometry": {"a": 1e200, "b": 2e200}}),
        ("spectrum", {"geometry": {"a": 1.0, "b": 1.0 + 2.2e-16}}),
        ("spectrum", {"geometry": {"a": 1.0, "b": 1.0 + 1e-14}}),
        ("spectrum", {"state": {"m": 10 ** 400}}),
        ("spectrum", {"state": {"n": 0}}),
        ("spectrum", {"state": {"n": -5}}),
    ])
    def test_unusable_numbers_exit_with_one_line(self, tmp_path, capsys,
                                                 subcommand, config):
        # non-finite config numbers (JSON's NaN and Infinity, or an integer
        # past the float range, for a float or an integer key), a geometry so small that the radial
        # normalization integral underflows to 0, one so large that a^2
        # overflows in the flux parameter, and an annulus so thin that a
        # quadrature node rounds below a
        assert run_cli([subcommand], tmp_path, config=config) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error:")
        # the line names the unusable key, or the geometry it rejects
        block, values = next(iter(config.items()))
        names = (f"a = {values['a']!r}, b = {values['b']!r}" if "a" in values
                 else f"{block}.{next(iter(values))}")
        assert names in err

    @pytest.mark.parametrize("subcommand", ["spectrum", "fields"])
    def test_overflowing_hbar_is_2(self, tmp_path, capsys, subcommand):
        # hbar^2, in the energy and the closed-form quantum potential, is
        # past the float range
        config = {"constants": {"hbar": 1e300}}
        assert run_cli([subcommand], tmp_path, config=config) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error: hbar^2")

    @pytest.mark.parametrize("subcommand", ["spectrum", "fields"])
    def test_overflowing_energy_is_2(self, tmp_path, capsys, subcommand):
        # hbar^2 is finite, but hbar^2 k^2 / 2M is past the float range: no
        # table of inf, no manifest with JSON's Infinity
        config = {"constants": {"hbar": 1.3e154}}
        assert run_cli([subcommand], tmp_path, config=config) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error: the energy")
        assert not (tmp_path / f"manifest_{subcommand}.json").exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_the_key_range_is_2(self, tmp_path, capsys, seed):
        # the --seed override and the sde.seed key exit alike, before a run
        assert main(["trajectories", "--seed", str(seed),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert run_cli(["trajectories"], tmp_path,
                       config={"sde": {"seed": seed}}) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "Traceback" not in err
        assert err == f"abtool: configuration error: seed must be in [0, 2**64), got {seed}\n" * 2

    def test_unallocatable_budget_is_2(self, tmp_path, capsys):
        # 64 trajectories of 1e13 retained steps ask for 9 PiB, which fails
        # at once without allocating anything
        config = {"sde": {"steps": 10_000_000_000_000, "burn_in": 0}}
        assert run_cli(["trajectories"], tmp_path, config=config) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error: cannot allocate")

    def test_unknown_subcommand_is_argparse_error(self, tmp_path, capsys):
        # argparse's usage error exits through main's handler: one line,
        # no usage block
        assert main(["rotate", "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("abtool: ")
        assert "invalid choice: 'rotate'" in err

    @pytest.mark.parametrize("argv,text", [
        ([], "required: subcommand"),
        (["spectrum", "--format", "xml"], "invalid choice: 'xml'"),
        (["spectrum", "--seed", "abc"], "invalid int value: 'abc'"),
        (["spectrum", "a\nb"], "unrecognized arguments: a\\nb"),
    ], ids=["no-subcommand", "format-xml", "seed-abc", "newline-argument"])
    def test_usage_error_is_2_with_one_line(self, tmp_path, capsys, argv, text):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("abtool: ")
        assert text in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: abtool")

    @pytest.mark.parametrize("argv,output", [
        (["spectrum"], "spectrum.csv"),
        (["fields", "--svg"], "fields.svg"),
        (["models"], "manifest_models.json"),
    ], ids=["table", "svg", "manifest"])
    def test_unwritable_output_is_2(self, tmp_path, capsys, argv, output):
        # the table, the chart or the manifest is a directory in --out
        (tmp_path / output).mkdir()
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("abtool: configuration error:") and output in err


class TestManifestDeterminism:
    def test_wall_clock_present_outside_check(self, tmp_path):
        run_cli(["spectrum"], tmp_path)
        manifest = json.loads((tmp_path / "manifest_spectrum.json").read_text())
        assert manifest["wall_clock_seconds"] is not None
