"""Configuration parsing, subcommand outputs, manifests and exit codes."""
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from abtool import checks
from abtool.cli import (_DEFAULTS, EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERICS,
                        EXIT_OK, ConfigError, main, parse_config)
from abtool.sde import SdeConfig

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
        assert details["angular_p_value"] == stats["angular_chi2_p_value"]
        assert details["ergodic_Lz"] == stats["ergodic_Lz"]
        assert details["rejection_fraction"] == stats["rejection_fraction"]


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutputs:
    """Output files pinned bit for bit (SHA-256): the four tables at the
    default configuration, and `trajectories.csv` and the check manifest at
    a reduced sampler budget."""

    @pytest.mark.parametrize("subcommand,digest", [
        ("spectrum",
         "51064e35cfb86def8d3490a254ab4f1ca1f39cece2b6928a2d6f12f40c8690f6"),
        ("fields",
         "32b37cd27bc5f964e6b489ac2c7d4a5fd2cfd2037c2c349f9a2eb2c91e83ec1a"),
        ("packets",
         "02db56a4ebd60998b9a0f13fa021d9e915e9d73ab070ded93ec8f51449629200"),
        ("models",
         "bb168cc069ddb80d5c38a10eed94f442607211a3cb6ff227371521fbab2129ff"),
    ])
    def test_default_tables(self, tmp_path, subcommand, digest):
        assert run_cli([subcommand], tmp_path) == EXIT_OK
        assert sha256_of(tmp_path / f"{subcommand}.csv") == digest

    @pytest.mark.parametrize("subcommand,output,digest", [
        ("trajectories", "trajectories.csv",
         "4df3e93e64dc558c3273818fca144c91c1e42386e2e77f1bdb490565e986f7d0"),
        ("check", "manifest_check.json",
         "6d7107b62ce85b00c1665f19c907aaa540479f1c54b406eaf07ecbf679b541e6"),
    ])
    def test_reduced_sampler_budget(self, tmp_path, subcommand, output, digest):
        config = {"sde": {"steps": 3000, "burn_in": 500, "n_trajectories": 16}}
        assert run_cli([subcommand], tmp_path, config=config) in (EXIT_OK,
                                                                  EXIT_CHECK)
        assert sha256_of(tmp_path / output) == digest


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

    @pytest.mark.parametrize("m", [50, 51])
    def test_spectrum_past_the_order_window_is_2(self, tmp_path, capsys, m):
        # the spectrum's m = -50 row has nu = 50.5 > 50 (and m = 51 has 50.5)
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
    ])
    def test_unusable_numbers_exit_with_one_line(self, tmp_path, capsys,
                                                 subcommand, config):
        # non-finite config numbers (JSON's NaN and Infinity, or an integer
        # past the float range), a geometry so small that the radial
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

    def test_unknown_subcommand_is_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rotate", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestManifestDeterminism:
    def test_wall_clock_present_outside_check(self, tmp_path):
        run_cli(["spectrum"], tmp_path)
        manifest = json.loads((tmp_path / "manifest_spectrum.json").read_text())
        assert manifest["wall_clock_seconds"] is not None
