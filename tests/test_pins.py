"""The pin ledgers: their form, their match with the tests' pins, and what a
moved pin reports."""
import json

import numpy as np
import pytest

from abtool import checks, sde
import pins


def moved_values(failure):
    """The names of the values a failed pin lists, in its order, and the
    first value's line."""
    lines = [line.strip() for line in str(failure.value).splitlines()
             if line.startswith("    ")]
    return [line.split(":")[0] for line in lines], lines[0]


def test_ledgers_are_canonical_and_match_the_pins():
    # the writer's form byte for byte, one file per pin set, and one entry
    # per pin: a hand edit, an orphaned file or a pin with no entry fails
    sets = pins.pin_sets()
    assert {path.stem for path in pins.LEDGERS.glob("*.json")} == sets.keys()
    for name, pin_set in sets.items():
        text = pin_set.path.read_text(encoding="utf-8")
        assert text == pins.canonical(json.loads(text)), name
        assert pin_set.ledger.keys() == pin_set.producers.keys(), name


def test_a_one_ulp_step_names_its_trajectory(monkeypatch):
    # trajectory 2 of the (1, 1) seed-11 run takes a step factor one ulp
    # larger, in x, on the 301st kernel call (a one-ulp change on most calls
    # is rounded away before the run's end, as on the 300th)
    kernel_call = sde._SeparableStepKernel.__call__
    calls = []

    def shifted(kernel, z, ok, step):
        kernel_call(kernel, z, ok, step)
        calls.append(None)
        if len(calls) == 301:
            step[2] = complex(np.nextafter(step[2].real, np.inf), step[2].imag)

    monkeypatch.setattr(sde._SeparableStepKernel, "__call__", shifted)
    trajectories = pins.pin_sets()["trajectories"]
    with pytest.raises(AssertionError) as failure:
        trajectories.check("short_run_m1_n1_seed11")
    names, first = moved_values(failure)
    assert names and all(name.startswith("t02.") for name in names)
    assert first.startswith(f"{names[0]}: ") and first.endswith(" ulp)")
    # the ledger's digest, from tests/pins/trajectories.json, is the old side
    assert f"sha256 {trajectories.sha256('short_run_m1_n1_seed11')} -> " \
        in str(failure.value)


def test_a_one_ulp_check_detail_names_its_key_path(monkeypatch):
    # check 8's KS distance, one ulp larger, in the reduced-budget manifest
    check_nelson_sampler = checks.check_nelson_sampler

    def shifted(sde_cfg):
        result = check_nelson_sampler(sde_cfg)
        result.details["ks_distance"] = np.nextafter(result.details["ks_distance"], 1.0)
        return result

    monkeypatch.setattr(checks, "check_nelson_sampler", shifted)
    with pytest.raises(AssertionError) as failure:
        pins.pin_sets()["cli_outputs"].check("manifest_check.json")
    names, first = moved_values(failure)
    assert names == ["checks[7].details.ks_distance"]
    assert first.endswith(", 1 ulp)")


def test_a_report_orders_by_relative_change():
    pin_set = pins.PinSet("planted")
    pin_set.ledger = {"p": {"sha256": "0" * 64, "values": {
        "a": (1.0).hex(), "b": 3, "c": (2.0).hex(), "gone": True}}}
    record = pins.Record("0" * 64, {"a": np.nextafter(1.0, 2.0).item(), "b": 4,
                                    "c": -2.0, "new": 0.5})
    with pytest.raises(AssertionError) as failure:
        pin_set.check("p", record)
    names, _ = moved_values(failure)
    assert names == ["gone", "new", "c", "b", "a"]
    text = str(failure.value)
    assert "sha256" not in text.splitlines()[1]
    assert "c: 2.0 -> -2.0 (relative 2, 9223372036854775808 ulp)" in text
    assert "b: 3 -> 4 (relative 0.333, 1 ulp)" in text
    assert "a: 1.0 -> 1.0000000000000002 (relative 2.22e-16, 1 ulp)" in text


def test_the_writer_counts_what_moved():
    old = {"same": {"sha256": "0", "values": {"x": (1.0).hex()}},
           "moved": {"sha256": "1", "values": {"x": (1.0).hex(), "y": (2.0).hex()}},
           "gone": {"sha256": "2", "values": {}}}
    new = {"same": old["same"],
           "moved": {"sha256": "3", "values": {"x": (1.0).hex(), "y": (2.5).hex()}},
           "new": {"sha256": "4", "values": {}}}
    assert pins.moved_summary("planted", old, new) == (
        "planted: 3 of 3 pins and 1 values moved, largest relative change "
        "0.25 (moved y)")
    assert pins.moved_summary("planted", old, old) == (
        "planted: 0 of 3 pins and 0 values moved")


def test_a_move_off_or_onto_zero_comes_after_every_relative_change():
    # a rounding-level residual leaving 0.0 has no relative change: it is
    # reported by its absolute size after the finite changes, and the
    # writer's largest relative change ignores it
    old = {"p": {"sha256": "0", "values": {
        "residual": (0.0).hex(), "sum": (6.0).hex(), "cleared": (2.0).hex(),
        "mean": (1.0).hex()}}}
    new = {"p": {"sha256": "1", "values": {
        "residual": (1.2e-16).hex(), "sum": (6.5).hex(), "cleared": (0.0).hex(),
        "mean": np.nextafter(1.0, 2.0).hex()}}}
    pin_set = pins.PinSet("planted")
    pin_set.ledger = old
    with pytest.raises(AssertionError) as failure:
        pin_set.check("p", pins.Record("1", {k: float.fromhex(v) for k, v in
                                             new["p"]["values"].items()}))
    names, _ = moved_values(failure)
    assert names == ["sum", "mean", "cleared", "residual"]
    text = str(failure.value)
    assert "residual: 0.0 -> 1.2e-16 (absolute 1.2e-16, " in text
    assert "cleared: 2.0 -> 0.0 (absolute 2, " in text
    assert pins.moved_summary("planted", old, new) == (
        "planted: 1 of 1 pins and 4 values moved, largest relative change "
        "0.0833 (p sum)")
