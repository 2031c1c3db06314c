"""Bit pins and their ledgers.

A pin holds a result to its bits: the SHA-256 of its bytes, compared by
exact equality, with named values beside it, so that a moved pin says what
moved.  The pins of one set share a ledger, `tests/pins/<set>.json`:

    {"<pin>": {"sha256": "<hex>", "values": {"<name>": <value>, ...}}, ...}

Floats are written as `float.hex`, ints and bools as themselves.  A result
too big to list keeps named summaries: each trajectory its rejected count,
aborted flag, last retained position and mean r; an array of more than
LISTED elements its sum, min and max; a table each numeric column (listed or
summarized); a JSON document every numeric leaf by key path.

A test module makes a `PinSet` and adds each pin's producer, a function of
no arguments that runs the pinned computation and returns its `Record`; a
test compares a record with the ledger by `PinSet.check`.  This module is
the only one that turns a result into bytes.  Running it,

    python tests/pins.py

imports every test module, runs every producer and rewrites every ledger,
printing for each how many pins and values moved against the ledger it
replaces and the largest relative change; pytest only reads them.
"""
import csv
import hashlib
import importlib
import json
import math
import struct
import sys
from collections import namedtuple
from functools import cached_property
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LEDGERS = HERE / "pins"
LISTED = 64         # arrays up to this size are listed element by element

Record = namedtuple("Record", "sha256 values")


class PinSet:
    """The pins of the ledger `tests/pins/<name>.json`, by pin name."""

    def __init__(self, name):
        self.name = name
        self.path = LEDGERS / f"{name}.json"
        self.producers = {}

    def add(self, name, produce):
        """Add the pin `name`, whose record `produce()` returns; returns
        `name`."""
        if name in self.producers:
            raise ValueError(f"pin {self.name}/{name} added twice")
        self.producers[name] = produce
        return name

    @cached_property
    def ledger(self):
        if not self.path.exists():
            return {}
        return json.loads(self.path.read_text(encoding="utf-8"))

    def sha256(self, name):
        """The ledger's digest of the pin `name`."""
        return self.ledger.get(name, {}).get("sha256", "unpinned")

    def check(self, name, record=None):
        """Compare `record`, by default the pin's producer's, with the
        ledger: the digest by exact equality, and every named value."""
        if record is None:
            record = self.producers[name]()
        label = f"pin {self.name}/{name}"
        if name not in self.ledger:
            raise AssertionError(f"{label} is not in {self.path.name}; "
                                 "write the ledgers with `python tests/pins.py`")
        entry = self.ledger[name]
        moved = _moved(entry["values"], _encoded(record.values))
        if record.sha256 == entry["sha256"] and not moved:
            return
        lines = [f"{label} moved:"]
        if record.sha256 != entry["sha256"]:
            lines.append(f"  sha256 {entry['sha256']} -> {record.sha256}")
        lines.append(f"  named values moved: {len(moved)}"
                     + (", largest relative change first" if moved else ""))
        lines += [f"    {text}" for _, _, text in moved]
        lines.append("  if the move is meant, rewrite the ledgers with "
                     "`python tests/pins.py` and cite `git diff tests/pins/`")
        raise AssertionError("\n".join(lines))


# ---------------------------------------------------------------------------
# Records: a digest of the result's bytes and its named values.
# ---------------------------------------------------------------------------

def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.asarray(part).tobytes())
    return h.hexdigest()


def _summary(name, part):
    """`part` under `name`: a scalar as itself, an array of up to LISTED
    elements element by element, a larger one by its sum, min and max."""
    a = np.asarray(part)
    if a.ndim == 0:
        return {name: a.item()}
    if a.size <= LISTED:
        width = len(str(a.size - 1))
        return {f"{name}[{i:0{width}d}]": v for i, v in enumerate(a.ravel().tolist())}
    return {f"{name}.sum": a.sum().item(), f"{name}.min": a.min().item(),
            f"{name}.max": a.max().item()}


def arrays(parts):
    """Record of named arrays and scalars, each read by its numpy dtype, in
    the order of `parts`."""
    values = {}
    for name, part in parts.items():
        values.update(_summary(name, part))
    return Record(_digest(parts.values()), values)


def trajectories(out):
    """Record of sampler trajectories: each one's retained positions and
    rejection count (as int64) in turn."""
    values = {}
    for i, t in enumerate(out):
        x, y = t.positions[-1].tolist()
        values.update({f"t{i:02d}.rejected": t.rejected_steps,
                       f"t{i:02d}.aborted": t.aborted,
                       f"t{i:02d}.last_x": x, f"t{i:02d}.last_y": y,
                       f"t{i:02d}.mean_r": t.radii().mean().item()})
    return Record(_digest(p for t in out
                          for p in (t.positions, np.int64(t.rejected_steps))),
                  values)


def step_factors(ok, step):
    """Record of a step kernel's validity `ok` and its complex `step` where
    ok."""
    valid = step[ok]
    return Record(_digest([ok, valid]),
                  {**_summary("ok", ok), **_summary("step.real", valid.real),
                   **_summary("step.imag", valid.imag)})


def _number(cell):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def _leaves(node, path):
    """The numeric leaves of a JSON document by key path."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node} if isinstance(node, (int, float)) else {}
    leaves = {}
    for key, value in items:
        leaves.update(_leaves(value, key))
    return leaves


def output_file(path):
    """Record of a file's bytes: a CSV table by its numeric columns, a JSON
    document by its numeric leaves, anything else by its size."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        header, *rows = csv.reader(data.decode().splitlines())
        values = {}
        for name, cells in zip(header, zip(*rows)):
            column = [_number(cell) for cell in cells]
            if None not in column:
                values.update(_summary(name, column))
    elif path.suffix == ".json":
        values = _leaves(json.loads(data), "")
    else:
        values = {"bytes": len(data)}
    return Record(_digest([data]), values)


# ---------------------------------------------------------------------------
# Ledger values and what moved.
# ---------------------------------------------------------------------------

def _encoded(values):
    """Values as the ledger holds them: floats as float.hex."""
    return {name: v if isinstance(v, (bool, int)) else float(v).hex()
            for name, v in values.items()}


def _ordered(x):
    """The float's place among all floats: neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2 ** 63 - 1))


def _change(name, old, new):
    """(relative change, name, report line) of a value that moved from the
    ledger's `old` to `new`; None is a value one side lacks."""
    if old is None or new is None:
        return math.inf, name, f"{name}: {'added' if old is None else 'removed'}"
    a, b = (float.fromhex(v) if isinstance(v, str) else v for v in (old, new))
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        ulps = abs(_ordered(b) - _ordered(a))
    else:
        ulps = abs(b - a)
    rel = abs(b - a) / abs(a) if a else math.inf
    rel = math.inf if math.isnan(rel) else rel      # NaN would not sort
    return rel, name, f"{name}: {a!r} -> {b!r} (relative {rel:.3g}, {ulps} ulp)"


def _moved(old, new):
    """The `_change` of every value that differs between two ledger value
    maps, largest relative change first."""
    return sorted((_change(n, old.get(n), new.get(n))
                   for n in old.keys() | new.keys() if old.get(n) != new.get(n)),
                  key=lambda c: (-c[0], c[1]))


def canonical(ledger):
    """A ledger's text: sorted keys, indent 1, a final newline."""
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def pin_sets():
    """Every PinSet of the test modules, by name."""
    sets = {}
    for path in sorted(HERE.glob("test_*.py")):
        for obj in vars(importlib.import_module(path.stem)).values():
            if isinstance(obj, PinSet) and sets.setdefault(obj.name, obj) is not obj:
                raise ValueError(f"two pin sets are named {obj.name!r}")
    return sets


def moved_summary(name, old, new):
    """One line on what moved from the ledger `old` to `new`: the pins whose
    digest or values differ, the values that moved and the largest relative
    change among them."""
    pins_moved, values_moved = 0, []
    for pin in old.keys() | new.keys():
        before, after = old.get(pin), new.get(pin)
        if before != after:
            pins_moved += 1
            values_moved += [(rel, f"{pin} {value}") for rel, value, _ in _moved(
                (before or {}).get("values", {}), (after or {}).get("values", {}))]
    line = (f"{name}: {pins_moved} of {len(new)} pins and {len(values_moved)} "
            "values moved")
    if values_moved:
        rel, where = max(values_moved)
        line += f", largest relative change {rel:.3g} ({where})"
    return line


def write_ledgers():
    """Run every producer, write every ledger and print what moved in each
    against the ledger it replaces."""
    LEDGERS.mkdir(exist_ok=True)
    for pin_set in pin_sets().values():
        ledger = {}
        for name, produce in pin_set.producers.items():
            record = produce()
            ledger[name] = {"sha256": record.sha256, "values": _encoded(record.values)}
        print(moved_summary(pin_set.name, pin_set.ledger, ledger))
        pin_set.path.write_text(canonical(ledger), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(1, str(HERE.parent / "src"))
    import pins     # the module the tests import, not this __main__ copy
    pins.write_ledgers()
