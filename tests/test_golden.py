"""The committed golden artifacts, rebuilt in process.

Each artifact of ``tests/golden/`` (see ``tests/golden/regenerate.py``) is
rebuilt and compared field by field: keys, strings, booleans and integers
always exactly, and a CSV row by its fields.  Floats are compared bit for
bit when ``tests/golden/fingerprint.json`` (numpy and SciPy versions,
``platform.machine()`` and numpy's enabled CPU features) matches the running
machine; another numpy, SciPy or SIMD path may round otherwise, so there
only the non-float fields are compared, and the test warns which fields of
the fingerprint differ.  A differing float is reported with its distance in
ulps.  A change that moves these outputs on purpose regenerates them and
records the diff in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
import struct
import warnings
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _ordinal(x: float) -> int:
    """x's place on the line of doubles, so that neighbours differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def diffs(golden, rebuilt, floats: bool, path: str = "$") -> list:
    """Differing fields of two parsed artifacts; floats only if ``floats``."""
    if isinstance(golden, dict) and isinstance(rebuilt, dict):
        if sorted(golden) != sorted(rebuilt):
            return [f"{path}: keys {sorted(golden)} != {sorted(rebuilt)}"]
        return [d for k in golden for d in diffs(golden[k], rebuilt[k], floats, f"{path}.{k}")]
    if isinstance(golden, list) and isinstance(rebuilt, list):
        if len(golden) != len(rebuilt):
            return [f"{path}: length {len(golden)} != {len(rebuilt)}"]
        return [
            d for i, (g, r) in enumerate(zip(golden, rebuilt)) for d in diffs(g, r, floats, f"{path}[{i}]")
        ]
    if type(golden) is float and type(rebuilt) is float:
        if not floats or struct.pack("<d", golden) == struct.pack("<d", rebuilt):
            return []
        ulps = abs(_ordinal(golden) - _ordinal(rebuilt))
        return [f"{path}: {golden!r} != {rebuilt!r} ({ulps} ulps)"]
    if type(golden) is not type(rebuilt) or golden != rebuilt:
        return [f"{path}: {golden!r} != {rebuilt!r}"]
    return []


def _csv_field(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[_csv_field(f) for f in line.split(",")] for line in text.splitlines()]


def fingerprint_mismatch() -> list:
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    here = regenerate.fingerprint()
    return [key for key in sorted(recorded.keys() | here.keys()) if recorded.get(key) != here.get(key)]


@pytest.mark.parametrize("name", sorted(regenerate.ARTIFACTS))
def test_golden_artifact(name):
    mismatch = fingerprint_mismatch()
    golden = parse(name, (GOLDEN / name).read_text())
    rebuilt = parse(name, regenerate.ARTIFACTS[name]())
    found = diffs(golden, rebuilt, floats=not mismatch)
    floats = f"floats not compared, fingerprint differs in {mismatch}" if mismatch else "bit for bit"
    assert not found, f"{name} ({floats}):\n" + "\n".join(found[:40])
    if mismatch:
        warnings.warn(f"{name}: {floats}")


def test_diffs_compare_by_kind():
    golden = {"n": 1, "x": 0.1, "s": "x", "b": True, "z": -0.0}
    assert diffs(golden, dict(golden), True) == []
    # signed zeros differ bit for bit, at 0 ulps
    assert diffs(golden, {**golden, "z": 0.0}, True) == ["$.z: -0.0 != 0.0 (0 ulps)"]
    near = {**golden, "x": 0.1 + 2**-56}
    assert diffs(golden, near, True) == [f"$.x: 0.1 != {near['x']!r} (1 ulps)"]
    assert diffs(golden, near, False) == []
    # integers, strings and booleans stay exact without floats, and so do kinds
    for key, other in (("n", 2), ("s", "y"), ("b", False), ("n", 1.0), ("b", 1)):
        assert diffs(golden, {**golden, key: other}, False)
    assert diffs([1, 2], [1], False) == ["$: length 2 != 1"]
