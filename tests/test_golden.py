"""Golden corpus: the CLI outputs on small fixed inputs, compared file by file.

Text fields must match exactly; floats must agree within 1e-12 relative, with
a 1e-14 absolute floor for round-off-level values such as residuals and gaps.
The corpus in ``tests/golden/`` was produced from the repository root with

    PYTHONPATH=src python -m aufwalk.cli walk demos/config.example.json --radius 6 --out tests/golden/walk
    PYTHONPATH=src python -m aufwalk.cli boundary demos/config.example.json --radius 6 --out tests/golden/boundary
    PYTHONPATH=src python -m aufwalk.cli intertwiner demos/config.example.json --radius 6 --out tests/golden/intertwiner
    PYTHONPATH=src python -m aufwalk.cli audit demos/config.example.json --radius 6 --out tests/golden/audit > tests/golden/audit/stdout.txt
    PYTHONPATH=src python -m aufwalk.cli boundary tests/golden/two_rays.json --out tests/golden/boundary_two_rays
    PYTHONPATH=src python -m aufwalk.cli walk tests/golden/range2.json --out tests/golden/walk_range2
    PYTHONPATH=src python -m aufwalk.cli boundary tests/golden/range2.json --out tests/golden/boundary_range2
    PYTHONPATH=src python -m aufwalk.cli audit tests/golden/range2.json --out tests/golden/audit_range2 > tests/golden/audit_range2/stdout.txt
    PYTHONPATH=src python -m aufwalk.cli boundary tests/golden/n3.json --out tests/golden/boundary_n3
    PYTHONPATH=src python -m aufwalk.cli intertwiner tests/golden/n3.json --out tests/golden/intertwiner_n3

Both ``audit`` runs exit 1 (``perturbation_rate`` fails); every other run
exits 0.  ``two_rays.json`` adds a second ray and boundary sources outside the
branch, which cover the classical-only rows of ``boundary``.  ``range2.json``
is the one range-2 measure, {a: .3, b: .3, aa: .2, bb: .2}, with the ray
(ab)^k a: its classical Martin gaps along the ray (0.166, then 5.1e-4) are
above round-off.  ``n3.json`` is the one model past n = 2, {n: 3, q: 0.3} at
tensorCap 6: its 127 projection ranks pin ``words.classical_dim`` at n = 3,
and its K_Q, equal to the n = 2 values up to round-off, pins the n = 3 ones.
Its ``audit`` would exit 3 (the defect words need cap 7), so it has none.
"""

import json
import math
import re
from pathlib import Path

import pytest

from aufwalk.cli import EXIT_AUDIT, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLE = str(ROOT / "demos" / "config.example.json")
REL_TOL = 1e-12
ABS_FLOOR = 1e-14

RUNS = {
    "walk": (["walk", EXAMPLE, "--radius", "6"], EXIT_OK),
    "boundary": (["boundary", EXAMPLE, "--radius", "6"], EXIT_OK),
    "intertwiner": (["intertwiner", EXAMPLE, "--radius", "6"], EXIT_OK),
    "audit": (["audit", EXAMPLE, "--radius", "6"], EXIT_AUDIT),
    "boundary_two_rays": (["boundary", str(GOLDEN / "two_rays.json")], EXIT_OK),
    "walk_range2": (["walk", str(GOLDEN / "range2.json")], EXIT_OK),
    "boundary_range2": (["boundary", str(GOLDEN / "range2.json")], EXIT_OK),
    "audit_range2": (["audit", str(GOLDEN / "range2.json")], EXIT_AUDIT),
    "boundary_n3": (["boundary", str(GOLDEN / "n3.json")], EXIT_OK),
    "intertwiner_n3": (["intertwiner", str(GOLDEN / "n3.json")], EXIT_OK),
}


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _same_float(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def _same_cell(got: str, want: str) -> bool:
    fg, fw = _as_float(got), _as_float(want)
    if fg is None or fw is None:
        return got == want
    return _same_float(fg, fw)


def _same_json(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_json(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same_json(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return _same_float(float(got), want)
    return type(got) is type(want) and got == want


def _assert_same_text(name: str, got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: {len(got_lines)} lines, want {len(want_lines)}"
    for no, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        # CSV cells, or the key=value fields of the audit summary
        gc, wc = re.split(r"[,=\s]", g), re.split(r"[,=\s]", w)
        same = len(gc) == len(wc) and all(_same_cell(a, b) for a, b in zip(gc, wc))
        assert same, f"{name}:{no}: {g!r} != {w!r}"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden(run, tmp_path, capsys):
    argv, want_exit = RUNS[run]
    out = tmp_path / run
    assert main(argv + ["--out", str(out)]) == want_exit
    stdout = capsys.readouterr().out
    expected = sorted(p.name for p in (GOLDEN / run).iterdir())
    if "stdout.txt" in expected:
        (out / "stdout.txt").write_text(stdout)
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        got = (out / name).read_text()
        want = (GOLDEN / run / name).read_text()
        if name.endswith(".json"):
            assert _same_json(json.loads(got), json.loads(want)), f"{run}/{name} differs"
        else:
            _assert_same_text(f"{run}/{name}", got, want)
