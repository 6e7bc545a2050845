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
import subprocess
import sys
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


def _assert_matches_golden(run: str, out: Path, stdout: str) -> None:
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


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden(run, tmp_path, capsys):
    argv, want_exit = RUNS[run]
    out = tmp_path / run
    assert main(argv + ["--out", str(out)]) == want_exit
    _assert_matches_golden(run, out, capsys.readouterr().out)


# prints the names of the modules loaded when the command returns, as the last line of stdout
LOADED_AT_EXIT = (
    "import json, sys\n"
    "from aufwalk.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
# the parts of scipy that only SuperLU would load: scipy.sparse (a range-1 walk's weights are numpy
# CSR arrays), and scipy.linalg, which brings scipy's own BLAS
UNLOADED = ("scipy.linalg", "scipy.sparse")


def _run_child(argv: list[str]) -> tuple[int, str, list[str]]:
    """Exit code, stdout less its last line, and the modules a fresh
    interpreter holds after running the CLI on argv."""
    run = subprocess.run([sys.executable, "-c", LOADED_AT_EXIT, *argv], capture_output=True, text=True, cwd=ROOT)
    stdout, _, last = run.stdout.rstrip("\n").rpartition("\n")
    return run.returncode, stdout + "\n" if stdout else "", json.loads(last)


def _scipy_parts(modules: list[str]) -> list[str]:
    return [m for m in modules if any(m == name or m.startswith(name + ".") for name in UNLOADED)]


class TestScipyImports:
    """A range-1 run loads numpy and the bare scipy package, and no module of
    scipy.sparse or scipy.linalg: its weights are numpy CSR arrays, its walks
    take the level sweeps, and the graph searches run on the CSR pattern.  A
    range-2 walk loads SuperLU at its first factorisation."""

    @pytest.mark.parametrize("argv, want_exit", [
        (["walk", EXAMPLE, "--radius", "11"], EXIT_OK),  # the full table
        (["walk", EXAMPLE, "--radius", "12"], EXIT_OK),  # the rows solve
        (["audit", EXAMPLE], EXIT_AUDIT),
        (["boundary", EXAMPLE], EXIT_OK),
        (["intertwiner", EXAMPLE], EXIT_OK),
    ], ids=["walk11", "walk12", "audit", "boundary", "intertwiner"])
    def test_a_range_one_run_loads_no_scipy_linalg(self, argv, want_exit, tmp_path):
        code, _, modules = _run_child(argv + ["--out", str(tmp_path)])
        assert code == want_exit
        assert {"numpy", "scipy"} <= set(modules)
        assert _scipy_parts(modules) == []

    def test_a_range_two_walk_loads_superlu_and_matches_golden(self, tmp_path):
        argv, want_exit = RUNS["walk_range2"]
        code, stdout, modules = _run_child(argv + ["--out", str(tmp_path)])
        assert code == want_exit
        assert "scipy.sparse.linalg" in modules
        _assert_matches_golden("walk_range2", tmp_path, stdout)
