"""The benchmark's workloads: inputs drawn from a seed, and output checks.

Every workload runs one ``aufwalk`` CLI command on ``demos/config.example.json``
(q = 0.5, measure support {a, b}).  The seed draws the weight of ``a`` from a
grid on [0.3, 0.7] without 0.5, and the emitted ``sources`` (two distinct
words of length <= 2); neither changes the work size or the expected verdicts.

Checks compare the outputs against ``reference.json`` (regenerate it with
``make_reference.py``) at the relative tolerance stored there.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
EXAMPLE_CONFIG = Path("demos") / "config.example.json"

# The symmetric weight 0.5 is left out: there the dense power iteration in
# kernels.weighted_operator_norm converges in about 70 steps, while at every
# other weight of the grid it runs to its 600-step cap, which makes walk-dense
# about 1.7x slower.  Seeds must not change the work size.
WEIGHTS = tuple(round(0.30 + 0.05 * k, 2) for k in range(9) if k != 4)
SHORT_WORDS = ("e", "a", "b", "aa", "ab", "ba", "bb")
SOURCES_PER_RUN = 2
# targets at which walk outputs are checked; those longer than the radius are skipped
TARGETS = ("e", "a", "b", "ba", "aab", "abab", "bbbbbb", "abababab", "aaaaaaaaaaa")
AUDIT_EXPECTED_FAILURES = ["perturbation_rate"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    full: dict
    smoke: dict

    def sizes(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walk-dense", "walk",
            "walk at radius 11 (4095 words): dense green_table path, full LU, dense power norm",
            full={"radius": 11}, smoke={"radius": 6},
        ),
        Workload(
            "walk-sparse", "walk",
            "walk at radius 16 (131071 words): per-word tree stack, sparse row solves, 18 MB CSV",
            full={"radius": 16}, smoke={"radius": 12},
        ),
        Workload(
            "audit", "audit",
            "audit on the example config: every module, O(n^2) Harnack scans, q_matrix rebuilt",
            full={}, smoke={"ballRadius": 6, "tensorCap": 8},
        ),
        Workload(
            "branch", "boundary",
            "boundary at tensor cap 12, ball 9: intertwiner stack cold, 1020 coefficients",
            full={"ballRadius": 9, "tensorCap": 12}, smoke={"ballRadius": 6, "tensorCap": 8},
        ),
    )
}


def draw_inputs(seed: int) -> tuple[float, list[str]]:
    """Weight of ``a`` and the emitted sources for a seed."""
    rng = random.Random(seed)
    return rng.choice(WEIGHTS), rng.sample(SHORT_WORDS, SOURCES_PER_RUN)


def build_config(root: Path, workload: Workload, smoke: bool, weight: float,
                 sources: list[str], out_dir: Path) -> tuple[dict, list[str]]:
    """The run configuration and the CLI arguments after the config path.

    The output directory goes on the command line only: the config, and so
    the ``configHash`` in the outputs, must not depend on where a run writes.
    """
    cfg = json.loads((root / EXAMPLE_CONFIG).read_text())
    cfg["measure"] = {"a": weight, "b": round(1.0 - weight, 2)}
    cfg["sources"] = list(sources)
    cfg.pop("qhatCache", None)  # a persistent cache would carry work across runs
    sizes = workload.sizes(smoke)
    for key in ("ballRadius", "tensorCap"):
        if key in sizes:
            cfg[key] = sizes[key]
    extra = ["--out", str(out_dir)]
    if "radius" in sizes:
        extra += ["--radius", str(sizes["radius"])]
    return cfg, extra


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_key(workload: Workload, smoke: bool, weight: float) -> str:
    return f"{workload.name}/{'smoke' if smoke else 'full'}/{weight:.2f}"


# -- reading outputs ---------------------------------------------------------


def word_length(word: str) -> int:
    return 0 if word == "e" else len(word)


def ball_index(word: str) -> int:
    """Position of a word in words.ball order (length, then a < b)."""
    w = "" if word == "e" else word
    bits = 0
    for c in w:
        bits = 2 * bits + (c == "b")
    return (1 << len(w)) - 1 + bits


def walk_values(out_dir: Path, radius: int, sources: list[str]) -> dict:
    """G and K at the reference targets, by source, from green_martin.csv."""
    lines = (out_dir / "green_martin.csv").read_text().splitlines()
    size = (1 << (radius + 1)) - 1
    if len(lines) != 1 + len(sources) * size:
        raise CheckError(f"green_martin.csv has {len(lines) - 1} rows, want {len(sources) * size}")
    out = {}
    for si, s in enumerate(sources):
        g, k = [], []
        for t in TARGETS:
            if word_length(t) > radius:
                continue
            row = lines[1 + si * size + ball_index(t)].split(",")
            if row[0] != s or row[1] != t:
                raise CheckError(f"row for ({s}, {t}) reads ({row[0]}, {row[1]})")
            g.append(float(row[2]))
            k.append(float(row[3]))
        out[s] = {"G": g, "K": k}
    return out


def boundary_rows(out_dir: Path) -> list[list]:
    lines = (out_dir / "boundary_ray0.csv").read_text().splitlines()
    rows = []
    for line in lines[1:]:
        s, n, t, k_p, k_q, ratio = line.split(",")[:6]
        rows.append([s, int(n), t, float(k_p), float(k_q), float(ratio)])
    return rows


# -- checks ------------------------------------------------------------------


class CheckError(Exception):
    """An output of the program is wrong."""


def _close(got: float, want: float, rtol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rtol * abs(want)


def _compare(label: str, got: list[float], want: list[float], rtol: float) -> None:
    if len(got) != len(want):
        raise CheckError(f"{label}: {len(got)} values, want {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, rtol):
            raise CheckError(f"{label}[{i}] = {g!r}, reference {w!r} (rtol {rtol})")


def check_outputs(workload: Workload, smoke: bool, weight: float, sources: list[str],
                  cfg: dict, exit_code: int, out_dir: Path, reference: dict) -> None:
    """Raise CheckError unless the run's exit code and outputs are right."""
    rtol = reference["rtol"]
    want_exit = 1 if workload.command == "audit" else 0
    if exit_code != want_exit:
        raise CheckError(f"exit code {exit_code}, want {want_exit}")
    if workload.command == "audit":
        report = json.loads((out_dir / "audit_report.json").read_text())
        failing = [e["name"] for e in report["audits"] if not e["pass"]]
        if failing != AUDIT_EXPECTED_FAILURES or report["overallPass"]:
            raise CheckError(f"failing audits {failing}, want {AUDIT_EXPECTED_FAILURES}")
        return
    want = reference[reference_key(workload, smoke, weight)]
    if workload.command == "walk":
        radius = workload.sizes(smoke)["radius"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        tol = cfg["tolerances"]["solver"]
        if not manifest["solverResidual"] <= tol:
            raise CheckError(f"solverResidual {manifest['solverResidual']} above {tol}")
        got = walk_values(out_dir, radius, sources)
        for s in sources:
            for col in ("G", "K"):
                _compare(f"{col}({s}, .)", got[s][col], want[s][col], rtol)
        return
    got = boundary_rows(out_dir)
    if [r[:3] for r in got] != [r[:3] for r in want]:
        raise CheckError("boundary_ray0.csv rows differ from the reference in (s, n, t)")
    for col, name in ((3, "K_P"), (4, "K_Q"), (5, "ratio")):
        _compare(name, [r[col] for r in got], [r[col] for r in want], rtol)
