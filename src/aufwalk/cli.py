"""Command line driver: walk | audit | boundary | intertwiner.

One JSON config file, documented in the README, plus --radius (its
ballRadius, in the run and in the config hash) and --out DIR (default
out).  Exit codes: 0 pass, 1 audit failure, 2 config
error, 3 resource cap, 4 internal error (a failed solve residual, norm or
range assertion, arithmetic fault or exhausted memory; one line on stderr,
no traceback).  Reruns with the same config produce byte-identical
files: floats are emitted with 17 significant digits and JSON keys sorted.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from operator import eq, ge, gt, le, lt
from pathlib import Path

import numpy as np
# the bare package only (about 3 ms; no scipy.sparse): perfbench/child.py reads
# sys.modules["scipy"].__version__ right after importing this module
import scipy  # noqa: F401

from . import fusion, kernels, perturbed, words
from .fusion import Measure
from .intertwiners import (
    Intertwiner,
    IntertwinerEngine,
    ModelConfig,
    TensorCapError,
    vtilde_norm_indecomposable,
)
from .words import RadiusCapError, format_word, indecomposable_factors, involution, parse_word

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """A loaded config; load_config builds it and holds every default."""

    model: ModelConfig
    measure: Measure
    ball_radius: int
    branch_z: str
    rays: list[tuple[str, str]]
    sources: list[str]
    boundary_sources: list[str] | None
    solver_tol: float
    raw: dict

    @property
    def q(self) -> float:
        return self.model.q

    def config_hash(self) -> str:
        """The hash of the config as run (raw holds --radius as ballRadius)."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def branch_radius(self) -> int:
        """The branch truncation radius: min(ballRadius, tensorCap - 2 len(branchZ) - range)."""
        reach = max(len(r) for r in self.measure.support)
        return min(self.ball_radius, self.model.tensor_cap - 2 * len(self.branch_z) - reach)


#: the keys a config may hold, at the top level and in its two nested objects
CONFIG_KEYS = {
    "": ("model", "measure", "ballRadius", "tensorCap", "branchZ", "rays", "sources",
         "boundarySources", "tolerances"),
    "model.": ("n", "q", "fDiag"),
    "tolerances.": ("solver",),
}

_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object"}


def _checked(value, name: str, kind):
    """The value checked against one JSON type; a number accepts integers
    but no NaN or infinity, and booleans are neither."""
    allowed = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, allowed)
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _typed(raw: dict, key: str, kind, default=None):
    """raw[key], or the default when absent, checked against one JSON type."""
    return _checked(raw.get(key, default), key, kind)


def _words(items: list, name: str) -> list[str]:
    """A list of serialized words."""
    return [parse_word(_checked(w, f"each entry of {name}", str)) for w in items]


def load_config(path: str, radius=None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if radius is not None:
        # --radius stands for ballRadius, in the run and in its hash
        raw = {**raw, "ballRadius": radius}
    model_raw = _typed(raw, "model", dict, {})
    tolerances = _typed(raw, "tolerances", dict, {})
    unknown = [
        prefix + key
        for prefix, obj in (("", raw), ("model.", model_raw), ("tolerances.", tolerances))
        for key in obj
        if key not in CONFIG_KEYS[prefix]
    ]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    n = _typed(model_raw, "n", int, 2)
    cap = _typed(raw, "tensorCap", int, 10)
    if "fDiag" in model_raw and "q" in model_raw:
        raise ConfigError("model takes q or fDiag, not both")
    if "fDiag" in model_raw:
        f_diag = tuple(_checked(f, "each entry of fDiag", float) for f in _typed(model_raw, "fDiag", list))
        model = ModelConfig.from_f_diag(f_diag, n=n, tensor_cap=cap)
    elif "q" in model_raw:
        model = ModelConfig.from_q(_typed(model_raw, "q", float), n=n, tensor_cap=cap)
    else:
        raise ConfigError("model must provide q or fDiag")
    measure_raw = raw.get("measure")
    if not isinstance(measure_raw, dict) or not measure_raw:
        raise ConfigError("measure must be a nonempty object of word: weight pairs")
    measure = Measure({parse_word(k): _checked(v, f"weight of {k}", float) for k, v in measure_raw.items()})
    rays = []
    for ray in _typed(raw, "rays", list, [["e", "a"]]):
        if not isinstance(ray, list) or len(ray) != 2:
            raise ConfigError(f"each ray must be a [preperiod, period] pair, got {json.dumps(ray)}")
        pre, per = _words(ray, "rays")
        if not per:
            raise ConfigError(f"rays must have nonempty periods, got {json.dumps(ray)}")
        rays.append((pre, per))
    if not rays:
        raise ConfigError("rays must hold at least one [preperiod, period] pair")
    if raw.get("boundarySources") == []:
        raise ConfigError("boundarySources must hold at least one boundary source")
    cfg = RunConfig(
        model=model,
        measure=measure,
        ball_radius=_typed(raw, "ballRadius", int, 8),
        branch_z=parse_word(_typed(raw, "branchZ", str, "a")),
        rays=rays,
        sources=_words(_typed(raw, "sources", list, ["e"]), "sources"),
        boundary_sources=_words(_typed(raw, "boundarySources", list), "boundarySources")
        if "boundarySources" in raw
        else None,
        solver_tol=_typed(tolerances, "solver", float, 1e-10),
        raw=raw,
    )
    if not cfg.branch_z:
        raise ConfigError("branchZ must be a nonempty word")
    if cfg.ball_radius < 0:
        raise ConfigError("ballRadius must be nonnegative")
    if not cfg.solver_tol > 0.0:
        raise ConfigError("tolerances.solver must be positive")
    # the largest quantum dimension on a ball is [2]_q^R; its square weights the solver (no ball is past the cap)
    radius = min(cfg.ball_radius, words.BALL_RADIUS_CAP)
    if 2 * radius * math.log(cfg.q + 1.0 / cfg.q) >= math.log(sys.float_info.max):
        raise ConfigError(f"qdim^2 overflows a float on the ball of radius {radius} at q = {cfg.q!r}")
    return cfg


#: rows gathered into each byte array that write_csv writes
CSV_BLOCK_ROWS = 8192


class WordColumn:
    """A CSV column of the serialized words with the given heap indices,
    rendered once however many sections print it."""

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    @functools.cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The letters of each distinct word and each row's index into them."""
        unique, index = np.unique(self.codes, return_inverse=True)
        return words.format_words(unique), index.astype(np.min_scalar_type(len(unique)))


def _column_table(column) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 text of each distinct value of a CSV column, as the rows of
    a NUL-padded uint8 array, and each row's index into them (in the
    narrowest unsigned type, as the section holds it while it is written);
    a text holding NUL raises ValueError, since the padding could not be
    told from it."""
    if isinstance(column, WordColumn):
        return column.table
    array = np.asarray(column)
    if array.dtype.kind == "U" and not isinstance(column, np.ndarray):
        # numpy's str type drops a trailing NUL, which must raise, not vanish
        array = np.array(column, dtype=object)
    if array.dtype.kind == "f":
        # keyed on bit patterns, so 0.0 and -0.0 stay apart; exact for
        # narrower floats, whose %.17g went through a Python float
        bits, index = np.unique(array.astype(np.float64, copy=False).view(np.uint64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        text = ("%.17g\0" * len(values)) % tuple(values)
    else:
        unique, index = np.unique(array, return_inverse=True)
        values = unique.tolist()
        text = "".join(f"{v}\0" for v in values)
    cells = text.encode().split(b"\0")[:-1]
    if len(cells) != len(values):
        raise ValueError("a CSV cell holds a NUL character")
    table = np.array(cells, dtype=bytes)
    return table.view(np.uint8).reshape(len(cells), table.itemsize), index.astype(np.min_scalar_type(len(cells)))


@contextlib.contextmanager
def _output(path: Path):
    """The file at path opened for writing bytes, its directory made first;
    an OSError on the way is a ConfigError that names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            yield f
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_csv(path: Path, header: list[str], sections) -> None:
    """Write a CSV file from sections of rows, one after another, each a
    list of whole columns of equal length; a generator of sections builds
    each one only when it is written.

    A column that numpy reads as floating point prints each value with
    ``%.17g``, which gives the bytes of ``f"{x:.17g}"`` (nan, inf, -0 and
    subnormals included); a WordColumn prints its words and every other
    column prints with ``str``.  Each column of a section is a table of the
    UTF-8 text of each distinct value (bit pattern, for floats: every NaN
    prints ``nan``) and each row's index into it.  A block of rows at a time
    is gathered from the tables into one byte array, beside the commas and
    newlines, and written without the tables' NUL padding; so a ``str``
    cell holding NUL raises ValueError.
    """
    with _output(path) as f:
        f.write((",".join(header) + "\n").encode())
        for columns in sections:
            tables = [_column_table(c) for c in columns]
            # each column's text, then its comma (the last one's newline)
            ends = np.cumsum([table.shape[1] + 1 for table, _ in tables])
            rows = len(tables[0][1])
            block = np.empty((min(rows, CSV_BLOCK_ROWS), ends[-1]), dtype=np.uint8)
            block[:, ends - 1] = ord(",")
            block[:, -1] = ord("\n")
            for start in range(0, rows, CSV_BLOCK_ROWS):
                part = block[: min(rows - start, CSV_BLOCK_ROWS)]
                for (table, index), end in zip(tables, ends):
                    texts = np.take(table, index[start: start + len(part)], axis=0)
                    part[:, end - 1 - table.shape[1]: end - 1] = texts
                f.write(part[part != 0])


def write_json(path: Path, payload) -> None:
    with _output(path) as f:
        f.write((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def build_walk(cfg: RunConfig, radius: int) -> fusion.TransitionMatrix:
    """The configured walk on the ball of the given radius; a measure that
    does not generate an irreducible walk is a config error."""
    walk = fusion.transition_matrix(cfg.measure, words.ball(radius), cfg.q)
    if not fusion.is_generating(walk):
        raise ConfigError("measure is not generating; the kernels need an irreducible walk")
    return walk


def _interior(cfg: RunConfig, tm) -> np.ndarray:
    """The mask of the ball's words farther than the range from its frontier."""
    return words.code_lengths(tm.codes) < cfg.ball_radius - tm.range_bound


def _interior_row_gap(cfg: RunConfig, tm) -> float:
    """The largest |row sum - 1| over the interior words (0.0 when there are none)."""
    return float(np.abs(tm.row_sums()[_interior(cfg, tm)] - 1.0).max(initial=0.0))


def cmd_walk(cfg: RunConfig, out: Path) -> int:
    tm = build_walk(cfg, cfg.ball_radius)
    for s in cfg.sources:
        if len(s) > cfg.ball_radius:
            raise ConfigError(f"source {s!r} outside the ball")
    sources = words.heap_indices(cfg.sources)
    table = (kernels.green_table(tm, solver_tol=cfg.solver_tol) if tm.size <= kernels.DENSE_LIMIT
             else kernels.green_rows(tm, sources, solver_tol=cfg.solver_tol))
    # every source's Martin row divides by the same G(e, t): the first one
    # fails a walk with a zero there before any file is written
    kernels.martin_rows(table, sources[:1], tm.codes)
    delta0, k_steps = _irreducibility(cfg, tm)
    # one section per source, built as it is written: its Green, Martin and
    # bound rows beside the ball's words, which every section shares
    targets = WordColumn(tm.codes)
    write_csv(out / "green_martin.csv", ["s", "t", "G", "K", "truncationBound"], (
        [
            WordColumn(np.broadcast_to(s, tm.size)),
            targets,
            table.source_rows([s])[0],
            kernels.martin_rows(table, [s], tm.codes)[0],
            kernels.truncation_error_bound(cfg.ball_radius, s, tm.codes, tm),
        ]
        for s in sources.tolist()
    ))
    manifest = {
        "configHash": cfg.config_hash(),
        "q": cfg.q,
        "n": cfg.model.n,
        "ballRadius": cfg.ball_radius,
        "domainSize": tm.size,
        "rangeBound": tm.range_bound,
        "normBound": tm.norm_bound,
        "normInterval": list(table.norm_interval),
        "delta0": delta0,
        "kSteps": k_steps,
        "solverResidual": table.residual,
        "greenErrorBound": table.error_bound,
        "interiorRowSumGap": _interior_row_gap(cfg, tm),
    }
    write_json(out / "manifest.json", manifest)
    return EXIT_OK


def _irreducibility(cfg: RunConfig, tm) -> tuple[float, int]:
    # the witness scan needs a chain margin inside the ball; on large balls
    # it runs on a sub-ball (the constants are translation-stable)
    if cfg.ball_radius <= tm.range_bound * 2 + 1:
        return float(tm.matrix.data.min()) if tm.matrix.nnz else 0.0, 1
    radius = cfg.ball_radius
    scan = tm
    if tm.size > 1500:
        radius = min(cfg.ball_radius, 8)
        scan = tm.restrict(words.ball(radius))
    k_max = 8
    while k_max * scan.range_bound >= radius and k_max > 1:
        k_max -= 1
    delta0, k = fusion.uniform_irreducibility_constants(scan, k_max=k_max)
    data = tm.matrix.data
    return min(delta0, float(data[data > 0].min())), k


def boundary_sources(cfg: RunConfig, radius: int) -> list[str]:
    """The configured boundary sources, by default per^k z for the period
    of ray 0, k < min(5, radius - 2), as long as per^k z fits in the ball of
    the branch radius; a configured source outside that ball, or no default
    source (a branch radius below 3), is a config error."""
    sources = cfg.boundary_sources
    if sources is None:
        per, z = cfg.rays[0][1], cfg.branch_z
        sources = [per * k + z for k in range(min(5, radius - 2)) if k * len(per) + len(z) <= radius]
        if not sources:
            raise ConfigError(f"no default boundary source fits the branch radius {radius}; set boundarySources")
    for s in sources:
        if len(s) > radius:
            raise ConfigError(f"boundary source {s!r} outside the ball of the branch radius {radius}")
    return sources


def branch_kernels(cfg: RunConfig, tm, ctx, rays):
    """The classical walk against the perturbed branch walk on matched
    truncations: the ball of the branch radius for the classical Green rows
    (sources and root), the truncated branch for the perturbed walk and table.

    Returns the perturbed walk, the sources inside and outside the branch,
    and for each ray its words t_1..t_N, the classical Martin kernel K_P(s, t_n)
    of the sources inside and then outside, and the perturbed K_Q(s, t_n) =
    G_Q(s, t_n) / G_P(e, t_n) of the sources inside (rows by source, columns
    along the ray).  Sources and ray words are heap indices.
    """
    depth = ctx.radius - 1
    sources = words.heap_indices(boundary_sources(cfg, ctx.radius))
    full = kernels.green_rows(tm.restrict(words.ball(ctx.radius)), sources, solver_tol=cfg.solver_tol)
    q_walk, q_table = perturbed.green_Q(ctx, solver_tol=cfg.solver_tol)
    # every source lies in the ball of the branch radius, so in the branch iff it ends in z
    in_branch = words.ends_with(sources, words.heap_index(cfg.branch_z))
    inside, outside = sources[in_branch], sources[~in_branch]
    per_ray = []
    for pre, per in rays:
        ray = kernels.ray_words(pre, per, cfg.branch_z, depth)
        per_ray.append((
            ray,
            kernels.martin_rows(full, np.concatenate([inside, outside]), ray),
            kernels.martin_rows(q_table, inside, ray, root=full),
        ))
    return q_walk, inside, outside, per_ray


@dataclass(frozen=True)
class Audit:
    """One entry of the audit table.  Its measured value passes when op (one
    of lt, le, eq, gt, ge) holds between it and the bound, widened by the
    relative slack (up for lt and le, down for gt and ge), and the side
    condition, for the entry that names one, holds.  The bound is the
    constant here or, where that is None, the one the entry's stage computes
    (_stages): every bound of the table is one or the other."""

    name: str
    anchor: str
    op: Callable[[float, float], bool]
    bound: float | None = None
    slack: float = 0.0
    side: str = ""

    def entry(self, measured, bound=None, holds=True) -> dict:
        """The report entry of a measured value, against the bound given or else the table's."""
        bound = float(self.bound if bound is None else bound)
        limit = bound * (1 + self.slack if self.op in (lt, le) else 1 - self.slack)
        return {"name": self.name, "anchor": self.anchor, "measured": float(measured), "bound": bound,
                "pass": bool(holds and self.op(float(measured), limit))}


#: The audit table in report order, one group of entries per stage of _stages.
AUDITS = (
    (Audit("stochasticity", "interior row sums of the transition matrix", lt, 1e-12),),
    (Audit("dual_measure", "dimension-normalized duality identity", lt, 1e-12),),
    (Audit("norm_bound", "certified weighted operator norm against the dimension-ratio bound", le),
     Audit("green_residual", "resolvent identity of the Green solve", le),
     Audit("green_diagonal", "diagonal bounded by 1/(1-lambda)", le, 0.0),
     Audit("green_certificate", "certified relative error bound of the Green rows", le, 1e-12)),
    (Audit("conjugate_equations", "standard duality pair identities", lt, 1e-10),
     Audit("duality_normalization", "pairing norm equals the quantum dimension of a letter", lt, 1e-10)),
    (Audit("fusion_dimensions", "projection ranks equal classical dimensions", eq, 0.0),),
    (Audit("vtilde_norms", "Gaussian-binomial closed form of the almost-isometry norms", lt, 1e-8),
     Audit("vtilde_lower_ratio", "lower bound ratio of the almost-isometry norms", gt, 0.0)),
    (Audit("defect_decay", "projection commutation defects decay with the length exponent", le, 0.2),),
    (Audit("qhat_oracle", "trace formula against the partial-trace evaluation", lt, 1e-9),
     Audit("qhat_domination", "perturbed weights dominated by classical ones", le, perturbed.DOMINATION_TOL)),
    (Audit("perturbation_envelope", "single-constant envelope of the perturbation", le, 0.0),
     Audit("perturbation_rate", "fitted perturbation decay slope against log q", le, 0.15)),
    (Audit("harnack", "uniform Harnack constant against the chain bound", ge, slack=1e-12),
     Audit("multiplicativity_lower", "geodesic product lower constant", le, slack=1e-12),
     Audit("multiplicativity_upper", "geodesic product upper constant", le, slack=1e-12)),
    (Audit("last_entry", "decomposition of the Green kernel at the branch cut", lt, 1e-8),),
    (Audit("gdif_envelope", "branch Green kernels differ by an envelope in the branch depth", le, 1.0, 1e-12),),
    (Audit("boundary_positivity", "perturbed Martin values positive at the deepest ray point", gt, 0.0),
     Audit("boundary_ratio_trend", "perturbed-to-classical ratio moves toward 1 along the ray", lt,
           side="the ratio rises by at most 1e-9 relative per source; both kernels' Cauchy tails decrease")),
)


def _stages(cfg: RunConfig):
    """The audit's checks of the tensor cap, the boundary sources, the dense
    limit and the oracle pass's budget, then the stage of each group of
    AUDITS in order: a call giving one value per entry, a (measured, bound)
    pair where the entry holds no bound and (measured, bound, holds) where it
    names a side condition.  The rows the stages read are built between
    them; the functions of kernels and perturbed that the stages call return
    measurements, and every bound, envelope and rate is computed here."""
    eng = IntertwinerEngine(cfg.model)
    # the defect audit forms x (x) y in each V and u x, u z in the projections
    eng.check_cap(*(w for u, x, y, z in _defect_families() for w in (x + y, u + x, u + z)))
    # the sources are checked before any solve; the branch of z holds the words ending in z
    if not any(s.endswith(cfg.branch_z) for s in boundary_sources(cfg, cfg.branch_radius())):
        raise ConfigError(f"the boundary audits need a boundary source in the branch of "
                          f"{cfg.branch_z!r}")
    size = 2 ** (cfg.ball_radius + 1) - 1  # the ball's full table is refused before its walk is built
    if size > kernels.DENSE_LIMIT:
        raise RadiusCapError(f"domain of size {size} exceeds the dense solver limit {kernels.DENSE_LIMIT}")
    # so is an oracle pass over the budget, from word lengths alone
    need = perturbed.oracle_bytes(cfg.model.n, cfg.measure, cfg.branch_z, cfg.branch_radius())
    if need > perturbed.ORACLE_BUDGET:
        raise perturbed.OracleBudgetError(need)
    tm = build_walk(cfg, cfg.ball_radius)
    table = kernels.green_table(tm, solver_tol=cfg.solver_tol)
    yield lambda: [_interior_row_gap(cfg, tm)]
    yield lambda: [fusion.dual_audit(tm.restrict(words.ball(min(cfg.ball_radius, 8))))]
    # the full table's diagonal is G(v, v) for every v of the ball, against 1/(1 - lam)
    yield lambda: [(table.norm_interval[1], tm.norm_bound), (table.residual, cfg.solver_tol),
                   float(table.green.diagonal().max() - 1.0 / (1.0 - tm.norm_bound)), table.error_bound]
    yield lambda: _duality_gaps(eng)
    yield lambda: [sum(rank != dim for _, rank, dim in _rank_rows(eng, min(7, cfg.model.tensor_cap)))]

    def vtilde():
        worst_rel, min_ratio = 0.0, math.inf
        for s, v, t, nrm, closed, rel in _vtilde_rows(eng):
            worst_rel = max(worst_rel, rel)
            min_ratio = min(min_ratio, nrm / math.sqrt(eng.qdim(v)))
        return worst_rel, min_ratio
    yield vtilde
    yield lambda: [_defect_rate_gap(eng)]
    ctx = perturbed.BranchContext(eng, tm, cfg.branch_z, cfg.branch_radius())
    yield lambda: _qhat_checks(ctx)
    q_walk, inside, _, [(ray, k_p, k_q)] = branch_kernels(cfg, tm, ctx, cfg.rays[:1])

    def decay():
        lengths, maxima, slope = perturbed.decay_audit(perturbed.residual_matrix(ctx), ctx)
        rate = math.log(ctx.q)
        # c is the least constant with residual <= c q^len over these same maxima, so the
        # envelope gap is <= 0 by construction: it confirms the bookkeeping, not an envelope
        # (an a priori constant would; ROADMAP item 3).  The slope is compared with log q
        c = max(m / ctx.q ** l for l, m in zip(lengths, maxima))
        gap = max(m - c * math.exp(rate * l) * (1 + 1e-6) for l, m in zip(lengths, maxima))
        return gap, abs(slope / rate - 1.0)
    yield decay

    def harnack():
        interior = tm.codes[_interior(cfg, tm) & (words.code_lengths(tm.codes) <= 6)]
        delta0, k_steps = _irreducibility(cfg, tm)
        # the chain bound delta0^K; the geodesic constants against 1/(1 - lam) and
        # 3 (2/delta^2)^(S-1), lam the norm bound and S the range of the walk
        delta = delta0 ** k_steps
        c_lower, c_upper = kernels.multiplicativity_audit(table, interior)
        return ((kernels.harnack_audit(table, interior), delta), (c_lower, 1.0 / (1.0 - tm.norm_bound)),
                (c_upper, 3.0 * (2.0 / delta ** 2) ** (tm.range_bound - 1)))
    yield harnack
    yield lambda: [_last_entry_worst(cfg, table)]
    # z and its three alternating extensions, those with sub-branches of depth at least 2
    alternating = itertools.accumulate(range(3), lambda w, _: involution(w[0]) + w, initial=cfg.branch_z)
    x_list = [x for x in alternating if len(x) <= ctx.radius - 2]

    def gdif():
        # the envelope c q^len(x) anchored at the first word: the largest ratio of a gap to it
        rels = perturbed.gdif_audit(q_walk, ctx, x_list, solver_tol=cfg.solver_tol)
        anchored = rels[0] / (ctx.q ** len(x_list[0]))
        return [max(rel / (anchored * ctx.q ** len(x)) for rel, x in zip(rels, x_list))]
    yield gdif

    def boundary():
        # the deepest ray point stands for the boundary value (no extrapolation); a Green error
        # bound below 1 certifies every sign of its rows, so positivity follows from it where the
        # branch table certifies the inside sources' rows, and stands for the rows it does not
        k_q_end = k_q[:, -1]
        trend = np.abs(k_q_end / k_p[: len(inside), -1] - 1.0)
        shape = all(b <= a * (1 + 1e-9) for a, b in zip(trend, trend[1:])) and all(
            kernels.tail_decreasing(s, ray, k_q[i]) and kernels.tail_decreasing(s, ray, k_p[i])
            for i, s in enumerate(inside)
        )
        return k_q_end.min(), (trend[-1], trend[0], shape)
    yield boundary


def run_audits(cfg: RunConfig) -> list[dict]:
    """The entries of AUDITS, measured by their stages.  A stage that raises
    Shortfall fails each entry of its group with measured = have and bound =
    need, and the audit goes on."""
    entries = []
    for group, stage in zip(AUDITS, _stages(cfg), strict=True):
        try:
            values = stage()
        except kernels.Shortfall as short:
            values = [(short.have, short.need, False)] * len(group)
        entries += [audit.entry(*(value if isinstance(value, tuple) else (value,)))
                    for audit, value in zip(group, values, strict=True)]
    return entries


def _duality_gaps(eng) -> tuple[float, float]:
    """The worst residual of the conjugate equations of the duality maps
    r, rbar, and the worst gap of their pairing norms to q + 1/q."""
    r, rbar = eng.duality_maps()
    worst = 0.0
    for letter, rfirst, rsecond in (("a", r, rbar), ("b", rbar, r)):
        ident = Intertwiner((letter,), (letter,), np.eye(eng.n))
        lhs = rsecond.adjoint.tensor(ident) @ ident.tensor(rfirst)
        worst = max(worst, float(np.abs(lhs.array - np.eye(eng.n)).max()))
    target = eng.q + 1.0 / eng.q
    return worst, max(
        abs(float((r.adjoint @ r).array[0, 0]) - target),
        abs(float((rbar.adjoint @ rbar).array[0, 0]) - target),
        abs(r.norm - math.sqrt(target)),
    )


def _rank_rows(eng, max_len: int) -> list[tuple[str, int, int]]:
    """(x, projection rank, classical dimension) for every word up to max_len."""
    return [(w, eng.irr_dim(w), words.classical_dim(w, eng.n)) for w in words.ball_words(max_len)]


def _indecomposable_triples(limit: int, cap: int = 14):
    """(s, v, t) with v nonempty, len(svt) <= limit, len(s v vbar t) <= cap
    and sv, v vbar, vbar t indecomposable, in the order of the triple product
    of the ball of radius limit - 1 (sorted by length)."""
    pool = words.ball_words(limit - 1)
    lengths = [len(w) for w in pool]

    def upto(k: int) -> list[str]:
        return pool[: bisect.bisect_right(lengths, k)]

    for s in pool:
        for v in upto(min(limit - len(s), (cap - len(s)) // 2))[1:]:
            vb = involution(v)
            if indecomposable_factors(s + v) != [s + v] or indecomposable_factors(v + vb) != [v + vb]:
                continue
            for t in upto(min(limit - len(s) - len(v), cap - len(s) - 2 * len(v))):
                if indecomposable_factors(vb + t) == [vb + t]:
                    yield s, v, t


def _vtilde_rows(eng):
    """(s, v, t, norm, closed form, relative error) of the almost-isometries
    over the indecomposable triples of total length <= 6."""
    for s, v, t in _indecomposable_triples(6, eng.cfg.tensor_cap):
        nrm = eng.vtilde(s, v, t).norm
        closed = vtilde_norm_indecomposable(s, v, t, eng.q)
        yield s, v, t, nrm, closed, abs(nrm - closed) / closed


def _defect_families():
    # the two point masses cover complementary parities of the exponent, so
    # the pooled fit sees every integer exponent in the range
    stems = ["b", "ab", "bab", "abab"]
    fam = [("a", s + "a", "ba", s + "a") for s in stems]
    fam += [("ab", s + "a", "ba", s + "a") for s in stems]
    return fam


def _defect_rate_gap(eng) -> float:
    pts = []
    for u, x, y, z in _defect_families():
        d, e = eng.defect_audit(u, x, y, z)
        if d > 1e-12:
            pts.append((e, math.log(d)))
    if len(pts) < 3:
        raise RuntimeError("not enough nonzero defects for the decay fit")
    xs, ys = zip(*pts)
    slope, _ = np.polyfit(xs, ys, 1)
    return abs(float(slope) / math.log(eng.q) - 1.0)


def _qhat_checks(ctx) -> tuple[float, float]:
    """Worst oracle gap and domination excess over the required entries,
    each of which has t in u (x) s, with multiplicity 1."""
    worst_or = 0.0
    worst_dom = -math.inf
    q = ctx.q
    for (u, s, t) in perturbed.required_entries(ctx):
        val = perturbed.qhat_entry(u, s, t, ctx)
        oracle, resid = perturbed.qhat_oracle(u, s, t, ctx)
        worst_or = max(worst_or, abs(val - oracle), resid)
        p = words.qdim(t, q) / (words.qdim(u, q) * words.qdim(s, q))
        worst_dom = max(worst_dom, abs(val) - p)
    return worst_or, worst_dom


def _last_entry_worst(cfg: RunConfig, table) -> float:
    x, tm = words.heap_index(cfg.branch_z), table.walk
    branch_walk = tm.restrict(words.branch(cfg.branch_z, cfg.ball_radius))
    # the decomposition reads only the branch rows of the entry cut
    branch_table = kernels.green_rows(branch_walk, kernels.entry_set(branch_walk.codes, tm.range_bound),
                                      solver_tol=cfg.solver_tol)
    margin = cfg.ball_radius - tm.range_bound
    lengths = words.code_lengths(tm.codes)
    sources = tm.codes[~words.ends_with(tm.codes, x) & (lengths > 0) & (lengths <= 2)]
    targets = branch_walk.codes[words.code_lengths(branch_walk.codes) <= min(4, margin)]
    worst = 0.0
    for s in sources[:4].tolist():
        for t in targets[:6].tolist():
            worst = max(worst, kernels.last_entry_audit(s, t, table, branch_table))
    return worst


def cmd_audit(cfg: RunConfig, out: Path) -> int:
    entries = run_audits(cfg)
    ok = all(e["pass"] for e in entries)
    report = {
        "configHash": cfg.config_hash(),
        "q": cfg.q,
        "overallPass": ok,
        "audits": entries,
    }
    write_json(out / "audit_report.json", report)
    for e in entries:
        print(f"[{'PASS' if e['pass'] else 'FAIL'}] {e['name']}: measured={e['measured']:.6g} bound={e['bound']:.6g}")
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_boundary(cfg: RunConfig, out: Path) -> int:
    # a negative branch radius leaves an empty branch, which BranchContext rejects
    tm = build_walk(cfg, max(cfg.branch_radius(), 0))
    ctx = perturbed.BranchContext(IntertwinerEngine(cfg.model), tm, cfg.branch_z, cfg.branch_radius())
    _, inside, outside, per_ray = branch_kernels(cfg, tm, ctx, cfg.rays)
    sources = np.array([format_word(s) for s in np.concatenate([inside, outside])], dtype=object)
    header = ["s", "n", "t", "K_P", "K_Q", "ratio", "cauchyGapP", "cauchyGapQ"]
    for i, (ray, k_p, k_q) in enumerate(per_ray):
        # sources outside the branch carry only the classical kernel: their
        # K_Q, ratio and gap cells are NaN; every other gap column starts at 0
        k_q = np.vstack([k_q, np.full((len(outside), len(ray)), math.nan)])
        gap_p, gap_q = (np.abs(np.diff(k, axis=1, prepend=k[:, :1])) for k in (k_p, k_q))
        columns = [
            np.repeat(sources, len(ray)),
            np.tile(np.arange(1, len(ray) + 1), len(sources)),
            np.tile(np.array([format_word(t) for t in ray], dtype=object), len(sources)),
            k_p.ravel(),
            k_q.ravel(),
            (k_q / k_p).ravel(),
            gap_p.ravel(),
            gap_q.ravel(),
        ]
        write_csv(out / f"boundary_ray{i}.csv", header, [columns])
    return EXIT_OK


def cmd_intertwiner(cfg: RunConfig, out: Path) -> int:
    eng = IntertwinerEngine(cfg.model)
    ranks = _rank_rows(eng, min(7, cfg.model.tensor_cap))
    write_csv(
        out / "projection_ranks.csv",
        ["x", "rank", "classicalDim"],
        [[[format_word(w) for w, _, _ in ranks], [r for _, r, _ in ranks], [d for _, _, d in ranks]]],
    )
    norms = list(_vtilde_rows(eng))
    word_columns = [[format_word(row[k]) for row in norms] for k in range(3)]
    write_csv(
        out / "vtilde_norms.csv",
        ["s", "v", "t", "norm", "closedForm", "relErr"],
        [word_columns + [[row[k] for row in norms] for k in range(3, 6)]],
    )
    return EXIT_OK


COMMANDS = {
    "walk": cmd_walk,
    "audit": cmd_audit,
    "boundary": cmd_boundary,
    "intertwiner": cmd_intertwiner,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aufwalk",
        description="Random walks on the two-letter representation tree: kernels and audits.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--radius", type=int, default=None, help="override ballRadius")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, radius=args.radius)
        out = Path(args.out)
        # a file in the way fails before the run; the first file written
        # makes the directory, so a run that fails before it leaves none
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        return COMMANDS[args.command](cfg, out)
    except (TensorCapError, RadiusCapError, perturbed.OracleBudgetError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, AssertionError, ArithmeticError, MemoryError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
