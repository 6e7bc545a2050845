"""Command line driver: walk | audit | boundary | intertwiner.

One JSON config file, documented in the README, plus the overrides
--radius, --q and --out.  Exit codes: 0 pass, 1 audit failure, 2 config
error, 3 resource cap, 4 internal error (a failed solve residual, norm or
range assertion, arithmetic fault or exhausted memory; one line on stderr,
no traceback).  Reruns with the same config produce byte-identical
files: floats are emitted with 17 significant digits and JSON keys sorted.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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

OUTPUT_ENV = "AUFWALK_OUT"

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: ModelConfig
    measure: Measure
    ball_radius: int = 8
    branch_z: str = "a"
    q_radius: int | None = None
    rays: list[tuple[str, str]] = field(default_factory=lambda: [("", "a")])
    sources: list[str] = field(default_factory=lambda: [""])
    boundary_sources: list[str] | None = None
    solver_tol: float = 1e-10
    audit_tol: float = 1e-8
    output_dir: str = "out"
    seed: int = 0
    raw: dict = field(default_factory=dict)

    @property
    def q(self) -> float:
        return self.model.q

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def effective_q_radius(self) -> int:
        if self.q_radius is not None:
            return self.q_radius
        reach = max(len(r) for r in self.measure.support)
        return min(
            self.ball_radius,
            self.model.tensor_cap - 2 * len(self.branch_z) - reach,
        )


#: the keys a config may hold, at the top level and in its two nested objects
CONFIG_KEYS = {
    "": ("model", "measure", "ballRadius", "tensorCap", "branchZ", "qRadius", "rays", "sources",
         "boundarySources", "tolerances", "outputDir", "seed"),
    "model.": ("n", "q", "fDiag"),
    "tolerances.": ("solver", "audit"),
}

_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _checked(value, name: str, kind):
    """The value checked against one JSON type; a number accepts integers,
    and booleans are neither."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _typed(raw: dict, key: str, kind, default=None):
    """raw[key], or the default when absent, checked against one JSON type."""
    return _checked(raw.get(key, default), key, kind)


def _words(items: list, name: str) -> list[str]:
    """A list of serialized words."""
    return [parse_word(_checked(w, f"each entry of {name}", str)) for w in items]


def load_config(path: str, radius=None, q=None, out=None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
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
    if q is not None:
        model = ModelConfig.from_q(float(q), n=n, tensor_cap=cap)
    elif "fDiag" in model_raw:
        f_diag = tuple(_checked(f, "each entry of fDiag", float) for f in _typed(model_raw, "fDiag", list))
        model = ModelConfig(n=n, f_diag=f_diag, tensor_cap=cap)
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
        rays.append(tuple(_words(ray, "rays")))
    if not rays:
        raise ConfigError("rays must hold at least one [preperiod, period] pair")
    if raw.get("boundarySources") == []:
        raise ConfigError("boundarySources must hold at least one boundary source")
    cfg = RunConfig(
        model=model,
        measure=measure,
        ball_radius=radius if radius is not None else _typed(raw, "ballRadius", int, 8),
        branch_z=parse_word(_typed(raw, "branchZ", str, "a")),
        q_radius=_typed(raw, "qRadius", int) if "qRadius" in raw else None,
        rays=rays,
        sources=_words(_typed(raw, "sources", list, ["e"]), "sources"),
        boundary_sources=_words(_typed(raw, "boundarySources", list), "boundarySources")
        if "boundarySources" in raw
        else None,
        solver_tol=_typed(tolerances, "solver", float, 1e-10),
        audit_tol=_typed(tolerances, "audit", float, 1e-8),
        output_dir=str(out if out is not None else _typed(raw, "outputDir", str, "out")),
        seed=_typed(raw, "seed", int, 0),
        raw=raw,
    )
    if not cfg.branch_z:
        raise ConfigError("branchZ must be a nonempty word")
    if cfg.ball_radius < 0:
        raise ConfigError("ballRadius must be nonnegative")
    if not (cfg.solver_tol > 0.0 and cfg.audit_tol > 0.0):
        raise ConfigError("tolerances must be positive")
    # the largest quantum dimension on the ball is [2]_q^R; its square weights the solver
    if 2 * cfg.ball_radius * math.log(cfg.q + 1.0 / cfg.q) >= math.log(sys.float_info.max):
        raise ConfigError(
            f"qdim^2 overflows a float on the ball of radius {cfg.ball_radius} at q = {cfg.q!r}"
        )
    env_out = os.environ.get(OUTPUT_ENV)
    if env_out:
        cfg.output_dir = env_out
    return cfg


#: rows per % operation in write_csv
CSV_BLOCK_ROWS = 8192


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write a CSV file from whole columns of equal length, one row per index.

    A column that numpy reads as floating point prints each value with
    ``%.17g``, which gives the bytes of ``f"{x:.17g}"`` (nan, inf, -0 and
    subnormals included); every other column prints with ``str``.  Rows are
    filled into one template a block at a time, with a single ``%`` per block.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    width = len(cols)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in cols]
            rows = len(block[0])
            flat = [None] * (rows * width)
            for j, values in enumerate(block):
                flat[j::width] = values
            f.write((row * rows) % tuple(flat))


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def build_walk(cfg: RunConfig, radius: int) -> fusion.TransitionMatrix:
    """The configured walk on the ball of the given radius; a measure that
    does not generate an irreducible walk is a config error."""
    if not fusion.is_generating(cfg.measure, max(cfg.measure.range_bound, 4), cfg.q):
        raise ConfigError("measure is not generating; the kernels need an irreducible walk")
    return fusion.transition_matrix(cfg.measure, words.ball(radius), cfg.q)


def root_table(cfg: RunConfig, tm, sources: list[str] | None = None) -> kernels.KernelTable:
    """Green kernel of a walk, Martin kernel based at the root: the dense
    table, or the rows of the given sources and the root."""
    if sources is None:
        return kernels.green_table(tm, solver_tol=cfg.solver_tol)
    return kernels.green_rows(tm, sources, solver_tol=cfg.solver_tol)


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _interior_row_gap(cfg: RunConfig, tm) -> float:
    interior = tm.interior_words(cfg.ball_radius)
    if not interior:
        return 0.0
    return float(np.abs(tm.row_sums()[[tm.index[w] for w in interior]] - 1.0).max())


def cmd_walk(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    tm = build_walk(cfg, cfg.ball_radius)
    for s in cfg.sources:
        if s not in tm.index:
            raise ConfigError(f"source {s!r} outside the ball")
    table = root_table(cfg, tm, None if tm.size <= kernels.DENSE_LIMIT else cfg.sources)
    martin = kernels.martin_rows(table, cfg.sources, tm.domain)
    delta0, k_steps = _irreducibility(cfg, tm)
    bounds = np.array([kernels.truncation_error_bound(cfg.ball_radius, s, tm.codes, tm) for s in cfg.sources])
    write_csv(
        out / "green_martin.csv",
        ["s", "t", "G", "K", "truncationBound"],
        [
            np.repeat(np.array([format_word(s) for s in cfg.sources], dtype=str), tm.size),
            np.tile(np.array([format_word(t) for t in tm.domain]), len(cfg.sources)),
            table.source_rows(cfg.sources).ravel(),
            martin.ravel(),
            bounds.ravel(),
        ],
    )
    manifest = {
        "configHash": cfg.config_hash(),
        "q": cfg.q,
        "n": cfg.model.n,
        "ballRadius": cfg.ball_radius,
        "domainSize": tm.size,
        "rangeBound": tm.range_bound,
        "normBound": tm.norm_bound,
        "powerIterationNorm": table.power_norm,
        "delta0": delta0,
        "kSteps": k_steps,
        "solverResidual": table.residual,
        "neumannGap": table.neumann_gap,
        "interiorRowSumGap": _interior_row_gap(cfg, tm),
        "seed": cfg.seed,
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


def branch_kernels(cfg: RunConfig, tm, ctx, rays):
    """The classical walk against the perturbed branch walk on matched
    truncations: the ball of the branch radius for the classical Green rows
    (sources and root), the truncated branch for the perturbed walk and table.

    Returns the perturbed walk, the sources inside and outside the branch,
    and for each ray its words t_1..t_N, the classical Martin kernel K_P(s, t_n)
    of the sources inside and then outside, and the perturbed K_Q(s, t_n) =
    G_Q(s, t_n) / G_P(e, t_n) of the sources inside (rows by source, columns
    along the ray).  The sources default to per^k z for the period of ray 0; a
    source outside the ball of the branch radius is a config error.
    """
    depth = ctx.radius - 1
    sources = cfg.boundary_sources
    if sources is None:
        sources = [cfg.rays[0][1] * k + cfg.branch_z for k in range(0, min(5, depth - 1))]
    for s in sources:
        if len(s) > ctx.radius:
            raise ConfigError(
                f"boundary source {s!r} outside the ball of the branch radius {ctx.radius}"
            )
    full = root_table(cfg, tm.restrict(words.ball(ctx.radius)), sources)
    q_walk, q_table = perturbed.green_Q(cfg.measure, ctx, solver_tol=cfg.solver_tol)
    inside = [s for s in sources if s in ctx.index]
    outside = [s for s in sources if s not in ctx.index]
    per_ray = []
    for pre, per in rays:
        ray = kernels.ray_words(pre, per, cfg.branch_z, depth)
        per_ray.append((
            ray,
            kernels.martin_rows(full, inside + outside, ray),
            kernels.martin_rows(q_table, inside, ray, root=full),
        ))
    return q_walk, inside, outside, per_ray


def run_audits(cfg: RunConfig) -> list[dict]:
    entries: list[dict] = []

    def add(name, anchor, measured, bound, ok):
        entries.append(
            {"name": name, "anchor": anchor, "measured": float(measured), "bound": float(bound),
             "pass": bool(ok)}
        )

    q = cfg.q
    if cfg.effective_q_radius() > cfg.ball_radius:
        raise ConfigError(f"audit needs qRadius <= ballRadius, got qRadius {cfg.q_radius} > "
                          f"ballRadius {cfg.ball_radius}")
    eng = IntertwinerEngine(cfg.model)
    # the defect audit forms x (x) y in each V and u x, u z in the projections
    eng.check_cap(*dict.fromkeys(
        w for u, x, y, z in _defect_families() for w in (x + y, u + x, u + z)
    ))
    tm = build_walk(cfg, cfg.ball_radius)
    table = root_table(cfg, tm)
    gap = _interior_row_gap(cfg, tm)
    add("stochasticity", "interior row sums of the transition matrix", gap, 1e-12, gap < 1e-12)

    dual_gap = fusion.dual_audit(tm.restrict(words.ball(min(cfg.ball_radius, 8))))
    add("dual_measure", "dimension-normalized duality identity", dual_gap, 1e-12, dual_gap < 1e-12)

    add(
        "norm_bound",
        "weighted operator norm against the dimension-ratio bound",
        table.power_norm,
        tm.norm_bound + 1e-8,
        table.power_norm <= tm.norm_bound + 1e-8 and tm.norm_bound < 1.0,
    )
    add("green_residual", "resolvent identity of the Green solve", table.residual, cfg.solver_tol,
        table.residual <= cfg.solver_tol)
    diag_gap = table.diagonal_bound_gap()
    add("green_diagonal", "diagonal bounded by 1/(1-lambda)", diag_gap, 0.0, diag_gap <= 0.0)
    add("neumann_check", "sampled columns against the truncated series", table.neumann_gap, 0.0,
        table.neumann_gap <= 0.0)

    conj = _conjugate_equation_residual(eng)
    add("conjugate_equations", "standard duality pair identities", conj, 1e-10, conj < 1e-10)
    rr = _duality_norm_gap(eng)
    add("duality_normalization", "pairing norm equals the quantum dimension of a letter", rr,
        1e-10, rr < 1e-10)

    mism = sum(rank != dim for _, rank, dim in _rank_rows(eng, min(7, cfg.model.tensor_cap)))
    add("fusion_dimensions", "projection ranks equal classical dimensions", mism, 0.0, mism == 0)

    worst_rel, min_ratio = 0.0, math.inf
    for s, v, t, nrm, closed, rel in _vtilde_rows(eng):
        worst_rel = max(worst_rel, rel)
        min_ratio = min(min_ratio, nrm / math.sqrt(words.qdim(v, q)))
    add("vtilde_norms", "Gaussian-binomial closed form of the almost-isometry norms", worst_rel,
        1e-8, worst_rel < 1e-8)
    add("vtilde_lower_ratio", "lower bound ratio of the almost-isometry norms", min_ratio, 0.0,
        min_ratio > 0.0)

    rate_gap = _defect_rate_gap(eng)
    add("defect_decay", "projection commutation defects decay with the length exponent",
        rate_gap, 0.2, rate_gap <= 0.2)

    ctx = _branch_context(cfg, eng)
    oracle_gap, domination_gap = _qhat_checks(cfg, ctx)
    add("qhat_oracle", "trace formula against the partial-trace evaluation", oracle_gap, 1e-9,
        oracle_gap < 1e-9)
    add("qhat_domination", "perturbed weights dominated by classical ones", domination_gap,
        1e-12, domination_gap <= 1e-12)

    q_walk, inside, _, [(ray, k_p, k_q)] = branch_kernels(cfg, tm, ctx, cfg.rays[:1])
    if not inside:
        raise ConfigError(f"the boundary audits need a boundary source in the branch of "
                          f"{cfg.branch_z!r}")
    decay = perturbed.decay_audit(perturbed.residual_matrix(cfg.measure, ctx), ctx)
    env_gap = decay.envelope_gap()
    add("perturbation_envelope", "single-constant envelope of the perturbation",
        env_gap, 0.0, env_gap <= 0.0)
    slope_gap = abs(decay.fitted_rate / decay.target_rate - 1.0)
    add("perturbation_rate", "fitted perturbation decay slope against log q", slope_gap, 0.15,
        slope_gap <= 0.15)

    delta0, k_steps = _irreducibility(cfg, tm)
    delta = delta0 ** k_steps
    har_int = [w for w in tm.domain if cfg.ball_radius - len(w) > tm.range_bound and len(w) <= 6]
    har = kernels.harnack_audit(table, delta0, k_steps, har_int)
    add("harnack", "uniform Harnack constant against the chain bound", har.empirical_delta,
        har.delta_bound, har.passes)
    mult = kernels.multiplicativity_audit(table, delta, har_int)
    lower_ok, upper_ok = mult.verdicts()
    add("multiplicativity_lower", "geodesic product lower constant", mult.c1_lower,
        mult.lower_bound, lower_ok)
    add("multiplicativity_upper", "geodesic product upper constant", mult.c1_upper,
        mult.upper_bound, upper_ok)

    resid = _last_entry_worst(cfg, table)
    add("last_entry", "decomposition of the Green kernel at the branch cut", resid, cfg.audit_tol,
        resid < cfg.audit_tol)

    x_list = [x for x in _alternating_branch_words(cfg.branch_z, 4) if len(x) <= ctx.radius - 2]
    gdif = perturbed.gdif_audit(q_walk, ctx, tm, x_list, solver_tol=cfg.solver_tol)
    add("gdif_envelope", "branch Green kernels differ by an envelope in the branch depth",
        gdif.envelope_gap, 1.0, gdif.envelope_gap <= 1.0 + 1e-12)

    # the deepest ray point stands for the boundary value (no extrapolation)
    k_q_end = k_q[:, -1]
    trend = np.abs(k_q_end / k_p[: len(inside), -1] - 1.0)
    trend_ok = all(b <= a * (1 + 1e-9) for a, b in zip(trend, trend[1:])) and trend[-1] < trend[0]
    cauchy = all(
        kernels.tail_decreasing(s, ray, k_q[i]) and kernels.tail_decreasing(s, ray, k_p[i])
        for i, s in enumerate(inside)
    )
    add("boundary_positivity", "perturbed Martin values positive at the deepest ray point",
        k_q_end.min(), 0.0, (k_q_end > 0).all())
    add("boundary_ratio_trend", "perturbed-to-classical ratio moves toward 1 along the ray",
        trend[-1], trend[0], trend_ok and cauchy)
    return entries


def _branch_context(cfg: RunConfig, eng):
    return perturbed.BranchContext(eng, cfg.branch_z, cfg.effective_q_radius())


def _conjugate_equation_residual(eng) -> float:
    worst = 0.0
    r, rbar = eng.duality_maps()
    for letter, rfirst, rsecond in (("a", r, rbar), ("b", rbar, r)):
        ident = Intertwiner((letter,), (letter,), np.eye(eng.n))
        lhs = rsecond.adjoint.tensor(ident) @ ident.tensor(rfirst)
        worst = max(worst, float(np.abs(lhs.array - np.eye(eng.n)).max()))
    return worst


def _duality_norm_gap(eng) -> float:
    r, rbar = eng.duality_maps()
    target = eng.q + 1.0 / eng.q
    return max(
        abs(float((r.adjoint @ r).array[0, 0]) - target),
        abs(float((rbar.adjoint @ rbar).array[0, 0]) - target),
        abs(r.norm - math.sqrt(target)),
    )


def _rank_rows(eng, max_len: int) -> list[tuple[str, int, int]]:
    """(x, projection rank, classical dimension) for every word up to max_len."""
    return [(w, eng.irr_dim(w), words.classical_dim(w)) for w in words.ball(max_len)]


def _indecomposable_triples(limit: int, cap: int = 14):
    """(s, v, t) with v nonempty, len(svt) <= limit, len(s v vbar t) <= cap
    and sv, v vbar, vbar t indecomposable, in the order of the triple product
    of the ball of radius limit - 1 (sorted by length)."""
    pool = words.ball(limit - 1)
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
        _, nrm = eng.vtilde(s, v, t)
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


def _qhat_checks(cfg: RunConfig, ctx) -> tuple[float, float]:
    """Worst oracle gap and domination excess over the required entries."""
    worst_or = 0.0
    worst_dom = -math.inf
    q = cfg.q
    for (u, s, t) in perturbed.required_entries(cfg.measure, ctx):
        val = perturbed.qhat_entry(u, s, t, ctx)
        oracle, resid = perturbed.qhat_oracle(u, s, t, ctx)
        worst_or = max(worst_or, abs(val - oracle), resid)
        p = fusion.multiplicity(t, u, s) * words.qdim(t, q) / (words.qdim(u, q) * words.qdim(s, q))
        worst_dom = max(worst_dom, abs(val) - p)
    return worst_or, worst_dom


def _last_entry_worst(cfg: RunConfig, table) -> float:
    x, tm = cfg.branch_z, table.walk
    branch_walk = tm.restrict(words.branch(x, cfg.ball_radius))
    branch_table = kernels.green_table(branch_walk, base=x, solver_tol=cfg.solver_tol)
    margin = cfg.ball_radius - tm.range_bound
    sources = [w for w in tm.domain if not w.endswith(x) and 0 < len(w) <= 2]
    targets = [w for w in branch_walk.domain if len(w) <= min(4, margin)]
    worst = 0.0
    for s in sources[:4]:
        for t in targets[:6]:
            worst = max(worst, kernels.last_entry_audit(x, s, t, table, branch_table))
    return worst


def _alternating_branch_words(z: str, count: int) -> list[str]:
    out = []
    w = z
    other = {"a": "b", "b": "a"}
    for _ in range(count):
        out.append(w)
        w = other[w[0]] + w
    return out


def cmd_audit(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
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


def cmd_boundary(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    ctx = _branch_context(cfg, IntertwinerEngine(cfg.model))
    _, inside, outside, per_ray = branch_kernels(cfg, build_walk(cfg, ctx.radius), ctx, cfg.rays)
    sources = np.array([format_word(s) for s in inside + outside], dtype=str)
    header = ["s", "n", "t", "K_P", "K_Q", "ratio", "cauchyGapP", "cauchyGapQ"]
    for i, (ray, k_p, k_q) in enumerate(per_ray):
        # sources outside the branch carry only the classical kernel: their
        # K_Q, ratio and gap cells are NaN; every other gap column starts at 0
        k_q = np.vstack([k_q, np.full((len(outside), len(ray)), math.nan)])
        gap_p, gap_q = (np.abs(np.diff(k, axis=1, prepend=k[:, :1])) for k in (k_p, k_q))
        columns = [
            np.repeat(sources, len(ray)),
            np.tile(np.arange(1, len(ray) + 1), len(sources)),
            np.tile(np.array([format_word(t) for t in ray], dtype=str), len(sources)),
            k_p.ravel(),
            k_q.ravel(),
            (k_q / k_p).ravel(),
            gap_p.ravel(),
            gap_q.ravel(),
        ]
        write_csv(out / f"boundary_ray{i}.csv", header, columns)
    return EXIT_OK


def cmd_intertwiner(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    eng = IntertwinerEngine(cfg.model)
    ranks = _rank_rows(eng, min(7, cfg.model.tensor_cap))
    write_csv(
        out / "projection_ranks.csv",
        ["x", "rank", "classicalDim"],
        [[format_word(w) for w, _, _ in ranks], [r for _, r, _ in ranks], [d for _, _, d in ranks]],
    )
    norms = list(_vtilde_rows(eng))
    word_columns = [[format_word(row[k]) for row in norms] for k in range(3)]
    write_csv(
        out / "vtilde_norms.csv",
        ["s", "v", "t", "norm", "closedForm", "relErr"],
        word_columns + [[row[k] for row in norms] for k in range(3, 6)],
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
    parser.add_argument("--q", type=float, default=None, help="override the deformation parameter")
    parser.add_argument("--out", default=None, help="override outputDir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, radius=args.radius, q=args.q, out=args.out)
        return COMMANDS[args.command](cfg)
    except (TensorCapError, RadiusCapError) as exc:
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
