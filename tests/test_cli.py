import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aufwalk import cli, fusion, kernels, perturbed, words
from aufwalk.cli import (
    EXIT_AUDIT,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    load_config,
    main,
    write_csv,
)
from aufwalk.intertwiners import Intertwiner, IntertwinerEngine
from aufwalk.words import ball, format_word

EXAMPLE = str(Path(__file__).resolve().parent.parent / "demos" / "config.example.json")
GOLDEN_TWO_RAYS = str(Path(__file__).resolve().parent / "golden" / "two_rays.json")


def count_conversions(monkeypatch, record, modules=(words, fusion, kernels, perturbed, cli)):
    """Patch every name bound to words.heap_indices in the modules so that
    each call passes its domain to ``record`` before converting it."""
    real = words.heap_indices

    def counting(domain):
        record(domain)
        return real(domain)

    for module in modules:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counting)


def one_line_error(capsys, prefix: str) -> str:
    """The captured stderr, checked to be one line that starts with the prefix."""
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def make_config(tmp_path, **overrides):
    cfg = {
        "model": {"n": 2, "q": 0.5},
        "measure": {"a": 0.5, "b": 0.5},
        "ballRadius": 5,
        "tensorCap": 10,
        "branchZ": "a",
        "rays": [["e", "a"]],
        "sources": ["e"],
        "tolerances": {"solver": 1e-10, "audit": 1e-8},
        "outputDir": str(tmp_path / "out"),
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_load_and_hash(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_config(str(path))
        assert cfg.q == pytest.approx(0.5, rel=1e-12)
        assert cfg.config_hash() == load_config(str(path)).config_hash()

    def test_overrides(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_config(str(path), radius=3, q=0.3, out=str(tmp_path / "other"))
        assert cfg.ball_radius == 3
        assert cfg.q == pytest.approx(0.3, rel=1e-12)
        assert cfg.output_dir.endswith("other")

    def test_env_output_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUFWALK_OUT", str(tmp_path / "env_out"))
        cfg = load_config(str(make_config(tmp_path)))
        assert cfg.output_dir.endswith("env_out")

    def test_unnormalized_measure_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path, measure={"a": 0.5, "b": 0.6})
        assert main(["walk", str(path)]) == EXIT_CONFIG
        assert "not normalized" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tensorCap": None},
            {"model": {"q": None}},
            {"rays": 5},
            {"tolerances": []},
            {"model": []},
            {"sources": "ab"},
            {"measure": {"a": "0.5", "b": 0.5}},
            {"ballRadius": True},
            {"tolerances": {"solver": 0.0}},
        ],
    )
    def test_malformed_types_exit_2(self, tmp_path, capsys, overrides):
        assert main(["walk", str(make_config(tmp_path, **overrides))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error:")

    @pytest.mark.parametrize(
        "command, sources",
        [("boundary", ["bbbbbbbbbb"]), ("boundary", ["aaaaaaaaaa"]), ("audit", ["b"]),
         ("boundary", []), ("audit", [])],
    )
    def test_unusable_boundary_sources_exit_2(self, tmp_path, capsys, command, sources):
        # outside the ball of the branch radius, (for audit) none in the branch, or
        # none at all: an empty list is not the absent key, no default sources stand in
        path = make_config(tmp_path, ballRadius=7, qRadius=6, boundarySources=sources)
        assert main([command, str(path)]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error:")
        assert "boundary source" in err and (sources or "boundarySources" in err)

    @pytest.mark.parametrize(
        "overrides, unknown",
        [
            ({"ballRadus": 3}, ["ballRadus"]),
            ({"qhatCache": "qhat.jsonl"}, ["qhatCache"]),
            (
                {"seeds": 1, "model": {"n": 2, "q": 0.5, "Q": 0.3}, "tolerances": {"audti": 1e-8}},
                ["seeds", "model.Q", "tolerances.audti"],
            ),
        ],
    )
    def test_unknown_keys_exit_2_naming_each(self, tmp_path, capsys, overrides, unknown):
        assert main(["walk", str(make_config(tmp_path, **overrides))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: unknown config keys")
        assert all(key in err for key in unknown)

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["walk", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_radius_cap_exits_3(self, tmp_path):
        path = make_config(tmp_path)
        assert main(["walk", str(path), "--radius", "25"]) == EXIT_CAP

    def test_tiny_q_walk_runs(self, tmp_path):
        path = make_config(tmp_path)
        assert main(["walk", str(path), "--q", "1e-9"]) == EXIT_OK

    def test_qdim_overflow_exits_2_before_building(self, tmp_path, capsys):
        path = make_config(tmp_path)
        start = time.perf_counter()
        assert main(["walk", str(path), "--q", "1e-9", "--radius", "20"]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["boundary", "audit"])
    def test_empty_rays_exit_2(self, tmp_path, capsys, command):
        assert main([command, str(make_config(tmp_path, rays=[]))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: rays")

    def test_huge_n_exits_2_before_allocating(self, tmp_path):
        """n = 10^9 at q = 1e-10 is reachable, and its model would hold a
        10^9-tuple; the cap check rejects it first.  The run is a child
        process limited to 4 GiB of address space, so building the tuple
        fails there instead of taking the host's memory."""
        path = make_config(tmp_path, model={"n": 10 ** 9, "q": 1e-10})
        child = (
            "import resource, sys, time\n"
            "from aufwalk.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))\n"
            "start = time.perf_counter()\n"
            "code = main(['walk', sys.argv[1]])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        run = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True, text=True)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr.startswith("config error: tensor_cap")
        assert float(run.stdout) < 1.0

    def test_n_3_loads_at_cap_8_and_exits_2_at_cap_9(self, tmp_path, capsys):
        # 3^8 = 6561 ambient rows; 3^9 = 19683 exceed the 2^14 that cap 14 allows at n = 2
        model = {"n": 3, "q": 0.2}
        assert load_config(str(make_config(tmp_path, model=model, tensorCap=8))).model.tensor_cap == 8
        assert main(["walk", str(make_config(tmp_path, model=model, tensorCap=9))]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: tensor_cap")


class TestInternalErrors:
    @pytest.mark.parametrize("command", ["walk", "boundary"])
    def test_residual_failure_exits_4_without_traceback(self, tmp_path, capsys, command):
        path = make_config(tmp_path, tolerances={"solver": 1e-300, "audit": 1e-8})
        assert main([command, str(path)]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error: RuntimeError:")
        assert "residual" in err and "Traceback" not in err


    @pytest.mark.parametrize("fault", ["out_of_range", "corrupted_row"])
    def test_assembly_fault_exits_4_without_traceback(self, tmp_path, capsys, monkeypatch, fault):
        assemble = fusion._assemble

        def faulty(mu, codes, q):
            mat = assemble(mu, codes, q).tolil()
            if fault == "out_of_range":
                mat[1, len(codes) - 1] = 1e-3  # from 'a' to the last word of the ball
            else:
                mat[0, mat.rows[0][0]] *= 1.0 + 1e-12  # the root row is sampled
            return mat.tocsr()

        monkeypatch.setattr(fusion, "_assemble", faulty)
        assert main(["walk", str(make_config(tmp_path))]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error: AssertionError:")
        assert ("violates the range bound" if fault == "out_of_range" else "by fusion") in err
        assert "Traceback" not in err


class TestWalk:
    def test_minimal_run_manifest(self, tmp_path):
        path = make_config(tmp_path, ballRadius=8)
        assert main(["walk", str(path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["normBound"] == pytest.approx(0.8, abs=1e-12)
        assert manifest["rangeBound"] == 1
        assert manifest["interiorRowSumGap"] < 1e-12
        assert (tmp_path / "out" / "green_martin.csv").exists()

    def test_radius_zero_single_row(self, tmp_path):
        path = make_config(tmp_path, ballRadius=0)
        assert main(["walk", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "green_martin.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("e,e,1,1,")

    def test_reproducible_bytes(self, tmp_path):
        path = make_config(tmp_path, ballRadius=6)
        main(["walk", str(path)])
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        main(["walk", str(path)])
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert first == second


def row_csv(header, rows):
    """The row-at-a-time formatter that write_csv replaced, as the reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; a failure names the first differing line, since a diff of
    a large CSV takes minutes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    first = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), None)
    assert first is None, f"line {first}: {got_lines[first]!r}, want {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1,
    2.2250738585072014e-308, -1e-310, 1.0 / 3.0, 123456789.0, 1e17, 1e16, -2.5,
]


class TestCsvEmitter:
    @pytest.mark.parametrize("block_rows", [4, cli.CSV_BLOCK_ROWS])
    def test_columns_match_row_formatter(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        n = len(EDGE_FLOATS)
        header = ["float", "array", "float64", "int64", "int", "word"]
        columns = [
            EDGE_FLOATS,
            np.array(EDGE_FLOATS[::-1]),
            [np.float64(x) for x in EDGE_FLOATS],
            [np.int64(k * 10**15) for k in range(-7, n - 7)],
            list(range(-3, n - 3)),
            [format_word(w) for w in ball(3)[:n]],
        ]
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_text() == row_csv(header, zip(*columns))

    def test_random_doubles_match_row_formatter(self, tmp_path):
        # random bit patterns of both signs (every exponent equally likely),
        # then a run of subnormals
        bits = np.random.default_rng(5).integers(0, 2**63, size=3000, dtype=np.int64)
        signs = np.where(np.arange(3000) % 2, 1.0, -1.0)
        values = np.concatenate([bits.view(np.float64) * signs, 5e-324 * np.arange(1, 200) ** 3])
        n = len(values)
        write_csv(tmp_path / "t.csv", ["x", "i"], [values, np.arange(n)])
        assert_same_text((tmp_path / "t.csv").read_text(), row_csv(["x", "i"], zip(values.tolist(), range(n))))

    def test_walk_csv_renders_green_rows(self, tmp_path):
        """The sparse path: every value of green_martin.csv is the 17-digit
        rendering of green_rows and truncation_error_bound."""
        path = make_config(tmp_path, ballRadius=12, measure={"a": 0.35, "b": 0.65}, sources=["ab", "e"])
        assert main(["walk", str(path)]) == EXIT_OK
        cfg = load_config(str(path))
        domain = ball(12)
        assert len(domain) > kernels.DENSE_LIMIT
        tm = fusion.transition_matrix(cfg.measure, domain, cfg.q)
        rows = kernels.green_rows(tm, cfg.sources, solver_tol=cfg.solver_tol)
        base = rows.source_rows([""])[0]
        lines = ["s,t,G,K,truncationBound"]
        for s in cfg.sources:
            bounds = kernels.truncation_error_bound(12, s, np.arange(len(domain)), tm)
            for t, g, b, bound in zip(domain, rows.source_rows([s])[0].tolist(), base.tolist(), bounds.tolist()):
                lines.append(f"{format_word(s)},{format_word(t)},{g:.17g},{g / b:.17g},{bound:.17g}")
        assert_same_text((tmp_path / "out" / "green_martin.csv").read_text(), "\n".join(lines) + "\n")

    @pytest.mark.parametrize("radius", [6, 12])
    def test_walk_converts_its_words_once(self, tmp_path, monkeypatch, radius):
        """One heap_indices call for the ball, on the table path and the row
        path alike, after the generating check's ball of radius 4; the
        sub-ball scan and the solver reuse its codes."""
        calls = []
        count_conversions(monkeypatch, lambda domain: calls.append(len(domain)))
        path = make_config(tmp_path, ballRadius=radius, sources=["e", "ab"])
        assert main(["walk", str(path)]) == EXIT_OK
        assert calls == [31, 2 ** (radius + 1) - 1]

    @pytest.mark.parametrize("command", ["audit", "boundary"])
    def test_green_solves_convert_no_words(self, tmp_path, monkeypatch, command):
        """Every Green solve, the sub-branch solves of the audits included,
        reads the heap indices and word positions its walk carries: no
        heap_indices call happens inside green_table or green_rows, and a
        KernelTable holds its walk in place of a domain, index or bound."""
        solves = (kernels.green_table, kernels.green_rows)
        depth, calls = [0], []
        count_conversions(monkeypatch, lambda domain: calls.append(depth[0]))

        def solving(solve):
            def inside(*args, **kwargs):
                depth[0] += 1
                try:
                    return solve(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return inside

        for module in (fusion, kernels, perturbed, cli):
            for name, value in list(vars(module).items()):
                if any(value is solve for solve in solves):
                    monkeypatch.setattr(module, name, solving(value))
        assert main([command, EXAMPLE, "--out", str(tmp_path)]) in (EXIT_OK, EXIT_AUDIT)
        assert calls and not any(calls)
        fields = {f.name for f in dataclasses.fields(kernels.KernelTable)}
        assert "walk" in fields and not fields & {"domain", "index", "lam"}

    def test_audit_converts_each_domain_once(self, tmp_path, monkeypatch):
        """Four conversions on audit: the generating check's ball, the walk's
        ball, the dual walk's ball and the perturbed walk's branch."""
        calls = []
        count_conversions(monkeypatch, lambda domain: calls.append(len(domain)))
        assert main(["audit", EXAMPLE, "--out", str(tmp_path)]) == EXIT_AUDIT
        assert calls == [31, 511, 511, 127]

    def test_zero_base_green_exits_4(self, tmp_path, capsys, monkeypatch):
        # past the generating check, G(e, b) = 0 under the point mass at a trips the Martin guard
        monkeypatch.setattr(fusion, "is_generating", lambda mu, radius, q: True)
        path = make_config(tmp_path, ballRadius=3, measure={"a": 1.0})
        assert main(["walk", str(path)]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error:")
        # the boundary rows divide by G(e, t_n) alike: the walk of ab never reaches a
        path = make_config(tmp_path, ballRadius=5, measure={"ab": 1.0})
        assert main(["boundary", str(path)]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error:")

    def test_no_sources_header_only(self, tmp_path):
        path = make_config(tmp_path, ballRadius=3, sources=[])
        assert main(["walk", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "green_martin.csv").read_text() == "s,t,G,K,truncationBound\n"


class TestBoundaryAndIntertwiner:
    def test_boundary_csv(self, tmp_path):
        path = make_config(tmp_path, ballRadius=6, qRadius=6)
        assert main(["boundary", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "boundary_ray0.csv").read_text().splitlines()
        assert lines[0] == "s,n,t,K_P,K_Q,ratio,cauchyGapP,cauchyGapQ"
        assert len(lines) > 5

    def test_intertwiner_dump(self, tmp_path):
        path = make_config(tmp_path)
        assert main(["intertwiner", str(path)]) == EXIT_OK
        ranks = (tmp_path / "out" / "projection_ranks.csv").read_text().splitlines()
        assert ranks[0] == "x,rank,classicalDim"
        for line in ranks[1:]:
            _, rank, classical = line.split(",")
            assert rank == classical
        norms = (tmp_path / "out" / "vtilde_norms.csv").read_text().splitlines()
        assert len(norms) > 50
        for line in norms[1:]:
            assert float(line.split(",")[-1]) < 1e-8


class TestAudit:
    def test_audit_report_written(self, tmp_path):
        path = make_config(tmp_path, ballRadius=7, qRadius=6)
        code = main(["audit", str(path)])
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        names = {e["name"] for e in report["audits"]}
        assert {"stochasticity", "dual_measure", "harnack", "last_entry"} <= names
        failing = {e["name"] for e in report["audits"] if not e["pass"]}
        # perturbation_rate compares the fitted slope with log q, but the
        # residual is second order in the commutation defect
        # (p - qhat = p eps^2 / 2) and decays at 2 log q, so this entry
        # fails; acceptance criterion 10 checks the 2 log q rate and passes
        assert failing == {"perturbation_rate"}
        assert code == EXIT_AUDIT
        assert report["overallPass"] is False

    def test_rate_insensitive_to_the_norm_route(self, tmp_path, monkeypatch, capsys):
        """The almost-isometry norms by SVD or by Schur (Frobenius over
        sqrt(dim)) differ in the last bits; the conditioned perturbation
        residual keeps perturbation_rate within 1e-14 of itself."""
        svd = property(lambda self: float(np.linalg.norm(self.array, 2)))

        def schur(self):
            if len(self.source) > 1:
                return float(np.linalg.norm(self.array, 2))
            return float(np.linalg.norm(self.array) / math.sqrt(self.array.shape[1]))

        rates = []
        for norm in (svd, property(schur)):
            monkeypatch.setattr(Intertwiner, "norm", norm)
            out = tmp_path / str(len(rates))
            assert main(["audit", EXAMPLE, "--radius", "6", "--out", str(out)]) == EXIT_AUDIT
            report = json.loads((out / "audit_report.json").read_text())
            rates.append(next(e["measured"] for e in report["audits"] if e["name"] == "perturbation_rate"))
        capsys.readouterr()
        assert abs(rates[1] - rates[0]) < 1e-14 * abs(rates[0])


class TestIndecomposableTriples:
    @staticmethod
    def brute_force(limit, cap):
        """The reference: every triple of the word pool, filtered."""
        for s, v, t in itertools.product(ball(limit - 1), repeat=3):
            if not v or len(s) + len(v) + len(t) > limit or len(s) + 2 * len(v) + len(t) > cap:
                continue
            vb = words.involution(v)
            if all(words.indecomposable_factors(w) == [w] for w in (s + v, v + vb, vb + t)):
                yield s, v, t

    @pytest.mark.parametrize("limit", [4, 5, 6])
    def test_same_sequence_as_the_full_product(self, limit):
        for cap in range(6, 15):
            want = list(self.brute_force(limit, cap))
            assert want and list(cli._indecomposable_triples(limit, cap)) == want


class TestBoundarySources:
    def test_root_source_gives_unit_classical_column(self, tmp_path):
        path = make_config(tmp_path, ballRadius=6, qRadius=6, boundarySources=["e", "a"])
        assert main(["boundary", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "boundary_ray0.csv").read_text().splitlines()
        root_rows = [l.split(",") for l in lines[1:] if l.startswith("e,")]
        assert root_rows
        for row in root_rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-14)
            assert row[4] == "nan"


    @pytest.mark.parametrize("config", [EXAMPLE, GOLDEN_TWO_RAYS])
    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_rows_only_kernels_match_the_dense_table(self, config, q):
        # the reference: martin_rows on the full Green table of the same ball
        cfg = load_config(config, q=q)
        ctx = cli._branch_context(cfg, IntertwinerEngine(cfg.model))
        tm = cli.build_walk(cfg, ctx.radius)
        q_walk, inside, outside, per_ray = cli.branch_kernels(cfg, tm, ctx, cfg.rays)
        dense = cli.root_table(cfg, tm)
        q_table = kernels.green_table(q_walk, base=ctx.z)
        assert inside and len(per_ray) == len(cfg.rays)
        for ray, k_p, k_q in per_ray:
            want_p = kernels.martin_rows(dense, inside + outside, ray)
            want_q = kernels.martin_rows(q_table, inside, ray, root=dense)
            assert np.abs(k_p / want_p - 1.0).max() <= 1e-13
            assert np.abs(k_q / want_q - 1.0).max() <= 1e-13


class TestAuditGuards:
    def test_non_generating_measure_exits_2(self, tmp_path, capsys):
        # every command builds its walk behind the generating check
        for measure in ({"aa": 1.0}, {"a": 1.0}, {"aa": 0.5, "bb": 0.5}, {"ab": 0.5, "ba": 0.5}):
            path = str(make_config(tmp_path, measure=measure))
            for command in ("walk", "boundary", "audit"):
                assert main([command, path]) == EXIT_CONFIG, (command, measure)
                err = one_line_error(capsys, "config error: measure is not generating")

    def test_q_radius_above_ball_radius_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path, ballRadius=6, qRadius=7)
        assert main(["audit", str(path)]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error:")
        assert "qRadius 7" in err and "ballRadius 6" in err
        # boundary builds the ball of the branch radius itself
        assert main(["boundary", str(path)]) == EXIT_OK

    def test_defect_words_over_cap_exit_3_before_the_walk(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = fusion.transition_matrix

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, "transition_matrix", counting)
        path = make_config(tmp_path, tensorCap=6)
        assert main(["audit", str(path)]) == EXIT_CAP
        assert capsys.readouterr().err == "resource cap: tensor words exceed cap 6: 'abababa'\n"
        assert calls == []
