import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufwalk import cli, fusion, kernels, perturbed, words
from aufwalk.cli import (
    CONFIG_KEYS,
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
from aufwalk.words import ball, ball_words, format_word, heap_index, heap_indices, parse_word
from conftest import from_scipy, to_scipy

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = str(ROOT / "demos" / "config.example.json")
GOLDEN_TWO_RAYS = str(ROOT / "tests" / "golden" / "two_rays.json")
GOLDEN_RANGE2 = str(ROOT / "tests" / "golden" / "range2.json")
GOLDEN_N3 = str(ROOT / "tests" / "golden" / "n3.json")


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


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own tmp_path, so a run without --out writes
    its default out/ there."""
    monkeypatch.chdir(tmp_path)


def make_config(tmp_path, **overrides):
    cfg = {
        "model": {"n": 2, "q": 0.5},
        "measure": {"a": 0.5, "b": 0.5},
        "ballRadius": 5,
        "tensorCap": 10,
        "branchZ": "a",
        "rays": [["e", "a"]],
        "sources": ["e"],
        "tolerances": {"solver": 1e-10},
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
        path = make_config(tmp_path, model={"n": 2, "q": 0.3})
        cfg = load_config(str(path), radius=3)
        assert cfg.ball_radius == 3
        assert cfg.q == 0.3

    def test_hash_names_the_radius_that_ran(self, tmp_path):
        """The example run at --radius 6 carries the hash, and writes the
        manifest, of a copy whose file says ballRadius 6; at its own radius 8
        the hash differs."""
        raw = json.loads(Path(EXAMPLE).read_text())
        raw["ballRadius"] = 6
        copy = tmp_path / "radius6.json"
        copy.write_text(json.dumps(raw))
        runs = {"flag": [EXAMPLE, "--radius", "6"], "file": [str(copy)], "own": [EXAMPLE]}
        manifests = {}
        for name, argv in runs.items():
            assert main(["walk", *argv, "--out", name]) == EXIT_OK
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifests["flag"] == manifests["file"]
        assert manifests["flag"]["configHash"] != manifests["own"]["configHash"]

    def test_q_and_f_diag_together_exit_2(self, tmp_path, capsys):
        # neither source of q is dropped without a word
        path = make_config(tmp_path, model={"n": 2, "q": 0.3, "fDiag": [0.5 ** 0.5, 2.0 ** 0.5]})
        assert main(["walk", str(path)]) == EXIT_CONFIG
        assert "q or fDiag, not both" in one_line_error(capsys, "config error:")

    def test_q_flag_is_gone(self, tmp_path, capsys):
        # model.q or model.fDiag is the only source of q
        with pytest.raises(SystemExit) as exit_info:
            main(["walk", str(make_config(tmp_path)), "--q", "0.3"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "--q" in capsys.readouterr().err

    def test_out_is_the_only_output_directory(self, tmp_path, monkeypatch):
        # --out DIR, by default out; the environment names no directory
        monkeypatch.setenv("AUFWALK_OUT", str(tmp_path / "env_out"))
        path = make_config(tmp_path)
        assert main(["walk", str(path), "--radius", "3", "--out", str(tmp_path / "flag_out")]) == EXIT_OK
        assert main(["intertwiner", str(path)]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "flag_out", "out"]
        assert (tmp_path / "flag_out" / "manifest.json").exists()
        assert (tmp_path / "out" / "projection_ranks.csv").exists()

    def test_out_that_is_no_directory_exits_2(self, tmp_path, capsys):
        # a file in the way, or under the path, is a command-line error, not a traceback
        path = make_config(tmp_path)
        for out in (path, path / "out"):
            assert main(["walk", str(path), "--out", str(out)]) == EXIT_CONFIG
            assert f"--out {out}: " in one_line_error(capsys, "config error:")

    @pytest.mark.parametrize("command, code", [("audit", EXIT_CAP), ("walk", EXIT_CONFIG)])
    def test_failed_run_leaves_no_directory(self, tmp_path, command, code):
        # audit at n = 3, tensorCap 6 exits 3 on its defect words, and a walk
        # whose source lies outside the ball exits 2: neither writes a file,
        # so neither makes the --out directory or its parents
        config = (GOLDEN_N3 if command == "audit"
                  else str(make_config(tmp_path, ballRadius=3, sources=["abab"])))
        assert main([command, config, "--out", str(tmp_path / "x" / command)]) == code
        assert not (tmp_path / "x").exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # a directory where the CSV goes: one config error line that names it
        (tmp_path / "z" / "green_martin.csv").mkdir(parents=True)
        assert main(["walk", EXAMPLE, "--radius", "4", "--out", str(tmp_path / "z")]) == EXIT_CONFIG
        assert str(tmp_path / "z" / "green_martin.csv") in one_line_error(capsys, "config error:")

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
            {"measure": {"a": math.nan, "b": 0.5}},
            {"tolerances": {"solver": math.inf}},
            {"model": {"q": math.nan}},
            {"tolerances": {"solver": -math.inf}},
            {"model": {"fDiag": [2.0, 10 ** 400]}},
        ],
    )
    def test_malformed_types_exit_2(self, tmp_path, capsys, overrides):
        assert main(["walk", str(make_config(tmp_path, **overrides))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error:")

    @pytest.mark.parametrize("command", ["walk", "boundary"])
    @pytest.mark.parametrize(
        "overrides, named",
        [({"measure": {"a": math.nan, "b": 0.5}}, "weight of a"), ({"tolerances": {"solver": math.inf}}, "solver")],
    )
    def test_non_finite_numbers_exit_2_naming_the_key(self, tmp_path, capsys, command, overrides, named):
        # JSON's NaN and Infinity literals parse as floats; neither reaches a solve
        assert main([command, str(make_config(tmp_path, **overrides))]) == EXIT_CONFIG
        err = one_line_error(capsys, f"config error: {named} must be a finite number")

    @pytest.mark.parametrize(
        "overrides, argv, named",
        [({"model": {"n": 2, "q": 1e-320}}, [], "q = 1e-320"),
         ({"model": {"n": 2, "fDiag": [1e-200, 1e200]}}, [], "fDiag")],
    )
    def test_character_out_of_float_range_exits_2_naming_the_key(self, tmp_path, capsys, overrides, argv, named):
        # q + 1/q overflows, or rho = f^2 leaves the float range: no 1/rho is taken
        assert main(["walk", str(make_config(tmp_path, **overrides)), *argv]) == EXIT_CONFIG
        assert named in one_line_error(capsys, "config error:")

    @pytest.mark.parametrize(
        "command, sources",
        [("boundary", ["bbbbbbbbbb"]), ("boundary", ["aaaaaaaaaa"]), ("audit", ["b"]),
         ("boundary", []), ("audit", [])],
    )
    def test_unusable_boundary_sources_exit_2(self, tmp_path, capsys, monkeypatch, command, sources):
        # outside the ball of the branch radius, (for audit) none in the branch, or
        # none at all: an empty list is not the absent key, no default sources stand in;
        # each is found before any Green solve
        monkeypatch.setattr(kernels, "_green_solve", None)
        path = make_config(tmp_path, ballRadius=7, tensorCap=9, boundarySources=sources)
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
            # keys that fed no computation, or duplicated one, are gone
            ({"seed": 7}, ["seed"]),
            ({"qRadius": 6}, ["qRadius"]),
            ({"tolerances": {"solver": 1e-10, "audit": 1e-8}}, ["tolerances.audit"]),
            # --out is the one way to name the output directory
            ({"outputDir": "out"}, ["outputDir"]),
        ],
    )
    def test_unknown_keys_exit_2_naming_each(self, tmp_path, capsys, overrides, unknown):
        assert main(["walk", str(make_config(tmp_path, **overrides))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: unknown config keys")
        assert all(key in err for key in unknown)

    def test_readme_config_block_holds_exactly_the_config_keys(self, tmp_path):
        # the documented grammar loads, and advertises no key the loader refuses or lacks
        grammar = (ROOT / "README.md").read_text().split("### Config grammar", 1)[1]
        block = grammar.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = json.loads(re.sub(r"//[^\n]*", "", block))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(raw))
        load_config(str(path))
        assert sorted(raw) == sorted(CONFIG_KEYS[""])
        assert sorted(raw["tolerances"]) == sorted(CONFIG_KEYS["tolerances."])
        assert set(raw["model"]) <= set(CONFIG_KEYS["model."])

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["walk", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_radius_cap_exits_3(self, tmp_path):
        path = make_config(tmp_path)
        assert main(["walk", str(path), "--radius", "25"]) == EXIT_CAP

    def test_tiny_q_walk_runs(self, tmp_path):
        path = make_config(tmp_path, model={"n": 2, "q": 1e-9})
        assert main(["walk", str(path)]) == EXIT_OK

    def test_q_whose_trace_squared_overflows_exits_2_on_qdim(self, tmp_path, capsys):
        # q = 1e-160 is a valid model; qdim^2 on the ball of radius 5 is not a float
        assert main(["walk", str(make_config(tmp_path, model={"n": 2, "q": 1e-160}))]) == EXIT_CONFIG
        assert "qdim^2 overflows a float on the ball of radius 5" in one_line_error(capsys, "config error:")

    def test_qdim_overflow_exits_2_before_building(self, tmp_path, capsys):
        path = make_config(tmp_path, model={"n": 2, "q": 1e-9})
        start = time.perf_counter()
        assert main(["walk", str(path), "--radius", "20"]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "overflow" in capsys.readouterr().err

    def test_config_that_cannot_be_read_exits_2_naming_it(self, tmp_path, capsys):
        # a directory in the config's place is a config error, not a traceback
        assert main(["walk", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"config {tmp_path}: " in one_line_error(capsys, "config error:")
        assert not (tmp_path / "out").exists()

    def test_radius_past_the_cap_exits_3_where_qdim_overflows(self, tmp_path, capsys):
        # at q = 0.5 qdim^2 overflows from radius 388 on, on balls past the
        # cap that no command builds: the cap decides, as at radius 387
        path = make_config(tmp_path)
        assert main(["walk", str(path), "--radius", "388", "--out", str(tmp_path / "out")]) == EXIT_CAP
        one_line_error(capsys, "resource cap:")

    @pytest.mark.parametrize("command", ["boundary", "intertwiner"])
    def test_radius_past_the_cap_runs_where_no_ball_is_built(self, tmp_path, command):
        # the branch radius stops at the tensor cap, and intertwiner builds no
        # ball: radius 400, where qdim^2 would overflow, writes the files of radius 30
        path = make_config(tmp_path, tensorCap=6)
        for radius in ("30", "400"):
            assert main([command, str(path), "--radius", radius, "--out", str(tmp_path / radius)]) == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "30").iterdir())
        assert files and files == sorted(p.name for p in (tmp_path / "400").iterdir())
        assert all((tmp_path / "30" / f).read_bytes() == (tmp_path / "400" / f).read_bytes() for f in files)

    @pytest.mark.parametrize("command", ["boundary", "audit"])
    def test_empty_rays_exit_2(self, tmp_path, capsys, command):
        assert main([command, str(make_config(tmp_path, rays=[]))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: rays")

    @pytest.mark.parametrize("command", ["walk", "boundary", "audit"])
    def test_empty_ray_period_exits_2_at_load(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(fusion, "transition_matrix", None)  # nothing is assembled
        assert main([command, str(make_config(tmp_path, rays=[["e", "a"], ["b", "e"]]))]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: rays must have nonempty periods")
        assert '["b", "e"]' in err

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
            "code = main(['walk', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        run = subprocess.run([sys.executable, "-c", child, str(path), str(tmp_path / "out")],
                             capture_output=True, text=True, cwd=ROOT)
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
        path = make_config(tmp_path, tolerances={"solver": 1e-300})
        assert main([command, str(path)]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error: RuntimeError:")
        assert "residual" in err and "Traceback" not in err

    def test_pivot_failure_exits_4_without_traceback(self, tmp_path, capsys, monkeypatch):
        class PlantedPivot(kernels._LevelSweeps):
            # the last word, a leaf, has the pivot 1 - W(t, t): planted at 0
            def __init__(self, w, narrow):
                w = to_scipy(w).tolil(copy=True)
                w[w.shape[0] - 1, w.shape[0] - 1] = 1.0
                super().__init__(from_scipy(w), narrow)

        monkeypatch.setattr(kernels, "_LevelSweeps", PlantedPivot)
        assert main(["walk", str(make_config(tmp_path))]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error: RuntimeError: Green solve pivot 0.0 not positive")
        assert "Traceback" not in err


    @pytest.mark.parametrize("fault", ["out_of_range", "corrupted_row"])
    def test_assembly_fault_exits_4_without_traceback(self, tmp_path, capsys, monkeypatch, fault):
        assemble = fusion._assemble

        def faulty(mu, codes, q):
            mat = to_scipy(assemble(mu, codes, q)).tolil()
            if fault == "out_of_range":
                mat[1, len(codes) - 1] = 1e-3  # from 'a' to the last word of the ball
            else:
                mat[0, mat.rows[0][0]] *= 1.0 + 1e-12  # the root row is sampled
            return from_scipy(mat)

        monkeypatch.setattr(fusion, "_assemble", faulty)
        assert main(["walk", str(make_config(tmp_path))]) == EXIT_INTERNAL
        err = one_line_error(capsys, "internal error: AssertionError:")
        assert ("violates the range bound" if fault == "out_of_range" else "by fusion") in err
        assert "Traceback" not in err


def letter_swap(w: str) -> str:
    """sigma: a <-> b in a serialized word; e is fixed."""
    return w if w == "e" else w.translate(str.maketrans("ab", "ba"))


def csv_rows(path: Path) -> tuple[list[str], dict]:
    """The header and the rows of a CSV keyed by their word cells (s, t)."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    words = [i for i, h in enumerate(header) if h in ("s", "t")]
    return header, {tuple(row[i] for i in words): row for row in rows}


class TestLetterSwap:
    """The letter swap sigma (a <-> b) is an automorphism of the fusion rules,
    so a config and its sigma image (measure, sources, rays and branchZ
    swapped) give the same numbers at the swapped words, end to end.  Every
    numeric cell of walk, boundary and audit agrees within 1e-14 relative
    plus 1e-14 absolute; measured worst 5.4e-15 relative (a classical Cauchy
    gap of range2.json) and 1.3e-15 absolute (its K_P), the round-off-level
    audit entries included.  The audit verdicts are equal."""

    REL = ABS = 1e-14

    @pytest.mark.parametrize("config", ["mu35", "range2"])
    def test_outputs_commute_with_the_letter_swap(self, tmp_path, config):
        if config == "mu35":
            cfg = json.loads(make_config(tmp_path, measure={"a": 0.35, "b": 0.65}, ballRadius=6,
                                         rays=[["e", "a"], ["b", "ab"]], sources=["e", "a", "ab"]).read_text())
        else:
            cfg = json.loads((ROOT / "tests" / "golden" / "range2.json").read_text())
        image = dict(cfg, measure={letter_swap(w): p for w, p in cfg["measure"].items()},
                     sources=[letter_swap(w) for w in cfg["sources"]],
                     rays=[[letter_swap(w) for w in ray] for ray in cfg["rays"]],
                     branchZ=letter_swap(cfg["branchZ"]))
        outs = []
        for name, config_json in (("config", cfg), ("image", image)):
            (tmp_path / f"{name}.json").write_text(json.dumps(config_json))
            for command, code in (("walk", EXIT_OK), ("boundary", EXIT_OK), ("audit", EXIT_AUDIT)):
                assert main([command, str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name / command)]) == code
            outs.append(tmp_path / name)
        mine, theirs = outs

        def close(x, y):
            x, y = float(x), float(y)
            return (math.isnan(x) and math.isnan(y)) or abs(x - y) <= self.REL * max(abs(x), abs(y)) + self.ABS

        files = [Path("walk/green_martin.csv")] + sorted(p.relative_to(mine) for p in (mine / "boundary").glob("*.csv"))
        for name in files:
            header, rows = csv_rows(mine / name)
            other_header, other_rows = csv_rows(theirs / name)
            assert header == other_header and len(rows) == len(other_rows) > 0
            for key, row in rows.items():
                other = other_rows[tuple(letter_swap(w) for w in key)]
                assert all(close(x, y) for h, x, y in zip(header, row, other) if h not in ("s", "t")), (name, key)
        manifest, other_manifest = (json.loads((side / "walk" / "manifest.json").read_text()) for side in outs)
        for key, value in manifest.items():
            if key != "configHash":
                assert all(map(close, np.ravel(value), np.ravel(other_manifest[key]))), key
        audits, other_audits = (json.loads((side / "audit" / "audit_report.json").read_text())["audits"]
                                for side in outs)
        assert [(a["name"], a["pass"]) for a in audits] == [(a["name"], a["pass"]) for a in other_audits]
        for entry, other in zip(audits, other_audits):
            assert close(entry["measured"], other["measured"]) and close(entry["bound"], other["bound"]), entry["name"]


class TestWalk:
    def test_minimal_run_manifest(self, tmp_path):
        path = make_config(tmp_path, ballRadius=8)
        assert main(["walk", str(path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["normBound"] == pytest.approx(0.8, abs=1e-12)
        assert manifest["rangeBound"] == 1
        assert manifest["interiorRowSumGap"] < 1e-12
        assert (tmp_path / "out" / "green_martin.csv").exists()

    def test_manifest_reports_the_configured_q(self, tmp_path):
        assert main(["walk", EXAMPLE, "--radius", "3", "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "manifest.json").read_text())["q"] == 0.5

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

    def test_full_table_source_rows_agree_with_certified_rows(self, tmp_path):
        """The rows walk prints for the sources a and ab at radius 9 are not
        among the first, middle and last rows of the full table (e, a^9 and
        b^9), which its certificate covers in any case; walk names them, so
        they are certified too (test_green_error_bound_covers_every_printed_row).
        They agree with a rows solve of the same walk, which certifies every
        row it solves, within that solve's certified error bound."""
        path = make_config(tmp_path, ballRadius=9, sources=["a", "ab"])
        assert main(["walk", str(path)]) == EXIT_OK
        tm = cli.build_walk(load_config(str(path)), 9)
        sources = heap_indices(["a", "ab"])
        assert tm.size <= kernels.DENSE_LIMIT
        assert not np.isin(sources, tm.codes[[0, (tm.size - 1) // 2, tm.size - 1]]).any()
        rows = kernels.green_rows(tm, sources)
        assert rows.error_bound <= 1e-12
        lines = (tmp_path / "out" / "green_martin.csv").read_text().splitlines()[1:]
        printed = np.array([float(line.split(",")[2]) for line in lines]).reshape(len(sources), tm.size)
        want = rows.source_rows(sources)
        assert (np.abs(printed - want) / np.abs(want)).max() <= rows.error_bound

    def test_green_error_bound_covers_every_printed_row(self, tmp_path, monkeypatch):
        """A full table's certificate covers the source rows walk prints: with
        the bounds of ab's column inflated by 1e6, the manifest's
        greenErrorBound is that column's relative bound, the largest."""
        path = make_config(tmp_path, ballRadius=9, sources=["a", "ab"])
        bounds, inflated = kernels._Certificate.bounds, []

        def inflate(self, x, units):
            bound = bounds(self, x, units)
            column = units == heap_index("ab")
            bound[:, column] *= 1e6
            inflated.append(float(np.abs(bound[:, column] / x[:, column]).max(initial=0.0)))
            return bound

        monkeypatch.setattr(kernels._Certificate, "bounds", inflate)
        assert main(["walk", str(path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert inflated and manifest["greenErrorBound"] == max(inflated) > 1e-12

    def test_walk_pins_the_witness_above_1500_words(self, tmp_path):
        """walk --radius 11 (4095 words) under {aa, b, aba} scans the witness
        on ball 8: a range of 3 leaves k_max = 2 there, which K = 2 needs (a
        ball-6 scan would leave k_max = 1 and raise)."""
        path = make_config(tmp_path, ballRadius=11, measure={"aa": 0.3, "b": 0.4, "aba": 0.3})
        assert main(["walk", str(path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["domainSize"], manifest["rangeBound"]) == (4095, 3)
        assert (manifest["delta0"], manifest["kSteps"]) == (0.002657439446366782, 2)

    @pytest.mark.parametrize("measure, radius", [
        ({"a": 0.35, "b": 0.65}, 6),
        ({"a": 0.35, "b": 0.65}, 12),
        ({"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}, 6),
        ({"a": 0.35, "b": 0.65}, 1),
        ({"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}, 2),
    ])
    def test_interior_row_gap_matches_the_interior_words(self, tmp_path, measure, radius):
        """The gap is the largest |row sum - 1| over the code-length mask of
        the interior, which holds exactly the words farther than the range
        from the length-radius frontier; radius <= range leaves it empty and
        the gap 0.0."""
        cfg = load_config(str(make_config(tmp_path, ballRadius=radius, measure=measure)))
        tm = fusion.transition_matrix(cfg.measure, ball(radius), cfg.q)
        interior = words.code_lengths(tm.codes) < radius - tm.range_bound
        assert interior.tolist() == [radius - len(w) > tm.range_bound for w in ball_words(radius)]
        want = max((abs(tm.row_sums()[i] - 1.0) for i in np.flatnonzero(interior)), default=0.0)
        assert cli._interior_row_gap(cfg, tm) == want
        assert interior.any() == (radius > tm.range_bound)


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


# columns of few distinct bit patterns, which write_csv formats once each
REPEATED_COLUMNS = {
    # 0.0 == -0.0 as values, so a formatter keyed on values would merge them
    "signed_zeros": np.array([0.0, -0.0] * 9 + [-0.0]),
    # NaNs of both signs and one with a payload, then 1.5: each NaN a distinct bit pattern printing nan
    "nans": np.tile(np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000123, 0x3FF8000000000000],
                             dtype=np.uint64).view(np.float64), 5),
    # %.17g of a float32 goes through the exact float64 of its value
    "float32": np.array([0.1, 1.0 / 3.0, -0.0, 3.4e38, 1e-45, 0.1], dtype=np.float32),
    "three_values": np.array([0.1, -2.5e-300, 1.0 / 3.0])[np.random.default_rng(3).integers(0, 3, size=10**5)],
}


# bit patterns the property draws beside random ones: signed zeros, NaNs
# with payloads and of both signs, infinities, subnormals and the extremes
EDGE_BITS = [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000123, 0x7FF0000000000000,
             0xFFF0000000000000, 1, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000]
EDGE_BITS32 = [0, 1 << 31, 0x7FC00000, 0xFFC00123, 0x7F800000, 1, 0x007FFFFF, 0x7F7FFFFF, 0x3DCCCCCD]


def csv_column(kind: str, rows: int):
    """A strategy for one CSV column of the given kind and length, paired
    with the Python values row_csv prints for it."""
    def floats(bits, dtype, edges):
        pattern = st.one_of(st.integers(0, (1 << bits) - 1), st.sampled_from(edges))
        return st.lists(pattern, min_size=rows, max_size=rows).map(
            lambda raw: np.array(raw, dtype=f"uint{bits}").view(dtype))

    if kind == "float64":
        return floats(64, np.float64, EDGE_BITS).map(lambda a: (a, a.tolist()))
    if kind == "float32":
        return floats(32, np.float32, EDGE_BITS32).map(lambda a: (a, a.tolist()))
    if kind == "word":
        # words of lengths 0-9, with e (heap index 0) in the middle
        codes = st.lists(st.integers(0, 2 ** 10 - 2), min_size=rows, max_size=rows)
        return codes.map(lambda c: c[: rows // 2] + [0] + c[rows // 2 + 1:] if rows else c).map(
            lambda c: (cli.WordColumn(np.array(c, dtype=np.int64)), [format_word(w) for w in c]))
    # integers within 2^53 of 0, which a float64 holds exactly and %.17g prints as str does
    ints = st.integers(-(2 ** 53), 2 ** 53)
    return st.lists(ints, min_size=rows, max_size=rows).map(lambda v: (v, v))


@st.composite
def csv_tables(draw):
    """Column kinds, then sections of 0-40 rows in those kinds (empty and
    one-row sections among them), as (header, sections, rows for row_csv)."""
    kinds = draw(st.lists(st.sampled_from(["float64", "float32", "word", "int"]), min_size=1, max_size=4))
    sections, rows = [], []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 40)))
        columns = [draw(csv_column(kind, n)) for kind in kinds]
        sections.append([column for column, _ in columns])
        rows += zip(*(values for _, values in columns))
    return [f"c{j}" for j in range(len(kinds))], sections, rows


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
        ]
        codes = ball(3)[:n]
        write_csv(tmp_path / "t.csv", header, [columns + [cli.WordColumn(codes)]])
        want = row_csv(header, zip(*columns, [format_word(w) for w in codes]))
        assert (tmp_path / "t.csv").read_text() == want

    def test_integers_within_two_to_the_53_print_as_str(self, tmp_path):
        """An integer column is read as float64, exact up to 2^53 in
        magnitude, whose %.17g has the bytes of str."""
        edge = [0, 1, -1, 2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53)]
        write_csv(tmp_path / "t.csv", ["n"], [[np.array(edge, dtype=np.int64)]])
        assert (tmp_path / "t.csv").read_text() == "".join(f"{v}\n" for v in ["n", *edge])

    def test_random_doubles_match_row_formatter(self, tmp_path):
        # random bit patterns of both signs (every exponent equally likely),
        # then a run of subnormals
        bits = np.random.default_rng(5).integers(0, 2**63, size=3000, dtype=np.int64)
        signs = np.where(np.arange(3000) % 2, 1.0, -1.0)
        values = np.concatenate([bits.view(np.float64) * signs, 5e-324 * np.arange(1, 200) ** 3])
        n = len(values)
        write_csv(tmp_path / "t.csv", ["x", "i"], [[values, np.arange(n)]])
        assert_same_text((tmp_path / "t.csv").read_text(), row_csv(["x", "i"], zip(values.tolist(), range(n))))

    @pytest.mark.parametrize("block_rows", [4, cli.CSV_BLOCK_ROWS])
    @pytest.mark.parametrize("name", sorted(REPEATED_COLUMNS))
    def test_repeated_values_match_row_formatter(self, tmp_path, monkeypatch, name, block_rows):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        values = REPEATED_COLUMNS[name]
        n = len(values)
        write_csv(tmp_path / "t.csv", ["x", "i"], [[values, np.arange(n)]])
        assert_same_text((tmp_path / "t.csv").read_text(), row_csv(["x", "i"], zip(values.tolist(), range(n))))

    def test_zero_rows_give_the_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["x", "w"], [[np.zeros(0), cli.WordColumn(np.zeros(0, dtype=np.int64))]])
        assert (tmp_path / "t.csv").read_text() == "x,w\n"

    def test_walk_csv_renders_green_rows(self, tmp_path):
        """The sparse path: every value of green_martin.csv is the 17-digit
        rendering of green_rows and truncation_error_bound."""
        path = make_config(tmp_path, ballRadius=12, measure={"a": 0.35, "b": 0.65}, sources=["ab", "e"])
        assert main(["walk", str(path)]) == EXIT_OK
        cfg = load_config(str(path))
        domain = ball(12)
        assert len(domain) > kernels.DENSE_LIMIT
        tm = fusion.transition_matrix(cfg.measure, domain, cfg.q)
        rows = kernels.green_rows(tm, heap_indices(cfg.sources), solver_tol=cfg.solver_tol)
        base = rows.source_rows([0])[0]
        lines = ["s,t,G,K,truncationBound"]
        for s in cfg.sources:
            bounds = kernels.truncation_error_bound(12, heap_index(s), np.arange(len(domain)), tm)
            g_row = rows.source_rows([heap_index(s)])[0]
            for t, g, b, bound in zip(ball_words(12), g_row.tolist(), base.tolist(), bounds.tolist()):
                lines.append(f"{format_word(s)},{format_word(t)},{g:.17g},{g / b:.17g},{bound:.17g}")
        assert_same_text((tmp_path / "out" / "green_martin.csv").read_text(), "\n".join(lines) + "\n")

    @pytest.mark.parametrize("radius", [6, 12])
    def test_walk_converts_its_words_once(self, tmp_path, monkeypatch, radius):
        """One heap_indices call, for the configured sources, on the table
        path and the row path alike: the ball is heap indices from the start,
        and the generating check, the sub-ball scan and the solver read them.
        The CSV's target column is rendered from heap indices to bytes once,
        and both sources' sections print that rendering (each source column
        renders its one word): no string table of the ball is built."""
        calls, tables, blocks = [], [], []
        count_conversions(monkeypatch, lambda domain: calls.append(list(domain)))
        monkeypatch.setattr(words, "ball_words", lambda r: tables.append(r))
        real_format = words.format_words
        monkeypatch.setattr(words, "format_words", lambda codes: blocks.append(len(codes)) or real_format(codes))
        path = make_config(tmp_path, ballRadius=radius, sources=["e", "ab"])
        assert main(["walk", str(path)]) == EXIT_OK
        assert calls == [["", "ab"]] and tables == []
        assert sorted(blocks) == [1, 1, len(ball(radius))]

    @pytest.mark.parametrize("radius, block_rows", [(6, 5), (12, 1000)])
    def test_walk_csv_by_source_and_block_matches_row_formatter(self, tmp_path, monkeypatch, radius, block_rows):
        """The CSV written one source and one block at a time equals the
        row-at-a-time reference, on the full table (radius 6) and the rows
        path (radius 12); three sources, e among them, and blocks that
        straddle levels and end each source part-filled."""
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        path = make_config(tmp_path, ballRadius=radius, measure={"a": 0.35, "b": 0.65}, sources=["ab", "e", "bba"])
        assert main(["walk", str(path)]) == EXIT_OK
        cfg = load_config(str(path))
        tm = fusion.transition_matrix(cfg.measure, ball(radius), cfg.q)
        sources = heap_indices(cfg.sources)
        table = (kernels.green_table(tm, solver_tol=cfg.solver_tol) if tm.size <= kernels.DENSE_LIMIT
                 else kernels.green_rows(tm, sources, solver_tol=cfg.solver_tol))
        rows = []
        for s in sources.tolist():
            g = table.source_rows([s])[0].tolist()
            k = kernels.martin_rows(table, [s], tm.codes)[0].tolist()
            bound = kernels.truncation_error_bound(radius, s, tm.codes, tm).tolist()
            rows += [(format_word(s), format_word(t), *v) for t, *v in zip(ball_words(radius), g, k, bound)]
        header = ["s", "t", "G", "K", "truncationBound"]
        assert_same_text((tmp_path / "out" / "green_martin.csv").read_text(), row_csv(header, rows))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(csv_tables(), st.integers(1, 50))
    def test_any_table_matches_row_formatter(self, table, block_rows):
        """Any sections of float (raw bit patterns, float64 and float32),
        word and int columns, in blocks of 1-50 rows, print as the
        row-at-a-time reference."""
        header, sections, rows = table
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
            path = Path(tmp) / "t.csv"
            write_csv(path, header, sections)
            assert path.read_bytes() == row_csv(header, rows).encode()

    def test_sections_follow_one_another(self, tmp_path, monkeypatch):
        """Sections of different lengths, floats repeated across them, print
        as the rows of one table."""
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        first = [[0.1, -0.0, 0.1, 2.5], ["a", "b", "ab", "e"]]
        second = [[0.1, math.nan, -0.0], ["aab", "ba", "a"]]
        write_csv(tmp_path / "t.csv", ["x", "w"], (
            [x, cli.WordColumn(heap_indices(map(parse_word, w)))] for x, w in (first, [[], []], second)
        ))
        assert (tmp_path / "t.csv").read_text() == row_csv(["x", "w"], [*zip(*first), *zip(*second)])

    @pytest.mark.parametrize("radius", [6, 12])
    def test_walk_computes_the_ball_qdims_once(self, tmp_path, radius):
        """The assembly, the solve's weights and every source's truncation
        bound read one computation of the ball's quantum dimensions."""
        words.ball_qdims.cache_clear()
        path = make_config(tmp_path, ballRadius=radius, sources=["e", "ab", "b"])
        assert main(["walk", str(path)]) == EXIT_OK
        info = words.ball_qdims.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 4

    @pytest.mark.parametrize("command, assemblies", [("walk", 1), ("boundary", 1), ("audit", 2)])
    def test_one_classical_assembly_per_walk(self, tmp_path, monkeypatch, command, assemblies):
        """The ball walk is the only classical assembly (audit adds the dual
        walk of dual_measure): the generating check and the branch walk are
        restrictions of it."""
        calls = []
        real = fusion.transition_matrix
        monkeypatch.setattr(fusion, "transition_matrix", lambda *args: calls.append(args[1]) or real(*args))
        assert main([command, EXAMPLE, "--out", str(tmp_path)]) in (EXIT_OK, EXIT_AUDIT)
        assert len(calls) == assemblies
        cfg = load_config(EXAMPLE)
        want = ball(cfg.ball_radius if command != "boundary" else cfg.branch_radius())
        assert all(np.array_equal(domain, want) for domain in calls)

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

    @pytest.mark.parametrize("command", ["audit", "boundary"])
    def test_converts_only_its_boundary_sources(self, tmp_path, monkeypatch, command):
        """No domain is converted on audit or boundary: the walk's ball, the
        dual walk's ball and the branch walks are heap indices from the start
        or restrictions that keep them.  The one heap_indices call is the
        configured boundary sources (five by default at branch radius 7)."""
        calls = []
        count_conversions(monkeypatch, lambda domain: calls.append(list(domain)))
        assert main([command, EXAMPLE, "--out", str(tmp_path)]) in (EXIT_OK, EXIT_AUDIT)
        cfg = load_config(EXAMPLE)
        assert calls == [cli.boundary_sources(cfg, cfg.branch_radius())] and len(calls[0]) == 5

    def test_zero_base_green_exits_4(self, tmp_path, capsys, monkeypatch):
        # past the generating check, G(e, b) = 0 under the point mass at a trips the Martin guard
        monkeypatch.setattr(fusion, "is_generating", lambda walk: True)
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
        path = make_config(tmp_path, ballRadius=6)
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

    def test_intertwiner_ranks_are_the_classical_dimensions_at_n3(self, tmp_path):
        # the n = 2 dimension missed on 62 of the 63 words at cap 5 (254 of 255 at cap 8)
        path = make_config(tmp_path, model={"n": 3, "q": 0.3}, tensorCap=5)
        assert main(["intertwiner", str(path)]) == EXIT_OK
        rows = [line.split(",") for line in (tmp_path / "out" / "projection_ranks.csv").read_text().splitlines()]
        assert rows[0] == ["x", "rank", "classicalDim"] and len(rows) == 64
        assert ["ab", "8", "8"] in rows and ["aba", "21", "21"] in rows
        assert all(rank == classical for _, rank, classical in rows[1:])

    def test_intertwiner_at_tensor_cap_1(self, tmp_path):
        """At tensorCap 1 the ranks cover the ball of radius 1 and no
        almost-isometry triple fits: vtilde_norms.csv is its header alone."""
        path = make_config(tmp_path, tensorCap=1)
        assert main(["intertwiner", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "projection_ranks.csv").read_bytes() == b"x,rank,classicalDim\ne,1,1\na,2,2\nb,2,2\n"
        assert (tmp_path / "out" / "vtilde_norms.csv").read_bytes() == b"s,v,t,norm,closedForm,relErr\n"

    def test_n3_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """At n = 3 the arrays whose Frobenius norms vtilde_norms.csv prints
        are long enough for BLAS ddot to split its sum across threads; summed
        by words._l2, they give the same bytes under one and two threads."""
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"threads{threads}"
            run = subprocess.run([sys.executable, "-m", "aufwalk.cli", "intertwiner", GOLDEN_N3, "--out", str(out)],
                                 capture_output=True, text=True, cwd=ROOT, env=env)
            assert run.returncode == EXIT_OK, run.stderr
            outputs.append({name: (out / name).read_bytes() for name in ("projection_ranks.csv", "vtilde_norms.csv")})
        assert outputs[0] == outputs[1]


class TestAudit:
    def test_audit_report_written(self, tmp_path):
        path = make_config(tmp_path, ballRadius=7, tensorCap=9)
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

    @pytest.mark.parametrize("radius", [12, 20])
    def test_ball_past_the_dense_limit_exits_3_before_the_walk(self, tmp_path, capsys, monkeypatch, radius):
        # the full table of a ball of radius 12 (8191 words) exceeds the dense
        # solver limit; it is a resource cap, found before anything is assembled
        monkeypatch.setattr(fusion, "transition_matrix", None)
        assert main(["audit", str(make_config(tmp_path, ballRadius=radius))]) == EXIT_CAP
        err = one_line_error(capsys, "resource cap:")
        assert f"{2 ** (radius + 1) - 1} exceeds the dense solver limit {kernels.DENSE_LIMIT}" in err

    @pytest.mark.parametrize("q", [0.5, 0.8])
    def test_an_oracle_pass_over_its_budget_exits_3_within_a_second(self, tmp_path, capsys, monkeypatch, q):
        """At cap 14, ball 11 the qhat_oracle pass would hold about 9.5 GiB
        (it ended in MemoryError after 39 s, or in a SIGKILL): the audit
        refuses it from word lengths alone, before any walk is built."""
        monkeypatch.setattr(fusion, "transition_matrix", None)
        path = make_config(tmp_path, model={"n": 2, "q": q}, measure={"a": 0.35, "b": 0.65},
                           tensorCap=14, ballRadius=11)
        start = time.perf_counter()
        assert main(["audit", str(path), "--out", str(tmp_path / "out")]) == EXIT_CAP
        assert time.perf_counter() - start < 1.0
        err = one_line_error(capsys, "resource cap: the qhat_oracle pass would hold about 9692 MiB")
        assert err.endswith(f"over its budget of {perturbed.ORACLE_BUDGET >> 20} MiB\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, cap, ball, under", [
        (EXAMPLE, None, None, True), (GOLDEN_RANGE2, None, None, True),
        (EXAMPLE, 12, 9, True), (EXAMPLE, 13, 10, False), (EXAMPLE, 14, 11, False),
    ])
    def test_the_oracle_budget_admits_the_golden_audits(self, tmp_path, config, cap, ball, under):
        """The golden audits and cap 12, ball 9 (its peak RSS 492 MiB) fit
        the budget; cap 13, ball 10 and cap 14, ball 11 do not."""
        raw = json.loads(Path(config).read_text())
        if cap is not None:
            raw.update(tensorCap=cap, ballRadius=ball)
        (tmp_path / "config.json").write_text(json.dumps(raw))
        cfg = load_config(str(tmp_path / "config.json"))
        need = perturbed.oracle_bytes(cfg.model.n, cfg.measure, cfg.branch_z, cfg.branch_radius())
        assert (need <= perturbed.ORACLE_BUDGET) is under

    def test_too_few_residual_lengths_fail_two_entries(self, tmp_path, monkeypatch, capsys):
        """Residuals that leave fewer than four usable lengths are the code's
        fault on a valid config: both perturbation entries fail with the
        usable count against 4, the later entries still run and audit exits 1."""
        monkeypatch.setattr(perturbed, "residual_matrix", lambda ctx: fusion.csr_from_entries([], [], [], (ctx.walk.size,) * 2))
        path = make_config(tmp_path, ballRadius=7, tensorCap=9)
        assert main(["audit", str(path)]) == EXIT_AUDIT
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        entries = {e["name"]: e for e in report["audits"]}
        assert {"harnack", "gdif_envelope", "boundary_ratio_trend"} <= set(entries)
        failing = {name for name, e in entries.items() if not e["pass"]}
        assert failing == {"perturbation_envelope", "perturbation_rate"}
        for name in failing:
            assert (entries[name]["measured"], entries[name]["bound"]) == (0.0, 4.0)

    def test_too_few_nonzero_defects_fail_the_decay_entry(self, tmp_path, monkeypatch, capsys):
        """Commutation defects that leave fewer than three nonzero points for
        the decay fit are the code's fault on a valid config: defect_decay
        fails with the nonzero count against 3, the later entries still run
        and audit exits 1, not 4."""
        monkeypatch.setattr(IntertwinerEngine, "defect_audit", lambda self, u, x, y, z: (0.0, 0))
        path = make_config(tmp_path, ballRadius=7, tensorCap=9)
        assert main(["audit", str(path)]) == EXIT_AUDIT
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        entries = {e["name"]: e for e in report["audits"]}
        assert {"qhat_oracle", "harnack", "gdif_envelope", "boundary_ratio_trend"} <= set(entries)
        assert not entries["defect_decay"]["pass"]
        assert (entries["defect_decay"]["measured"], entries["defect_decay"]["bound"]) == (0.0, 3.0)

    def test_example_at_q_1e_5_exits_1(self, tmp_path, capsys):
        """At q = 1e-5 only two commutation defects of the example's families
        exceed 1e-12: defect_decay fails at (2, 3) and the audit reports every
        entry with exit 1, with nothing on stderr."""
        raw = json.loads(Path(EXAMPLE).read_text())
        raw["model"]["q"] = 1e-5
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert main(["audit", str(tmp_path / "config.json")]) == EXIT_AUDIT
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        entries = {e["name"]: e for e in report["audits"]}
        assert len(entries) == sum(map(len, cli.AUDITS))
        assert (entries["defect_decay"]["measured"], entries["defect_decay"]["bound"]) == (2.0, 3.0)

    @staticmethod
    def audit_at_radius_2(tmp_path, capsys) -> dict:
        """The entries of the example's audit at ballRadius 2, boundary source
        a, which exits 1 with nothing on stderr."""
        raw = json.loads(Path(EXAMPLE).read_text())
        raw.update(ballRadius=2, boundarySources=["a"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["audit", str(path)]) == EXIT_AUDIT
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        return {e["name"]: e for e in report["audits"]}

    def test_branch_too_shallow_for_gdif_fails_its_entry(self, tmp_path, capsys):
        """At ballRadius 2 no sub-branch word of the branch of radius 2 is
        short enough (len <= 0): gdif_envelope fails on 0 usable words
        against 1, the later entries still run and audit exits 1."""
        entries = self.audit_at_radius_2(tmp_path, capsys)
        gdif = entries["gdif_envelope"]
        assert (gdif["measured"], gdif["bound"], gdif["pass"]) == (0.0, 1.0, False)
        assert "boundary_ratio_trend" in entries

    def test_one_interior_word_fails_harnack_and_multiplicativity(self, tmp_path, capsys):
        """At ballRadius 2 under a range-1 measure the Harnack interior holds
        e alone: no pair to compare, where harnack measured inf and both
        multiplicativity entries the trivial (e, e, e) and passed.  Each of
        the three fails on 1 interior word against 2 and audit exits 1."""
        entries = self.audit_at_radius_2(tmp_path, capsys)
        for name in ("harnack", "multiplicativity_lower", "multiplicativity_upper"):
            assert (entries[name]["measured"], entries[name]["bound"], entries[name]["pass"]) == (1.0, 2.0, False)
        assert {"last_entry", "boundary_ratio_trend"} <= set(entries)

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


#: the comparison of each audit entry, in report order: (op, the constant
#: bound or None where the stage reports it, the relative slack)
AUDIT_COMPARISONS = {
    "stochasticity": ("<", 1e-12, 0.0),
    "dual_measure": ("<", 1e-12, 0.0),
    "norm_bound": ("<=", None, 0.0),
    "green_residual": ("<=", None, 0.0),
    "green_diagonal": ("<=", 0.0, 0.0),
    "green_certificate": ("<=", 1e-12, 0.0),
    "conjugate_equations": ("<", 1e-10, 0.0),
    "duality_normalization": ("<", 1e-10, 0.0),
    "fusion_dimensions": ("==", 0.0, 0.0),
    "vtilde_norms": ("<", 1e-8, 0.0),
    "vtilde_lower_ratio": (">", 0.0, 0.0),
    "defect_decay": ("<=", 0.2, 0.0),
    "qhat_oracle": ("<", 1e-9, 0.0),
    "qhat_domination": ("<=", 1e-12, 0.0),
    "perturbation_envelope": ("<=", 0.0, 0.0),
    "perturbation_rate": ("<=", 0.15, 0.0),
    "harnack": (">=", None, 1e-12),
    "multiplicativity_lower": ("<=", None, 1e-12),
    "multiplicativity_upper": ("<=", None, 1e-12),
    "last_entry": ("<", 1e-8, 0.0),
    "gdif_envelope": ("<=", 1.0, 1e-12),
    "boundary_positivity": (">", 0.0, 0.0),
    "boundary_ratio_trend": ("<", None, 0.0),
}
COMPARE = {"<": float.__lt__, "<=": float.__le__, "==": float.__eq__, ">": float.__gt__, ">=": float.__ge__}


class TestAuditTable:
    def entries(self):
        return [audit for group in cli.AUDITS for audit in group]

    def test_the_table_holds_the_23_entries_in_report_order(self):
        assert [audit.name for audit in self.entries()] == list(AUDIT_COMPARISONS)
        assert [audit.name for audit in self.entries() if audit.side] == ["boundary_ratio_trend"]

    @pytest.mark.parametrize("name", list(AUDIT_COMPARISONS))
    def test_verdict_at_the_bound_follows_the_comparison(self, name):
        """A measured value planted at the bound, at the bound widened by the
        slack, and one ulp on each side of both, passes exactly when the
        stated comparison holds; a stage's bound is planted at several
        magnitudes."""
        audit = next(a for a in self.entries() if a.name == name)
        op, bound, slack = AUDIT_COMPARISONS[name]
        for b in [bound] if bound is not None else [0.0, 2.5e-11, 0.8, 3.0]:
            limit = b * (1 + slack) if op in ("<", "<=") else b * (1 - slack)
            for point in {b, limit}:
                for measured in (math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)):
                    entry = audit.entry(measured) if bound is not None else audit.entry(measured, b)
                    assert entry["bound"] == b and entry["measured"] == measured
                    assert entry["pass"] is COMPARE[op](measured, limit), (name, b, measured)

    def test_stage_bounds_are_the_papers_formulas(self, tmp_path, monkeypatch):
        """The bounds, envelopes and rate the stages compute, against the
        paper's formulas computed here: the chain bound delta0^K, 1/(1 - lam),
        3 (2/delta^2)^(S-1), the rate log q and the envelope c q^len(x)
        anchored at the first word.  The four measurement functions and the
        chain constants are planted: each measured value at its bound, at the
        bound widened by the slack (passing) and one ulp beyond (failing)."""
        path = make_config(tmp_path, ballRadius=6, tensorCap=9, measure={"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2})
        cfg = load_config(str(path))
        q, lam, reach = cfg.q, fusion.norm_upper_bound(cfg.measure, cfg.q), 2
        delta0, k = 0.3, 2
        bounds = {
            "harnack": delta0 ** k,
            "multiplicativity_lower": 1.0 / (1.0 - lam),
            "multiplicativity_upper": 3.0 * (2.0 / (delta0 ** k) ** 2) ** (reach - 1),
            "perturbation_rate": 0.15,
            "gdif_envelope": 1.0,
        }
        assert q == 0.5  # the planted gaps below are exact multiples of q^len(x)

        def planted(name, point):
            op, _, slack = AUDIT_COMPARISONS[name]
            limit = bounds[name] * (1 + slack if op in ("<", "<=") else 1 - slack)
            return {"bound": bounds[name], "limit": limit,
                    "beyond": math.nextafter(limit, math.inf if op in ("<", "<=") else -math.inf)}[point]

        # the slope whose |slope / log q - 1| is the largest at most 0.15, and the slope one ulp steeper
        rate = math.log(q)
        slope = rate * 1.15
        while abs(slope / rate - 1.0) > 0.15:
            slope = math.nextafter(slope, 0.0)
        while abs(math.nextafter(slope, -math.inf) / rate - 1.0) <= 0.15:
            slope = math.nextafter(slope, -math.inf)
        slopes = {"bound": slope, "limit": slope, "beyond": math.nextafter(slope, -math.inf)}
        lengths, maxima = [1, 2, 3, 4], [0.1 * q ** l * w for l, w in zip([1, 2, 3, 4], [1.0, 0.75, 1.25, 0.5])]
        c = max(m / q ** l for l, m in zip(lengths, maxima))
        envelope_gap = max(m - c * math.exp(math.log(q) * l) * (1 + 1e-6) for l, m in zip(lengths, maxima))
        assert envelope_gap < 0.0

        monkeypatch.setattr(cli, "_irreducibility", lambda cfg, tm: (delta0, k))
        for point in ("bound", "limit", "beyond"):
            values = {name: planted(name, point) for name in bounds}
            monkeypatch.setattr(kernels, "harnack_audit", lambda table, interior: values["harnack"])
            monkeypatch.setattr(kernels, "multiplicativity_audit", lambda table, interior: (
                values["multiplicativity_lower"], values["multiplicativity_upper"]))
            monkeypatch.setattr(perturbed, "decay_audit", lambda resid, ctx: (lengths, maxima, slopes[point]))
            # the first word anchors the envelope; the second lies at half of it, the rest at the planted ratio
            weights = [1.0, 0.5] + [values["gdif_envelope"]] * 2
            monkeypatch.setattr(perturbed, "gdif_audit", lambda q_walk, ctx, x_list, solver_tol: [
                q ** len(x) * w for x, w in zip(x_list, weights)])
            entries = {e["name"]: e for e in cli.run_audits(cfg)}
            for name in bounds:
                assert entries[name]["bound"] == bounds[name], name
                assert entries[name]["pass"] is (point != "beyond"), (name, point)
            for name in ("harnack", "multiplicativity_lower", "multiplicativity_upper", "gdif_envelope"):
                assert entries[name]["measured"] == values[name], (name, point)
            assert entries["perturbation_rate"]["measured"] == abs(slopes[point] / math.log(q) - 1.0)
            assert entries["perturbation_envelope"]["measured"] == envelope_gap
            assert entries["perturbation_envelope"]["pass"]

    def test_a_failed_side_condition_fails_at_any_value(self):
        trend = next(a for a in self.entries() if a.name == "boundary_ratio_trend")
        assert trend.entry(0.1, 0.2)["pass"] and not trend.entry(0.1, 0.2, False)["pass"]

    def test_only_a_shortfall_is_recorded_as_failed_entries(self, tmp_path, monkeypatch, capsys):
        """A ValueError from a stage that is not a Shortfall ends the audit
        as a config error (exit 2, no report); a Shortfall fails its stage's
        entries and the audit goes on."""
        def not_a_shortfall(resid, ctx):
            raise ValueError("planted")

        path = make_config(tmp_path, ballRadius=6, tensorCap=9)
        monkeypatch.setattr(perturbed, "decay_audit", not_a_shortfall)
        assert main(["audit", str(path)]) == EXIT_CONFIG
        one_line_error(capsys, "config error: planted")
        assert not (tmp_path / "out").exists()

        def shortfall(resid, ctx):
            raise kernels.Shortfall(3, 4, "planted lengths")

        monkeypatch.setattr(perturbed, "decay_audit", shortfall)
        assert main(["audit", str(path)]) == EXIT_AUDIT
        capsys.readouterr()
        entries = json.loads((tmp_path / "out" / "audit_report.json").read_text())["audits"]
        assert len(entries) == 23
        failed = {e["name"]: (e["measured"], e["bound"]) for e in entries if not e["pass"]}
        assert failed == {"perturbation_envelope": (3.0, 4.0), "perturbation_rate": (3.0, 4.0)}


class TestIndecomposableTriples:
    @staticmethod
    def brute_force(limit, cap):
        """The reference: every triple of the word pool, filtered."""
        for s, v, t in itertools.product(ball_words(limit - 1), repeat=3):
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
    @pytest.mark.parametrize(
        "command, overrides",
        [("boundary", {"ballRadius": 2}), ("boundary", {"tensorCap": 5}), ("audit", {"ballRadius": 2})],
    )
    def test_no_default_source_at_branch_radius_2_exits_2(self, tmp_path, capsys, monkeypatch, command, overrides):
        """per^k z for k < radius - 2 leaves no default source at branch radius
        2 (ballRadius 2, or tensorCap 5 under letter steps): boundary wrote the
        CSV header alone and exited 0.  It exits 2 before any Green solve,
        naming the branch radius, and writes nothing; so does audit (at
        tensorCap 5 audit exits 3 first, on its defect words)."""
        monkeypatch.setattr(kernels, "_green_solve", None)
        path = make_config(tmp_path, **overrides)
        assert load_config(str(path)).branch_radius() == 2
        assert main([command, str(path)]) == EXIT_CONFIG
        err = one_line_error(capsys, "config error: no default boundary source fits the branch radius 2")
        assert "boundarySources" in err
        assert not (tmp_path / "out").exists()

    def test_default_sources_of_a_two_letter_period_fit_the_branch(self, tmp_path):
        # per^k z for k < 5 would reach ababababa, past the branch radius 7
        path = make_config(tmp_path, ballRadius=8, rays=[["b", "ab"]])
        assert main(["boundary", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "boundary_ray0.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"a", "aba", "ababa", "abababa"}

    def test_root_source_gives_unit_classical_column(self, tmp_path):
        path = make_config(tmp_path, ballRadius=6, boundarySources=["e", "a"])
        assert main(["boundary", str(path)]) == EXIT_OK
        lines = (tmp_path / "out" / "boundary_ray0.csv").read_text().splitlines()
        root_rows = [l.split(",") for l in lines[1:] if l.startswith("e,")]
        assert root_rows
        for row in root_rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-14)
            assert row[4] == "nan"


    @pytest.mark.parametrize("config", [EXAMPLE, GOLDEN_TWO_RAYS])
    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_rows_only_kernels_match_the_dense_table(self, tmp_path, config, q):
        # the reference: martin_rows on the full Green table of the same ball
        raw = json.loads(Path(config).read_text())
        raw["model"]["q"] = q
        (tmp_path / "config.json").write_text(json.dumps(raw))
        cfg = load_config(str(tmp_path / "config.json"))
        tm = cli.build_walk(cfg, cfg.branch_radius())
        ctx = perturbed.BranchContext(IntertwinerEngine(cfg.model), tm, cfg.branch_z, cfg.branch_radius())
        q_walk, inside, outside, per_ray = cli.branch_kernels(cfg, tm, ctx, cfg.rays)
        dense = kernels.green_table(tm, solver_tol=cfg.solver_tol)
        q_table = kernels.green_table(q_walk)
        assert inside.size and len(per_ray) == len(cfg.rays)
        for ray, k_p, k_q in per_ray:
            want_p = kernels.martin_rows(dense, np.concatenate([inside, outside]), ray)
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

    def test_long_support_word_needs_no_larger_ball(self, tmp_path, capsys):
        # the generating check restricts the configured ball; it builds no
        # ball of the measure's range (23 here, past the radius cap 20)
        measure = {"a": 0.25, "b": 0.25, "abababababababababababa": 0.5}
        path = str(make_config(tmp_path, measure=measure, ballRadius=6))
        assert main(["walk", path]) == EXIT_OK, capsys.readouterr().err
        # the range leaves no branch under any tensor cap: boundary exits 2
        # at the branch check, building only the ball of radius 0
        assert main(["boundary", path]) == EXIT_CONFIG
        one_line_error(capsys, "config error: branch of 'a' truncated at radius -15 has 0 words")

    @pytest.mark.parametrize("cap, radius", [(3, 0), (1, -2)])
    def test_branch_too_small_for_the_cap_exits_2(self, tmp_path, capsys, cap, radius):
        # the branch radius is tensorCap - 2 len(z) - 1 under letter steps
        assert main(["boundary", str(make_config(tmp_path, tensorCap=cap))]) == EXIT_CONFIG
        err = one_line_error(capsys, f"config error: branch of 'a' truncated at radius {radius} has 0 words")
        assert "increase the radius or the tensor cap" in err

    def test_branch_radius_never_exceeds_ball_radius(self, tmp_path):
        # tensorCap 14 leaves room for a branch of radius 11; the ball of radius 6 caps it
        path = make_config(tmp_path, ballRadius=6, tensorCap=14)
        assert load_config(str(path)).branch_radius() == 6
        assert main(["audit", str(path)]) == EXIT_AUDIT
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
