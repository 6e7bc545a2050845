import json
import time

import pytest

from aufwalk import fusion
from aufwalk.cli import (
    EXIT_AUDIT,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    load_config,
    main,
)


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
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

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


class TestInternalErrors:
    @pytest.mark.parametrize("command", ["walk", "boundary"])
    def test_residual_failure_exits_4_without_traceback(self, tmp_path, capsys, command):
        path = make_config(tmp_path, tolerances={"solver": 1e-300, "audit": 1e-8})
        assert main([command, str(path)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError:") and "residual" in err
        assert err.count("\n") == 1 and "Traceback" not in err


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
        err = capsys.readouterr().err
        assert err.startswith("internal error: AssertionError:")
        assert ("violates the range bound" if fault == "out_of_range" else "by fusion") in err
        assert err.count("\n") == 1 and "Traceback" not in err


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


class TestAuditGuards:
    def test_non_generating_measure_exits_2(self, tmp_path, capsys):
        path = make_config(tmp_path, measure={"aa": 1.0})
        assert main(["audit", str(path)]) == EXIT_CONFIG
        assert "not generating" in capsys.readouterr().err
