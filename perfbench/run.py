"""Benchmark of the aufwalk CLI: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--write-manifest]

Run from the repository root.  Each measured run is a fresh
``python3 perfbench/child.py`` process, launched one after another, with the
package taken from ``src/`` and BLAS/OpenMP threads set to ``nproc``.  Every
run gets its own config and output directory under ``.perfbench_tmp/``, which
is deleted afterwards; ``AUFWALK_OUT`` is removed from the child's
environment and no ``qhatCache`` is configured, so no run sees another's
files.  Each run's exit code and outputs are checked (``workloads.py``).

``--trace 0`` first spawns a few set-up-only processes (interpreter start,
``import aufwalk.cli``, ``load_config``), then repeats the workload while the
next run is predicted to end within ``--seconds`` (at least once), and
reports the medians of

- ``wall_s``: exec to exit of the child,
- ``setup_s``: exec until ``load_config`` returned (all processes),
- ``compute_s``: from after ``load_config`` until the command returned,
- ``peak_rss_mb``: the child's maximum resident set size.

``--trace 1`` runs the workload once untraced and once with the probes of
``tracer.py``, requires byte-identical output files and a sample from every
probe expected on the workload, and reports the per-layer metrics plus
``trace.overhead_s`` (traced minus untraced ``wall_s``).

``--smoke`` shrinks the sizes (walk radius 6 and 12, ball 6, tensor cap 8)
for the benchmark's own tests.  ``--write-manifest`` rewrites BENCHMARK.json
from the definitions here.  The last line of standard output is the JSON
result; ``failed / attempted`` is the share of runs with a wrong exit code
or wrong outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, build_config, check_outputs, draw_inputs, load_reference  # noqa: E402

RUN_SECONDS = 10
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a whole invocation must end well within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# name -> (unit, bound: share of the parent's median it may worsen by).  On a
# shared 2-core host one run of the same input varies by +-10% in time, and
# peak RSS of walk-sparse by up to 5% across seeds.
END_TO_END = {
    "wall_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "compute_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.15),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


@dataclass
class Run:
    """One child process: its times, its checks, and its run directory."""

    wall_s: float
    setup_s: float | None
    compute_s: float | None
    peak_rss_mb: float
    error: str | None
    versions: dict
    trace: dict | None
    out_dir: Path


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.weight, self.sources = draw_inputs(seed)
        self.reference = load_reference()
        self.threads = len(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k != "AUFWALK_OUT"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for var in BLAS_VARS:
            self.env[var] = str(self.threads)
        self.tmp = root / ".perfbench_tmp"
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, *, trace: bool = False, setup_only: bool = False) -> Run:
        """Spawn one child in a fresh run directory; the caller discards it."""
        self.tmp.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            return self._spawn(run_dir, trace, setup_only)
        except BaseException:
            shutil.rmtree(run_dir, ignore_errors=True)
            raise

    def _spawn(self, run_dir: Path, trace: bool, setup_only: bool) -> Run:
        out_dir = run_dir / "out"
        cfg, extra = build_config(
            self.root, self.workload, self.smoke, self.weight, self.sources, out_dir
        )
        config = run_dir / "config.json"
        config.write_text(json.dumps(cfg, indent=2))
        report = run_dir / "report.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report)]
        if trace:
            cmd += ["--trace", str(run_dir / "trace.json")]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", self.workload.command, str(config), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(run_dir / "stdout.txt", "wb") as so, open(run_dir / "stderr.txt", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=so, stderr=se)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stamps = json.loads(report.read_text()) if report.exists() else {}
        loaded = stamps.get("loaded")
        error = None
        if loaded is None:
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            error = f"exit {proc.returncode} before the config loaded: {' | '.join(tail)}"
        elif not setup_only:
            try:
                check_outputs(self.workload, self.smoke, self.weight, self.sources, cfg,
                              proc.returncode, out_dir, self.reference)
            except Exception as exc:  # any fault while reading the outputs fails the run
                error = f"{type(exc).__name__}: {exc}"
        trace_path = run_dir / "trace.json"
        return Run(
            wall_s=wall,
            setup_s=None if loaded is None else loaded - t0,
            compute_s=None if loaded is None else stamps["done"] - loaded,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            error=error,
            versions=stamps.get("versions", {}),
            trace=json.loads(trace_path.read_text()) if trace_path.exists() else None,
            out_dir=out_dir,
        )

    def discard(self, run: Run) -> None:
        shutil.rmtree(run.out_dir.parent, ignore_errors=True)

    def once(self, **kw) -> Run:
        run = self.run(**kw)
        self.discard(run)
        return run


def _median(values) -> float:
    return statistics.median([v for v in values if v is not None])


def measure(bench: Bench, seconds: float) -> tuple[list[Run], dict]:
    """Set-up probes, then repeated runs while the next fits in ``seconds``."""
    start = time.monotonic()
    probes = [bench.once(setup_only=True) for _ in range(SETUP_PROBES)]
    for p in probes:
        if p.error:
            raise RuntimeError(f"set-up probe failed: {p.error}")
    runs: list[Run] = []
    while True:
        runs.append(bench.once())
        elapsed = time.monotonic() - start
        typical = _median(r.wall_s for r in runs)
        if elapsed + typical > seconds or time.monotonic() + typical > bench.deadline:
            break
    timed = [r for r in runs if r.compute_s is not None]
    if not timed:
        raise RuntimeError(f"no run produced timings: {runs[0].error}")
    values = {
        "wall_s": _median(r.wall_s for r in timed),
        "setup_s": _median([p.setup_s for p in probes] + [r.setup_s for r in timed]),
        "compute_s": _median(r.compute_s for r in timed),
        "peak_rss_mb": _median(r.peak_rss_mb for r in timed),
    }
    return runs, {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def same_outputs(a: Path, b: Path) -> str | None:
    """None when both directories hold the same files with the same bytes."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return f"output files differ: {names_a} vs {names_b}"
    for name in names_a:
        if (a / name).read_bytes() != (b / name).read_bytes():
            return f"{name} differs between the traced and the untraced run"
    return None


def _trace_error(bench: Bench, plain: Run, traced: Run) -> str | None:
    if traced.trace is None:
        return "traced run wrote no trace"
    missing = tracer.missing_samples(traced.trace["calls"], bench.workload.name)
    if missing:
        return f"no sample on expected probes: {', '.join(missing)}"
    if plain.error is None:
        return same_outputs(plain.out_dir, traced.out_dir)
    return None


def trace_layers(bench: Bench) -> tuple[list[Run], dict]:
    """One untraced and one traced run; per-layer metrics and overhead."""
    plain = bench.run()
    traced = None
    try:
        traced = bench.run(trace=True)
        if traced.error is None:
            traced.error = _trace_error(bench, plain, traced)
    finally:
        bench.discard(plain)
        if traced is not None:
            bench.discard(traced)
    if traced.trace is None:
        raise RuntimeError(f"traced run failed: {traced.error}")
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in traced.trace["metrics"].items()}
    metrics[TRACE_OVERHEAD[0]] = {"value": traced.wall_s - plain.wall_s, "unit": "s"}
    return [plain, traced], metrics


# -- environment and manifest ----------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(bench: Bench, runs: list[Run]) -> dict:
    return {
        "commit": git_commit(bench.root),
        "source_sha256": source_digest(bench.root),
        "python": sys.version.split()[0],
        **next((r.versions for r in runs if r.versions), {}),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": bench.threads,
        "seed": bench.seed,
        "weight_a": bench.weight,
        "sources": bench.sources,
    }


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in [*tracer.metric_specs(), TRACE_OVERHEAD]
        ],
    }


# -- command line ---------------------------------------------------------------


def bench_one(root: Path, name: str, args) -> dict:
    bench = Bench(root, name, args.seed, args.smoke)
    if args.trace:
        runs, metrics = trace_layers(bench)
    else:
        runs, metrics = measure(bench, args.seconds)
    failed = sum(r.error is not None for r in runs)
    print(f"== {name} (seed {args.seed}, weight_a {bench.weight}, sources {bench.sources})")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed / len(runs):.6g} ({failed}/{len(runs)} runs)")
    for r in runs:
        print(f"  check: {'ok' if r.error is None else 'FAILED ' + r.error}")
    print("env " + json.dumps(environment(bench, runs), sort_keys=True))
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that kill and reap the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if args.write_manifest:
        (root / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    for needed in ("src/aufwalk/cli.py", "demos/config.example.json"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: bench_one(root, name, args) for name in names}
    finally:
        try:
            (root / ".perfbench_tmp").rmdir()  # left alone while another run uses it
        except OSError:
            pass
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
