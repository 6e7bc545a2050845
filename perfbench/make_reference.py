"""Regenerate reference.json: the values the output checks compare against.

    python3 perfbench/make_reference.py

Run from the repository root on a commit whose outputs are trusted.  For
every weight of the seed grid it runs the walk workloads with all short
words as sources and keeps G and K at the check targets, and it keeps every
row of the branch workload's boundary CSV.  It also confirms that the audit
workload fails exactly the expected entries at every weight.  Full sizes take
about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    REFERENCE_PATH,
    SHORT_WORDS,
    WEIGHTS,
    WORKLOADS,
    CheckError,
    boundary_rows,
    build_config,
    check_outputs,
    reference_key,
    walk_values,
)

RTOL = 1e-9


def run_cli(root: Path, workload, smoke: bool, weight: float, work: Path):
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg, extra = build_config(root, workload, smoke, weight, list(SHORT_WORDS), out_dir)
    (work / "config.json").write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "AUFWALK_OUT"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "aufwalk.cli", workload.command, str(work / "config.json"), *extra],
        cwd=root, env=env, stdout=subprocess.DEVNULL,
    )
    return cfg, proc.returncode, out_dir


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    root = Path.cwd()
    reference = {"rtol": RTOL}
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    try:
        for smoke in (True, False):
            for workload in WORKLOADS.values():
                for weight in WEIGHTS:
                    cfg, code, out_dir = run_cli(root, workload, smoke, weight, work)
                    key = reference_key(workload, smoke, weight)
                    if workload.command == "audit":
                        check_outputs(workload, smoke, weight, [], cfg, code, out_dir, reference)
                    elif code != 0:
                        raise CheckError(f"{key}: exit code {code}")
                    elif workload.command == "walk":
                        radius = workload.sizes(smoke)["radius"]
                        reference[key] = walk_values(out_dir, radius, list(SHORT_WORDS))
                    else:
                        reference[key] = boundary_rows(out_dir)
                    print(f"{key}: ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
