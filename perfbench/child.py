"""One measured process: import the aufwalk CLI, run one command, report times.

    python3 perfbench/child.py REPORT [--trace FILE] [--setup-only] -- CLI-ARGS...

REPORT receives ``{"loaded": t, "done": t, "versions": {...}}``; the times
are ``time.monotonic()`` readings (system-wide on Linux, so the parent can
subtract its own spawn time): ``loaded`` when ``load_config`` returned and
``done`` when the command returned.  With ``--setup-only`` the child stops
after loading the config.  With ``--trace`` it installs the per-layer probes
of ``tracer.py`` first and writes their totals to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    import aufwalk.cli as cli

    stamps = {"versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    load_config = cli.load_config

    def timed_load_config(*a, **kw):
        cfg = load_config(*a, **kw)
        stamps["loaded"] = time.monotonic()
        return cfg

    cli.load_config = timed_load_config
    if args.setup_only:
        cli.load_config(cli_args[1])
        code = 0
    else:
        code = cli.main(cli_args)
    stamps["done"] = time.monotonic()
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.report()))
    Path(args.report).write_text(json.dumps(stamps))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
