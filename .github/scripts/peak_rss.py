"""Run a command and fail on an unexpected exit code or a peak RSS above a ceiling.

    python .github/scripts/peak_rss.py CEILING_MIB EXPECTED_EXIT COMMAND [ARG ...]

Prints the command's exit code and peak RSS (ru_maxrss of the waited-for
children, in KiB on Linux), and exits 1 unless the command exited with
EXPECTED_EXIT and peaked at or below CEILING_MIB.
"""

import resource
import subprocess
import sys

ceiling, expected, command = float(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
code = subprocess.call(command)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{' '.join(command)}: exit {code} (want {expected}), peak RSS {peak:.0f} MiB (ceiling {ceiling:g})")
sys.exit(int(code != expected or peak > ceiling))
