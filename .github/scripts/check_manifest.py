"""Check the certified bounds in a walk manifest.

    python .github/scripts/check_manifest.py MANIFEST

Prints the checked keys and exits 1 unless the certified norm top is at most
the analytic bound, the solve residual at most 1e-10 and the certified
relative error bound of the Green rows at most 1e-12.
"""

import json
import sys
from pathlib import Path

m = json.loads(Path(sys.argv[1]).read_text())
print({k: m[k] for k in ("normInterval", "normBound", "solverResidual", "greenErrorBound")})
sys.exit(int(not (m["normInterval"][1] <= m["normBound"] and m["solverResidual"] <= 1e-10
                  and m["greenErrorBound"] <= 1e-12)))
