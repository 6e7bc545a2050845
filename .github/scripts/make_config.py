"""Write the example config with some of its top-level keys set.

    python .github/scripts/make_config.py OUT KEY=JSON [KEY=JSON ...]

Reads demos/config.example.json, sets each KEY to its JSON value (a key the
example lacks is appended) and writes the result to OUT.
"""

import json
import sys
from pathlib import Path

config = json.loads((Path(__file__).resolve().parents[2] / "demos" / "config.example.json").read_text())
for item in sys.argv[2:]:
    key, value = item.split("=", 1)
    config[key] = json.loads(value)
Path(sys.argv[1]).write_text(json.dumps(config))
