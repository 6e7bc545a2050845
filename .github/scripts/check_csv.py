"""Check the rows of a walk's green_martin.csv.

    python .github/scripts/check_csv.py CSV RADIUS SOURCE [SOURCE ...]

Reads the file a line at a time and exits 1 unless it holds the header
``s,t,G,K,truncationBound`` and then one section per source, in the order
given, of one row per word of the ball of the given radius: each row's s is
its section's source, its t runs over the ball in heap order (by length,
then a < b, with e for the root), and each of its G, K and bound reads
f"{float(x):.17g}" of itself.  Prints the row count and the first bad line.
"""

import itertools
import sys


def ball(radius: int):
    """The words of the ball in heap order, e for the root."""
    for length in range(radius + 1):
        for letters in itertools.product("ab", repeat=length):
            yield "".join(letters) or "e"


def row_ok(line: str | None, want: tuple[str, str] | None) -> bool:
    if line is None or want is None or not line.endswith("\n"):
        return False
    fields = line[:-1].split(",")
    if len(fields) != 5 or tuple(fields[:2]) != want:
        return False
    try:
        return all(x == f"{float(x):.17g}" for x in fields[2:])
    except ValueError:
        return False


path, radius, sources = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
size = (1 << (radius + 1)) - 1
rows, bad = 0, None
with open(path, encoding="utf-8") as f:
    header_ok = f.readline() == "s,t,G,K,truncationBound\n"
    wanted = ((s, t) for s in sources for t in ball(radius))
    for line, want in itertools.zip_longest(f, wanted):
        rows += line is not None
        if bad is None and not row_ok(line, want):
            bad = f"line {rows + 1}: {line!r}, want s,t = {want}"
print(f"header {'ok' if header_ok else 'wrong'}, {rows} rows (want {len(sources) * size}), "
      f"first bad line: {bad or 'none'}")
sys.exit(int(not header_ok or bad is not None))
