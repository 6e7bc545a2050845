"""Check an audit run: its exit code, which entries failed and its stdout.

    python .github/scripts/check_audit.py REPORT EXIT_CODE [EXPECTED_FAILED ...]

REPORT is the run's audit_report.json; the run's stdout must sit beside it
as stdout.txt.  Prints the failed entries and exits 1 unless the report
holds the 23 entries of the audit table, the failed ones are exactly
EXPECTED_FAILED in report order, the exit code is 1 when one failed and 0
when none did, overallPass agrees, and stdout is one [PASS]/[FAIL] line per
entry, in report order, with its measured value and bound.
"""

import json
import sys
from pathlib import Path

ENTRIES = 23

report_path, code, expected = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
report = json.loads(report_path.read_text())
entries = report["audits"]
failed = [e["name"] for e in entries if not e["pass"]]
lines = (report_path.parent / "stdout.txt").read_text().splitlines()
want = [
    f"[{'PASS' if e['pass'] else 'FAIL'}] {e['name']}: measured={e['measured']:.6g} bound={e['bound']:.6g}"
    for e in entries
]
print("exit", code, "entries", len(entries), "failed", failed)
problems = [
    f"{len(entries)} entries, not {ENTRIES}" if len(entries) != ENTRIES else "",
    f"failed {failed}, expected {expected}" if failed != expected else "",
    f"exit {code}, expected {int(bool(failed))}" if code != int(bool(failed)) else "",
    "overallPass disagrees with the entries" if report["overallPass"] is not (not failed) else "",
    "stdout is not one [PASS]/[FAIL] line per entry in report order" if lines != want else "",
]
for problem in filter(None, problems):
    print(problem)
sys.exit(int(any(problems)))
