"""Machine-readable reports with deterministic serialization.

Reports are JSON objects with sorted keys; every potentially large integer
is carried as a decimal string so output is bit-exact across platforms.
Wall-clock timings live under the single key "timings" so that two runs of
the same command can be compared byte-for-byte after dropping that key.
"""

from __future__ import annotations

import json
import time
from typing import Optional

TOOL_NAME = "towerlim"
TOOL_VERSION = "0.1.0"


def decimal_list(xs) -> list[str]:
    return [str(int(x)) for x in xs]


class Timer:
    """Accumulates named wall-clock phases for the report."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self._marks: dict[str, float] = {}

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self._marks[name] = self._marks.get(name, 0.0) + (now - self._t0)
        self._t0 = now

    def as_record(self) -> dict:
        return {k: round(v, 6) for k, v in sorted(self._marks.items())}


def make_report(command: str, body: dict,
                digest: Optional[str] = None,
                timer: Optional[Timer] = None) -> dict:
    report = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
    }
    if digest is not None:
        report["config_digest"] = digest
    report.update(body)
    report["timings"] = timer.as_record() if timer else {}
    return report


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: Optional[str]) -> str:
    text = render(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
