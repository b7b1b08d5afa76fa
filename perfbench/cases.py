"""CLI cases of the cli-examples workload and their documented outcomes.

The README contract of ``contextprob`` says every input ends in a report
(exit 0), exit 2 for malformed input or exit 3 for data too degenerate to
analyze.  Each case below states the exit code that contract demands.  The
input files and ``expected.json`` under ``perfbench/cases/`` are written
from these definitions; regenerate them with

    python3 perfbench/cases.py

The benchmark refuses to run when the stored files differ from what this
module would write.  A case marked ``known_fault`` ends differently today
because of a fault in the program; the benchmark counts it as a failed
operation until the program is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CASES_DIR = Path(__file__).resolve().parent / "cases"
EXPECTED_FILE = "expected.json"

_PERTURBED = {
    "schema": 1,
    "points": ["upper", "lower"],
    "weights": [0.5, 0.5],
    "variables": {"gate": ["open", "closed"], "detector": ["hit", "miss"]},
    "selector": "gate",
    "outcome": "detector",
    "context": [0, 1],
    "kernel": [[0.9, 0.1], [0.3, 0.7]],
}

_TABLE_HEADER = "experiment,outcome_a,outcome_b,count\n"


def _table(first_direct_count: str, zero_direct: bool = False) -> bytes:
    direct = ("0", "0") if zero_direct else (first_direct_count, "500")
    return (
        _TABLE_HEADER
        + f"direct,,up,{direct[0]}\n"
        + f"direct,,down,{direct[1]}\n"
        + "sequential,left,up,4000\n"
        + "sequential,left,down,1000\n"
        + "sequential,right,up,1000\n"
        + "sequential,right,down,4000\n"
    ).encode("ascii")


def _model(**changes) -> bytes:
    doc = json.loads(json.dumps(_PERTURBED))
    doc.update(changes)
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]  # arguments after ``python -m contextprob``; {file} is the case file
    expected_exit: int
    content: bytes | None = None  # None: the case reads a shipped file or none
    suffix: str = ".json"
    known_fault: str | None = None

    @property
    def file(self) -> str | None:
        return None if self.content is None else self.name + self.suffix


def cases() -> list[Case]:
    tiny = {
        "schema": 1,
        "weights": [5e-301, 0.5, 5e-301, 0.5],
        "variables": {"arm": ["left", "left", "right", "right"], "screen": ["up", "down", "up", "down"]},
        "selector": "arm",
        "outcome": "screen",
        "context": [0, 1, 2, 3],
    }
    return [
        Case("bad-json", ("analyze", "--model", "{file}"), 2, _model()[:-40]),
        Case("unknown-key", ("analyze", "--model", "{file}"), 2, _model(extra=1)),
        Case("kernel-row-sum", ("analyze", "--model", "{file}"), 2,
             _model(kernel=[[0.9, 0.1], [0.3, 0.6]])),
        Case("negative-weight", ("validate", "--model", "{file}"), 2, _model(weights=[1.5, -0.5])),
        Case("three-valued-selector", ("analyze", "--model", "{file}"), 2,
             _model(points=["a", "b", "c"], weights=[0.25, 0.25, 0.5],
                    variables={"gate": ["open", "closed", "ajar"], "detector": ["hit", "miss", "hit"]},
                    context=[0, 1, 2], kernel=None)),
        Case("context-out-of-range", ("analyze", "--model", "{file}"), 2, _model(context=[0, 5])),
        Case("selector-absent-from-context", ("analyze", "--model", "{file}"), 3, _model(context=[0])),
        Case("sample-unknown-variable",
             ("sample", "--model", "example_models/classical.json", "--variable", "nosuch", "--n", "10"), 2),
        Case("missing-file", ("analyze", "--model", "perfbench/cases/no-such-file.json"), 2),
        Case("table-bad-header", ("analyze", "--table", "{file}"), 2,
             _table("9500").replace(b"count", b"total", 1), ".csv"),
        Case("table-non-integer", ("analyze", "--table", "{file}"), 2, _table("95x0"), ".csv"),
        Case("table-zero-direct", ("analyze", "--table", "{file}"), 3, _table("0", zero_direct=True), ".csv"),
        Case("table-400-digit-count", ("analyze", "--table", "{file}"), 2, _table("9" * 400), ".csv",
             known_fault="exits 1 with an OverflowError traceback while converting counts to float"),
        Case("table-underscore-count", ("analyze", "--table", "{file}"), 2, _table("9_500"), ".csv",
             known_fault="int() accepts Python literal syntax, so 9_500 is read as 9500 and the table analyzed"),
        Case("tiny-branches", ("analyze", "--model", "{file}"), 0,
             (json.dumps(tiny, indent=2) + "\n").encode("ascii"),
             known_fault="sqrt(b1 * b2) underflows to 0 and _coefficient raises ZeroDivisionError (exit 1)"),
    ]


def expected_document() -> dict:
    return {
        "cases": [
            {
                "name": case.name,
                "file": case.file,
                "argv": list(case.argv),
                "expected_exit": case.expected_exit,
                "known_fault": case.known_fault,
            }
            for case in cases()
        ]
    }


def rendered() -> dict[str, bytes]:
    """Every file under ``perfbench/cases/`` as this module writes it."""
    files = {case.file: case.content for case in cases() if case.file is not None}
    files[EXPECTED_FILE] = (json.dumps(expected_document(), indent=2) + "\n").encode("ascii")
    return files


def stale_files() -> list[str]:
    """Names of stored case files that are missing, extra, or differ from the definitions."""
    stored = {p.name: p.read_bytes() for p in CASES_DIR.iterdir()} if CASES_DIR.is_dir() else {}
    files = rendered()
    return sorted(name for name in stored.keys() | files.keys() if stored.get(name) != files.get(name))


def regenerate() -> None:
    CASES_DIR.mkdir(exist_ok=True)
    files = rendered()
    for path in CASES_DIR.iterdir():
        if path.name not in files:
            path.unlink()
    for name, data in files.items():
        (CASES_DIR / name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(rendered())} files to {CASES_DIR}")
