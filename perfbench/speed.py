"""How fast the shared machine runs at the moment.

On a machine shared with other tenants the speed of the CPU drifts by tens
of percent over tens of seconds, and the program and any other code slow
down together.  A probe times a fixed block of work that does not touch
contextprob.  A timing taken next to a probe is scaled by
``reference / probe``: it reads as if the machine ran at the speed where the
block takes ``reference`` seconds.  A change to the program moves the scaled
figure as much as the raw one.

Two blocks follow two kinds of slowdown.  ``COMPUTE`` does JSON parsing,
sorting with a key function, string formatting, a numpy scan, and many numpy
calls on two-element arrays with a frozen dataclass built per call: the
kinds of work most workloads do.  ``MEMORY`` fills and sums a fresh 4 MB
array, which pays for page faults and memory bandwidth like building and
reading a large identity matrix does; the compute block does not slow in
step with that work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_DOC = json.dumps(
    {"weights": [i / 97.0 for i in range(60)], "names": [f"p{i}" for i in range(60)],
     "nested": [{"a": i, "b": [i, i + 1.5]} for i in range(20)]}
)
_VALUES = np.linspace(0.0, 1.0, 20_000)
_PAIR = [0.25, 0.75]


@dataclass(frozen=True)
class _Pair:
    first: float
    both: tuple


def _compute_block() -> float:
    start = perf_counter()
    for _ in range(4):
        doc = json.loads(_DOC)
        sorted(doc["names"], key=lambda name: name[::-1])
        "".join(format(w, ".17g") for w in doc["weights"])
        float(np.cumsum(_VALUES)[-1])
    for _ in range(60):
        pair = np.asarray(_PAIR, dtype=float)
        bool(np.all(np.isfinite(pair)))
        bool(np.any(pair < 0.0))
        _Pair(float(np.sum(pair)), tuple(_PAIR))
    return perf_counter() - start


def _memory_block() -> float:
    start = perf_counter()
    float(np.ones(500_000).sum())
    return perf_counter() - start


class Probe:
    def __init__(self, block, reference: float):
        self.block = block
        self.reference = reference  # about the block's median seconds on the reference machine

    def __call__(self) -> float:
        """Seconds the block takes now: the faster of two runs, so one interruption does not count."""
        return min(self.block(), self.block())

    def factor(self, before: float, after: float) -> float:
        """Scale for a timing taken between two probes."""
        return self.reference / ((before + after) / 2.0)


COMPUTE = Probe(_compute_block, 0.0018)
MEMORY = Probe(_memory_block, 0.0006)
