"""Checks of program outputs against the oracle and the method's properties.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing here compares against stored report bytes.
"""

from __future__ import annotations

import json
import math

from oracle import CLASSIFY_TOLERANCE, Expected

COEFFICIENT_TOLERANCE = 1e-9
BORN_TOLERANCE = 1e-10
# A sampled frequency may sit this many binomial standard deviations (plus
# one count) away from the exact probability.
BINOMIAL_Z = 6.0


def check_report(cp, data: bytes, expected: Expected, digest: str, seed=None) -> list[str]:
    """Check one emitted report against the oracle and the method's invariants."""
    problems = []
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if cp.emit_report(cp.load_report(data)) != data:
        problems.append("emit(load_report(emit)) differs from emit")
    if doc.get("input_digest") != digest:
        problems.append(f"input_digest {doc.get('input_digest')!r} != {digest!r}")
    if seed is not None and doc.get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r} != {seed!r}")
    tolerance = doc["interference"]["classify_tolerance"]
    entries = doc["interference"]["entries"]
    if [e["outcome"] for e in entries] != list(expected.coefficients):
        return problems + [f"outcomes {[e['outcome'] for e in entries]} != oracle {list(expected.coefficients)}"]
    for entry in entries:
        label = entry["outcome"]
        want = expected.coefficients[label]
        got = entry["coefficient"]
        kind = entry["classification"]
        if want is None or got is None:
            if not (want is None and got is None and kind == "degenerate"):
                problems.append(f"{label}: coefficient {got!r} ({kind}), oracle {want!r}")
            continue
        if abs(got - want) > COEFFICIENT_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"{label}: coefficient {got!r}, oracle {want!r}")
        own = "trigonometric" if abs(got) <= 1.0 + tolerance else "hyperbolic"
        if kind != own or kind != expected.classification(label):
            problems.append(f"{label}: classified {kind} with coefficient {got!r}")
        first, second = entry["branches"]
        swing = 2.0 * math.sqrt(first) * math.sqrt(second)
        if kind == "trigonometric":
            rebuilt = first + second + swing * math.cos(entry["phase"])
        else:
            rebuilt = first + second + swing * entry["sign"] * math.cosh(entry["phase"])
        if abs(rebuilt - entry["observed"]) > BORN_TOLERANCE:
            problems.append(f"{label}: Born residual {abs(rebuilt - entry['observed'])!r}")
    regime = doc["amplitudes"]["regime"]
    if regime != expected.regime:
        problems.append(f"regime {regime}, oracle {expected.regime}")
    components = doc["amplitudes"]["components"]
    if (components is None) != (regime not in ("trigonometric", "hyperbolic")):
        problems.append(f"amplitudes {components!r} for regime {regime}")
    if components is not None:
        sign = 1.0 if regime == "trigonometric" else -1.0
        marginals = doc["statistics"]["outcome_marginals"]
        for (x, y), observed in zip(components, marginals):
            if abs(x * x + sign * y * y - observed) > BORN_TOLERANCE:
                problems.append(f"amplitude ({x}, {y}) misses marginal {observed}")
        if not doc["born_residual"] <= BORN_TOLERANCE:
            problems.append(f"born_residual {doc['born_residual']!r}")
    return problems


def binomial_problems(counts: dict, n: int, exact: dict) -> list[str]:
    """Counts must sum to n and each frequency sit near its exact probability."""
    problems = []
    if sum(counts.values()) != n:
        problems.append(f"counts sum to {sum(counts.values())}, expected {n}")
    if set(counts) != set(exact):
        return problems + [f"support {sorted(map(str, counts))} != {sorted(map(str, exact))}"]
    for label, p in exact.items():
        bound = BINOMIAL_Z * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
        if abs(counts[label] / n - p) > bound:
            problems.append(f"{label}: frequency {counts[label] / n} vs exact {p} (bound {bound})")
    return problems
