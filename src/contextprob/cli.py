"""Command line front end: analyze, sample, validate.

Exit codes: 0 success, 2 malformed input (parse or invariant failure),
3 data too degenerate to analyze at all.  Degenerate interference entries
are report content, not failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dynamics import sample_frequencies
from .errors import (
    DegenerateContext,
    DegenerateData,
    InvariantViolation,
    TypeMismatch,
    UnknownValue,
)
from .model_io import ingest_contingency_table, load_model
from .reporting import analyze_model, analyze_statistics, canonical_json, emit_report


def _digest(data: bytes) -> str:
    import hashlib  # only a successful analysis needs it, so validate and sample skip OpenSSL
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InvariantViolation(f"cannot read {path}: {exc.strerror}") from None


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise InvariantViolation(f"cannot write {out}: {exc.strerror}") from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.model:
        raw = _read(args.model)
        report = analyze_model(
            load_model(raw), input_digest=_digest(raw), seed=args.seed
        )
    else:
        raw = _read(args.table)
        report = analyze_statistics(
            ingest_contingency_table(raw),
            input_digest=_digest(raw),
            seed=args.seed,
        )
    _write_output(emit_report(report), args.out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    model = load_model(_read(args.model))
    if args.variable not in model.variables:
        raise UnknownValue(f"no variable named {args.variable!r} in the model")
    n = model.options.sample_size if args.n is None else args.n
    seed = model.options.seed if args.seed is None else args.seed
    table = sample_frequencies(
        model.prespace, model.context, model.variables[args.variable], n, seed
    )
    doc = {
        "schema": 1,
        "variable": args.variable,
        "support": list(table.support),
        "counts": table.counts.tolist(),
        "frequencies": table.frequencies.tolist(),
        "total": table.total,
        "seed": table.seed,
    }
    _write_output((canonical_json(doc) + "\n").encode("ascii"), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(_read(args.model))
    names = ", ".join(sorted(model.variables))
    kernel = "present" if model.kernel is not None else "absent"
    print(
        f"model ok: {model.prespace.size} points; variables: {names}; "
        f"selector: {model.selector_name}; outcome: {model.outcome_name}; "
        f"context size {model.context.size}; kernel {kernel}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextprob",
        description=(
            "Analyze contextual probability experiments: interference "
            "coefficients, regime classification, amplitude reconstruction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="analyze a model document or a contingency table"
    )
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="path to a JSON model document")
    source.add_argument("--table", help="path to a CSV contingency table")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--seed", type=int, help="override the echoed seed")
    analyze.set_defaults(handler=_cmd_analyze)

    sample = sub.add_parser(
        "sample", help="draw seeded samples of one variable in the model context"
    )
    sample.add_argument("--model", required=True, help="path to a JSON model document")
    sample.add_argument("--variable", required=True, help="variable to sample")
    sample.add_argument("--n", type=int, help="number of draws")
    sample.add_argument("--seed", type=int, help="generator seed")
    sample.add_argument("--out", help="write the table here instead of stdout")
    sample.set_defaults(handler=_cmd_sample)

    validate = sub.add_parser("validate", help="check a model document and exit")
    validate.add_argument("--model", required=True, help="path to a JSON model document")
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvariantViolation, UnknownValue, TypeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateContext, DegenerateData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
