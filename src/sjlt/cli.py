"""Single-binary command line: transform vector files, run benches, emit CSV reports.

Every report is ASCII CSV with one '#'-prefixed line recording the full
configuration. All randomness enters through explicit seeds, so identical
invocations produce identical payloads (graph-count's elapsed_ms column is the
one timing field and is excluded from that guarantee). Errors print a single
machine-readable line `error: <code>: <message>` to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .chaos import ChaosInstance, MomentReport, moment_report, tail_estimate
from .graphs import CLASS_ENUM_BUDGET, BudgetExceededError, class_histogram
from .transform import (
    DEFAULT_KAPPA,
    DenseVector,
    DistortionReport,
    apply,
    derive_spec,
    distortion_bench,
    read_sparse_vectors,
    write_dense_vectors,
)

_SCHEMAS = {
    "moment-report": MomentReport.CSV_COLUMNS,
    "graph-count": ("m", "i", "t", "count", "elapsed_ms"),
    "distortion-bench": DistortionReport.CSV_COLUMNS,
    "tail-estimate": ("d", "k", "c", "m", "epsilon", "delta", "trials", "hits",
                      "failure_rate", "wilson_low", "wilson_high"),
}


class _VerifyError(ValueError):
    pass


def _fail(code: str, message: str) -> int:
    print(f"error: {code}: {message}", file=sys.stderr)
    return 1


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_report(out_path: str, command: str, config: dict, columns, rows) -> None:
    body = " ".join(f"{key}={_format_value(config[key])}" for key in sorted(config))
    lines = [f"# sjlt command={command} {body}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="ascii")


def _kappas(args) -> tuple[float, float, float]:
    return (args.kappa_m, args.kappa_k, args.kappa_c)


def _trials_config(args) -> dict:
    keys = ("d", "epsilon", "delta", "trials", "bucket_seed", "sign_seed",
            "kappa_m", "kappa_k", "kappa_c")
    return {key: getattr(args, key) for key in keys}


def cmd_transform(args) -> int:
    vectors = read_sparse_vectors(args.infile)
    spec = derive_spec(args.d, args.epsilon, args.delta, args.bucket_seed,
                       args.sign_seed, _kappas(args))
    outputs = []
    for vector in vectors:
        if vector.dim != args.d:
            raise ValueError(f"vector dimension {vector.dim} does not match --d {args.d}")
        outputs.append(apply(spec, vector))
    write_dense_vectors(args.out, outputs)
    return 0


def cmd_distortion_bench(args) -> int:
    report = distortion_bench(args.d, args.epsilon, args.delta, args.trials,
                              args.bucket_seed, args.sign_seed, _kappas(args))
    row = tuple(getattr(report, column) for column in DistortionReport.CSV_COLUMNS)
    _write_report(args.out, "distortion-bench", _trials_config(args),
                  DistortionReport.CSV_COLUMNS, [row])
    return 0


def cmd_moment_report(args) -> int:
    if args.x != "uniform":
        raise ValueError("only --x uniform is supported")
    instance = ChaosInstance.uniform(args.d, args.k)
    cap = args.C if args.C is not None else float(args.d)
    report = moment_report(instance, args.m, cap, args.trials, args.seed)
    config = {"d": args.d, "k": args.k, "m": args.m, "x": args.x, "C": cap,
              "trials": args.trials, "seed": args.seed}
    row = tuple(getattr(report, column) for column in MomentReport.CSV_COLUMNS)
    _write_report(args.out, "moment-report", config, MomentReport.CSV_COLUMNS, [row])
    return 0


def cmd_graph_count(args) -> int:
    rows = []
    for i in range(1, args.i_max + 1):
        sequences = (i * (i - 1) // 2) ** (2 * args.m)
        if sequences > args.budget:
            raise BudgetExceededError(
                f"i={i}: {sequences} sequences exceed the requested budget {args.budget}")
        started = time.perf_counter()
        counts = class_histogram(i, args.m)
        elapsed_ms = int(round((time.perf_counter() - started) * 1000.0))
        for t in range(1, i // 2 + 1):
            rows.append((args.m, i, t, counts.get(t, 0), elapsed_ms))
    config = {"m": args.m, "i_max": args.i_max, "budget": args.budget}
    _write_report(args.out, "graph-count", config, _SCHEMAS["graph-count"], rows)
    return 0


def cmd_tail_estimate(args) -> int:
    spec = derive_spec(args.d, args.epsilon, args.delta, args.bucket_seed,
                       args.sign_seed, _kappas(args))
    report = tail_estimate(DenseVector.uniform(args.d), spec.k, spec.c, args.epsilon,
                           args.trials, args.bucket_seed, args.sign_seed,
                           spec.independence_degree)
    row = (args.d, spec.k, spec.c, spec.m, args.epsilon, args.delta, report.trials,
           report.hits, report.failure_rate, report.wilson_low, report.wilson_high)
    _write_report(args.out, "tail-estimate", _trials_config(args),
                  _SCHEMAS["tail-estimate"], [row])
    return 0


def _verify_numeric(cell: str, line_number: int) -> None:
    try:
        float(cell)
    except ValueError:
        raise _VerifyError(f"non-numeric cell {cell!r} on line {line_number}") from None


def cmd_verify(args) -> int:
    path = Path(args.file)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = [ln for ln in path.read_text(encoding="ascii").splitlines() if ln.strip()]
    if not lines:
        raise _VerifyError("file is empty")
    if lines[0].startswith("#"):
        tokens = lines[0].lstrip("#").split()
        pairs = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
        command = pairs.get("command")
        if command not in _SCHEMAS:
            raise _VerifyError(f"unknown or missing command in header: {command!r}")
        if len(lines) < 2 or tuple(lines[1].split(",")) != _SCHEMAS[command]:
            raise _VerifyError(f"column header does not match the {command} schema")
        for number, line in enumerate(lines[2:], start=3):
            cells = line.split(",")
            if len(cells) != len(_SCHEMAS[command]):
                raise _VerifyError(f"row width mismatch on line {number}")
            for cell in cells:
                _verify_numeric(cell, number)
        print(f"ok: {command} rows={len(lines) - 2}")
        return 0
    widths = set()
    for number, line in enumerate(lines, start=1):
        cells = line.split(",")
        widths.add(len(cells))
        for cell in cells:
            _verify_numeric(cell, number)
    if len(widths) != 1:
        raise _VerifyError("inconsistent vector widths")
    print(f"ok: vectors rows={len(lines)} width={widths.pop()}")
    return 0


def _add_kappa_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kappa-m", type=float, default=DEFAULT_KAPPA[0])
    parser.add_argument("--kappa-k", type=float, default=DEFAULT_KAPPA[1])
    parser.add_argument("--kappa-c", type=float, default=DEFAULT_KAPPA[2])


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--bucket-seed", type=int, required=True)
    parser.add_argument("--sign-seed", type=int, required=True)
    _add_kappa_flags(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjlt",
        description="Sparse signed-bucket projection: transform, benchmark, verify.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("transform", help="project a file of sparse vectors")
    _add_spec_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("distortion-bench", help="norm-distortion failure rate")
    _add_spec_flags(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_distortion_bench)

    p = sub.add_parser("moment-report", help="exact and sampled chaos moments")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", default="uniform")
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_moment_report)

    p = sub.add_parser("graph-count", help="exact sequence-class counts")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=CLASS_ENUM_BUDGET,
                   help="refuse cells whose sequence space exceeds this")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_graph_count)

    p = sub.add_parser("tail-estimate", help="empirical chaos tail probability")
    _add_spec_flags(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tail_estimate)

    p = sub.add_parser("verify", help="validate a previously emitted report file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list[:1] == ["--verify"]:
        args_list = ["verify"] + args_list[1:]
    parser = _build_parser()
    args = parser.parse_args(args_list)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        _fail("usage", "a subcommand is required")
        return 2
    try:
        return args.func(args)
    except _VerifyError as exc:
        return _fail("verify-failed", str(exc))
    except FileNotFoundError as exc:
        return _fail("missing-input", str(exc))
    except BudgetExceededError as exc:
        return _fail("budget-exceeded", str(exc))
    except ValueError as exc:
        return _fail("invalid-parameter", str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
