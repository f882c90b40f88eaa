"""Single-binary command line: transform vector files, run benches, emit CSV reports.

Every report is ASCII CSV with one '#'-prefixed line recording the full
configuration. All randomness enters through explicit seeds, so identical
invocations produce identical payloads (graph-count's elapsed_ms column is the
one timing field and is excluded from that guarantee; every row of a report
carries the time of the one pass that counted them all). Errors print a single
machine-readable line `error: <code>: <message>` to stderr and exit nonzero, and
nothing else. A call that succeeds then writes each warning that the filters let
through as one line `warning: <kind>: <message>`, e.g. `warning: assumption: ...`;
a warning that the filters raise is a refusal, `error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from pathlib import Path

from .chaos import ChaosInstance, MomentReport, check_moment_report, moment_report, tail_estimate
from .graphs import BudgetExceededError, class_histograms
from .graphs import class_histogram  # not called here; the benchmark's tracer patches it by name
from .transform import (
    DEFAULT_KAPPA,
    TrialReport,
    apply,  # not called here; the benchmark's tracer patches cli.apply by name
    apply_rows,
    derive_spec,
    distortion_bench,
    read_sparse_vectors,
    write_dense_vectors,
)

_SCHEMAS = {
    "moment-report": MomentReport.CSV_COLUMNS,
    "graph-count": ("m", "i", "t", "count", "elapsed_ms"),
    "distortion-bench": TrialReport.DISTORTION_COLUMNS,
    "tail-estimate": TrialReport.TAIL_COLUMNS,
}


class _VerifyError(ValueError):
    pass


def _fail(code: str, message: str) -> int:
    print(f"error: {code}: {message}", file=sys.stderr)
    return 1


def _warning_kind(category: type[Warning]) -> str:
    return category.__name__.removesuffix("Warning").lower()  # AssumptionWarning: assumption


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


def _write_report_row(out_path: str, command: str, config: dict, report) -> None:
    # a report's fields are its command's columns, and a dataclass's instance
    # dict holds its fields in field order
    _write_report(out_path, command, config, _SCHEMAS[command], [vars(report).values()])


def _kappas(args) -> tuple[float, float, float]:
    return (args.kappa_m, args.kappa_k, args.kappa_c)


def cmd_transform(args) -> int:
    # parameters first: a bad one is refused before the input is opened
    spec = derive_spec(args.d, args.epsilon, args.delta, args.bucket_seed,
                       args.sign_seed, _kappas(args))
    vectors = read_sparse_vectors(args.infile)
    rows = apply_rows(spec, vectors)
    write_dense_vectors(sys.stdout if args.out == "-" else args.out, rows)
    return 0


def cmd_trials(args) -> int:
    spec = derive_spec(args.d, args.epsilon, args.delta, args.bucket_seed,
                       args.sign_seed, _kappas(args))
    # module globals, read at call time: the benchmark's tracer patches both names
    experiment = distortion_bench if args.command == "distortion-bench" else tail_estimate
    keys = ("d", "epsilon", "delta", "trials", "bucket_seed", "sign_seed",
            "kappa_m", "kappa_k", "kappa_c")
    _write_report_row(args.out, args.command, {key: getattr(args, key) for key in keys},
                      experiment(spec, args.trials))
    return 0


def cmd_moment_report(args) -> int:
    if args.x != "uniform":
        raise ValueError("only --x uniform is supported")
    cap = args.C if args.C is not None else float(args.d)
    check_moment_report(args.d, args.k, args.m, args.trials, args.seed)
    instance = ChaosInstance.uniform(args.d, args.k)
    report = moment_report(instance, args.m, cap, args.trials, args.seed)
    config = {"d": args.d, "k": args.k, "m": args.m, "x": args.x, "C": cap,
              "trials": args.trials, "seed": args.seed}
    _write_report_row(args.out, "moment-report", config, report)
    return 0


def cmd_graph_count(args) -> int:
    if args.m < 1:
        raise ValueError(f"m must be positive, got {args.m}")
    if args.i_max < 1:
        raise ValueError(f"i_max must be positive, got {args.i_max}")
    # one pass of the tables holds every i; each row reports that pass's time
    started = time.perf_counter()
    histograms = class_histograms(args.i_max, args.m)
    elapsed_ms = int(round((time.perf_counter() - started) * 1000.0))
    rows = [(args.m, i, t, histograms[i].get(t, 0), elapsed_ms)
            for i in range(1, args.i_max + 1) for t in range(1, i // 2 + 1)]
    config = {"m": args.m, "i_max": args.i_max}
    _write_report(args.out, "graph-count", config, _SCHEMAS["graph-count"], rows)
    return 0


def _verify_numeric(cell: str, line_number: int, finite: bool) -> None:
    # sjlt writes no nan, and no infinite value into a vector file
    try:
        value = float(cell)
    except ValueError:
        raise _VerifyError(f"non-numeric cell {cell!r} on line {line_number}") from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise _VerifyError(f"non-finite cell {cell!r} on line {line_number}")


def cmd_verify(args) -> int:
    path = Path(args.file)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise _VerifyError(f"file is not ASCII: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
                _verify_numeric(cell, number, finite=False)
        print(f"ok: {command} rows={len(lines) - 2}")
        return 0
    widths = set()
    for number, line in enumerate(lines, start=1):
        cells = line.split(",")
        widths.add(len(cells))
        for cell in cells:
            _verify_numeric(cell, number, finite=True)
    if len(widths) != 1:
        raise _VerifyError("inconsistent vector widths")
    print(f"ok: vectors rows={len(lines)} width={widths.pop()}")
    return 0


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--bucket-seed", type=int, required=True)
    parser.add_argument("--sign-seed", type=int, required=True)
    for flag, default in zip(("--kappa-m", "--kappa-k", "--kappa-c"), DEFAULT_KAPPA):
        parser.add_argument(flag, type=float, default=default)


def _transform_flags(parser: argparse.ArgumentParser) -> None:
    _add_spec_flags(parser)
    parser.add_argument("--in", dest="infile", required=True)
    parser.add_argument("--out", required=True)


def _trial_flags(parser: argparse.ArgumentParser) -> None:
    _add_spec_flags(parser)
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--out", default="-")


def _moment_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--x", default="uniform")
    parser.add_argument("--C", type=float, default=None)
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="-")


def _graph_count_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--i-max", type=int, required=True)
    parser.add_argument("--out", default="-")


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")


# subcommand: (help, handler, flags), in the order the top-level help lists them
_COMMANDS = {
    "transform": ("project a file of sparse vectors", cmd_transform, _transform_flags),
    "distortion-bench": ("norm-distortion failure rate", cmd_trials, _trial_flags),
    "moment-report": ("exact and sampled chaos moments", cmd_moment_report,
                      _moment_report_flags),
    "graph-count": ("exact sequence-class counts", cmd_graph_count, _graph_count_flags),
    "tail-estimate": ("empirical chaos tail probability", cmd_trials, _trial_flags),
    "verify": ("validate a previously emitted report file", cmd_verify, _verify_flags),
}


def _command_parser(name: str, parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    _, handler, add_flags = _COMMANDS[name]
    add_flags(parser)
    parser.set_defaults(command=name, func=handler)
    return parser


def _parse_full(args_list: list[str]) -> argparse.Namespace:
    """args_list parsed by the full parser: every subcommand, each with its flags."""
    parser = argparse.ArgumentParser(
        prog="sjlt",
        description="Sparse signed-bucket projection: transform, benchmark, verify.")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_text))
    args = parser.parse_args(args_list)
    if args.command is None:
        parser.print_usage(sys.stderr)
    return args


def _parse(args_list: list[str]) -> argparse.Namespace:
    """The parsed call; its command is None when it names no subcommand.

    argparse builds a help formatter inside every add_argument call, so a call
    that names its subcommand first is parsed by that subcommand's parser
    alone, the one the full parser would hand the same arguments. Any other
    call, or arguments that parser leaves over, goes to the full parser, so
    the top-level help, usage and errors are unchanged.
    """
    if args_list[:1] and args_list[0] in _COMMANDS:
        name = args_list[0]
        parser = _command_parser(name, argparse.ArgumentParser(prog=f"sjlt {name}"))
        args, leftover = parser.parse_known_args(args_list[1:])
        if not leftover:
            return args
    return _parse_full(args_list)


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list[:1] == ["--verify"]:
        args_list = ["verify"] + args_list[1:]
    args = _parse(args_list)
    if args.command is None:
        _fail("usage", "a subcommand is required")
        return 2
    try:
        # recorded, not filtered: the caller's filters decide what is recorded
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
    except _VerifyError as exc:
        return _fail("verify-failed", str(exc))
    except FileNotFoundError as exc:
        # an --out in a missing directory is an output problem, not a missing input
        output = exc.filename is not None and exc.filename == getattr(args, "out", None)
        return _fail("io-error" if output else "missing-input", str(exc))
    except BudgetExceededError as exc:
        return _fail("budget-exceeded", str(exc))
    except ValueError as exc:
        return _fail("invalid-parameter", str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))
    except Warning as exc:  # raised by the caller's filters, e.g. -W error::UserWarning
        return _fail(_warning_kind(type(exc)), str(exc))
    for warning in caught:
        print(f"warning: {_warning_kind(warning.category)}: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
