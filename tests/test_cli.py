"""CLI behavior: determinism, report schemas, verify mode, machine-readable errors."""

import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sjlt.chaos
import sjlt.cli
import sjlt.graphs
import sjlt.transform
from sjlt.chaos import MomentReport
from sjlt.cli import main
from sjlt.kwise import _run_length, eval_bucket, eval_sign
from sjlt.transform import (AssumptionWarning, TrialReport, apply, bucket_generator, derive_spec,
                            _replica_points, format_dense_vector, parse_sparse_vector,
                            sign_generator)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_example(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    out = tmp_path / "y.txt"
    argv = ["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
            "--bucket-seed", "1", "--sign-seed", "2",
            "--in", str(infile), "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    values = [float(v) for v in lines[0].split(",")]
    assert len(values) == 16         # derived k with the default kappa constants
    # for x = e_1 every bucket holds (signed replica count) / sqrt(c) with c = 4
    assert all((2.0 * v) == int(2.0 * v) for v in values)
    assert sum(abs(2.0 * v) for v in values) <= 4


def test_transform_bitwise_reproducible(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0,2:-0.5\n4;1:2.25\n")
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code, _, _ = run(["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
                          "--bucket-seed", "9", "--sign-seed", "8",
                          "--in", str(infile), "--out", str(out)], capsys)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _transform(infile, out, capsys, d=2 ** 20, epsilon="0.1", delta="1e-3",
               bucket_seed=1234567, sign_seed=7654321):
    return run(["transform", "--d", str(d), "--epsilon", epsilon, "--delta", delta,
                "--bucket-seed", str(bucket_seed), "--sign-seed", str(sign_seed),
                "--in", str(infile), "--out", str(out)], capsys)


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_transform_output_matches_apply_byte_for_byte(tmp_path, capsys):
    d = 2 ** 20
    spec = derive_spec(d, 0.1, 1e-3, 1234567, 7654321)
    assert (spec.k, spec.c, spec.independence_degree) == (2800, 115, 14)
    rng = np.random.default_rng(5)
    lines = []
    for nnz in (0, 1, 30, 300):
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        val = rng.standard_normal(nnz) * rng.lognormal(size=nnz)
        lines.append(f"{d};" + ",".join(f"{i}:{v!r}" for i, v in zip(idx.tolist(), val.tolist())))
    infile, out = tmp_path / "v.txt", tmp_path / "y.txt"
    infile.write_text("\n".join(lines) + "\n")
    code, _, err = _transform(infile, out, capsys)
    assert code == 0, err
    got = out.read_text(encoding="ascii").split("\n")
    assert len(got) == 5 and got[-1] == ""
    vectors = [parse_sparse_vector(line) for line in lines]
    assert got[:-1] == [format_dense_vector(apply(spec, x)) for x in vectors]
    # the one-entry line against the scalar hashes, summed in replica order
    (i, value), = vectors[1].entries
    bucket_gen, sign_gen = bucket_generator(spec), sign_generator(spec)
    sums = [0.0] * spec.k
    for point in range(i * spec.c, (i + 1) * spec.c):
        sums[eval_bucket(bucket_gen, point)] += eval_sign(sign_gen, point) * value
    assert got[1] == ",".join(f"{s / math.sqrt(spec.c):.17g}" for s in sums)
    # nnz 1 and 30 hash by Horner, nnz 300 by forward differences along the replicas
    for x, length in zip(vectors[1:], (0, 0, spec.c)):
        points = _replica_points(x._arrays[0], spec.c)
        assert _run_length(points, 1, spec.independence_degree) == length


def test_transform_refuses_an_overflowing_projection(tmp_path, capsys):
    # 50 entries of 1e308 put 5750 replicas in 2800 buckets: some sums overflow
    d = 2 ** 20
    infile, out = tmp_path / "v.txt", tmp_path / "y.txt"
    infile.write_text(f"{d};3:1.5\n{d};" + ",".join(f"{i}:1e308" for i in range(50)) + "\n")
    code, stdout, err = _transform(infile, out, capsys)
    assert (code, stdout) == (1, "")
    assert err == "error: invalid-parameter: dense vector entries must be finite\n"
    assert not out.exists()
    # a fresh process prints every warning pytest would capture: stderr holds
    # the error line alone, neither the parameters' AssumptionWarning nor a
    # RuntimeWarning from the overflowing sums
    done = subprocess.run(
        [sys.executable, "-m", "sjlt.cli", "transform",
         "--d", str(d), "--epsilon", "0.1", "--delta", "1e-3", "--bucket-seed", "1234567",
         "--sign-seed", "7654321", "--in", str(infile), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: invalid-parameter: dense vector entries must be finite\n"
    assert not out.exists()


def test_transform_refuses_a_mismatched_dimension(tmp_path, capsys):
    # the second vector's dimension differs from --d: nothing is written
    infile, out = tmp_path / "v.txt", tmp_path / "y.txt"
    infile.write_text("4;0:1.0\n5;1:2.0\n")
    code, stdout, err = _transform(infile, out, capsys, d=4, epsilon="0.5", delta="0.5")
    assert (code, stdout) == (1, "")
    assert err == "error: invalid-parameter: vector dimension 5 does not match spec dimension 4\n"
    assert not out.exists()


def test_graph_count_rows(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    code, _, err = run(["graph-count", "--m", "1", "--i-max", "3", "--out", str(out)], capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sjlt command=graph-count")
    assert lines[1] == "m,i,t,count,elapsed_ms"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[:4] for r in rows] == [["1", "2", "1", "1"], ["1", "3", "1", "0"]]
    # every cell against its own histogram; one timed pass serves every row
    for m in (1, 2, 3):
        code, out_text, err = run(["graph-count", "--m", str(m), "--i-max", "6", "--out", "-"],
                                  capsys)
        assert code == 0, err
        rows = [[int(cell) for cell in line.split(",")] for line in out_text.splitlines()[2:]]
        assert [row[:4] for row in rows] == [
            [m, i, t, sjlt.graphs.class_histogram(i, m).get(t, 0)]
            for i in range(1, 7) for t in range(1, i // 2 + 1)]
        assert len({row[4] for row in rows}) == 1


def test_graph_count_answers_two_vertex_cells_without_tables(capsys):
    # C(i, 2) <= 1: no rows at i = 1, one one-component sequence at i = 2
    started = time.perf_counter()
    code, out, err = run(["graph-count", "--m", "5000", "--i-max", "2", "--out", "-"], capsys)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert [line.split(",")[:4] for line in out.splitlines()[2:]] == [["5000", "2", "1", "1"]]
    for m in (1, 2, 3):
        for i in (1, 2):
            census_counts, _ = sjlt.graphs._census(tuple(range(1, i + 1)), 2 * m)
            assert sjlt.graphs.class_histogram(i, m) == census_counts
        assert sjlt.graphs.class_histogram(3, m) == sjlt.graphs._census((1, 2, 3), 2 * m)[0]


def test_moment_report_row(tmp_path, capsys):
    out = tmp_path / "moment.csv"
    code, _, err = run(["moment-report", "--d", "2", "--k", "2", "--m", "1",
                        "--x", "uniform", "--trials", "2000", "--seed", "5",
                        "--out", str(out)], capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[1] == "d,k,m,exact,graph_expansion,mc_mean,mc_se,rhs_bound"
    cells = lines[2].split(",")
    assert cells[:3] == ["2", "2", "1"]
    assert float(cells[3]) == pytest.approx(0.5, rel=1e-12)
    assert float(cells[4]) == pytest.approx(0.5, rel=1e-12)
    assert float(cells[7]) == pytest.approx(1.0, rel=1e-12)   # 2/k at C=d=2


def test_distortion_bench_deterministic(tmp_path, capsys):
    argv = ["distortion-bench", "--d", "32", "--epsilon", "0.5", "--delta", "0.2",
            "--trials", "64", "--bucket-seed", "3", "--sign-seed", "4"]
    texts = []
    for _ in range(2):
        code, out_text, err = run(argv + ["--out", "-"], capsys)
        assert code == 0, err
        texts.append(out_text)
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[1].startswith("d,k,c,m,epsilon,delta,trials,failures")


def test_tail_estimate_report(tmp_path, capsys):
    out = tmp_path / "tail.csv"
    code, _, err = run(["tail-estimate", "--d", "16", "--epsilon", "0.5",
                        "--delta", "0.2", "--trials", "1000",
                        "--bucket-seed", "1", "--sign-seed", "2", "--out", str(out)], capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("d,k,c,m,epsilon,delta,trials,hits")
    assert len(lines) == 3


def test_every_report_type_names_its_columns_in_field_order():
    # _write_report_row writes a report's field values, in field order, under
    # its command's column row, so the fields must be those columns in order
    def names(report_type):
        return tuple(field.name for field in dataclasses.fields(report_type))

    assert names(MomentReport) == MomentReport.CSV_COLUMNS
    for columns, count in ((TrialReport.DISTORTION_COLUMNS, "failures"),
                           (TrialReport.TAIL_COLUMNS, "hits")):
        assert tuple("count" if name == count else name for name in columns) == names(TrialReport)
    # the writer reads the values from the instance dict, in its order
    assert tuple(vars(TrialReport(*range(11)))) == names(TrialReport)
    # every command but transform and verify writes a report under its row
    assert set(sjlt.cli._SCHEMAS) == set(sjlt.cli._COMMANDS) - {"transform", "verify"}
    assert [sjlt.cli._SCHEMAS[command] for command in
            ("moment-report", "distortion-bench", "tail-estimate")] == [
        MomentReport.CSV_COLUMNS, TrialReport.DISTORTION_COLUMNS, TrialReport.TAIL_COLUMNS]


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_verify_roundtrips_every_report(tmp_path, capsys):
    # each report's column row is its report type's; graph-count has no type
    trial_flags = ["--epsilon", "0.5", "--delta", "0.2", "--bucket-seed", "1", "--sign-seed", "2"]
    reports = [
        (["graph-count", "--m", "1", "--i-max", "3"], ("m", "i", "t", "count", "elapsed_ms")),
        (["moment-report", "--d", "2", "--k", "2", "--m", "1", "--trials", "1000"],
         MomentReport.CSV_COLUMNS),
        (["distortion-bench", "--d", "16", "--trials", "32", *trial_flags],
         TrialReport.DISTORTION_COLUMNS),
        (["tail-estimate", "--d", "8", "--trials", "1000", *trial_flags],
         TrialReport.TAIL_COLUMNS),
    ]
    produced = []
    for argv, columns in reports:
        out = tmp_path / f"{argv[0]}.csv"
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        lines = out.read_text().splitlines()
        assert tuple(lines[1].split(",")) == columns
        produced.append(out)
    # the last report, tail-estimate's, records the derived transform
    tail = dict(zip(lines[1].split(","), lines[2].split(",")))
    spec = derive_spec(8, 0.5, 0.2, 1, 2)
    keys = ("d", "k", "c", "m", "delta")
    assert [float(tail[key]) for key in keys] == [getattr(spec, key) for key in keys]
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    out = tmp_path / "y.txt"
    assert run(["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
                "--bucket-seed", "1", "--sign-seed", "2",
                "--in", str(infile), "--out", str(out)], capsys)[0] == 0
    produced.append(out)
    for path in produced:
        code, out_text, err = run(["verify", str(path)], capsys)
        assert code == 0, (path, err)
        assert out_text.startswith("ok:")
        code, out_text, err = run(["--verify", str(path)], capsys)
        assert code == 0


def test_verify_rejects_corrupted_report(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    assert run(["graph-count", "--m", "1", "--i-max", "2", "--out", str(out)], capsys)[0] == 0
    good = out.read_text()
    out.write_text(good.replace("m,i,t,count,elapsed_ms", "m,i,t,count"))
    code, _, err = run(["verify", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: verify-failed:")
    out.write_text(good + "1,2,not-a-number,1,0\n")
    code, _, err = run(["verify", str(out)], capsys)
    assert code == 1
    # sjlt writes no nan in any cell, and no infinite value into a vector
    # file; a report's inf, such as a moment past the float range, passes
    for text, message in ((good + "1,2,nan,1,0\n", "non-finite cell 'nan' on line 4"),
                          ("nan,inf\n", "non-finite cell 'nan' on line 1"),
                          ("1.5,-inf\n", "non-finite cell '-inf' on line 1"),
                          ("1.5,2\n\xff\n", "file is not ASCII")):
        out.write_bytes(text.encode("latin-1"))
        code, _, err = run(["verify", str(out)], capsys)
        assert code == 1 and err.startswith(f"error: verify-failed: {message}"), err
    out.write_text(good + "1,2,inf,1,0\n")
    assert run(["verify", str(out)], capsys)[:2] == (0, "ok: graph-count rows=2\n")


def test_missing_input_error_line(tmp_path, capsys):
    code, _, err = run(["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "y.txt")],
                       capsys)
    assert code == 1
    assert err.startswith("error: missing-input:")


def test_output_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    out = tmp_path / "absent" / "y.txt"
    message = f"[Errno 2] No such file or directory: '{out}'"
    code, _, err = _transform(infile, out, capsys, d=4, epsilon="0.5", delta="0.5")
    assert (code, err) == (1, f"error: io-error: {message}\n")
    code, _, err = run(["graph-count", "--m", "1", "--i-max", "2", "--out", str(out)], capsys)
    assert (code, err) == (1, f"error: io-error: {message}\n")
    # a missing input is still named as one, whatever the output
    absent = tmp_path / "absent.txt"
    code, _, err = _transform(absent, out, capsys, d=4, epsilon="0.5", delta="0.5")
    assert (code, err) == (1, f"error: missing-input: [Errno 2] No such file or directory: "
                              f"'{absent}'\n")


def test_transform_out_dash_writes_stdout(tmp_path, capsys, monkeypatch):
    # --out - is stdout for transform as for every report command, not a file named "-"
    monkeypatch.chdir(tmp_path)
    infile = tmp_path / "v.txt"
    infile.write_text("8;0:1.0,3:-2.5\n8;7:0.5\n8;\n")
    code, _, err = _transform(infile, tmp_path / "y.txt", capsys, d=8, epsilon="0.5",
                              delta="0.5")
    assert (code, err) == (0, "")
    code, out, err = _transform(infile, "-", capsys, d=8, epsilon="0.5", delta="0.5")
    assert (code, err) == (0, "")
    assert out == (tmp_path / "y.txt").read_text(encoding="ascii")
    assert len(out.splitlines()) == 3
    assert not (tmp_path / "-").exists()


def test_invalid_parameter_error_line(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    code, _, err = run(["transform", "--d", "4", "--epsilon", "0.0", "--delta", "0.5",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(infile), "--out", str(tmp_path / "y.txt")], capsys)
    assert code == 1
    assert err.startswith("error: invalid-parameter:")


def test_transform_refuses_a_bad_parameter_before_parsing(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\nnot a vector\n")
    code, _, err = _transform(infile, tmp_path / "y.txt", capsys, d=4, epsilon="0.0",
                              delta="0.5")
    assert code == 1
    assert err == "error: invalid-parameter: epsilon must lie in (0, 1)\n"
    assert not (tmp_path / "y.txt").exists()


def test_transform_refuses_a_bad_parameter_before_opening_the_input(tmp_path, capsys):
    code, _, err = _transform(tmp_path / "absent.txt", tmp_path / "y.txt", capsys, d=4,
                              epsilon="0.0", delta="0.5")
    assert code == 1
    assert err == "error: invalid-parameter: epsilon must lie in (0, 1)\n"


_NOT_FINITE = "kappa constants must be finite and positive"


@pytest.mark.parametrize("kappa", [
    ("--kappa-k", "inf", _NOT_FINITE), ("--kappa-m", "inf", _NOT_FINITE),
    ("--kappa-m", "nan", _NOT_FINITE),
    ("--kappa-c", "1e308",
     "kappa constants too large for epsilon=0.5, delta=0.2: m, k or c is not finite"),
])
def test_non_finite_kappa_error_line(capsys, kappa):
    flag, value, message = kappa
    code, _, err = run(["distortion-bench", "--d", "16", "--epsilon", "0.5", "--delta", "0.2",
                        "--trials", "10", "--bucket-seed", "1", "--sign-seed", "2",
                        flag, value, "--out", "-"], capsys)
    assert (code, err) == (1, f"error: invalid-parameter: {message}\n")


@pytest.mark.parametrize("epsilon, delta, message", [
    ("1e-200", "0.5", "epsilon=1e-200 too small: 1/epsilon^2 exceeds the float range"),
    ("1e-160", "0.5", "epsilon=1e-160 too small: 1/epsilon^2 exceeds the float range"),
    ("0.5", "5e-324", "delta=5e-324 too small: 1/delta exceeds the float range"),
])
def test_tiny_epsilon_or_delta_error_line(capsys, epsilon, delta, message):
    # epsilon^2 underflowing to 0 raised ZeroDivisionError, and a 1/epsilon^2
    # or 1/delta past the float range was blamed on the kappa constants
    for command in ("distortion-bench", "tail-estimate"):
        code, out, err = run([command, "--d", "4", "--epsilon", epsilon, "--delta", delta,
                              "--bucket-seed", "1", "--sign-seed", "2", "--trials", "2",
                              "--out", "-"], capsys)
        assert (code, out, err) == (1, "", f"error: invalid-parameter: {message}\n")


@pytest.mark.parametrize("cap", ["1e-200", "5e-324"])
def test_tiny_cap_gives_an_infinite_bound(capsys, cap):
    # an admissible cap whose powers underflow: inf is a true bound, not a crash
    code, out, err = run(["moment-report", "--d", "2", "--k", "2", "--m", "2", "--C", cap,
                          "--trials", "100", "--out", "-"], capsys)
    assert (code, err) == (0, "")
    row = dict(zip(*(line.split(",") for line in out.splitlines()[1:])))
    assert row["rhs_bound"] == "inf"


@pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
def test_non_finite_cap_error_line(capsys, cap):
    # d = 2 too: there nan ** 0 == 1 would have printed a plausible bound
    for d in ("2", "3"):
        code, out, err = run(["moment-report", "--d", d, "--k", "2", "--m", "2",
                              f"--C={cap}", "--out", "-"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: invalid-parameter:")


@pytest.mark.parametrize("cap", ["1e9", "10"])
def test_cap_above_the_vector_rejected_before_any_phase(monkeypatch, capsys, cap):
    # uniform x at d = 2 has x_i^2 = 1/2, so the bound holds only for C <= 2
    def unreachable(*args, **kwargs):
        raise AssertionError("a moment phase ran before C was checked")

    for phase in ("monte_carlo_moment", "exact_moment", "graph_expansion_moment",
                  "moment_upper_bound"):
        monkeypatch.setattr(sjlt.chaos, phase, unreachable)
    code, out, err = run(["moment-report", "--d", "2", "--k", "100", "--m", "2", "--C", cap,
                          "--out", "-"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invalid-parameter: C={float(cap)!r} exceeds 1/max x_i^2")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_replica_points_beyond_the_field_rejected(tmp_path, capsys):
    # d = 2^55 gives c = 531, so d * c exceeds 2^61 - 1 (and wraps uint64)
    d = 2 ** 55
    infile = tmp_path / "v.txt"
    infile.write_text(f"{d};0:1.0\n")
    out = tmp_path / "y.txt"
    code, _, err = run(["transform", "--d", str(d), "--epsilon", "0.1", "--delta", "1e-6",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(infile), "--out", str(out)], capsys)
    assert (code, err) == (1, "error: invalid-parameter: d * c = 19131291217069867008 exceeds "
                              "the field size 2^61 - 1\n")
    assert not out.exists()


def test_bucket_bias_refused_by_both_trial_commands(capsys):
    # epsilon = 1e-6 gives k = 1.2e13, whose reduction bias exceeds 2^-20
    errors = []
    for command in ("distortion-bench", "tail-estimate"):
        code, out, err = run([command, "--d", "4", "--epsilon", "1e-6", "--delta", "0.05",
                              "--trials", "1000", "--bucket-seed", "1", "--sign-seed", "2",
                              "--out", "-"], capsys)
        assert code == 1 and out == ""
        errors.append(err)
    assert errors[0].startswith("error: invalid-parameter:")
    assert errors[0] == errors[1]


def test_non_positive_graph_count_m_error_line(capsys):
    # m < 1 is refused by graph-count itself, by name
    code, out, err = run(["graph-count", "--m", "-1", "--i-max", "2", "--out", "-"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: invalid-parameter:") and "m must be positive" in err


@pytest.mark.parametrize("i_max", ["0", "-3"])
def test_non_positive_graph_count_i_max_error_line(capsys, i_max):
    # an empty cell range would give a header-only report that verify accepts
    code, out, err = run(["graph-count", "--m", "1", "--i-max", i_max, "--out", "-"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: invalid-parameter: i_max must be positive, got {i_max}\n"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_non_positive_moment_report_d_error_line(capsys, d):
    code, out, err = run(["moment-report", "--d", d, "--k", "2", "--m", "1", "--out", "-"],
                         capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: invalid-parameter:") and "d must be positive" in err


def test_budget_exceeded_reported_not_crashed(capsys):
    code, _, err = run(["graph-count", "--m", "8000", "--i-max", "3", "--out", "-"], capsys)
    assert code == 1
    assert err.startswith("error: budget-exceeded:")


def test_graph_count_has_no_budget_flag(capsys):
    # the closed form's one table budget is the only cap: --budget is unknown
    with pytest.raises(SystemExit) as excinfo:
        main(["graph-count", "--m", "2", "--i-max", "4", "--budget", "100"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --budget 100" in capsys.readouterr().err
    code, out_text, err = run(["graph-count", "--m", "2", "--i-max", "3"], capsys)
    assert (code, err) == (0, "")
    assert out_text.splitlines()[0] == "# sjlt command=graph-count i_max=3 m=2"


@pytest.mark.parametrize("m, i_max", [(1, 251), (2, 19), (9, 3), (10 ** 6, 2)])
def test_graph_count_answers_every_cell_the_census_budget_admitted(capsys, m, i_max):
    # the largest i_max the old per-cell C(i,2)^2m <= 10^9 check admitted at
    # each m: the table budget refuses none of them
    code, out, err = run(["graph-count", "--m", str(m), "--i-max", str(i_max)], capsys)
    assert (code, err) == (0, "")
    histograms = sjlt.graphs.class_histograms(i_max, m)
    assert [line.split(",")[:4] for line in out.splitlines()[2:]] == [
        [str(m), str(i), str(t), str(histograms[i].get(t, 0))]
        for i in range(1, i_max + 1) for t in range(1, i // 2 + 1)]
    if m == 1:
        # two pairs cover i vertices with even degrees only as one pair twice
        assert {i: h for i, h in histograms.items() if h} == {2: {1: 1}}


def _refuse_work(monkeypatch):
    # a class table or a moment-report vector that starts fails the test
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the budget refusal")

    class NoInstance:
        uniform = staticmethod(unreachable)

    monkeypatch.setattr(sjlt.graphs, "_class_tables", unreachable)
    monkeypatch.setattr(sjlt.cli, "ChaosInstance", NoInstance)


@pytest.mark.parametrize("argv, message", [
    (["moment-report", "--d", "8000", "--k", "2", "--m", "1"],
     "4^8000 assignments exceed the exact enumeration budget 100000000"),
    (["moment-report", "--d", "26", "--k", "1", "--m", "3000"],
     "325^6000 sequences exceed the enumeration budget 100000000"),
    # the bound's (2m, 2m) class table, past the last admitted m = 22
    (["moment-report", "--d", "2", "--k", "2", "--m", "23"],
     "46*(46+1) class table entries exceed the table budget 2048"),
    # graph-count's tables, by the one budget it has
    (["graph-count", "--m", "8000", "--i-max", "3"],
     "3*(16000+1) class table entries exceed the table budget 2048"),
    # every other budget passes; the Monte Carlo's chunk would sum 2*10^11 buckets
    (["moment-report", "--d", "1", "--k", "50000000", "--m", "22"],
     "4096*50000000 Monte Carlo bucket sums exceed the Monte Carlo budget 4194304"),
], ids=["assignments", "sequences", "class", "default", "monte-carlo"])
def test_budget_refusals_name_sizes_by_formula(monkeypatch, capsys, argv, message):
    # sizes of thousands of digits (4^8000 has 4,817) are refused as
    # budget-exceeded with one short line, before any work starts
    _refuse_work(monkeypatch)
    code, out, err = run(argv + ["--out", "-"], capsys)
    assert (code, out, err) == (1, "", f"error: budget-exceeded: {message}\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", "1", "need at least 2 trials"),
    ("--seed", "-1", "seed must be non-negative, got -1"),
])
def test_moment_report_refuses_bad_trials_and_seed_before_its_vector(monkeypatch, capsys,
                                                                     flag, value, message):
    _refuse_work(monkeypatch)
    code, out, err = run(["moment-report", "--d", "3", "--k", "2", "--m", "1", flag, value,
                          "--out", "-"], capsys)
    assert (code, out, err) == (1, "", f"error: invalid-parameter: {message}\n")


def test_moment_report_refuses_before_building_its_vector(monkeypatch, capsys):
    # a 20-million-entry uniform vector is never built for a refused cell
    _refuse_work(monkeypatch)
    code, out, err = run(["moment-report", "--d", "20000000", "--k", "2", "--m", "1",
                          "--out", "-"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: budget-exceeded: 4^20000000 assignments exceed the exact "
                   "enumeration budget 100000000\n")


def test_graph_count_refuses_before_counting_any_cell(monkeypatch, capsys):
    # 3*(682+1) = 2049 table entries at i_max = 3, m = 341: one over the budget,
    # refused before any table is built
    _refuse_work(monkeypatch)
    code, out, err = run(["graph-count", "--m", "341", "--i-max", "3", "--out", "-"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: budget-exceeded: 3*(682+1) class table entries exceed the table "
                   "budget 2048\n")


def test_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 2
    assert "error: usage:" in err


def outcome(call, argv, capsys):
    try:
        result = call(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


_SPEC = ["--d", "16", "--epsilon", "0.5", "--delta", "0.2", "--bucket-seed", "1",
         "--sign-seed", "2"]
# a call each subcommand parses; none of them is run
VALID_ARGV = {
    "transform": ["transform", *_SPEC, "--in", "absent.txt", "--out", "absent.txt"],
    "distortion-bench": ["distortion-bench", *_SPEC, "--trials", "10"],
    "moment-report": ["moment-report", "--d", "2", "--k", "2", "--m", "1", "--trials", "100"],
    "graph-count": ["graph-count", "--m", "1", "--i-max", "2"],
    "tail-estimate": ["tail-estimate", *_SPEC, "--trials", "10"],
    "verify": ["verify", "absent.csv"],
}
PARSED_CASES = [["moment-report", "--d", "2", "--k", "2", "--m", "1", "--tri", "1000"],
                ["graph-count", "--m", "1", "--i-max", "2", "--ou", "-"],
                ["--verify", "absent.csv"]]
PARSER_CASES = [["-h"], [], ["bogus"], ["--bogus"], ["--verify"],
                ["--bogus", "graph-count", "--m", "1", "--i-max", "2"],
                VALID_ARGV["moment-report"] + ["x"], *PARSED_CASES]
for _command in sjlt.cli._COMMANDS:
    PARSER_CASES += [[_command, "-h"], [_command], [_command, "--bogus"],
                     [_command, "--d", "3", "--bogus", "1"], [_command, "--d"],
                     VALID_ARGV[_command] + ["--bogus"]]


@pytest.mark.parametrize("argv", PARSER_CASES + list(VALID_ARGV.values()), ids=" ".join)
def test_per_command_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    # help, usage, refusals and the parsed arguments (command and func
    # included) must not depend on whether one subcommand's parser or the
    # full parser read the call
    monkeypatch.setenv("COLUMNS", "80")
    args_list = ["verify", *argv[1:]] if argv[:1] == ["--verify"] else argv
    parsed = outcome(sjlt.cli._parse, args_list, capsys)
    assert parsed == outcome(sjlt.cli._parse_full, args_list, capsys)
    assert (getattr(parsed[0], "command", None) is not None) == (
        argv in PARSED_CASES or argv in VALID_ARGV.values())
    if argv in VALID_ARGV.values():
        return
    lazy = outcome(main, argv, capsys)
    monkeypatch.setattr(sjlt.cli, "_parse", sjlt.cli._parse_full)
    assert lazy == outcome(main, argv, capsys)
    assert lazy[0] != 0 or argv[-1] == "-h" or argv in PARSED_CASES


@pytest.mark.parametrize("command", ["transform", "distortion-bench", "tail-estimate"])
def test_equal_seeds_rejected(tmp_path, capsys, command):
    # seeds congruent mod 2^64 expand into the same polynomial, so pairs that
    # differ by 2^64 are refused as seeds outside [0, 2^64)
    infile = tmp_path / "v.txt"
    infile.write_text("16;0:1.0\n")
    for bucket_seed, sign_seed in ((7, 7), (7, 7 + 2**64), (-1, 2**64 - 1)):
        argv = [command, "--d", "16", "--epsilon", "0.5", "--delta", "0.2",
                "--bucket-seed", str(bucket_seed), "--sign-seed", str(sign_seed)]
        if command == "transform":
            argv += ["--in", str(infile), "--out", str(tmp_path / "y.txt")]
        else:
            argv += ["--trials", "1000", "--out", "-"]
        message = ("must lie in [0, 2^64)" if bucket_seed != sign_seed else "must differ")
        assert run(argv, capsys) == (
            1, "", f"error: invalid-parameter: bucket_seed and sign_seed {message}\n")


# epsilon = 0.5 lies outside epsilon <= ln(1/delta)^-2 = 0.386 at delta = 0.2
_WARNED = ["tail-estimate", "--d", "16", "--epsilon", "0.5", "--delta", "0.2", "--trials",
           "1000", "--out", "-"]


@pytest.mark.parametrize("seeds, ignored, code, err", [
    (("1", "2"), False, 0, "warning: assumption: epsilon=0.5 exceeds ln(1/delta)^-2=0.386057; "
                           "the distortion guarantee weakens in this regime\n"),
    (("1", "1"), False, 1, "error: invalid-parameter: bucket_seed and sign_seed must differ\n"),
    (("1", "2"), True, 0, ""),
], ids=["answered", "refused", "ignored"])
def test_a_warning_is_one_line_after_success_under_the_active_filters(capsys, seeds, ignored,
                                                                      code, err):
    # the CLI records warnings under the caller's filters and writes them only
    # once the call has succeeded; a refusal writes its error line alone
    argv = _WARNED + ["--bucket-seed", seeds[0], "--sign-seed", seeds[1]]
    with warnings.catch_warnings():
        if ignored:
            warnings.simplefilter("ignore", AssumptionWarning)
        result, out, stderr = run(argv, capsys)
    assert (result, stderr) == (code, err)
    assert out.splitlines()[1:2] == ([",".join(TrialReport.TAIL_COLUMNS)] if code == 0 else [])


def test_a_warning_the_filters_raise_is_one_refusal_line():
    # -W error::UserWarning turns the AssumptionWarning into an exception; the
    # corpus replays under default filters, so a fresh process checks this
    done = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-m", "sjlt.cli", *_WARNED,
         "--bucket-seed", "1", "--sign-seed", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: assumption: epsilon=0.5 exceeds ln(1/delta)^-2=0.386057; "
                           "the distortion guarantee weakens in this regime\n")


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_benchmark_tracer_patches_bound_names(capsys, monkeypatch, tmp_path):
    # The benchmark's tracer patches sjlt functions by module attribute name;
    # install() raises if a refactor unbinds one of them, and the per-layer
    # trial-loop spans stay empty if the loops bypass partitioned_count.
    # Its hash counter reads len(points), so points stay flat on the run path.
    spec = importlib.util.spec_from_file_location("sjlt_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    # Trials run in blocks, and still count every evaluation. A block expands
    # its seeds in one generator_block, which the tracer does not patch, so
    # trials count no new_generator calls.
    trials = 1000
    for command, d, loop in (("distortion-bench", 16, "transform.trial_loop"),
                             ("tail-estimate", 8, "chaos.tail_loop")):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = tracer.cli_call(main, [command, "--d", str(d), "--epsilon", "0.5",
                                          "--delta", "0.2", "--trials", str(trials),
                                          "--bucket-seed", "1", "--sign-seed", "2",
                                          "--out", "-"])
            assert code == 0, capsys.readouterr().err
        finally:
            tracer.uninstall()
        c = derive_spec(d, 0.5, 0.2, 1, 2).c
        assert tracer.counters["kwise.hash_evals"] == 2 * trials * d * c
        assert tracer.layer_metrics(1)["kwise.generators"] == 0
        assert tracer.aggregates[loop].calls == 1

    d, nnz = 2**20, (1, 0, 37, 5)
    vectors = tmp_path / "in.txt"
    vectors.write_text("".join(f"{d};" + ",".join(f"{i * 7919}:1.5" for i in range(n)) + "\n"
                               for n in nnz))
    c = derive_spec(d, 0.1, 1e-3, 1, 2).c
    assert c == 115
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.cli_call(main, ["transform", "--d", str(d), "--epsilon", "0.1",
                                      "--delta", "1e-3", "--bucket-seed", "1", "--sign-seed",
                                      "2", "--in", str(vectors), "--out",
                                      str(tmp_path / "out.txt")])
        assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert tracer.counters["kwise.hash_evals"] == 2 * sum(nnz) * c
    # one bucket and one sign generator for the whole file
    assert tracer.layer_metrics(1)["kwise.generators"] == 2
    assert tracer.counters["transform.values_written"] == len(nnz) * 2800

    # The expansion builds its graphs through sjlt.chaos.build_multigraph, and
    # the oracles workload clears the census cache by name.
    sjlt.chaos._cached_graphs.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.cli_call(main, ["moment-report", "--d", "4", "--k", "3", "--m", "2",
                                      "--out", "-"])
        assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert tracer.aggregates["graphs.build_multigraph"].calls > 0
    assert callable(sjlt.graphs._census.cache_clear)


def test_benchmark_binds_names_outside_the_tracer(monkeypatch, tmp_path, capsys):
    # bench/run.py, workloads.py and reference.py reach sjlt names directly,
    # outside the tracer's patch table: the CLI entry point, the warning class
    # the runner silences, the generators the scalar references hash with and
    # the caches the oracles workload clears before each call.
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("reference", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        reference = importlib.import_module("reference")
        workloads = importlib.import_module("workloads")
    finally:
        for name in names:
            sys.modules.pop(name, None)
    assert callable(sjlt.cli.main)
    assert issubclass(sjlt.transform.AssumptionWarning, Warning)
    spec = derive_spec(4, 0.5, 0.5, 1, 2)
    x = parse_sparse_vector("4;0:1.0,2:-0.5")
    assert reference.projected_line(4, 0.5, 0.5, 1, 2, x.entries) == \
        format_dense_vector(apply(spec, x)).encode("ascii")
    assert reference.tail_hits(4, 0.5, 0.5, 3, 1, 2) <= 3
    oracles = workloads.Oracles(1, tmp_path)
    calls = oracles.cycle(0)
    for call in (calls[0], calls[len(workloads.Oracles.GRAPH_COUNT_M)]):
        oracles.prepare(call)
        code, out, err = run(call.argv, capsys)
        assert code == 0, err
        assert oracles.check(call, oracles.payload(call, out)) is None
