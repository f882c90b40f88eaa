"""CLI behavior: determinism, report schemas, verify mode, machine-readable errors."""

import importlib.util
import sys
from pathlib import Path

import pytest

from sjlt.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_transform_example(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    out = tmp_path / "y.txt"
    argv = ["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
            "--bucket-seed", "1", "--sign-seed", "2",
            "--in", str(infile), "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    values = [float(v) for v in lines[0].split(",")]
    assert len(values) == 16         # derived k with the default kappa constants
    # for x = e_1 every bucket holds (signed replica count) / sqrt(c) with c = 4
    assert all((2.0 * v) == int(2.0 * v) for v in values)
    assert sum(abs(2.0 * v) for v in values) <= 4


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
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


def test_graph_count_rows(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    code, _, err = run(["graph-count", "--m", "1", "--i-max", "3", "--out", str(out)], capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sjlt command=graph-count")
    assert lines[1] == "m,i,t,count,elapsed_ms"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[:4] for r in rows] == [["1", "2", "1", "1"], ["1", "3", "1", "0"]]


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


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
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


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_tail_estimate_report(tmp_path, capsys):
    out = tmp_path / "tail.csv"
    code, _, err = run(["tail-estimate", "--d", "16", "--epsilon", "0.5",
                        "--delta", "0.2", "--trials", "1000",
                        "--bucket-seed", "1", "--sign-seed", "2", "--out", str(out)], capsys)
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("d,k,c,m,epsilon,delta,trials,hits")
    assert len(lines) == 3


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_verify_roundtrips_every_report(tmp_path, capsys):
    produced = []
    out = tmp_path / "counts.csv"
    assert run(["graph-count", "--m", "1", "--i-max", "3", "--out", str(out)], capsys)[0] == 0
    produced.append(out)
    out = tmp_path / "moment.csv"
    assert run(["moment-report", "--d", "2", "--k", "2", "--m", "1", "--trials", "1000",
                "--out", str(out)], capsys)[0] == 0
    produced.append(out)
    out = tmp_path / "bench.csv"
    assert run(["distortion-bench", "--d", "16", "--epsilon", "0.5", "--delta", "0.2",
                "--trials", "32", "--bucket-seed", "1", "--sign-seed", "2",
                "--out", str(out)], capsys)[0] == 0
    produced.append(out)
    out = tmp_path / "tail.csv"
    assert run(["tail-estimate", "--d", "8", "--epsilon", "0.5", "--delta", "0.2",
                "--trials", "1000", "--bucket-seed", "1", "--sign-seed", "2",
                "--out", str(out)], capsys)[0] == 0
    produced.append(out)
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


def test_missing_input_error_line(tmp_path, capsys):
    code, _, err = run(["transform", "--d", "4", "--epsilon", "0.5", "--delta", "0.5",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "y.txt")],
                       capsys)
    assert code == 1
    assert err.startswith("error: missing-input:")


def test_invalid_parameter_error_line(tmp_path, capsys):
    infile = tmp_path / "v.txt"
    infile.write_text("4;0:1.0\n")
    code, _, err = run(["transform", "--d", "4", "--epsilon", "0.0", "--delta", "0.5",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(infile), "--out", str(tmp_path / "y.txt")], capsys)
    assert code == 1
    assert err.startswith("error: invalid-parameter:")


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
@pytest.mark.parametrize("kappa", [("--kappa-k", "inf"), ("--kappa-m", "inf"),
                                   ("--kappa-m", "nan"), ("--kappa-c", "1e308")])
def test_non_finite_kappa_error_line(capsys, kappa):
    code, _, err = run(["distortion-bench", "--d", "16", "--epsilon", "0.5", "--delta", "0.2",
                        "--trials", "10", "--bucket-seed", "1", "--sign-seed", "2",
                        *kappa, "--out", "-"], capsys)
    assert code == 1
    assert err.startswith("error: invalid-parameter:")


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_replica_points_beyond_the_field_rejected(tmp_path, capsys):
    # d = 2^55 gives c = 531, so d * c exceeds 2^61 - 1 (and wraps uint64)
    d = 2 ** 55
    infile = tmp_path / "v.txt"
    infile.write_text(f"{d};0:1.0\n")
    out = tmp_path / "y.txt"
    code, _, err = run(["transform", "--d", str(d), "--epsilon", "0.1", "--delta", "1e-6",
                        "--bucket-seed", "1", "--sign-seed", "2",
                        "--in", str(infile), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: invalid-parameter:")
    assert not out.exists()


def test_budget_exceeded_reported_not_crashed(capsys):
    code, _, err = run(["graph-count", "--m", "10", "--i-max", "3", "--out", "-"], capsys)
    assert code == 1
    assert err.startswith("error: budget-exceeded:")


def test_budget_flag_lowers_the_cap(capsys):
    code, _, err = run(["graph-count", "--m", "2", "--i-max", "4",
                        "--budget", "100", "--out", "-"], capsys)
    assert code == 1
    assert err.startswith("error: budget-exceeded:")
    code, out_text, _ = run(["graph-count", "--m", "2", "--i-max", "3",
                             "--budget", "100", "--out", "-"], capsys)
    assert code == 0
    assert "budget=100" in out_text.splitlines()[0]


def test_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 2
    assert "error: usage:" in err


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
@pytest.mark.parametrize("command", ["transform", "distortion-bench", "tail-estimate"])
def test_equal_seeds_rejected(tmp_path, capsys, command):
    argv = [command, "--d", "16", "--epsilon", "0.5", "--delta", "0.2",
            "--bucket-seed", "7", "--sign-seed", "7"]
    if command == "transform":
        infile = tmp_path / "v.txt"
        infile.write_text("16;0:1.0\n")
        argv += ["--in", str(infile), "--out", str(tmp_path / "y.txt")]
    else:
        argv += ["--trials", "1000", "--out", "-"]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: invalid-parameter:")


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_benchmark_tracer_patches_bound_names(capsys, monkeypatch):
    # The benchmark's tracer patches sjlt functions by module attribute name;
    # install() raises if a refactor unbinds one of them, and the per-layer
    # trial-loop spans stay empty if the loops bypass partitioned_count.
    spec = importlib.util.spec_from_file_location("sjlt_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command, d in (("distortion-bench", 16), ("tail-estimate", 8)):
            code = tracer.cli_call(main, [command, "--d", str(d), "--epsilon", "0.5",
                                          "--delta", "0.2", "--trials", "1000",
                                          "--bucket-seed", "1", "--sign-seed", "2",
                                          "--out", "-"])
            assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert tracer.counters["kwise.hash_evals"] > 0
    assert tracer.aggregates["transform.trial_loop"].calls == 1
    assert tracer.aggregates["chaos.tail_loop"].calls == 1
