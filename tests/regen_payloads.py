"""The golden payload corpus: every `sjlt` call below, its exit code and a digest.

Each line of tests/fixtures/payloads.txt holds one call, tab-separated: the
argv, the exit code, the sha256 of the payload (the `--out` file when the call
names one, else stdout) and, when the call wrote any, its one stderr line.
graph-count's elapsed_ms column is blanked before hashing: it is the one
timing field of any report. `{dir}` in an argv stands for a fresh directory
that holds the input files below; calls run in order there, so a `verify`
call reads the report an earlier call wrote.

Every call runs under the warning filters that a fresh interpreter starts
with, so the stderr field is what a user sees. tests/test_payloads.py replays
the calls in its own process and compares them with the corpus, which it never
rewrites. Run as a script, this file replays every call as `python -m sjlt.cli`
in a process of its own (about 20 s) and rewrites the corpus; the two replays
must agree. Rewrite it only when a payload is meant to change, and list the
moved lines:

    PYTHONPATH=src python tests/regen_payloads.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import sjlt
from sjlt.cli import main

CORPUS = Path(__file__).resolve().parent / "fixtures" / "payloads.txt"
# the directory this process imports sjlt from; the fresh processes import it from there too
_IMPORT_ROOT = Path(sjlt.__file__).resolve().parents[1]


def _input_files() -> dict[str, str]:
    """The transform inputs. At d = 4096, epsilon 0.5, delta 1e-3 the spec has
    c = 23 > degree 14, so a kernel chunk is 16384 // 14 = 1170 coordinates:
    short.txt fits in one chunk and long.txt's 1500 nonzeros cross two."""
    rng = np.random.default_rng(2010)
    files = {}
    for name, sizes in (("short.txt", (1, 3, 40)), ("long.txt", (700, 500, 300))):
        lines = []
        for nnz in sizes:
            idx = np.sort(rng.choice(4096, size=nnz, replace=False))
            val = rng.standard_normal(nnz)
            entries = zip(idx.tolist(), val.tolist())
            lines.append("4096;" + ",".join(f"{i}:{v!r}" for i, v in entries))
        files[name] = "\n".join(lines) + "\n"
    # at d = 2^30 (c = 23, degree 14) the replicas of coordinate 93368854
    # straddle 2^31, those of 186737709 and beyond lie above 2^32, and d - 1
    # is the last coordinate
    wide = (93368853, 93368854, 93368855, 186737709, 186737710, 536870912, 2 ** 30 - 1)
    entries = zip(wide, rng.standard_normal(len(wide)).tolist())
    files["wide.txt"] = f"{2 ** 30};" + ",".join(f"{i}:{v!r}" for i, v in entries) + "\n"
    # what int() and float() accept around the separators: spaces and a tab,
    # signs, digit underscores and exponents, then an empty vector, a blank
    # line and a CRLF line ending
    files["odd.txt"] = (" 4096 ; 3 : 1.5 , +17:-2e0,\t1_0_0 :1E-3 , 4095: +2.5 \n"
                        "4096;\n"
                        "\n"
                        "4096;0:1_0.5,2 : -0.25\r\n")
    # at d = 64, epsilon = delta = 0.5 (k = 16, c = 4, sqrt(c) = 2) every
    # branch of the writer: exponent notation below 1e-4 and from 1e17 on,
    # the decade edges of fixed notation, integer-valued and negative
    # outputs, empty buckets and an all-zero row
    files["edges.txt"] = ("64;0:6,5:-10,9:0.5\n"
                          "64;3:3e-5\n"
                          "64;11:2e-4\n"
                          "64;7:1e-300\n"
                          "64;8:-1e300\n"
                          "64;12:3e16,13:3e17\n"
                          "64;\n")
    files["corrupt.csv"] = "# sjlt command=graph-count m=1 i_max=2\nm,i,t\n"
    return files


_SPEC = ["--epsilon", "0.25", "--delta", "0.05"]
# 2^40 apart, far more than any call's trials
_FAR_SEEDS = ["--bucket-seed", "1", "--sign-seed", "1099511627777"]
# k = 16 and degree 2: about half of the trials fail, so each trial's seeds show
_LOOSE_SPEC = ["--epsilon", "0.5", "--delta", "0.5"]
_TRANSFORM = ["transform", "--d", "4096", "--epsilon", "0.5", "--delta", "1e-3",
              "--bucket-seed", "7", "--sign-seed", "1000000007"]
# the 14 cells of the benchmark's oracles workload
_ORACLE_CELLS = [(d, k, m) for d in (2, 3, 4) for k in (2, 3) for m in (1, 2)] \
    + [(4, 3, 3), (6, 2, 2)]


def calls() -> list[list[str]]:
    out = []
    for m in range(1, 5):
        for i_max in range(1, 9):
            out.append(["graph-count", "--m", str(m), "--i-max", str(i_max)])
    out.append(["graph-count", "--m", "2", "--i-max", "4", "--out", "{dir}/g.csv"])
    # the class tables past the benchmark's i <= 6, written to a file
    out.append(["graph-count", "--m", "3", "--i-max", "8", "--out", "{dir}/g8.csv"])
    for n, (d, k, m) in enumerate(_ORACLE_CELLS):
        out.append(["moment-report", "--d", str(d), "--k", str(k), "--m", str(m),
                    "--seed", str(1000 + n)])
    # 4^6 = 4096 (bucket, sign) patterns exceed 2000 trials: the row path;
    # 4^3 = 64 patterns within 2000 trials: the pattern-table path
    out.append(["moment-report", "--d", "6", "--k", "2", "--m", "1", "--trials", "2000",
                "--seed", "5"])
    out.append(["moment-report", "--d", "3", "--k", "2", "--m", "1", "--trials", "2000",
                "--seed", "5", "--out", "{dir}/r.csv"])
    # m = 6: the bound's class table fits its budget, though the census
    # budget would refuse its 6^12 sequences
    out.append(["moment-report", "--d", "3", "--k", "2", "--m", "6", "--trials", "2000",
                "--out", "{dir}/r36.csv"])
    # 2 Monte Carlo rows of 2*10^6 bucket sums each, summed without a loop over k
    out.append(["moment-report", "--d", "1", "--k", "2000000", "--m", "1", "--trials", "2"])
    # the cap C against max x_i^2 = 1/2: below it, at it (the default) and above it
    for cap in ("1.5", "2", "10", "1e9"):
        out.append(["moment-report", "--d", "2", "--k", "100", "--m", "2", "--C", cap])
    out.append(["moment-report", "--d", "2", "--k", "100", "--m", "2"])
    # an admissible cap so small that its powers underflow: the bound is inf
    out.append(["moment-report", "--d", "2", "--k", "2", "--m", "2", "--C", "1e-200"])
    for seeds in (("3", "4"), ("3", str(3 + 2 ** 40))):
        seed_flags = ["--bucket-seed", seeds[0], "--sign-seed", seeds[1]]
        out.append(["distortion-bench", "--d", "64", *_LOOSE_SPEC, "--trials", "300",
                    *seed_flags])
        out.append(["tail-estimate", "--d", "16", *_SPEC, "--trials", "1000", *seed_flags])
    out.append(["tail-estimate", "--d", "16", *_SPEC, "--trials", "1000",
                "--bucket-seed", "3", "--sign-seed", "4", "--out", "{dir}/t.csv"])
    # trial reports at the benchmark's sizes: 240 trials in blocks at d = 1024,
    # 1300 at d = 256
    out.append(["distortion-bench", "--d", "1024", *_SPEC, "--trials", "240", *_FAR_SEEDS])
    out.append(["tail-estimate", "--d", "256", *_SPEC, "--trials", "1300", *_FAR_SEEDS])
    # k = 9 and degree 10 at c = 2 and c = 18, where 1/sqrt(c) is not exact:
    # these lines pin how each trial report rounds its scale
    for kappa_c in ("0.2", "2.0"):
        for command in ("distortion-bench", "tail-estimate"):
            out.append([command, "--d", "24", "--epsilon", "0.25", "--delta", "0.01",
                        "--kappa-k", "0.11", "--kappa-c", kappa_c, "--trials", "2000",
                        *_FAR_SEEDS])
    for name in ("short", "long"):
        out.append(_TRANSFORM + ["--in", f"{{dir}}/{name}.txt", "--out", f"{{dir}}/{name}.out"])
    # long.txt at degree 10 (c = 18, one chunk of 1638 coordinates) and at
    # degree 28 (c = 107, three chunks of 585)
    for degree, epsilon, delta in (("10", "0.25", "0.01"), ("28", "0.5", "1e-6")):
        out.append(["transform", "--d", "4096", "--epsilon", epsilon, "--delta", delta,
                    "--bucket-seed", "7", "--sign-seed", "1000000007",
                    "--in", "{dir}/long.txt", "--out", f"{{dir}}/long{degree}.out"])
    # points below 2^31, across 2^31 and 2^32, and near d * c = 23 * 2^30
    out.append(["transform", "--d", str(2 ** 30), "--epsilon", "0.5", "--delta", "1e-3",
                "--bucket-seed", "7", "--sign-seed", "1000000007",
                "--in", "{dir}/wide.txt", "--out", "{dir}/wide.out"])
    out.append(_TRANSFORM + ["--in", "{dir}/odd.txt", "--out", "{dir}/odd.out"])
    out.append(["transform", "--d", "64", *_LOOSE_SPEC, "--bucket-seed", "7",
                "--sign-seed", "1000000007", "--in", "{dir}/edges.txt", "--out", "{dir}/edges.out"])
    # --out - writes to stdout: the payload of short.out again
    out.append(_TRANSFORM + ["--in", "{dir}/short.txt", "--out", "-"])
    for name in ("g.csv", "g8.csv", "r.csv", "r36.csv", "t.csv", "long.out", "corrupt.csv",
                 "absent.csv"):
        out.append(["verify", f"{{dir}}/{name}"])
    out.append(["--verify", "{dir}/short.out"])
    # budgets: every call here is refused but m = 4 at d = 3, which the class
    # counts' own table budget admits; then invalid parameters, all refused
    out += [
        ["moment-report", "--d", "14", "--k", "2", "--m", "1"],
        ["moment-report", "--d", "8", "--k", "1", "--m", "3"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "4"],
        ["graph-count", "--m", "8000", "--i-max", "3"],
        # every other budget admits k = 5*10^7 at d = 1; the Monte Carlo's
        # 4096*k bucket sums do not
        ["moment-report", "--d", "1", "--k", "50000000", "--m", "22"],
        ["moment-report", "--d", "0", "--k", "2", "--m", "1"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "0"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "1", "--C", "nan"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "1", "--C", "-1"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "1", "--trials", "1"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "1", "--seed", "-1"],
        ["moment-report", "--d", "3", "--k", "2", "--m", "1", "--x", "spikes:2"],
        ["graph-count", "--m", "0", "--i-max", "2"],
        ["graph-count", "--m", "1", "--i-max", "0"],
        ["distortion-bench", "--d", "64", "--epsilon", "0", "--delta", "0.05",
         "--bucket-seed", "3", "--sign-seed", "4"],
        ["distortion-bench", "--d", "64", *_SPEC, "--bucket-seed", "3", "--sign-seed", "3"],
        ["tail-estimate", "--d", "16", *_SPEC, "--trials", "999",
         "--bucket-seed", "3", "--sign-seed", "4"],
        ["tail-estimate", "--d", "16", *_SPEC, "--kappa-k", "inf",
         "--bucket-seed", "3", "--sign-seed", "4"],
        # k or m past the float range, refused by the parameter that puts it there
        *(["distortion-bench", "--d", "4", "--epsilon", epsilon, "--delta", delta,
           "--bucket-seed", "1", "--sign-seed", "2", "--trials", "2"]
          for epsilon, delta in (("1e-200", "0.5"), ("1e-160", "0.5"), ("0.5", "5e-324"))),
        _TRANSFORM + ["--in", "{dir}/absent.txt", "--out", "{dir}/absent.out"],
        ["transform", "--d", "4096", "--epsilon", "0.5", "--delta", "1e-3",
         "--bucket-seed", "7", "--sign-seed", "7", "--in", "{dir}/short.txt",
         "--out", "{dir}/refused.out"],
        # an output in a directory that does not exist
        _TRANSFORM + ["--in", "{dir}/short.txt", "--out", "{dir}/absent/x.out"],
    ]
    return out


def _payload(argv: list[str], stdout: str) -> bytes:
    if "--out" in argv and argv[argv.index("--out") + 1] != "-":
        path = Path(argv[argv.index("--out") + 1])
        payload = path.read_text(encoding="ascii") if path.exists() else ""
    else:
        payload = stdout
    if argv[0] == "graph-count":
        lines = payload.splitlines(keepends=True)
        payload = "".join(lines[:2] + [line.rsplit(",", 1)[0] + ",\n" for line in lines[2:]])
    return payload.encode("ascii")


def _in_process(args: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        # Python's default filters, as a fresh interpreter without -W sets them
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        code = main(args)
    return code, stdout.getvalue(), stderr.getvalue()


def _fresh_process(args: list[str]) -> tuple[int, str, str]:
    path = os.pathsep.join(filter(None, [str(_IMPORT_ROOT), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "sjlt.cli", *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stdout.decode("ascii"), done.stderr.decode("utf-8")


def run_call(argv: list[str], workdir: Path, fresh: bool = False) -> str:
    """The corpus line of one call, run in `workdir`: in this process, or in a
    fresh `python -m sjlt.cli` process when `fresh`."""
    concrete = [arg.replace("{dir}", str(workdir)) for arg in argv]
    code, stdout, stderr = (_fresh_process if fresh else _in_process)(concrete)
    fields = [" ".join(argv), str(code),
              hashlib.sha256(_payload(concrete, stdout)).hexdigest()]
    # one tab-separated line per call holds at most one stderr line
    lines = stderr.replace(str(workdir), "{dir}").splitlines()
    if len(lines) > 1:
        raise ValueError(f"{fields[0]!r} wrote {len(lines)} stderr lines: {lines!r}")
    return "\t".join(fields + lines)


def corpus_lines(fresh: bool = False) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in _input_files().items():
            (workdir / name).write_text(text, encoding="ascii")
        return [run_call(argv, workdir, fresh) for argv in calls()]


if __name__ == "__main__":
    CORPUS.write_text("\n".join(corpus_lines(fresh=True)) + "\n", encoding="ascii")
