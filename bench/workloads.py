"""The three benchmark workloads: inputs from a seed, call cycles, output checks.

Each workload is a closed loop: one client runs one `sjlt` CLI call at a time
in this process, through `sjlt.cli.main`. A cycle is one pass over a fixed
list of calls; the runner times whole cycles, so every cycle does the same
work and per-cycle rates are comparable. The seed changes inputs, hash seeds
and (outside `oracles`) call order, not the amount of work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import sjlt.chaos
import sjlt.graphs
import reference


@dataclass
class Call:
    argv: list[str]
    items: int                 # work items this call completes
    kind: tuple                # recurs once per cycle, always with the same work
    key: tuple = ()            # what the output check needs beyond the kind
    sampled: bool = False      # checked against the scalar reference


def _seeds(rng) -> tuple[int, int]:
    # Far-apart bucket and sign seeds: trial t uses (b + t, s + t), and seeds
    # closer than the trial count would reuse one trial's bucket polynomial
    # as another trial's sign polynomial.
    bucket_seed = int(rng.integers(1, 2 ** 60))
    return bucket_seed, bucket_seed + 2 ** 40


def _csv(text: str, command: str) -> tuple[list[str], list[list[str]]]:
    # Checks may raise ValueError on output they cannot parse; the runner
    # counts that as a failed check.
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"# sjlt command={command} "):
        raise ValueError(f"missing {command} report header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


class Project:
    """Repeated `sjlt transform` calls on short files of bag-of-words-like vectors.

    d = 2^20, epsilon = 0.1, delta = 1e-3 (m = 7, k = 2800, c = 115, degree 14):
    bulk hashing over long runs of consecutive replicas (c > degree), with
    vectors short enough that parse, format and CLI overhead show in latency.
    """

    name = "project"
    item = "vectors"
    # Calibration kernel (see run.py): numpy passes over a 2 MB array, like the
    # 0.1-2 MB flat-index arrays of one transform call.
    CALIBRATION_KERNEL = (1 << 18, 6, 20000)
    CALIBRATION_REFERENCE_S = 0.0056
    D, EPSILON, DELTA = 2 ** 20, 0.1, 1e-3
    FILES = 24
    NNZ_RANGE = (50, 2000)
    STRATA = 4                # vectors per file, one per quarter of NNZ_RANGE

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.bucket_seed, self.sign_seed = _seeds(rng)
        self.out_path = workdir / "projected.txt"
        self.paths = []
        self.samples = []              # per file: (line number, entries) of its smallest vector
        for f in range(self.FILES):
            lines = []
            for s in range(self.STRATA):
                idx = np.sort(rng.choice(self.D, size=self.nnz(f, s), replace=False))
                # term count times a positive weight, like tf-idf
                val = rng.geometric(0.4, size=idx.size) * rng.lognormal(0.0, 0.5, size=idx.size)
                entries = list(zip(idx.tolist(), val.tolist()))
                body = ",".join(f"{i}:{v!r}" for i, v in entries)
                lines.append((f"{self.D};{body}\n", entries))
            order = rng.permutation(self.STRATA)
            path = workdir / f"vectors_{f:02d}.txt"
            path.write_text("".join(lines[j][0] for j in order), encoding="ascii")
            self.paths.append(path)
            self.samples.append((int(np.argmin(order)), lines[0][1]))
        self._digests: dict[int, bytes] = {}

    @classmethod
    def nnz(cls, f: int, s: int) -> int:
        """Nonzeros of file f's vector from quarter s of the log-uniform range.

        The FILES * STRATA sizes are the midpoint quantiles of the range and
        do not depend on the seed, so neither does the latency distribution;
        the seed sets indices, values and call order.
        """
        low, high = cls.NNZ_RANGE
        # file f takes rank f in the even strata and rank FILES - 1 - f in the
        # odd ones, which evens out the file totals
        rank = f if s % 2 == 0 else cls.FILES - 1 - f
        u = (s + (rank + 0.5) / cls.FILES) / cls.STRATA
        return int(low * (high / low) ** u)

    def cycle(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 1, index])
        common = ["transform", "--d", str(self.D), "--epsilon", str(self.EPSILON),
                  "--delta", str(self.DELTA), "--bucket-seed", str(self.bucket_seed),
                  "--sign-seed", str(self.sign_seed)]
        return [Call(common + ["--in", str(self.paths[f]), "--out", str(self.out_path)],
                     items=self.STRATA, kind=(int(f),))
                for f in rng.permutation(self.FILES)]

    def prepare(self, call: Call) -> None:
        self.out_path.unlink(missing_ok=True)

    def payload(self, call: Call, stdout: str) -> bytes:
        return self.out_path.read_bytes() if self.out_path.exists() else b""

    def check(self, call: Call, payload: bytes) -> str | None:
        f = call.kind[0]
        digest = hashlib.sha256(payload).digest()
        if f in self._digests:
            return None if digest == self._digests[f] else "output differs from an earlier call"
        lines = payload.split(b"\n")
        if lines[-1] != b"" or len(lines) != self.STRATA + 1:
            return "wrong number of output lines"
        if any(line.count(b",") != 2799 for line in lines[:-1]):
            return "output lines do not hold k = 2800 values"
        number, entries = self.samples[f]
        expected = reference.projected_line(self.D, self.EPSILON, self.DELTA,
                                            self.bucket_seed, self.sign_seed, entries)
        if lines[number] != expected:
            return f"line {number} differs from the scalar reference"
        self._digests[f] = digest
        return None


class Trials:
    """Repeated `sjlt distortion-bench` (d = 1024, criterion 5's setting) and
    `sjlt tail-estimate` (d = 256) calls at epsilon = 0.25, delta = 0.05.

    c = 1 and degree 6: thousands of tiny trials that each expand two
    generators and hash 256-1024 points, so per-call numpy overhead and
    per-trial Python work dominate and forward differences are bypassed.
    """

    name = "trials"
    item = "trials"
    # Calibration kernel: many numpy calls on a 1K-element array, like the
    # per-trial hashing of 256-1024 points.
    CALIBRATION_KERNEL = (1 << 10, 400, 5000)
    CALIBRATION_REFERENCE_S = 0.0021
    EPSILON, DELTA = 0.25, 0.05
    # Trial counts per cycle. Nine distinct call sizes, with a gap between the
    # two commands, put the latency median and 90th percentile inside one
    # call size each instead of on a boundary between two.
    LADDER = (("distortion-bench", 1024, (40, 80, 120, 160, 200, 240)),
              ("tail-estimate", 256, (1000, 1150, 1300)))
    COLUMNS = {
        "distortion-bench": ["d", "k", "c", "m", "epsilon", "delta", "trials", "failures",
                             "failure_rate", "wilson_low", "wilson_high"],
        "tail-estimate": ["d", "k", "c", "m", "epsilon", "delta", "trials", "hits",
                          "failure_rate", "wilson_low", "wilson_high"],
    }

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def cycle(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 2, index])
        calls = []
        for command, d, sizes in self.LADDER:
            for trials in sizes:
                bucket_seed, sign_seed = _seeds(rng)
                argv = [command, "--d", str(d), "--epsilon", str(self.EPSILON),
                        "--delta", str(self.DELTA), "--trials", str(trials),
                        "--bucket-seed", str(bucket_seed), "--sign-seed", str(sign_seed)]
                # the smallest call of each command in the first cycle
                calls.append(Call(argv, items=trials, kind=(command, trials),
                                  key=(command, d, trials, bucket_seed, sign_seed),
                                  sampled=index == 0 and trials == sizes[0]))
        return [calls[j] for j in rng.permutation(len(calls))]

    def prepare(self, call: Call) -> None:
        pass

    def payload(self, call: Call, stdout: str) -> bytes:
        return stdout.encode("ascii")

    def check(self, call: Call, payload: bytes) -> str | None:
        command, d, trials, bucket_seed, sign_seed = call.key
        columns, rows = _csv(payload.decode("ascii"), command)
        if columns != self.COLUMNS[command] or len(rows) != 1 or len(rows[0]) != len(columns):
            return "report does not match the schema"
        row = dict(zip(columns, rows[0]))
        count = int(row[columns[7]])
        if int(row["d"]) != d or int(row["trials"]) != trials or not 0 <= count <= trials:
            return "report row disagrees with the request"
        if float(row["failure_rate"]) != count / trials:
            return "failure_rate is not count / trials"
        if not float(row["wilson_low"]) <= count / trials <= float(row["wilson_high"]):
            return "Wilson interval does not contain the rate"
        if call.sampled:
            count_fn = (reference.distortion_failures if command == "distortion-bench"
                        else reference.tail_hits)
            expected = count_fn(d, self.EPSILON, self.DELTA, trials, bucket_seed, sign_seed)
            if count != expected:
                return f"{columns[7]}={count}, scalar reference gives {expected}"
        return None


class Oracles:
    """`sjlt graph-count --m {1,2,3} --i-max 6` and `sjlt moment-report` calls.

    Pure enumeration in graphs and chaos, with no k-wise hashing. Every call
    starts with the class census and graph caches empty, as every CLI
    invocation does in its own process.
    """

    name = "oracles"
    item = "cells"
    # Calibration kernel: the project one; of the mixes tried it tracked the
    # enumerations' slowdowns best.
    CALIBRATION_KERNEL = Project.CALIBRATION_KERNEL
    CALIBRATION_REFERENCE_S = Project.CALIBRATION_REFERENCE_S
    I_MAX = 6
    GRAPH_COUNT_M = (1, 2, 3)
    # the acceptance grid plus two cells that need the large enumerations
    MOMENT_CELLS = tuple((d, k, m) for d in (2, 3, 4) for k in (2, 3) for m in (1, 2)) \
        + ((4, 3, 3), (6, 2, 2))
    RELATIVE_TOLERANCE = 1e-12

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        # Captured before a traced pass patches the module attributes.
        self._clear = (sjlt.graphs._census.cache_clear, sjlt.chaos._cached_graphs.cache_clear)
        self.rows_per_count = sum(i // 2 for i in range(1, self.I_MAX + 1))

    def cycle(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 3, index])
        calls = [Call(["graph-count", "--m", str(m), "--i-max", str(self.I_MAX)],
                      items=self.rows_per_count, kind=("graph-count", m))
                 for m in self.GRAPH_COUNT_M]
        for d, k, m in self.MOMENT_CELLS:
            mc_seed = int(rng.integers(0, 2 ** 31))
            calls.append(Call(["moment-report", "--d", str(d), "--k", str(k), "--m", str(m),
                               "--seed", str(mc_seed)], items=1, kind=("moment-report", d, k, m)))
        # a fixed order keeps peak memory, which depends on the order the
        # enumerations allocate and free, independent of the seed
        return calls

    def prepare(self, call: Call) -> None:
        for clear in self._clear:
            clear()

    def payload(self, call: Call, stdout: str) -> bytes:
        if call.kind[0] != "graph-count":
            return stdout.encode("ascii")
        # elapsed_ms is the report's one timing column, outside byte identity
        lines = stdout.splitlines()
        kept = lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]]
        return ("\n".join(kept) + "\n").encode("ascii")

    def check(self, call: Call, payload: bytes) -> str | None:
        columns, rows = _csv(payload.decode("ascii"), call.kind[0])
        if call.kind[0] == "graph-count":
            return self._check_counts(call.kind[1], columns, rows)
        return self._check_moments(call.kind[1:], columns, rows)

    def _check_counts(self, m, columns, rows) -> str | None:
        if columns != ["m", "i", "t", "count"]:
            return "graph-count columns do not match the schema"
        counts = {}
        for row in rows:
            if len(row) != 4 or int(row[0]) != m:
                return "malformed graph-count row"
            counts[int(row[1]), int(row[2])] = int(row[3])
        wanted = {(i, t) for i in range(1, self.I_MAX + 1) for t in range(1, i // 2 + 1)}
        if set(counts) != wanted:
            return "graph-count rows do not cover every (i, t) cell"
        for (pm, i, t), value in reference.PINNED_CLASS_COUNTS.items():
            if pm == m and counts[i, t] != value:
                return f"class count (i={i}, t={t}, m={m}) = {counts[i, t]}, not {value}"
        for i in range(1, self.I_MAX + 1):
            total = sum(counts[i, t] for t in range(1, i // 2 + 1))
            if total != reference.covering_sequences(i, m):
                return f"class counts for i={i}, m={m} do not sum to the closed form"
        return None

    def _check_moments(self, cell, columns, rows) -> str | None:
        if columns != list(sjlt.chaos.MomentReport.CSV_COLUMNS) or len(rows) != 1:
            return "moment-report does not match the schema"
        row = dict(zip(columns, rows[0]))
        if (int(row["d"]), int(row["k"]), int(row["m"])) != cell:
            return "moment-report row is for another cell"
        exact, expansion = float(row["exact"]), float(row["graph_expansion"])
        if not exact > 0.0 or abs(exact - expansion) > self.RELATIVE_TOLERANCE * max(exact, expansion):
            return f"exact {exact!r} and graph expansion {expansion!r} disagree"
        # the uniform vector meets the default cap C = d, so the bound dominates
        if exact > float(row["rhs_bound"]) * (1.0 + self.RELATIVE_TOLERANCE):
            return "class-count bound below the exact moment"
        if not (math.isfinite(float(row["mc_mean"])) and float(row["mc_se"]) > 0.0):
            return "Monte Carlo estimate is not finite"
        return None


WORKLOADS = {w.name: w for w in (Project, Trials, Oracles)}
