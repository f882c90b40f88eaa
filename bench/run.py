#!/usr/bin/env python3
"""Benchmark of the sjlt command line: three closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload {project,trials,oracles} --seed N --seconds S --trace {0,1}

One client runs one CLI call at a time in this process, through
`sjlt.cli.main`, with one worker thread. The run times whole cycles of calls
until S seconds have passed, checks every output outside the timed region,
and prints the metrics named in BENCHMARK.json; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs the timed pass for
S/3 seconds, then replays its calls traced (per-layer spans, see tracing.py)
and with SJLT_THREADS=2, and reports the per-layer metrics per cycle plus the
tracing overhead and the two-thread speed-up. Results, the environment and the trace
go to .sjlt_bench/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".sjlt_bench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _import_sjlt() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "sjlt"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no sjlt package under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import sjlt
    if Path(sjlt.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported sjlt from {sjlt.__file__}, not from {package}")


def calibrate(kernel: tuple[int, int, int]) -> float:
    """Time of one run of a fixed calibration kernel, in seconds.

    `kernel` = (array elements, rounds, dict inserts): `rounds` passes of
    numpy uint64 arithmetic over the array, then Python-level tuple and dict
    work. Each workload picks the mix that resembles its own work (see
    workloads.py). Timed next to every call, the kernel tells how fast the
    host is running this process then.
    """
    elements, rounds, inserts = kernel
    begin = perf_counter()
    x = np.arange(1, elements + 1, dtype=np.uint64)
    for _ in range(rounds):
        x = (x * np.uint64(0x9E3779B1) + np.uint64(7)) & np.uint64((1 << 61) - 1)
    table = {}
    for j in range(inserts):
        table[j, j & 7] = j * j % 97
    return perf_counter() - begin


class Speed:
    """Rescales times to the speed at which a workload's kernel takes its
    reference time (its time on an unloaded 2-vCPU Intel Xeon VM, Python
    3.11.7, numpy 2.4.6).

    On a shared host, other tenants can slow this process by 30-50% for
    bursts of seconds to minutes, and the kernel slows with it; a time
    rescaled by the kernel timed next to it is steady where the raw time is
    not.
    """

    def __init__(self, workload_cls) -> None:
        self.kernel = workload_cls.CALIBRATION_KERNEL
        self.reference_s = workload_cls.CALIBRATION_REFERENCE_S

    def measure(self) -> float:
        return calibrate(self.kernel)

    def rescale(self, seconds: float, calibration: float) -> float:
        return seconds * self.reference_s / calibration


@dataclass
class PassResult:
    cycles: list = field(default_factory=list)     # list of call lists, as run
    seconds: list = field(default_factory=list)    # per call, in run order
    speed: list = field(default_factory=list)      # per call, mean adjacent calibration
    digests: list = field(default_factory=list)    # per call, payload sha256
    problems: list = field(default_factory=list)   # per call, None or a reason

    def costs(self, speed: Speed) -> dict:
        """Each call kind's median time over its repetitions, at reference speed."""
        calls = [call for cycle in self.cycles for call in cycle]
        scaled: dict = {}
        for call, seconds, calibration in zip(calls, self.seconds, self.speed):
            scaled.setdefault(call.kind, []).append(speed.rescale(seconds, calibration))
        return {kind: statistics.median(values) for kind, values in scaled.items()}


def run_pass(workload, speed: Speed, cycles, deadline_s=None, tracer=None,
             check=False) -> PassResult:
    """Run cycles of calls; with a deadline, stop after the cycle that reaches it.

    Only the `sjlt.cli.main` call is timed; preparation, calibration, payload
    capture and checks run between calls.
    """
    from sjlt.cli import main

    result = PassResult()
    started = perf_counter()
    for calls in cycles:
        result.cycles.append(calls)
        for call in calls:
            workload.prepare(call)
            before = speed.measure()
            stdout = io.StringIO()
            begin = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = tracer.cli_call(main, call.argv) if tracer else main(call.argv)
            except Exception:   # an uncaught error is a failed call, not a dead run
                traceback.print_exc()
                code = None
            result.seconds.append(perf_counter() - begin)
            result.speed.append((before + speed.measure()) / 2.0)
            problem = None if code == 0 else f"exit code {code}"
            payload = b""
            if problem is None:
                payload = workload.payload(call, stdout.getvalue())
                if check:
                    try:
                        problem = workload.check(call, payload)
                    except (ValueError, IndexError, KeyError) as exc:
                        problem = f"unparsable output: {exc!r}"
            if problem is not None:
                print(f"check failed: {' '.join(call.argv)}: {problem}", file=sys.stderr)
            result.problems.append(problem)
            result.digests.append(hashlib.sha256(payload).hexdigest())
        if deadline_s is not None and perf_counter() - started >= deadline_s:
            break
    return result


def _mismatches(reference: PassResult, other: PassResult, label: str) -> int:
    bad = sum(a != b or problem is not None
              for a, b, problem in zip(reference.digests, other.digests, other.problems))
    if bad:
        print(f"check failed: {bad} {label} payloads differ from the untraced pass",
              file=sys.stderr)
    return bad


def _probe_setup(workload_cls, speed: Speed, seed: int) -> float:
    """Setup time of a fresh process: start, imports and input generation."""
    before = speed.measure()
    begin = perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup",
         "--workload", workload_cls.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    # perf_counter is the system-wide monotonic clock, so the child's reading
    # is comparable with ours.
    seconds = float(done.stdout.split()[-1]) - begin
    return speed.rescale(seconds, (before + speed.measure()) / 2.0)


def _first_line(path: Path, prefix: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _last_level_cache() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1] if best else None


def environment(workload: str, seed: int) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            git_rev = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sjlt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": _first_line(Path("/proc/cpuinfo"), "model name"),
        "last_level_cache": _last_level_cache(), "platform": platform.platform(),
        "git_rev": git_rev, "src_sha256": digest.hexdigest(),
    }


def end_to_end(timed: PassResult, speed: Speed, setup_s: list[float]) -> dict[str, float]:
    """Every cycle runs each call kind once, so a cycle costs the sum of the
    kinds' costs, and the latency percentiles are over the cycle's calls,
    each at its kind's cost."""
    latencies = sorted(timed.costs(speed).values())
    return {
        "setup_s": statistics.median(setup_s),
        "items_per_s": sum(call.items for call in timed.cycles[0]) / sum(latencies),
        "call_ms_p50": statistics.median(latencies) * 1e3,
        "call_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, speed: Speed, timed: PassResult,
           trace_path: Path) -> tuple[dict[str, float], int]:
    """Replay the timed pass traced, then with two worker threads."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        spans = run_pass(workload, speed, timed.cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    os.environ["SJLT_THREADS"] = "2"
    try:
        threads2 = run_pass(workload, speed, timed.cycles)
    finally:
        del os.environ["SJLT_THREADS"]
    failed = _mismatches(timed, spans, "traced") + _mismatches(timed, threads2, "two-thread")
    tracer.write(trace_path)
    metrics = tracer.layer_metrics(len(timed.cycles))
    untraced_s = sum(timed.costs(speed).values())
    metrics["stats.threads2_speedup"] = untraced_s / sum(threads2.costs(speed).values())
    metrics["trace.overhead_frac"] = sum(spans.costs(speed).values()) / untraced_s - 1.0
    return metrics, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("SJLT_THREADS", None)      # end-to-end runs use one worker
    try:
        _import_sjlt()
        bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 1
    from sjlt.transform import AssumptionWarning
    from workloads import WORKLOADS

    # The project and trials settings sit outside epsilon <= ln(1/delta)^-2
    # on purpose (the trials ones are the acceptance suite's); the advisory
    # warning would only repeat on stderr.
    warnings.simplefilter("ignore", AssumptionWarning)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    run_dir = WORK / f"{'probe' if args.probe_setup else 'run'}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.probe_setup:
            workload_cls(args.seed, run_dir)
            print(perf_counter(), flush=True)
            return 0

        speed = Speed(workload_cls)
        probes = 0 if args.trace else SETUP_PROBES
        # half the probes before the timed pass and half after, so that one
        # burst of load on the host does not hit all of them
        setup_s = [_probe_setup(workload_cls, speed, args.seed) for _ in range(probes // 2)]
        workload = workload_cls(args.seed, run_dir)
        cycles = (workload.cycle(index) for index in itertools.count())
        # a traced run splits its time between the timed pass and two replays
        deadline_s = args.seconds / 3.0 if args.trace else args.seconds
        timed = run_pass(workload, speed, cycles, deadline_s=deadline_s, check=True)
        setup_s += [_probe_setup(workload_cls, speed, args.seed)
                    for _ in range(probes - probes // 2)]
        attempted = len(timed.seconds)
        failed = sum(p is not None for p in timed.problems)
        if args.trace:
            stem = f"{args.workload}-seed{args.seed}"
            metrics, replay_failed = traced(workload, speed, timed,
                                            WORK / f"trace-{stem}.jsonl")
            attempted *= 3
            failed += replay_failed
            declared = bench_spec["per_layer"]
        else:
            metrics = end_to_end(timed, speed, setup_s)
            declared = bench_spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed)
    calls = len(timed.seconds)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={len(timed.cycles)} calls={calls} "
          f"items={sum(c.items for cs in timed.cycles for c in cs)} {workload_cls.item}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
        if name == "items_per_s":
            print(f"{workload_cls.item}_per_s {value:.6g} 1/s")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} calls)")
    print(f"calibration median {statistics.median(timed.speed) * 1e3:.4g} ms, reference "
          f"{workload_cls.CALIBRATION_REFERENCE_S * 1e3:g} ms; unrescaled call median "
          f"{statistics.median(timed.seconds) * 1e3:.6g} ms")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(
        json.dumps({"env": env, "cycles": len(timed.cycles), "calls": calls, **result}, indent=1) + "\n",
        encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
