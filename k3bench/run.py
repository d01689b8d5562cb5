"""Benchmark runner for k3lat.

    python3 k3bench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It starts fresh single-threaded
worker interpreters (``worker.py``) one at a time, each with
``PYTHONHASHSEED=0``, ``K3LAT_THREADS`` unset and ``PYTHONPATH=src``.  With
``--trace 0`` it runs untraced passes for ``--seconds`` and prints the
end-to-end metrics; with ``--trace 1`` it runs two traced passes and one
untraced pass of the seed's first batch, checks that every counter repeats
exactly, and prints the per-layer metrics.  Every pass checks its outputs.
End-to-end times are in reference seconds (``hostclock.py``); the raw wall
times are on the line before the result and on stderr.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine.  It exits 2 without a result when a worker cannot run (for
example when ``src/k3lat`` is missing) or the run overruns its time limit.
See README.md in this directory for the workloads and what they measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("verify-all", "evenset-b6", "genus-conjugates")
# Set-up is timed in at least this many workers per run; the median is
# reported.  Workers that only set up make up any shortfall.
SETUP_SAMPLES = 7
# genus-conjugates keeps starting batches until p90 rests on this many.
MIN_QUERIES = 200
# Every worker of one run must end within this many seconds.
RUN_LIMIT_S = 170
# As in k3lat.cli.SUITES, listed here because metric names are fixed.
SUITES = ("lemma", "theorem", "table", "x2", "un", "ue8", "towers", "mukai")

# (name, unit) of every per-layer metric: calls, self time and counters of
# each traced function, then the per-suite times, the tracing overhead and
# the host's speed during the traced passes.
PER_LAYER = (
    [(f"{mod}.{fn}.{stat}", "s" if stat == "self_s" else "count")
     for (mod, fn), counters in TRACED.items()
     for stat in ("calls", "self_s", *counters)]
    + [(f"cli.suite.{name}.wall_s", "s") for name in SUITES]
    + [("trace.overhead_s", "s"), ("host.probe_ms", "ms")]
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("K3LAT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env = worker_env()
        self.started = time.monotonic()
        self.spawned: list[dict] = []

    def spawn(self, batch: int, mode: str) -> dict:
        """Run one worker to completion and return its result record."""
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise WorkerError(f"run exceeded {RUN_LIMIT_S} s")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--batch", str(batch), "--mode", mode]
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker ({mode}, batch {batch}) overran the "
                              f"{RUN_LIMIT_S} s run limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker ({mode}, batch {batch}) exited "
                              f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(lines[-1])
        self.spawned.append(record)
        for problem in record.get("problems", ()):
            print(f"[{self.workload} batch {batch}] {problem}", file=sys.stderr)
        print(f"[{self.workload} batch {batch} {mode}] setup "
              f"{record['setup_s']:.3f} s (raw {record['raw_setup_s']:.3f}), "
              f"wall {record.get('wall_s', 0):.3f} s (raw {record.get('raw_wall_s', 0):.3f}, "
              f"cpu {record.get('cpu_s', 0):.3f}), probe {record['probe_ms']:.3f} ms, "
              f"{record.get('ops', 0)} ops, {record.get('failed', 0)} failed",
              file=sys.stderr)
        return record

    def top_up_setup(self, next_batch: int) -> None:
        while len(self.spawned) < SETUP_SAMPLES:
            self.spawn(next_batch, "setup")
            next_batch += 1

    def untraced(self, seconds: int) -> tuple[list[dict], dict]:
        """Passes until the next one would end after ``seconds``; on
        genus-conjugates also until there are MIN_QUERIES queries."""
        records: list[dict] = []
        start = time.monotonic()
        while True:
            records.append(self.spawn(len(records), "run"))
            elapsed = time.monotonic() - start
            queries = sum(len(r["latencies_ms"]) for r in records)
            enough = self.workload != "genus-conjugates" or queries >= MIN_QUERIES
            if enough and elapsed * (len(records) + 1) / len(records) > seconds:
                break
        self.top_up_setup(len(records))
        latencies = [x for r in records for x in r["latencies_ms"]]
        ops = sum(r["ops"] for r in records)
        failed = sum(r["failed"] for r in records)
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in self.spawned), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in records), "MiB"),
            "correct_share": (1 - failed / ops, "share"),
            "decided_share": (sum(r["decided"] for r in records) / ops, "share"),
            "query_p50_ms": (percentile(latencies, 50), "ms"),
            "query_p90_ms": (percentile(latencies, 90), "ms"),
        }
        return records, metrics

    def traced(self) -> tuple[list[dict], dict]:
        """Two traced passes and one untraced pass of batch 0."""
        traced = [self.spawn(0, "trace") for _ in range(2)]
        plain = self.spawn(0, "suites" if self.workload == "verify-all" else "run")
        first, second = (r["counters"] for r in traced)
        for key in sorted(set(first) | set(second)):
            if first.get(key) != second.get(key):
                problem = (f"counter {key} did not repeat: {first.get(key)} "
                           f"then {second.get(key)}")
                print(f"[{self.workload}] {problem}", file=sys.stderr)
                traced[1]["problems"].append(problem)
        values = dict(first)
        for key in traced[0]["self_s"]:
            values[key] = statistics.mean(r["self_s"][key] for r in traced)
        suite_s = plain.get("suite_s", {})
        for name in SUITES:
            values[f"cli.suite.{name}.wall_s"] = suite_s.get(name, 0.0)
        values["trace.overhead_s"] = (
            statistics.mean(r["wall_s"] for r in traced) - plain["wall_s"])
        values["host.probe_ms"] = statistics.median(r["probe_ms"] for r in traced)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        return traced + [plain], metrics


def percentile(values: list[float], pct: int) -> float:
    """Percentile with linear interpolation between the two nearest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu or platform.processor(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "worker_env": {k: worker_env().get(k)
                       for k in ("PYTHONHASHSEED", "K3LAT_THREADS", "PYTHONPATH")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="k3lat benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "k3lat" / "__init__.py").is_file():
        print(f"error: no k3lat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            records, metrics = runner.traced()
        else:
            records, metrics = runner.untraced(args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["problems"] for r in records)
    raw = {key: statistics.median(r[key] for r in runner.spawned if key in r)
           for key in ("raw_setup_s", "raw_wall_s", "probe_ms")}
    print(json.dumps({"machine": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "workers": len(records), "raw": raw}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
