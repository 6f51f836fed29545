"""feyncount benchmark: four workloads, each sample in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  With `--trace 0` the run repeats the
workload in fresh processes for about S seconds, with set-up probes between
samples, and reports the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced samples and reports the per-layer metrics.
Every sample's output is checked against digests pinned in
`expected.json` and against the paper's first counts.  The last line of
stdout is the result as JSON; the line before it holds the environment,
sample quartiles and the traced self-time table.  Metric names and units
come from BENCHMARK.json.  README.md gives the reasons for each workload.

Each sample is a fresh process because the package keeps process-global
caches (the factorial table in `counting`, the `lru_cache` on the oracle's
symmetry tables): repeating calls in one process would time warm caches
that no CLI user sees.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")

#: The paper's first distinct-diagram counts and connected totals, by order.
DISTINCT_HEADS = {1: 2, 2: 10, 3: 74, 4: 706}
CONNECTED_HEADS = {1: 4, 2: 80, 3: 3552, 4: 271104}

MIN_SAMPLES = 2
#: Set-up probes per round, each paired with a start-up reference.
PROBES = 3
#: Host-speed references: fresh interpreters doing fixed stdlib work and no
#: feyncount code, with the fastest time each took on the uncontended host
#: (Python 3.11.7, 2 cores).  The start-up reference imports the stdlib
#: modules feyncount and its CLI import; the compute reference runs big-int
#: sums shaped like the recurrence.
STARTUP_REFERENCE = (
    "import argparse, collections, csv, dataclasses, functools, itertools, json, "
    "math, pathlib, resource, threading",
    0.05,
)
COMPUTE_REFERENCE = (
    """
import math
f = [1]
for k in range(1, 1202):
    f.append(f[-1] * k)
c = [1] * 301
for m in range(1, 120):
    s = sum(math.comb(300, n) * f[2 * n] * c[300 - n] for n in range(1, 300))
""",
    0.135,
)
#: No new sample starts once this much of a run has passed.
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 150.0


class SetupError(Exception):
    """The checkout cannot be benchmarked at all."""


@dataclass
class Sample:
    wall_s: float
    code: int
    stdout: Path
    stderr: Path


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the path."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(args: list[str], env: dict, stdout: Path, stderr: Path) -> Sample:
    """Run `python ARGS` to completion in a fresh interpreter."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        lock = threading.Lock()
        exited = False

        def kill() -> None:
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        # Wait without reaping first, so the timer can never signal a pid
        # that has been reaped and reused.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        with lock:
            exited = True
        timer.cancel()
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, proc.returncode, stdout, stderr)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.iterdir()):
        h.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    return h.hexdigest()


def double_factorial_even(m: int) -> int:
    """(2m)!! = 2**m * m!, computed here so the heads check owes nothing to the package."""
    result = 1 << m
    for k in range(2, m + 1):
        result *= k
    return result


def api_queries(order: int, seed: int) -> list[int]:
    orders = list(range(1, order + 1))
    random.Random(seed).shuffle(orders)
    return orders


def check_pinned(key: str, digest: str, expected: dict) -> list[str]:
    if key not in expected:
        return [f"no pinned digest for {key}"]
    if expected[key] != digest:
        return [f"{key}: digest {digest} != pinned {expected[key]}"]
    return []


def check_deep_table(w: Workload, seed: int, out: bytes, dot_dir: Path, expected: dict) -> list[str]:
    rows = list(csv.reader(out.decode().splitlines()))
    problems = check_pinned(f"{w.name}:{w.order}", sha256(out), expected)
    if rows[0] != ["m", "total", "bubble", "connected", "distinct"] or len(rows) != w.order + 2:
        return problems + ["unexpected csv shape"]
    for m in range(1, min(w.order, 4) + 1):
        if int(rows[m + 1][3]) != CONNECTED_HEADS[m] or int(rows[m + 1][4]) != DISTINCT_HEADS[m]:
            problems.append(f"order {m} row {rows[m + 1]} disagrees with the paper")
    return problems


def check_per_order_api(w: Workload, seed: int, out: bytes, dot_dir: Path, expected: dict) -> list[str]:
    pairs = [tuple(map(int, line.split())) for line in out.decode().splitlines()]
    if [m for m, _ in pairs] != api_queries(w.order, seed):
        return ["answers do not match the queries"]
    ascending = "".join(f"{m} {v}\n" for m, v in sorted(pairs)).encode()
    problems = check_pinned(f"{w.name}:{w.order}", sha256(ascending), expected)
    values = dict(pairs)
    for m in range(1, min(w.order, 4) + 1):
        if values[m] != DISTINCT_HEADS[m] or values[m] * double_factorial_even(m) != CONNECTED_HEADS[m]:
            problems.append(f"order {m}: {values[m]} disagrees with the paper")
    return problems


def check_verify_sweep(w: Workload, seed: int, out: bytes, dot_dir: Path, expected: dict) -> list[str]:
    problems = check_pinned(f"{w.name}:{w.order}", sha256(out), expected)
    report = json.loads(out)
    if not report["overall"] or report["passed"] != report["total"]:
        problems.append(f"verify reports {report['passed']}/{report['total']} checks passed")
    actual = {(c["name"], c["params"]): c["actual"] for c in report["checks"]}
    for m in range(1, min(w.order, 4) + 1):
        if actual.get(("wick-connected", f"m={m}")) != str(CONNECTED_HEADS[m]):
            problems.append(f"wick-connected at m={m} disagrees with the paper")
        if actual.get(("orbit-count", f"m={m}")) != str(DISTINCT_HEADS[m]):
            problems.append(f"orbit-count at m={m} disagrees with the paper")
    return problems


def check_oracle_census(w: Workload, seed: int, out: bytes, dot_dir: Path, expected: dict) -> list[str]:
    key = f"{w.name}:{w.order}"
    problems = check_pinned(key, sha256(out), expected)
    problems += check_pinned(f"{key}:dot", dir_digest(dot_dir), expected)
    census = json.loads(out)
    if int(census["connected"]) != CONNECTED_HEADS[w.order] or int(census["orbits"]) != DISTINCT_HEADS[w.order]:
        problems.append(f"census {census} disagrees with the paper")
    if len(list(dot_dir.iterdir())) != DISTINCT_HEADS[w.order]:
        problems.append("one DOT file per distinct diagram expected")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    #: (order, seed, dot_dir) -> arguments to child.py for one sample.
    command: Callable[[int, int, Path], list[str]]
    #: Interpreter start, import and parser construction, no counting work.
    setup: list[str]
    check: Callable[..., list[str]]


CLI_SETUP = ["cli", "compositions", "--n", "1"]

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "deep-table",
            600,
            lambda order, seed, dot_dir: ["cli", "counts", "--max-order", str(order), "--format", "csv"],
            CLI_SETUP,
            check_deep_table,
        ),
        Workload(
            "per-order-api",
            200,
            lambda order, seed, dot_dir: ["api", *map(str, api_queries(order, seed))],
            ["api"],
            check_per_order_api,
        ),
        Workload(
            "verify-sweep",
            18,
            lambda order, seed, dot_dir: ["cli", "verify", "--max-order", str(order), "--format", "json"],
            CLI_SETUP,
            check_verify_sweep,
        ),
        Workload(
            "oracle-census",
            4,
            lambda order, seed, dot_dir: [
                "cli", "oracle", "--order", str(order), "--format", "json", "--dot-dir", str(dot_dir)
            ],
            CLI_SETUP,
            check_oracle_census,
        ),
    ]
}


def layer_metrics(trace: dict, wall: float, stdout_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sample, and self seconds by span name.

    A span's self time is its duration (for a generator, its time inside
    `next()`) minus what its child spans cover.  Wall time that no span
    covers (interpreter start, imports, wrapper set-up) is unattributed.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    own = [s["busy"] if s["busy"] is not None else s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, t in zip(spans, own):
        if s["parent"] >= 0:
            covered[s["parent"]] += t
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    census_pairings = 0
    for s, t, c in zip(spans, own, covered):
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + t - c
        calls[name] = calls.get(name, 0) + 1
        items[name] = items.get(name, 0) + (s["items"] or 0)
        if name == "oracle.iter_matchings" and spans[s["parent"]]["name"] == "oracle.orbit_census":
            census_pairings += s["items"]
    rooted = sum(t for s, t in zip(spans, own) if s["parent"] < 0)
    representatives = counts.get("representatives", 0)
    metrics = {
        f"{name}.s": self_s.get(name, 0.0)
        for name in [
            "counting.connected_sequence", "counting.arques_walsh",
            "counting.connected_closed_form", "counting.coefficient",
            "counting.verify_three_path", "counting.verify_coefficient_recursion",
            "compositions.enumerate_compositions", "oracle.enumerate_matchings",
            "oracle.enumerate_vacuum_matchings", "oracle.iter_matchings", "oracle.orbit_census",
            "oracle.export_diagram",
        ]
    }
    metrics |= {
        f"{name}.calls": calls.get(name, 0)
        for name in [
            "counting.connected_sequence", "counting.arques_walsh",
            "counting.connected_closed_form", "counting.coefficient",
            "oracle.export_diagram",
        ]
    }
    metrics |= {
        "counting.recurrence_products": counts.get("recurrence_products", 0),
        "counting.max_operand_bits": counts.get("max_operand_bits", 0),
        "counting.checks": counts.get("checks", 0),
        "cli.self_s": sum(t for name, t in self_s.items() if name.startswith("cli.")),
        "cli.stdout_bytes": stdout_bytes if "cli.main" in calls else 0,
        "compositions.terms": items.get("compositions.enumerate_compositions", 0),
        "oracle.pairings": items.get("oracle.iter_matchings", 0) + counts.get("vacuum_pairings", 0),
        "oracle.orbit_images": counts.get("orbit_images", 0),
        "oracle.census_pairings": census_pairings,
        "oracle.useful_ratio": representatives / census_pairings if census_pairings else 0.0,
        "oracle.dot_bytes": counts.get("dot_bytes", 0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - rooted,
        "trace.spans": len(spans),
    }
    return metrics, self_s


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3,
            "samples": values}


@dataclass
class Run:
    """Bookkeeping for one benchmark run: scratch files, attempts, failures."""

    workload: Workload
    seed: int
    scratch: Path
    env: dict
    expected: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counter: int = 0

    def _paths(self) -> tuple[Path, Path, Path]:
        self.counter += 1
        base = self.scratch / str(self.counter)
        return base.with_suffix(".out"), base.with_suffix(".err"), base.with_suffix(".dot")

    def _record(self, sample: Sample, problems: list[str]) -> None:
        self.attempted += 1
        if sample.code != 0:
            tail = sample.stderr.read_text(errors="replace")[-400:]
            problems = [f"exit code {sample.code}: {tail}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def probe(self, args: list[str]) -> float:
        """Wall time of a run that does no workload: set-up or reference."""
        out, err, _ = self._paths()
        sample = run_child(args, self.env, out, err)
        self._record(sample, [])
        return sample.wall_s

    def sample(self, run_id: str | None = None) -> tuple[Sample, float, dict | None]:
        """One checked workload sample, its peak RSS in MiB, and its trace
        when `run_id` is given."""
        out, err, dot_dir = self._paths()
        w = self.workload
        rss_file = out.with_suffix(".rss")
        trace_file = out.with_suffix(".trace")
        prefix = ["--rss", str(rss_file)]
        if run_id is not None:
            prefix += ["--trace", str(trace_file), run_id]
        sample = run_child([CHILD, *prefix, *w.command(w.order, self.seed, dot_dir)], self.env, out, err)
        problems: list[str] = []
        rss_mb = 0.0
        trace = None
        if sample.code == 0:
            try:
                problems = w.check(w, self.seed, out.read_bytes(), dot_dir, self.expected)
                rss_mb = int(rss_file.read_text()) / 1024
                if run_id is not None:
                    trace = json.loads(trace_file.read_text())
            except (ValueError, LookupError, TypeError, AttributeError, OSError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self._record(sample, problems)
        shutil.rmtree(dot_dir, ignore_errors=True)
        return sample, rss_mb, trace

    def fact_probe(self, top: int) -> float:
        out, err, _ = self._paths()
        sample = run_child([CHILD, "fact", str(top)], self.env, out, err)
        self._record(sample, [])
        return float(out.read_text()) if sample.code == 0 else 0.0


def measure(w: Workload, seed: int, seconds: float, trace: bool, min_samples: int = MIN_SAMPLES) -> tuple[dict, dict]:
    """Run the workload for about `seconds`; return its metrics and details.

    The shared host this benchmark was tuned on slows the CPU by up to 2x,
    in phases that last from seconds to minutes, so raw times mostly say
    which phase a run hit.  Each sample is therefore divided by a reference
    probe run next to it, and the median ratio is scaled by the reference's
    uncontended time: seconds at the host's uncontended speed.
    Raw quartiles and every sample are kept in the details.
    """
    src = ROOT / "src" / "feyncount" / "__init__.py"
    if not src.is_file():
        raise SetupError(f"no feyncount sources at {src.parent}")
    expected = json.loads((HERE / "expected.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    run = Run(w, seed, scratch, child_env(), expected)
    walls: list[float] = []
    rss: list[float] = []
    setups: list[float] = []
    # Per round: the fastest set-up probe and start-up reference, and the
    # compute reference run just before the sample.
    round_setups: list[float] = []
    round_startups: list[float] = []
    round_computes: list[float] = []
    traced: list[tuple[float, dict, dict]] = []
    facts: list[float] = []
    begin = perf_counter()
    try:
        while True:
            if trace:
                untraced, _, _ = run.sample()
                walls.append(untraced.wall_s)
                sample, _, spans = run.sample(run_id=f"{w.name}-{seed}-{len(traced)}")
                if spans is not None:
                    size = sample.stdout.stat().st_size
                    traced.append((sample.wall_s, *layer_metrics(spans, sample.wall_s, size)))
                facts.append(run.fact_probe(w.order))
            else:
                startups = []
                for _ in range(PROBES):
                    setups.append(run.probe([CHILD, *w.setup]))
                    startups.append(run.probe(["-c", STARTUP_REFERENCE[0]]))
                round_setups.append(min(setups[-PROBES:]))
                round_startups.append(min(startups))
                round_computes.append(min(run.probe(["-c", COMPUTE_REFERENCE[0]]) for _ in range(2)))
                sample, rss_mb, _ = run.sample()
                walls.append(sample.wall_s)
                rss.append(rss_mb)
            elapsed = perf_counter() - begin
            rounds = len(walls)
            if rounds >= min_samples and elapsed * (rounds + 1) / rounds > seconds:
                break
            if elapsed * (rounds + 1) / rounds > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    detail: dict = {
        "workload": w.name,
        "order": w.order,
        "seed": seed,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
        "wall_s": quartiles(walls),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "problems": run.problems[:10],
    }
    if not trace:
        wall_ratios = [w / c for w, c in zip(walls, round_computes)]
        setup_ratios = [s / r for s, r in zip(round_setups, round_startups)]
        metrics = {
            "wall_s": statistics.median(wall_ratios) * COMPUTE_REFERENCE[1],
            "setup_s": statistics.median(setup_ratios) * STARTUP_REFERENCE[1],
            "peak_rss_mb": statistics.median(rss),
        }
        detail["setup_s"] = quartiles(setups)
        detail["startup_reference_s"] = quartiles(round_startups)
        detail["compute_reference_s"] = quartiles(round_computes)
        detail["peak_rss_mb"] = quartiles(rss)
        return metrics, detail
    # Per-layer numbers all come from the fastest traced sample, so its self
    # times and the unattributed remainder add up to its wall time.
    if traced:
        wall, metrics, self_s = min(traced, key=lambda t: t[0])
    else:
        wall = 0.0
        metrics, self_s = layer_metrics({"spans": [], "counts": {}}, wall, 0)
    metrics["counting.fact_growth_s"] = statistics.median(facts)
    metrics["trace.overhead_s"] = wall - min(walls)
    metrics["error_rate"] = detail["error_rate"]
    detail["traced_wall_s"] = quartiles([t[0] for t in traced] or [wall])
    detail["self_s"] = dict(sorted(self_s.items(), key=lambda item: -item[1]))
    return metrics, detail


def result_line(metrics: dict, detail: dict, trace: bool) -> dict:
    """The result object, with the metrics and units BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        metrics, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = result_line(metrics, detail, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
