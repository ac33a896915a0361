#!/usr/bin/env python3
"""Run one kconnseq benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records provenance.  Both, and the
spans of a traced run, are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit", "kappa", "realize", "cli")
DEFAULT_SEED = 1
# Set-up is repeated and its median reported, so one slow round is not a regression.
SETUP_ROUNDS = 5


def commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# One fresh interpreter importing kconnseq and the benchmark; prints the import time.
IMPORT_CODE = ("import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t = time.perf_counter(); "
               "import workloads; print(time.perf_counter() - t)")
# Starts one such interpreter per line read and prints its output.
PROBE_HELPER = ("import subprocess, sys\n"
                "for _ in sys.stdin:\n"
                "    child = subprocess.run([sys.executable, '-c', sys.argv[1]], capture_output=True,\n"
                "                           text=True, check=True, timeout=120)\n"
                "    print(child.stdout.strip(), flush=True)\n")


class ImportProbe:
    """Times fresh-interpreter imports, started by a helper process.

    The probed interpreters are the helper's children, not this
    process's, so their memory reaches RUSAGE_CHILDREN only once the
    helper is reaped, after the cli workload has read its children's peak.
    """

    def __init__(self) -> None:
        code = IMPORT_CODE.format(src=str(ROOT / "src"), here=str(HERE))
        self.helper = subprocess.Popen([sys.executable, "-c", PROBE_HELPER, code],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        return float(self.helper.stdout.readline())

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()


def sources_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kconnseq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric_spec() -> dict[str, list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: [(m["name"], m["unit"]) for m in spec[group]]
            for group in ("end_to_end", "per_layer")}


def layer_values(names, measured) -> dict[str, float]:
    """Per-layer values from the traced passes of one run.

    A layer the workload never calls reports 0 for each of its metrics.
    """
    plain, traced, tracer = measured["plain"], measured["traced"], measured["tracer"]
    totals = [tracer.layer_totals(i) for i in range(len(traced))]
    failed = sum((r.failed_layers for r in plain + traced), start=Counter())
    values: dict[str, float] = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = median_low(t.get(layer, (0, 0.0, 0.0))[0] for t in totals)
        elif kind in ("wall_s", "self_s"):
            column = 1 if kind == "wall_s" else 2
            values[name] = median(t.get(layer, (0, 0.0, 0.0))[column] for t in totals)
        elif kind == "failed":
            values[name] = failed[layer]
    for r in traced[1:]:
        if r.counts != traced[0].counts:
            print("warning: work counts differ between traced passes", file=sys.stderr)
    values.update(traced[0].counts)
    calls = values.get("realization.realize.calls", 0)
    values["realization.realize.found_ratio"] = (
        values.get("realization.realize.found", 0) / calls if calls else 0.0
    )
    verdict_s = values.get("oracle.verdict.self_s", 0.0)
    values["oracle.verdict.realizations_per_s"] = (
        values.get("oracle.verdict.realizations", 0) / verdict_s if verdict_s else 0.0
    )
    values["trace.overhead_s"] = median(r.wall for r in traced) - median(r.wall for r in plain)
    for name in names:
        values.setdefault(name, 0)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; return the result record.

    Set-up time is the median import time of a fresh interpreter plus the
    median of SETUP_ROUNDS rounds of input generation, file writing and
    warm-up, each into a fresh directory.  The first round makes the
    inputs that are measured; the others are spread over the measured
    time, between passes, so the medians see the same stretch of time as
    the passes do.  A traced run sets up once and reports no set-up time.
    """
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness
    import workloads

    out = HERE / "out"
    work = out / f"work-{os.getpid()}"
    setup_times, import_times = [], []
    probe = None if trace else ImportProbe()

    def set_up():
        workdir = work / f"setup{len(setup_times)}"
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        made = workloads.SETUPS[workload](seed, workdir, tiny)
        setup_times.append(perf_counter() - t0)
        if probe is not None:
            import_times.append(probe.seconds())
        return made

    def between(spent: float) -> None:
        """One more set-up round once its share of the measured time is spent."""
        if len(setup_times) < SETUP_ROUNDS and spent >= len(setup_times) * seconds / SETUP_ROUNDS:
            set_up()

    try:
        ops, inputs, extras = set_up()
        measured = harness.measure(ops, seconds, traced=trace,
                                   between=None if trace else between)
        plain, traced = measured["plain"], measured["traced"]
        attempted = sum(len(r.latencies) for r in plain + traced)
        failed = sum(r.failed for r in plain + traced)
        spec = metric_spec()
        if trace:
            names = [name for name, _ in spec["per_layer"]]
            values = layer_values(names, measured)
            if extras is not None:
                more, extra_attempted, extra_failed = extras()
                values.update(more)
                attempted += extra_attempted
                failed += extra_failed
            values["fail_ratio"] = failed / attempted
            units = spec["per_layer"]
            measured["tracer"].write(out / f"trace-{workload}-seed{seed}.jsonl")
        else:
            while len(setup_times) < SETUP_ROUNDS:
                set_up()
            latencies = [x for r in plain for x in r.latencies]
            who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
            values = {
                "wall_s": median(r.wall for r in plain),
                "op_p50_ms": median(latencies) * 1000,
                "op_p90_ms": harness.p90(latencies) * 1000,
                # Before the import probe's helper, and so its children, is reaped.
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "setup_s": median(import_times) + median(setup_times),
            }
            units = spec["end_to_end"]
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "inputs_sha256": hashlib.sha256(
            json.dumps(inputs, sort_keys=True, default=list).encode()
        ).hexdigest(),
        "commit": commit(),
        "sources_sha256": sources_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "pass_walls": [round(r.wall, 4) for r in plain + traced],
        "op_samples": sum(len(r.latencies) for r in plain),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (out / name).write_text(json.dumps({"provenance": provenance, **result}, indent=2) + "\n")
    return {"provenance": provenance, **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="pass time to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/kconnseq/__init__.py", "tests/goldens", "tests/bruteforce.py")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a kconnseq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": result.pop("provenance")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
