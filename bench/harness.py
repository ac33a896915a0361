"""Pass loop, tracing and metric assembly shared by every workload.

A workload is a list of operations.  One *pass* runs each of them once,
in order, timing each; a run repeats passes until ``--seconds`` of pass
time has been spent.  Every answer is checked after its pass, outside
the timed region, against a witness that does not come from the code
under test.

The untraced run calls each layer directly and gives the end-to-end
metrics.  The traced run alternates untraced and traced passes; a traced
pass records a span around every call the benchmark makes into a layer
and gives the per-layer metrics, and the two pass walls give the tracing
overhead.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Op:
    """One operation: run(call, ctx) -> answer, then check(answer).

    ``call(layer, fn, *args)`` is how ``run`` enters a layer, so the
    traced run can put a span around it.  ``ctx`` is shared by the ops of
    one pass (a graph read by one op is queried by the next).  ``check``
    returns the layers whose answer was wrong; empty means correct.  An
    exception, from the op or from its check, fails ``layer``.
    ``counts`` gives the work counters the answer implies.
    """

    name: str
    layer: str
    run: Callable[[Callable, dict], Any]
    check: Callable[[Any], list[str]]
    counts: Callable[[Any], dict[str, float]] = field(default=lambda answer: {})


def untraced(layer: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Spans (name, start, end, parent, pass id) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pass_id = 0

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        with self.span(layer):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def layer_totals(self, pass_id: int) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, summed wall, summed self time) in one pass.

        Self time is a span's duration minus its children's.  The
        benchmark is single-threaded, so the children of one span run one
        after another and never overlap.
        """
        child_time = Counter()
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return {name: tuple(row) for name, row in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "pass": pid}
                    )
                    + "\n"
                )


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failed: int
    failed_layers: Counter
    counts: Counter


def run_pass(ops: list[Op], call: Callable, tracer: Tracer | None = None) -> PassResult:
    ctx: dict = {}
    latencies = []
    answers = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                answer = op.run(call, ctx)
            else:
                with tracer.span("op"):
                    answer = op.run(call, ctx)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            answer, error = None, exc
        latencies.append(perf_counter() - t0)
        answers.append((answer, error))
    wall = perf_counter() - start

    failed = 0
    failed_layers: Counter = Counter()
    counts: Counter = Counter()
    for op, (answer, error) in zip(ops, answers):
        bad = [op.layer]
        if error is None:
            try:
                bad = op.check(answer)
                counts.update(op.counts(answer))
            except Exception as exc:
                error = exc
        if bad:
            failed += 1
            failed_layers.update(bad)
            why = f"raised {error!r}" if error is not None else "wrong answer"
            print(f"check failed: {op.name}: {why} ({', '.join(bad)})", file=sys.stderr)
    return PassResult(wall, latencies, failed, failed_layers, counts)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(ops: list[Op], seconds: float, *, traced: bool,
            between: Callable[[float], None] | None = None) -> dict:
    """Run passes for ``seconds`` of pass time and summarise them.

    Untraced: every pass is untraced.  Traced: untraced and traced passes
    alternate, so both walls come from the same stretch of time.
    ``between(spent)``, if given, runs after each pass, outside pass time.
    """
    tracer = Tracer()
    plain: list[PassResult] = []
    spanned: list[PassResult] = []
    spent = 0.0
    while spent < seconds or not plain or (traced and not spanned):
        # Start each pass from the same heap: collect the last pass's
        # garbage and move the benchmark's own objects (inputs, referee
        # caches) out of the collector's view.
        gc.collect()
        gc.freeze()
        if traced and len(spanned) < len(plain):
            tracer.pass_id = len(spanned)
            result = run_pass(ops, tracer.call, tracer)
            spanned.append(result)
        else:
            result = run_pass(ops, untraced)
            plain.append(result)
        spent += result.wall
        if between is not None:
            between(spent)
    return {"plain": plain, "traced": spanned, "tracer": tracer}
