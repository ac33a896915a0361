"""The benchmark's own tests, at tiny sizes.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import referee  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from kconnseq import graph_core, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counters that follow from the inputs alone, so they must repeat exactly.
DETERMINISTIC = (".calls", ".realizations", ".comparisons", ".graphs_checked",
                 ".steps", ".pairs", ".sequences", ".bytes")


def tiny_run(workload: str, trace: bool, seed: int = bench.DEFAULT_SEED) -> dict:
    return bench.run(workload, seed, 0.2, trace, tiny=True)


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {w: tiny_run(w, True) for w in WORKLOADS}


def test_workload_names_match():
    assert WORKLOADS == list(bench.WORKLOADS)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1].startswith("bench/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(name.fullmatch(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 7])
def test_end_to_end_metrics_emitted_and_correct(workload, seed):
    result = tiny_run(workload, False, seed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_emitted(traced_runs):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, result in traced_runs.items():
        assert result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert result["metrics"]["fail_ratio"]["value"] == 0
    # Every layer metric is exercised by some workload, so none is a typo
    # that silently reads 0.
    silent = {name for name in wanted
              if name.endswith(".failed") or name in ("fail_ratio", "trace.overhead_s")}
    for name in set(wanted) - silent:
        assert any(r["metrics"][name]["value"] for r in traced_runs.values()), name


@pytest.mark.parametrize("workload", ["audit", "kappa", "realize"])
def test_work_counts_repeat_exactly(workload, traced_runs):
    again = tiny_run(workload, True)
    first = traced_runs[workload]
    for name, metric in first["metrics"].items():
        if name.endswith(DETERMINISTIC):
            assert again["metrics"][name]["value"] == metric["value"], name
    assert again["provenance"]["inputs_sha256"] == first["provenance"]["inputs_sha256"]


def test_seed_changes_inputs():
    a = tiny_run("kappa", False, 1)["provenance"]["inputs_sha256"]
    b = tiny_run("kappa", False, 2)["provenance"]["inputs_sha256"]
    assert a != b


def test_corrupted_verdict_is_counted(monkeypatch):
    real = oracle.oracle_verdict

    def off_by_one(s, k, **kw):
        v = real(s, k, **kw)
        return type(v)(v.sequence, v.k, v.graphic, v.exists_k_connected,
                       v.all_k_connected, v.realization_count + 1)

    monkeypatch.setattr(oracle, "oracle_verdict", off_by_one)
    result = tiny_run("audit", True)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["oracle.verdict.failed"]["value"] > 0
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert result["metrics"]["oracle.audit.theorem.failed"]["value"] == 0


def test_raising_layer_is_counted(monkeypatch):
    def broken(g, a, b):
        raise RuntimeError("corrupted layer")

    monkeypatch.setattr(graph_core, "internally_disjoint_path_count", broken)
    result = tiny_run("kappa", True)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["graph_core.paths.failed"]["value"] > 0
    assert result["metrics"]["graph_core.kappa.failed"]["value"] == 0


def test_raising_main_is_counted(monkeypatch, capsys):
    def broken(argv):
        raise RuntimeError("corrupted main")

    monkeypatch.setattr(workloads.cli, "main", broken)
    result = tiny_run("cli", True)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["cli.main.failed"]["value"] > 0
    assert result["metrics"]["cli.proc.failed"]["value"] == 0
    assert "raised RuntimeError('corrupted main')" in capsys.readouterr().err


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rebuilt_theorem_audit_matches_golden(which, n):
    golden = (ROOT / "tests" / "goldens" / f"theorem{which}_n{n}_kmax3.json").read_text()
    assert workloads.report_text(workloads.expected_theorem_report(which, n, 3)) == golden


def test_referee_agrees_with_bruteforce():
    rng = random.Random(5)
    brute = workloads.bruteforce
    for _ in range(40):
        n = rng.randrange(2, 8)
        edges = brute.random_edges(n, rng, rng.uniform(0.3, 0.9))
        nbrs = referee.neighbour_sets(n, edges)
        masks = [sum(1 << w for w in nbrs[v]) for v in range(n)]
        truth = brute.vertex_connectivity(n, edges)
        assert referee.kappa(nbrs) == truth
        assert referee.removal_kappa(masks, 3) == min(truth, 3)
        for a, b in combinations(range(n), 2):
            if b not in nbrs[a]:
                assert referee.disjoint_paths(nbrs, a, b) == brute.min_separator(n, edges, a, b)
    for terms in [(2, 2, 2), (3, 3, 2, 2, 2), (3, 3, 1, 1), (4, 3, 3, 2, 2), (2, 2, 2, 1, 1)]:
        assert referee.profile(terms, 3)[0] == brute.count_realizations(terms)
        assert referee.graphic(terms) == (brute.count_realizations(terms) > 0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
