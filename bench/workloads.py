"""The four workloads: audit, kappa, realize and cli.

Each ``setup_<name>(seed, workdir, tiny)`` makes the inputs from the seed,
writes any files into ``workdir`` and returns ``(ops, inputs, extras)``:
the operations of one pass, a JSON-able record of what was generated (its
digest goes into the result), and None or a callable that takes the extra
measurements of the traced run.  The library only ever sees the generated
inputs.  ``tiny`` shrinks every size for the benchmark's own tests.

Layers are reached through their modules (``oracle.oracle_verdict``, not
an imported name) so a test can swap in a corrupted layer.
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path
from statistics import median
from time import perf_counter

import referee
from harness import Op
from kconnseq import cli, edgelist, graph_core, oracle, realization, sequence_core
from kconnseq.sequence_core import DegreeSequence

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
POOL = Path(__file__).resolve().parent / "data" / "verdict_pool.json"

_spec = importlib.util.spec_from_file_location("bruteforce", ROOT / "tests" / "bruteforce.py")
bruteforce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bruteforce)


def ok(good: bool, layer: str) -> list[str]:
    return [] if good else [layer]


def golden_text(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def report_text(payload: dict) -> str:
    """The JSON spelling of the goldens: two-space indent, final newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_edges(path: Path, n: int, edges) -> None:
    lines = [f"# n={n}"] + [f"{a} {b}" for a, b in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def shuffled_labels(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)


def graph_edges(g) -> frozenset:
    return frozenset(g.edges())


@lru_cache(maxsize=None)
def profile(terms: tuple[int, ...], cap: int) -> tuple[int, int, int]:
    return referee.profile(terms, cap)


@lru_cache(maxsize=None)
def kappa_of(n: int, edges: frozenset, cap: int | None = None) -> int:
    nbrs = referee.neighbour_sets(n, edges)
    if n <= 8:
        return min(bruteforce.vertex_connectivity(n, list(edges)), cap or n)
    return referee.kappa(nbrs, cap)


def witness_kappa(n: int, k: int, which: int) -> int:
    """kappa(G1) = k - 1; kappa(G2) = k, except k - 1 at n = k + 3 (README)."""
    return k - 1 if which == 1 or n == k + 3 else k


# -- audit ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def expected_theorem_report(which: int, n: int, k_max: int) -> dict:
    """The theorem audit rebuilt from the stated predicates and the referee."""
    universe = list(combinations_with_replacement(range(n - 1, 0, -1), n))
    entries, boundary = [], []
    comparisons = 0
    for terms in universe:
        count, lo, hi = profile(terms, k_max)
        if which == 2 and count == 0:
            continue
        for k in range(1, k_max + 1):
            comparisons += 1
            if which == 1:
                claimed, observed = referee.theorem1(terms, k), count > 0 and hi >= k
            else:
                claimed, observed = referee.theorem2(terms, k), lo >= k
                bound = referee.necessity_bound(n, k)
                if sum(terms) == 2 * bound:
                    boundary.append(
                        {"sequence": list(terms), "k": k, "epsilon_bound": bound,
                         "claimed": claimed, "observed": observed}
                    )
            if claimed != observed:
                entries.append(
                    {"theorem": f"theorem{which}", "sequence": list(terms), "k": k,
                     "claimed": claimed, "observed": observed}
                )
    entries.sort(key=lambda e: (e["sequence"], e["k"]))
    report = {
        "schema_version": 1,
        "subject": f"theorem{which}",
        "universe": {"n": n, "k_max": k_max, "sequence_count": len(universe)},
        "entries": entries,
    }
    summary = {"comparisons": comparisons, "discrepancies": len(entries)}
    if which == 2:
        boundary.sort(key=lambda e: (e["sequence"], e["k"]))
        report["boundary"] = boundary
        summary["boundary_cases"] = len(boundary)
    report["summary"] = summary
    return report


def theorem_op(which: int, n: int, k_max: int) -> Op:
    audit = {1: "audit_theorem1", 2: "audit_theorem2"}[which]
    layer = "oracle.audit.theorem"
    return Op(
        name=f"{audit}({n}, {k_max})",
        layer=layer,
        run=lambda call, ctx: call(layer, getattr(oracle, audit), n, k_max),
        check=lambda r: ok(r.to_json_dict() == expected_theorem_report(which, n, k_max), layer),
        counts=lambda r: {
            f"{layer}.sequences": r.universe["sequence_count"],
            f"{layer}.comparisons": r.summary["comparisons"],
        },
    )


def verdict_op(terms: tuple[int, ...], k: int) -> Op:
    s = DegreeSequence(terms)
    layer = "oracle.verdict"

    def check(v) -> list[str]:
        count, lo, hi = profile(terms, 3)
        want = (terms, k, count > 0, count > 0 and hi >= k, None if count == 0 else lo >= k, count)
        got = (v.sequence.terms, v.k, v.graphic, v.exists_k_connected, v.all_k_connected,
               v.realization_count)
        return ok(got == want, layer)

    return Op(
        name=f"oracle_verdict({s}, {k})",
        layer=layer,
        run=lambda call, ctx: call(layer, oracle.oracle_verdict, s, k),
        check=check,
        counts=lambda v: {f"{layer}.realizations": v.realization_count},
    )


def corollary_op(n: int, k: int) -> Op:
    layer = "oracle.audit.corollary"
    golden = f"corollary_n{n}_k{k}_mindeg.json"
    return Op(
        name=f"audit_corollary({n}, {k}, True)",
        layer=layer,
        run=lambda call, ctx: call(layer, oracle.audit_corollary, n, k, True),
        check=lambda r: ok(report_text(r.to_json_dict()) == golden_text(golden), layer),
        counts=lambda r: {f"{layer}.graphs_checked": r.summary["graphs_checked"]},
    )


def setup_audit(seed: int, workdir: Path, tiny: bool):
    """Theorem sweeps, verdicts on phi = 8 pairs and the corollary sweep.

    The pool orders (sequence, k) pairs by cost.  The seed draws one pair
    from each equal slice of its cheapest 60% and of its dearest 15%; the
    eight pairs at the 75% mark are taken on every seed, and so is the
    dense anchor 4^8 for k = 1..3.  A pass then has 33 ops: 11 cheap, the
    8 fixed, and 14 dear (8 drawn, the anchor, the sweeps).  The drawn
    dear pairs run from sparse ones near 5 ms to dense ones near the
    pool's 250 ms cap.  So the median latency falls in the middle of the
    fixed eight, and the 90th percentile, between the fourth and fifth op
    from the top, on audit_theorem1 and the 4^8, k = 2 verdict, on every
    seed and for any number of passes.

    The drawn and fixed pairs are dealt out after the six big ops in
    turn, so the ops the median falls on are timed at six moments of each
    pass, not in one stretch of a few milliseconds: the host's speed
    drifts over seconds.
    """
    rng = random.Random(seed)
    pool = json.loads(POOL.read_text())["pairs"]
    size = len(pool)

    def draw(lo: float, hi: float, count: int) -> list:
        a, b = int(lo * size), int(hi * size)
        return [pool[rng.randrange(a + i * (b - a) // count, a + (i + 1) * (b - a) // count)]
                for i in range(count)]

    middle = int(0.75 * size)
    if tiny:
        picks = draw(0, 0.6, 3) + pool[middle:middle + 2] + draw(0.85, 1, 2)
    else:
        picks = draw(0, 0.6, 11) + pool[middle:middle + 8] + draw(0.85, 1, 8)
    rng.shuffle(picks)
    anchor = (2,) * 5 if tiny else (4,) * 8
    pairs = [(anchor, k) for k in (1, 2, 3)]
    pairs += [(tuple(int(t) for t in seq.split(",")), k) for seq, k in picks]
    n = 5 if tiny else 7
    big = [theorem_op(1, n, 3), theorem_op(2, n, 3)]
    big += [verdict_op(terms, k) for terms, k in pairs[:3]]
    big.append(corollary_op(n, 2))
    small = [verdict_op(terms, k) for terms, k in pairs[3:]]
    ops = []
    for i, op in enumerate(big):
        ops += [op, *small[i::len(big)]]
    oracle.oracle_verdict(DegreeSequence((2, 2, 2)), 2)  # warm-up
    return ops, {"n": n, "verdicts": pairs}, None


# -- kappa ---------------------------------------------------------------------


def setup_kappa(seed: int, workdir: Path, tiny: bool):
    """Edge-list files of circulants, G(n,p) graphs and witness pairs.

    Circulant and witness shapes are fixed and the seed relabels their
    vertices, so their cost barely moves between seeds; the G(n,p) graphs
    are drawn from the seed, and the sparse ones redrawn until connected
    (a disconnected graph is answered at once, which would make the cost
    bimodal).  Eight seeded vertex pairs per graph: the path queries on
    the n = 20 and n = 40 witness graphs then make two wide plateaus of
    equal cost, where the median and the 90th percentile fall.  The
    witness graphs' ops are dealt out after the eight big graphs' in
    turn, so those plateaus are timed at eight moments of each pass, not
    in one stretch at its end: the host's speed drifts over seconds.
    """
    rng = random.Random(seed)
    harary = [(10, 3)] if tiny else [(24, 8), (32, 6), (40, 5), (48, 4)]
    gnp = [(12, 0.5)] if tiny else [(30, 0.5), (40, 0.5), (30, 0.15), (40, 0.12)]
    witness = [(2, 5), (2, 8)] if tiny else [(k, n) for k in (2, 3, 4) for n in (k + 3, 20, 40)]

    shapes = []  # (label, n, edges, kappa from a closed form or None)
    for n, k in harary:
        shapes.append((f"harary_n{n}_k{k}", n, realization.base_k_regular(n, k).edges(), k))
    for n, p in gnp:
        while True:
            edges = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
            if p > 0.3 or referee.connected(n, edges):
                break
        shapes.append((f"gnp_n{n}_p{p}", n, edges, None))
    for k, n in witness:
        for which, build in ((1, realization.build_G1), (2, realization.build_G2)):
            shapes.append((f"g{which}_n{n}_k{k}", n, build(n, k).edges(),
                           witness_kappa(n, k, which)))

    groups, inputs = [], []
    for label, n, edges, closed in shapes:
        edges = shuffled_labels(n, edges, rng)
        path = workdir / f"{label}.edges"
        write_edges(path, n, edges)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(8)]
        inputs.append([label, n, edges, pairs])
        groups.append(kappa_ops(label, path, n, frozenset(edges), closed, pairs))
    big, small = groups[:len(harary) + len(gnp)], groups[len(harary) + len(gnp):]
    ops = []
    for i, group in enumerate(big):
        ops += group
        for other in small[i::len(big)]:
            ops += other
    graph_core.vertex_connectivity(edgelist.read_edge_list(path))  # warm-up
    return ops, inputs, None


def kappa_ops(label, path, n, edges, closed, pairs) -> list[Op]:
    size = path.stat().st_size

    def read(call, ctx):
        g = call("edgelist.read", edgelist.read_edge_list, str(path))
        ctx[label] = g
        return g

    def kappa_check(kap):
        want = closed if closed is not None and n > 8 else kappa_of(n, edges)
        return ok(kap == want, "graph_core.kappa")

    ops = [
        Op(f"read_edge_list {path}", "edgelist.read", read,
           lambda g: ok(g.n == n and graph_edges(g) == edges, "edgelist.read"),
           lambda g: {"edgelist.read.bytes": size}),
        Op(f"vertex_connectivity({label})", "graph_core.kappa",
           lambda call, ctx: call("graph_core.kappa", graph_core.vertex_connectivity, ctx[label]),
           kappa_check,
           lambda kap: {"graph_core.kappa.pairs": comb(n, 2) - len(edges)}),
    ]
    nbrs = referee.neighbour_sets(n, edges)
    for a, b in pairs:
        ops.append(Op(
            f"internally_disjoint_path_count({label}, {a}, {b})", "graph_core.paths",
            lambda call, ctx, a=a, b=b: call(
                "graph_core.paths", graph_core.internally_disjoint_path_count, ctx[label], a, b),
            lambda got, a=a, b=b: ok(got == referee.disjoint_paths(nbrs, a, b), "graph_core.paths"),
        ))
    return ops


# -- realize -------------------------------------------------------------------


def realizable_sequence(n: int, k: int, p: float, rng: random.Random) -> tuple[int, ...]:
    """Degrees of a circulant k-connected graph plus random edges.

    Adding edges never lowers connectivity, so the sequence has a
    k-connected realization by construction.
    """
    edges = set(realization.base_k_regular(n, k).edges())
    edges |= {(a, b) for a, b in combinations(range(n), 2) if rng.random() < p}
    return referee.sequence(n, edges)


def infeasible_sequence(kind: str, n: int, k: int, rng: random.Random) -> tuple[int, ...]:
    """Settled by arithmetic alone: odd sum, non-graphic, or s_phi < k."""
    if kind == "odd":
        terms = [rng.randrange(k, n // 4) for _ in range(n)]
        if sum(terms) % 2 == 0:
            terms[0] += 1
    elif kind == "non_graphic":
        # m vertices of degree n-1 need every other vertex to reach degree m.
        m = rng.randrange(k + 2, k + 8)
        terms = [n - 1] * m + [m - 1] * (n - m)
        if sum(terms) % 2:
            terms[-1] -= 1
    else:
        edges = set(realization.base_k_regular(n, k + 2).edges())
        edges |= {(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.02}
        v = rng.randrange(n)
        for e in sorted(e for e in edges if v in e)[: referee.degrees(n, edges)[v] - (k - 1)]:
            edges.discard(e)
        terms = referee.degrees(n, edges)
    return tuple(sorted(terms, reverse=True))


def pipeline_op(terms: tuple[int, ...], k: int, feasible: bool) -> Op:
    s = DegreeSequence(terms)

    def run(call, ctx):
        t1 = call("sequence_core", sequence_core.theorem1_check, s, k).verdict
        t2 = call("sequence_core", sequence_core.theorem2_check, s, k).verdict
        eg = call("sequence_core", sequence_core.erdos_gallai_graphic, s)
        result = call("realization.realize", realization.realize_k_connected, s, k)
        verified = None
        if result.found:
            verified = call("graph_core.is_k", graph_core.is_k_connected, result.graph, k)
        return t1, t2, eg, result, verified

    def check(answer) -> list[str]:
        t1, t2, eg, result, verified = answer
        bad = ok((t1, t2, eg) == screen(terms, k), "sequence_core")
        if not feasible:
            return bad + ok(not result.found and result.method == "exact", "realization.realize")
        if not result.found:
            return bad + ["realization.realize"]
        g = result.graph
        edges = graph_edges(g)
        truly = kappa_of(g.n, edges, k) >= k
        degrees = referee.sequence(g.n, edges)
        bad += ok(degrees == terms and truly, "realization.realize")
        return bad + ok(verified == truly, "graph_core.is_k")

    return Op(
        name=f"realize pipeline phi={len(terms)} k={k}",
        layer="realization.realize",
        run=run,
        check=check,
        counts=lambda a: {"realization.realize.found": int(a[3].found)},
    )


@lru_cache(maxsize=None)
def screen(terms, k):
    return referee.theorem1(terms, k), referee.theorem2(terms, k), referee.graphic(terms)


def circulant_edges(n: int, k: int) -> int:
    """Edges of base_k_regular(n, k): ceil(nk/2)."""
    return -(-n * k // 2)


def chain_op(n: int, k: int, epsilon: int) -> Op:
    layer = "realization.chain"
    base = circulant_edges(n, k)

    def check(steps) -> list[str]:
        good = [st.epsilon for st in steps] == list(range(base, epsilon + 1))
        previous = frozenset()
        for st in steps:
            edges = graph_edges(st.graph)
            degrees = referee.sequence(n, edges)
            good = good and st.graph.n == n and len(edges) == st.epsilon
            good = good and st.sequence.terms == degrees and previous <= edges
            previous = edges
        # Each graph contains the one before it, so the base bounds them all.
        good = good and kappa_of(n, graph_edges(steps[0].graph), k) >= k
        return ok(good, layer)

    return Op(
        name=f"augment_chain({n}, {k}, {epsilon})",
        layer=layer,
        run=lambda call, ctx: call(layer, realization.augment_chain, n, k, epsilon),
        check=check,
        counts=lambda steps: {f"{layer}.steps": len(steps)},
    )


def witness_op(n: int, k: int) -> Op:
    layer = "realization.witness"

    def run(call, ctx):
        s = call(layer, realization.witness_sequence, n, k)
        g1 = call(layer, realization.build_G1, n, k)
        g2 = call(layer, realization.build_G2, n, k)
        return s, g1, g2, call(layer, realization.is_maximally_non_k_connected, g1, k)

    def check(answer) -> list[str]:
        s, g1, g2, maximal = answer
        want = (n - 1,) * (k - 1) + (n - 3,) * (n - k - 1) + (k, k)
        e1, e2 = graph_edges(g1), graph_edges(g2)
        good = s.terms == want
        for which, edges in ((1, e1), (2, e2)):
            good = good and referee.sequence(n, edges) == want
            good = good and kappa_of(n, edges) == witness_kappa(n, k, which)
        missing = set(combinations(range(n), 2)) - e1
        truly = all(kappa_of(n, e1 | {e}, k) >= k for e in missing)
        return ok(good and maximal == truly, layer)

    return Op(f"witness pair n={n} k={k}", layer, run, check)


def setup_realize(seed: int, workdir: Path, tiny: bool):
    """Screen-then-realize on three sequence families, chains and a witness.

    Sizes are fixed per slot and the seed draws the random edges, the
    infeasible terms and the witness size; every chain adds 12 edges.
    Realizable sequences get about four random edges per vertex on top of
    the circulant: sparser ones make the local search's time heavy-tailed,
    so one unlucky draw would set the whole run.  Hub sequences (one vertex
    of degree phi-1, the rest k) are fixed by their slot: the hub plus a
    (k-1)-connected circulant on the rest realizes them k-connected.
    """
    rng = random.Random(seed)
    if tiny:
        slots, hubs, chains, wit = [(12, 2)], [(9, 3)], [(8, 2)], [(6, 2)]
        infeasible = [("odd", 30, 2), ("non_graphic", 30, 2), ("min_degree", 30, 2)]
    else:
        slots = [(n, k) for n in (12, 16, 20, 24, 28) for k in (2, 3, 4)] + [(32, 3), (40, 2)]
        hubs = [(13, 3), (21, 3), (17, 4)]
        chains = [(12, 3), (14, 2), (16, 3), (18, 4)]
        wit = [(rng.randrange(6, 11), 2), (rng.randrange(8, 13), 3)]
        infeasible = [(kind, n, 2 + i % 3)
                      for kind in ("odd", "non_graphic", "min_degree")
                      for i, n in enumerate((200, 250, 300, 350, 400, 450))]
    jobs = [(realizable_sequence(n, k, 8.0 / n, rng), k, True) for n, k in slots]
    jobs += [((n - 1,) + (k,) * (n - 1), k, True) for n, k in hubs]
    jobs += [(infeasible_sequence(kind, n, k, rng), k, False) for kind, n, k in infeasible]
    rng.shuffle(jobs)
    ops = [pipeline_op(terms, k, feasible) for terms, k, feasible in jobs]
    chain_jobs = [(n, k, circulant_edges(n, k) + 12) for n, k in chains]
    ops += [chain_op(n, k, eps) for n, k, eps in chain_jobs]
    ops += [witness_op(n, k) for n, k in wit]
    realization.realize_k_connected(DegreeSequence((2, 2, 2)), 2)  # warm-up
    return ops, {"sequences": jobs, "chains": chain_jobs, "witness": wit}, None


# -- cli -----------------------------------------------------------------------

LAUNCH = ("import sys; sys.path.insert(0, {src!r}); from kconnseq.cli import main;"
          " sys.exit(main(sys.argv[1:]))")


def launch_argv(args: list[str]) -> list[str]:
    """A fresh interpreter running kconnseq's main on ``args``.

    The package is not installed and ``python -m kconnseq.cli`` does
    nothing (cli.py has no ``__main__`` block), so main is called from -c.
    """
    return [sys.executable, "-c", LAUNCH.format(src=str(ROOT / "src")), *args]


def run_child(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_edges(path: str) -> tuple[int, frozenset]:
    n, edges = None, set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# n="):
            n = int(line[4:])
        elif line and not line.startswith("#"):
            a, b = map(int, line.split())
            edges.add((a, b))
    return n, frozenset(edges)


def cli_check(kind: str, params: dict):
    """A checker of (exit code, stdout, stderr) for one kind of invocation."""

    def check(answer) -> bool:
        code, out, err = answer
        if code not in (0, 1, 2, 3):
            return False
        if kind == "bad":
            return code == 2 and out == "" and sum("error:" in ln for ln in err.splitlines()) == 1
        if code == 2 or err:
            return False
        payload = json.loads(out)
        if kind == "audit":
            return out == golden_text(params["golden"]) and code == (3 if payload["entries"] else 0)
        if kind == "check":
            terms, k = params["terms"], params["k"]
            t1 = referee.theorem1(terms, k)
            good = payload["theorem1"]["verdict"] == t1 and code == (0 if t1 else 1)
            good = good and payload["theorem2"]["verdict"] == referee.theorem2(terms, k)
            if len(terms) > 8:
                return good and payload["oracle"] is None
            count, lo, hi = profile(terms, k)
            verdict = payload["oracle"]
            return good and (verdict["realization_count"], verdict["exists_k_connected"],
                             verdict["all_k_connected"]) == (
                count, count > 0 and hi >= k, None if count == 0 else lo >= k)
        if kind == "realize":
            terms, k = params["terms"], params["k"]
            n, edges = payload["graph"]["n"], frozenset(map(tuple, payload["graph"]["edges"]))
            degrees = referee.sequence(n, edges)
            return code == 0 and degrees == terms and kappa_of(n, edges, k) >= k
        if kind == "chain":
            n, k, eps = params["n"], params["k"], params["epsilon"]
            edges = frozenset(map(tuple, payload["graph"]["edges"]))
            return (code == 0 and len(edges) == eps == payload["epsilon"]
                    and kappa_of(n, edges, k) >= k)
        if kind == "witness":
            n, k = params["n"], params["k"]
            good = code == 0
            for which in (1, 2):
                fn, edges = read_edges(payload[f"g{which}"]["path"])
                want = witness_kappa(n, k, which)
                good = good and fn == n and kappa_of(n, edges) == want
                good = good and payload[f"g{which}"]["vertex_connectivity"] == want
            return good
        if kind == "connectivity":
            n, edges, (a, b) = params["n"], params["edges"], params["pair"]
            nbrs = referee.neighbour_sets(n, edges)
            return (code == 0 and payload["vertex_connectivity"] == kappa_of(n, edges)
                    and payload["pair"]["internally_disjoint_paths"]
                    == referee.disjoint_paths(nbrs, a, b))
        return False

    return check


def setup_cli(seed: int, workdir: Path, tiny: bool):
    """One child process per invocation, covering every subcommand.

    Sizes are small on purpose: start-up, import, argparse and rendering
    dominate, so this workload shows import-time work and little else.
    """
    rng = random.Random(seed)
    calls = []  # (args, kind, params)

    def small_sequence(n: int) -> tuple[int, ...]:
        edges = set(realization.base_k_regular(n, 2).edges())
        edges |= {(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.3}
        return referee.sequence(n, edges)

    def seq_arg(terms) -> str:
        shuffled = list(terms)
        rng.shuffle(shuffled)
        return ",".join(map(str, shuffled))

    for n in ((5,) if tiny else (5, 6, 6)):
        terms, k = small_sequence(n), rng.randrange(1, 4)
        calls.append((["check", "--seq", seq_arg(terms), "--k", str(k), "--format", "json"],
                      "check", {"terms": terms, "k": k}))
    big = tuple(sorted((rng.randrange(2, 40) for _ in range(rng.randrange(200, 400))), reverse=True))
    calls.append((["check", "--seq", seq_arg(big), "--k", "2", "--format", "json"],
                  "check", {"terms": big, "k": 2}))
    terms = small_sequence(6)
    calls.append((["realize", "--seq", seq_arg(terms), "--k", "2", "--format", "json"],
                  "realize", {"terms": terms, "k": 2}))
    n, k = rng.randrange(7, 11), rng.randrange(2, 4)
    eps = circulant_edges(n, k) + rng.randrange(1, 6)
    calls.append((["realize", "--n", str(n), "--k", str(k), "--epsilon", str(eps),
                   "--format", "json"], "chain", {"n": n, "k": k, "epsilon": eps}))
    n, k = rng.randrange(6, 12), rng.randrange(2, 4)
    calls.append((["witness", "--n", str(n), "--k", str(k), "--out-dir", str(workdir),
                   "--format", "json"], "witness", {"n": n, "k": k}))
    n = rng.randrange(8, 14)
    edges = shuffled_labels(n, realization.base_k_regular(n, 3).edges(), rng)
    graph_file = workdir / "graph.edges"
    write_edges(graph_file, n, edges)
    pair = rng.sample(range(n), 2)
    calls.append((["connectivity", str(graph_file), "--pair", *map(str, pair), "--format", "json"],
                  "connectivity", {"n": n, "edges": frozenset(edges), "pair": pair}))
    calls.append((["audit", "--theorem", "1", "--n", "4" if tiny else "5", "--format", "json"],
                   "audit", {"golden": f"theorem1_n{4 if tiny else 5}_kmax3.json"}))
    bad_file = workdir / "bad.edges"
    bad_file.write_text("0 1\n1 x\n", encoding="utf-8")
    bad = [
        ["check", "--seq", f"3,{rng.randrange(1, 9)},x", "--k", "2"],
        ["check", "--seq", "2,2,2", "--k", "0"],
        ["connectivity", str(bad_file)],
        ["realize", "--seq", "2,2,2", "--n", "3", "--epsilon", "3", "--k", "1"],
        ["audit", "--theorem", "1", "--n", "5", "--oracle-limit", "11"],
        ["check", "--k", "2"],
    ]
    calls += [(args, "bad", {}) for args in (bad[:2] if tiny else bad)]

    ops, jobs = [], []
    for args, kind, params in calls:
        check = cli_check(kind, params)
        jobs.append((args, check))
        ops.append(Op(
            name="kconnseq " + " ".join(args)[:80],
            layer="cli.proc",
            run=lambda call, ctx, argv=launch_argv(args): call("cli.proc", run_child, argv),
            check=lambda answer, check=check: ok(check(answer), "cli.proc"),
        ))
    run_child(launch_argv(["check", "--seq", "2,2,2", "--k", "2"]))  # warm-up
    inputs = [[args, kind, {key: sorted(v) if isinstance(v, frozenset) else v
                            for key, v in params.items()}] for args, kind, params in calls]
    return ops, inputs, lambda: cli_extras(jobs)


# Rounds of in-process main calls in the traced cli run; self time is their median.
MAIN_ROUNDS = 3


def cli_extras(jobs) -> tuple[dict, int, int]:
    """Start-up floor, import cost and in-process main, for the traced run.

    ``jobs`` are (args, check) pairs; each of MAIN_ROUNDS rounds runs every
    one through ``main`` in this process and checks it like its
    child-process twin.  A call that raises, or whose check raises, is a
    failed call.
    """

    def child_ms(code: str) -> float:
        times = []
        for _ in range(5):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            times.append((perf_counter() - t0) * 1000)
        return median(times)

    start = child_ms("pass")
    imported = child_ms(f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import kconnseq.cli")
    totals, attempted, failed = [], 0, 0
    for _ in range(MAIN_ROUNDS):
        spent = 0.0
        for args, check in jobs:
            t0 = perf_counter()
            try:
                answer, error = run_in_process(args), None
            except Exception as exc:  # a raising call is a failed call, not a crash
                answer, error = None, exc
            spent += perf_counter() - t0
            attempted += 1
            if error is None:
                try:
                    if check(answer):
                        continue
                except Exception as exc:
                    error = exc
            failed += 1
            why = f"raised {error!r}" if error is not None else "wrong answer"
            print(f"check failed: in-process kconnseq {' '.join(args)[:80]}: {why}", file=sys.stderr)
        totals.append(spent)
    metrics = {
        "cli.start_ms": start,
        "cli.import_ms": imported - start,
        "cli.main.calls": len(jobs),
        "cli.main.self_s": median(totals),
        "cli.main.failed": failed,
    }
    return metrics, attempted, failed


SETUPS = {
    "audit": setup_audit,
    "kappa": setup_kappa,
    "realize": setup_realize,
    "cli": setup_cli,
}
