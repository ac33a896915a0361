"""Command-line front end.

Five subcommands: ``check`` (feasibility predicates for a sequence, with
the enumeration oracle appended when the sequence is small enough),
``realize`` (synthesize a k-connected graph from a sequence or an
(n, k, epsilon) chain), ``witness`` (build the G1/G2 pair plus summary),
``audit`` (sweep a predicate against the oracle and emit a discrepancy
report), and ``connectivity`` (analyze an edge-list file).

Exit codes, everywhere: 0 predicate true / success, 1 predicate false /
nothing found, 2 input or usage error, 3 audit completed and found
discrepancies.  No other codes are ever returned.  Every exit 2 writes
exactly one ``error:`` line to stderr and nothing else: bad input, usage
mistakes, running out of memory and Ctrl-C alike.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .edgelist import format_edge_list, read_edge_list, write_edge_list
from .errors import AugmentationStuck, KconnseqError, TooLarge
from .graph_core import (
    MAX_VERTICES,
    degree_sequence,
    internally_disjoint_path_count,
    vertex_connectivity,
)
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    HARD_ENUMERATION_CAP,
    audit_corollary,
    audit_theorem1,
    audit_theorem2,
    oracle_verdict,
)
from .realization import (
    augment_chain,
    build_G1,
    build_G2,
    is_maximally_non_k_connected,
    realize_k_connected,
    witness_sequence,
)
from .sequence_core import (
    DegreeSequence,
    associated_pair,
    normalize,
    theorem1_check,
    theorem2_check,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_DISCREPANCY = 3

# Shown in audit text summaries before eliding; report files are never cut.
_TEXT_ENTRY_LIMIT = 50

# The most edges a command may print or write, checked before it builds.
MAX_OUTPUT_EDGES = 10_000_000


def canonical_json(payload: dict) -> str:
    """The one JSON spelling used for every report this tool writes."""
    return json.dumps(payload, indent=2) + "\n"


# What int() accepts once stripped, less "_" separators and non-ASCII digits.
_TERM = re.compile(r"[+-]?[0-9]+")


def _parse_sequence(text: str) -> DegreeSequence:
    parts = text.split(",")
    if len(parts) > MAX_VERTICES:
        raise TooLarge(f"--seq has {len(parts)} terms, over the cap of {MAX_VERTICES}")
    try:
        values = [int(part) for part in parts if _TERM.fullmatch(part.strip())]
    except ValueError:  # beyond int()'s digit limit
        values = []
    if len(values) != len(parts):
        raise KconnseqError(
            f"sequence must be comma-separated integers, got {text!r}"
        )
    return normalize(values)


def _check_range(flag: str, value: int, hi: int | None = None) -> int:
    """Reject a flag value below 1, or above ``hi`` when one is given."""
    if hi is not None and not 1 <= value <= hi:
        raise KconnseqError(f"{flag} must be within 1..{hi}, got {value}")
    if value < 1:
        raise KconnseqError(f"{flag} must be >= 1, got {value}")
    return value


def _check_output(what: str, edges: int) -> None:
    if edges > MAX_OUTPUT_EDGES:
        raise TooLarge(f"{what} needs {edges} edges, over the cap of {MAX_OUTPUT_EDGES}")


def _render_condition_report(report) -> list[str]:
    lines = [f"{report.subject} (k={report.k}): {'PASS' if report.verdict else 'FAIL'}"]
    for c in report.checks:
        lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.reason}")
    return lines


def _graph_json(g) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


# -- check --------------------------------------------------------------------


def cmd_check(args) -> int:
    limit = _check_range("--oracle-limit", args.oracle_limit, HARD_ENUMERATION_CAP)
    s = _parse_sequence(args.seq)
    _check_range("--k", args.k)
    r1 = theorem1_check(s, args.k)
    r2 = theorem2_check(s, args.k)
    verdict = oracle_verdict(s, args.k, limit=limit) if len(s) <= limit else None

    agree1 = agree2 = None
    if verdict is not None:
        agree1 = r1.verdict == verdict.exists_k_connected
        if verdict.all_k_connected is not None:
            agree2 = r2.verdict == verdict.all_k_connected

    if args.format == "json":
        payload = {
            "schema_version": 1,
            "command": "check",
            "sequence": list(s.terms),
            "k": args.k,
            "theorem1": r1.to_json_dict(),
            "theorem2": r2.to_json_dict(),
            "oracle": None if verdict is None else verdict.to_json_dict(),
            "agreement": None
            if verdict is None
            else {"theorem1_vs_exists": agree1, "theorem2_vs_all": agree2},
        }
        print(canonical_json(payload), end="")
    else:
        pair = associated_pair(s)
        lines = [f"sequence {s}  phi={pair.phi} epsilon={pair.epsilon_str()}"]
        lines += _render_condition_report(r1)
        lines += _render_condition_report(r2)
        if verdict is None:
            lines.append(f"oracle: skipped (phi={len(s)} exceeds limit {limit})")
        else:
            alltxt = (
                "n/a"
                if verdict.all_k_connected is None
                else str(verdict.all_k_connected).lower()
            )
            lines.append(
                f"oracle: graphic={str(verdict.graphic).lower()}"
                f" realizations={verdict.realization_count}"
                f" exists_k_connected={str(verdict.exists_k_connected).lower()}"
                f" all_k_connected={alltxt}"
            )
            banner1 = "AGREE" if agree1 else "DISAGREE"
            banner2 = "n/a" if agree2 is None else ("AGREE" if agree2 else "DISAGREE")
            lines.append(f"agreement: theorem1={banner1} theorem2={banner2}")
            if agree1 is False or agree2 is False:
                lines.append(
                    "warning: enumeration disagrees with the stated conditions"
                    " (exit code still reflects the conditions; use"
                    " --ground-truth to flip that)"
                )
        print("\n".join(lines))

    if args.ground_truth:
        if verdict is None:
            raise KconnseqError(
                f"--ground-truth needs phi <= oracle limit ({limit}), got phi={len(s)}"
            )
        return EXIT_TRUE if verdict.exists_k_connected else EXIT_FALSE
    return EXIT_TRUE if r1.verdict else EXIT_FALSE


# -- realize ------------------------------------------------------------------


def _emit_graph(args, g, method: str, extra: dict | None = None) -> None:
    if args.output:
        write_edge_list(g, args.output)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "command": "realize",
            "method": method,
            "k": args.k,
            "found": True,
            "sequence": list(degree_sequence(g).terms),
            "epsilon": g.edge_count,
            "graph": _graph_json(g),
            "output": args.output,
        }
        if extra:
            payload.update(extra)
        print(canonical_json(payload), end="")
    else:
        print(
            f"method={method} k={args.k} n={g.n} epsilon={g.edge_count}"
            f" sequence={degree_sequence(g)}"
        )
        if extra and "chain" in extra:
            for row in extra["chain"]:
                print(f"  {','.join(str(t) for t in row['sequence'])} | {row['epsilon']}")
        if args.output:
            print(f"wrote {args.output}")
        else:
            print(format_edge_list(g), end="")


def _emit_not_found(args, method: str, message: str) -> int:
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "command": "realize",
            "method": method,
            "k": args.k,
            "found": False,
            "message": message,
        }
        print(canonical_json(payload), end="")
    else:
        print(message)
    return EXIT_FALSE


def cmd_realize(args) -> int:
    limit = _check_range("--oracle-limit", args.oracle_limit, HARD_ENUMERATION_CAP)
    by_seq = args.seq is not None
    by_chain = args.n is not None or args.epsilon is not None
    if by_seq == by_chain:
        raise KconnseqError("give either --seq, or both --n and --epsilon")
    _check_range("--k", args.k)

    if by_seq:
        s = _parse_sequence(args.seq)
        _check_output("--seq", s.degree_sum // 2)
        result = realize_k_connected(s, args.k, oracle_limit=limit)
        if not result.found:
            if result.method == "exact":
                return _emit_not_found(
                    args, "exact", "no realization exists (exact)"
                )
            return _emit_not_found(
                args,
                "heuristic",
                "no realization found (heuristic; existence not settled)",
            )
        _emit_graph(args, result.graph, result.method)
        return EXIT_TRUE

    if args.n is None or args.epsilon is None:
        raise KconnseqError("chain mode needs both --n and --epsilon")
    _check_range("--n", args.n, MAX_VERTICES)
    if args.k < args.n:  # else base_k_regular refuses k before building
        # The base, of ceil(n*k/2) edges, is built before epsilon is checked.
        _check_output("chain", max(args.epsilon, (args.n * args.k + 1) // 2))
    try:
        steps = augment_chain(args.n, args.k, args.epsilon)
    except AugmentationStuck as exc:
        return _emit_not_found(args, "chain", f"chain construction failed: {exc}")
    chain_rows = [
        {"sequence": list(st.sequence.terms), "epsilon": st.epsilon} for st in steps
    ]
    _emit_graph(args, steps[-1].graph, "chain", {"chain": chain_rows})
    return EXIT_TRUE


# -- witness ------------------------------------------------------------------


def cmd_witness(args) -> int:
    _check_range("--k", args.k)
    _check_range("--n", args.n, MAX_VERTICES)
    s = witness_sequence(args.n, args.k)  # NTooSmall -> exit 2
    # G1 and G2 each realize s, with half its degree sum in edges.
    _check_output("witness pair", s.degree_sum)
    g1 = build_G1(args.n, args.k)
    g2 = build_G2(args.n, args.k)
    conn1 = vertex_connectivity(g1)
    conn2 = vertex_connectivity(g2)
    maximal = is_maximally_non_k_connected(g1, args.k)

    path1 = args.g1 or os.path.join(args.out_dir, f"g1_n{args.n}_k{args.k}.edges")
    path2 = args.g2 or os.path.join(args.out_dir, f"g2_n{args.n}_k{args.k}.edges")
    write_edge_list(g1, path1)
    write_edge_list(g2, path2)

    pair = associated_pair(s)
    summary = {
        "schema_version": 1,
        "command": "witness",
        "n": args.n,
        "k": args.k,
        "sequence": list(s.terms),
        "epsilon": pair.to_json_dict()["epsilon"],
        "g1": {
            "path": path1,
            "edge_count": g1.edge_count,
            "vertex_connectivity": conn1,
        },
        "g2": {
            "path": path2,
            "edge_count": g2.edge_count,
            "vertex_connectivity": conn2,
        },
        "g1_maximally_non_k_connected": maximal,
    }
    if args.format == "json":
        print(canonical_json(summary), end="")
    else:
        print(
            f"witness n={args.n} k={args.k}: sequence {s}"
            f" epsilon={pair.epsilon_str()}"
        )
        print(f"g1: {path1} edges={g1.edge_count} connectivity={conn1}")
        print(f"g2: {path2} edges={g2.edge_count} connectivity={conn2}")
        print(f"g1 maximally non-{args.k}-connected: {str(maximal).lower()}")
    return EXIT_TRUE


# -- audit --------------------------------------------------------------------


def cmd_audit(args) -> int:
    limit = _check_range("--oracle-limit", args.oracle_limit, HARD_ENUMERATION_CAP)
    jobs = _check_range("--jobs", args.jobs)
    if args.theorem == "corollary":
        _check_range("--k", args.k)
        report = audit_corollary(
            args.n, args.k, args.min_degree, limit=limit, jobs=jobs
        )
    else:
        _check_range("--kmax", args.kmax)
        audit = audit_theorem1 if args.theorem == "1" else audit_theorem2
        report = audit(args.n, args.kmax, limit=limit, jobs=jobs)

    if args.output or args.format == "json":
        text = canonical_json(report.to_json_dict())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)

    if args.format == "json":
        print(text, end="")
    else:
        uni = " ".join(f"{key}={value}" for key, value in report.universe.items())
        print(f"audit {report.subject}: {uni}")
        for key, value in report.summary.items():
            print(f"  {key}: {value}")
        shown = list(report.entries[:_TEXT_ENTRY_LIMIT])
        for e in shown:
            if report.subject == "corollary":
                print(
                    f"  violation: edges={e['edge_count']}"
                    f" connectivity={e['connectivity']}"
                    f" degrees={','.join(str(d) for d in e['degree_sequence'])}"
                )
            else:
                print(
                    f"  discrepancy: seq={','.join(str(t) for t in e['sequence'])}"
                    f" k={e['k']} claimed={str(e['claimed']).lower()}"
                    f" observed={str(e['observed']).lower()}"
                )
        hidden = len(report.entries) - len(shown)
        if hidden > 0:
            print(f"  ... {hidden} more entries (see --output file)")
        if args.output:
            print(f"wrote {args.output}")
    return EXIT_DISCREPANCY if report.has_discrepancies else EXIT_TRUE


# -- connectivity -------------------------------------------------------------


def cmd_connectivity(args) -> int:
    try:
        g = read_edge_list(args.input)
    except OSError as exc:
        raise KconnseqError(f"cannot read {args.input}: {exc}") from None
    ds = degree_sequence(g)  # isolated vertices rejected here -> exit 2
    kappa = vertex_connectivity(g)
    pair_info = None
    if args.pair:
        a, b = args.pair
        count = internally_disjoint_path_count(g, a, b)
        pair_info = {"a": a, "b": b, "internally_disjoint_paths": count}

    if args.format == "json":
        payload = {
            "schema_version": 1,
            "command": "connectivity",
            "input": args.input,
            "n": g.n,
            "edge_count": g.edge_count,
            "degree_sequence": list(ds.terms),
            "vertex_connectivity": kappa,
            "pair": pair_info,
        }
        print(canonical_json(payload), end="")
    else:
        print(f"n={g.n} edges={g.edge_count}")
        print(f"degree sequence: {ds}")
        print(f"vertex connectivity: {kappa}")
        if pair_info:
            print(
                f"internally disjoint paths {pair_info['a']}-{pair_info['b']}:"
                f" {pair_info['internally_disjoint_paths']}"
            )
    return EXIT_TRUE


# -- wiring -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one ``error:`` line and exit 2."""

    def error(self, message):
        print(f"error: {message} (see {self.prog} --help)", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kconnseq",
        description=(
            "Decide, construct, and audit k-connected degree sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, oracle: bool = False, jobs: bool = False):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output style (default text)",
        )
        if oracle:
            sp.add_argument(
                "--oracle-limit", type=int, default=DEFAULT_ENUMERATION_LIMIT,
                help=(
                    "max vertex count for exhaustive enumeration"
                    f" (default {DEFAULT_ENUMERATION_LIMIT},"
                    f" hard cap {HARD_ENUMERATION_CAP})"
                ),
            )
        if jobs:
            sp.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes for the sweep (default 1)",
            )

    p = sub.add_parser("check", help="evaluate the feasibility conditions")
    p.add_argument("--seq", required=True, help="comma-separated degrees, any order")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--ground-truth", action="store_true",
        help="exit code reflects the enumeration oracle instead of the conditions",
    )
    common(p, oracle=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="construct a k-connected graph")
    p.add_argument("--seq", help="target degree sequence")
    p.add_argument("--n", type=int, help="vertex count (chain mode)")
    p.add_argument("--epsilon", type=int, help="target edge count (chain mode)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", help="write the edge list to this path")
    common(p, oracle=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("witness", help="build the G1/G2 witness pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g1", help="G1 edge-list path (default <out-dir>/g1_n<n>_k<k>.edges)")
    p.add_argument("--g2", help="G2 edge-list path (default <out-dir>/g2_n<n>_k<k>.edges)")
    p.add_argument("--out-dir", default=".", help="directory for default paths")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("audit", help="sweep a predicate against the oracle")
    p.add_argument("--theorem", required=True, choices=("1", "2", "corollary"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3, help="k range for theorem audits")
    p.add_argument("--k", type=int, default=1, help="k for the corollary audit")
    p.add_argument(
        "--min-degree", action=argparse.BooleanOptionalAction, default=True,
        help="restrict the corollary sweep to graphs with min degree >= k",
    )
    p.add_argument("--output", help="write the JSON report to this path")
    common(p, oracle=True, jobs=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("connectivity", help="analyze an edge-list file")
    p.add_argument("input", help="edge-list file path")
    p.add_argument(
        "--pair", nargs=2, type=int, metavar=("A", "B"),
        help="also count internally disjoint paths between two vertices",
    )
    common(p)
    p.set_defaults(func=cmd_connectivity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KconnseqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
