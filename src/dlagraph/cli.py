"""Command-line front end.

Subcommands map onto the library layers: ``classify`` (structure tables),
``close`` (bracket closure engine), ``frustration build``/``member``
(anticommutation-walk certificates), ``involution`` (fixed-point cross-check)
and ``verify`` (the named suites from dlagraph.suites).

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 classification
out of scope without --oracle, 4 a resource cap was hit.  With --json the
only stdout output is one deterministic JSON object (sorted keys, no
timestamps), so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from dlagraph.catalog import LABELS, place_alternative, place_on_graph
from dlagraph.classify import SCOPE_OUT, classify
from dlagraph.closure import DEFAULT_LIMIT, ClosureLimitError, lie_closure
from dlagraph.frustration import (
    SearchSpaceTooLarge,
    build_frustration,
    member_via_frustration,
    product_of,
    toggle,
)
from dlagraph.graphs import (
    InteractionGraph,
    complete_graph,
    graph_from_spec,
    is_connected,
    parse_graph,
)
from dlagraph.involution import cross_check, make_theta
from dlagraph.pauli import format_pauli, parse_pauli
from dlagraph.suites import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_RESOURCE_CAP = 4

_EPILOG = """\
graph arguments are either a file (edge-list text with an 'n <count>' header,
or JSON {"n": ..., "edges": [[u, v], ...]}) or an inline spec:
  K:5        complete graph on 5 vertices
  Kb:2,3     complete bipartite graph with blocks 2 and 3
  L:4        line on 4 vertices
  C:6        cycle on 6 vertices
  Sigma      the 5-vertex branched tree 0-1, 1-2, 1-4, 2-3
  Omega      the 4-vertex diamond 0-1, 1-2, 1-3, 2-3

Pauli strings are at most 31 qubits wide, the widest whose packed key fits
a 64-bit integer; wider graphs and targets exit 2.

exit codes: 0 success, 1 verification failure, 2 bad input,
3 out of scope (rerun with --oracle), 4 resource cap hit.
"""


def _load_graph(spec: str) -> InteractionGraph:
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read graph file {spec!r}: {exc.strerror or exc}") from exc
        return parse_graph(text)
    return graph_from_spec(spec)


def _generators(args):
    graph = _load_graph(args.graph)
    if getattr(args, "alt", False):
        return place_alternative(args.algebra, graph)
    return place_on_graph(args.algebra, graph)


# ------------------------------------------------------------ subcommands

def _cmd_classify(args) -> tuple[dict, list[str], int]:
    graph = _load_graph(args.graph)
    cls = classify(graph, args.algebra, oracle=args.oracle)
    connected = is_connected(graph)
    result = {
        "algebra": args.algebra,
        "n": graph.n,
        "E": graph.edge_count,
        "connected": connected,
        "bipartite": list(cls.bipartite) if cls.bipartite else None,
        "scope": cls.scope,
        "summands": [
            {"family": s.family, "size": s.size, "multiplicity": s.multiplicity}
            for s in cls.summands
        ],
        "dim": cls.total_dim,
    }
    bip = "+".join(map(str, cls.bipartite)) if cls.bipartite else "no"
    lines = [
        f"graph: n={graph.n}, edges={graph.edge_count}, "
        f"connected={'yes' if connected else 'no'}, bipartite={bip}",
        f"algebra: {args.algebra}",
        f"scope: {cls.scope}",
        "summands: " + (" + ".join(str(s) for s in cls.summands) or "(none identified)"),
        f"dim: {cls.total_dim}",
    ]
    code = EXIT_OUT_OF_SCOPE if cls.scope == SCOPE_OUT else EXIT_OK
    if code == EXIT_OUT_OF_SCOPE:
        lines.append("out of scope for the structure tables; rerun with --oracle")
    return result, lines, code


def _cmd_close(args) -> tuple[dict, list[str], int]:
    gens = _generators(args)
    res = lie_closure(gens, limit=args.limit)
    basis = sorted(res.words())
    result = {"n": res.n, "dim": res.dimension, "basis": basis}
    lines = [
        f"n: {res.n}",
        f"generators: {len(gens.members)}",
        f"dim: {res.dimension}",
        f"bracket pairs evaluated: {res.stats.pair_evaluations}",
    ]
    if args.basis:
        lines += [f"  {text}" for text in basis]
    return result, lines, EXIT_OK


def _cmd_frustration_build(args) -> tuple[dict, list[str], int]:
    gens = _generators(args)
    fg = build_frustration(gens)
    result = {
        "n": fg.n,
        "size": fg.size,
        "generators": [str(p) for p in fg.generators],
        "edges": [list(e) for e in fg.edges()],
    }
    lines = [f"generators: {fg.size} on {fg.n} sites"]
    lines += [f"  g{i} {p}" for i, p in enumerate(fg.generators)]
    lines.append(f"anticommuting pairs: {len(fg.edges())}")
    lines += [f"  g{i} ~ g{j}" for i, j in fg.edges()]
    return result, lines, EXIT_OK


def _cmd_frustration_member(args) -> tuple[dict, list[str], int]:
    gens = _generators(args)
    target = parse_pauli(args.target)
    trace = member_via_frustration(gens, target)
    if trace is None:
        result = {
            "target": target.canonical.letters(),
            "member": False,
            "start": None,
            "steps": None,
            "coloring": None,
        }
        lines = [f"target {target.canonical.letters()}: not a member (no reachable coloring)"]
        return result, lines, EXIT_OK
    fg = build_frustration(gens)
    colored = [i for i in range(fg.size) if trace.coloring >> i & 1]
    result = {
        "target": target.canonical.letters(),
        "member": True,
        "start": trace.start,
        "steps": list(trace.steps),
        "coloring": colored,
    }
    lines = [
        f"target {target.canonical.letters()}: member",
        f"coloring: {' '.join(f'g{i}' for i in colored)}",
        f"start g{trace.start}  {fg.generators[trace.start]}",
    ]
    c = 1 << trace.start
    for i in trace.steps:
        action = "remove" if c >> i & 1 else "add"
        c = toggle(fg, c, i)
        lines.append(f"toggle g{i}: {action} {fg.generators[i]}")
    lines.append(f"product: {format_pauli(product_of(fg, c))}")
    return result, lines, EXIT_OK


def _cmd_involution(args) -> tuple[dict, list[str], int]:
    l, m, label = args.l, args.m, args.algebra
    make_theta(l, m)  # refuses bad or over-cap block sizes before K_{l+m} is built
    check = cross_check(label, l, m, lie_closure(place_on_graph(label, complete_graph(l + m))))
    note = "" if check.in_hypothesis else " (outside table hypothesis, informational)"
    lines = [
        f"algebra {label}, blocks l={l} m={m} (n={l + m})",
        f"closure dim on K_{{{l},{m}}}: {check.block.dimension}",
        f"fixed-point dim inside K_{l + m} closure: {check.fixed.dimension}",
        f"closed-form dim: {'none' if check.formula_dim is None else check.formula_dim}{note}",
        "PASS" if check.passed else "FAIL",
    ]
    result = {
        "algebra": label,
        "l": l,
        "m": m,
        "block_dim": check.block.dimension,
        "fixed_dim": check.fixed.dimension,
        "formula_dim": check.formula_dim,
        "formula_applicable": check.in_hypothesis,
        "match": check.passed,
    }
    return result, lines, EXIT_OK if check.passed else EXIT_VERIFY_FAILED


# the flags each suite reads, named as its keyword parameters
_SUITE_FLAGS = {
    "theorem1": ("max_n",),
    "appendixB": ("max_n",),
    "equivalence": (),
    "frustration": (),
    "involution": ("max_n",),
    "pauli": ("cases", "seed"),
}


def _cmd_verify(args) -> tuple[dict, list[str], int]:
    kwargs = {
        flag: getattr(args, flag)
        for flag in ("max_n", "cases", "seed")
        if getattr(args, flag) is not None
    }
    for flag in kwargs:
        if flag not in _SUITE_FLAGS[args.suite]:
            raise ValueError(f"verify {args.suite} takes no --{flag.replace('_', '-')}")
    cases = SUITES[args.suite](**kwargs)
    failed = [c for c in cases if not c.passed]
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" | {c.detail}" if c.detail else "")
        for c in cases
    ]
    lines.append(f"suite {args.suite}: {len(cases) - len(failed)}/{len(cases)} passed")
    result = {
        "suite": args.suite,
        "total": len(cases),
        "failed": len(failed),
        "cases": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in cases
        ],
    }
    return result, lines, EXIT_OK if not failed else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------- parser

def _add_graph_algebra(p, alt=True):
    p.add_argument("--graph", required=True, help="graph file or inline spec (see epilog)")
    p.add_argument("--algebra", required=True, choices=LABELS, help="interaction label")
    if alt:
        p.add_argument(
            "--alt", action="store_true",
            help="use the label's recorded alternative generators",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlagraph",
        description="dynamical Lie algebras of graph-local Pauli interactions",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print one JSON object only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="predict closure structure from the tables")
    _add_graph_algebra(p, alt=False)
    p.add_argument(
        "--oracle", action="store_true",
        help="fall back to the closure engine when the tables do not apply",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("close", parents=[common],
                       help="compute the bracket closure explicitly")
    _add_graph_algebra(p)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                   help="basis size cap (default 4^10)")
    p.add_argument("--basis", action="store_true", help="also print the basis strings")
    p.set_defaults(func=_cmd_close)

    p = sub.add_parser("frustration", help="anticommutation-graph certificates")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pb = fsub.add_parser("build", parents=[common], help="print the anticommutation graph")
    _add_graph_algebra(pb)
    pb.set_defaults(func=_cmd_frustration_build)
    pm = fsub.add_parser("member", parents=[common],
                         help="search a toggle walk reaching the target")
    _add_graph_algebra(pm)
    pm.add_argument("--target", required=True,
                    help="Pauli string, e.g. XIIYI; the phase is ignored, "
                         "and a signed target is written --target=-iXIIYI")
    pm.set_defaults(func=_cmd_frustration_member)

    p = sub.add_parser(
        "involution", parents=[common],
        help="cross-check block closure, fixed points and the closed form",
    )
    p.add_argument("--l", type=int, required=True, help="first block size")
    p.add_argument("--m", type=int, required=True, help="second block size")
    p.add_argument("--algebra", required=True, choices=("a4", "a14"))
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, default=None,
                   help="size bound (theorem1/appendixB: qubits; involution: l+m)")
    p.add_argument("--cases", type=int, default=None, help="random case count (pauli)")
    p.add_argument("--seed", type=int, default=None, help="random seed (pauli)")
    p.set_defaults(func=_cmd_verify)
    return parser


# built on the first call, not at import, and reused by every later call
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        result, lines, code = args.func(args)
    except (ClosureLimitError, SearchSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
