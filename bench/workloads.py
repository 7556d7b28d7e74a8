"""The three workloads: seeded operation lists and the checks of their outputs.

Each ``setup_*`` function draws a fixed list of operations from the seed.
An operation's ``run`` makes the timed call into dlagraph; its ``check``
receives what ``run`` returned and, outside the timed window, compares it
with ``checks`` (code that shares nothing with dlagraph).  Operations call
dlagraph through module attributes so that the traced mode can wrap them.

The lists have a fixed make-up that does not depend on the seed: the seed
picks graphs, labels and targets inside fixed strata (vertex count,
bipartite or not, target kind), so every seed gives nearly the same mix of
work and the medians of different seeds are comparable.
"""

from __future__ import annotations

import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import checks
from dlagraph import catalog, cli, closure, frustration, graphs, pauli

# the package re-exports the function classify under the submodule's name
classify = importlib.import_module("dlagraph.classify")

LABELS = ("a0", "a2", "a4", "a6", "a7", "a14", "a16", "a20", "a22", "b0", "b1", "b3")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Certifier:
    """Generator keys of one placement and, once asked for, its shortest walks."""

    n: int
    gen_keys: list[int]
    _dist: dict | None = field(default=None, repr=False)

    @property
    def dist(self) -> dict[int, int]:
        if self._dist is None:
            self._dist = checks.shortest_walks(self.gen_keys, self.n)
        return self._dist


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


def _key_to_string(n: int, key: int):
    return pauli.PauliString(n, key >> n, key & ((1 << n) - 1))


# ------------------------------------------------------------ theorem_sweep

# graphs drawn per pass from each stratum: (vertices, bipartite) -> count
SWEEP_STRATA = {(5, True): 2, (5, False): 2, (6, True): 1, (6, False): 2}


def setup_theorem_sweep(seed: int) -> list[Op]:
    """Branched graphs on 5 and 6 vertices crossed with all twelve labels."""
    rng = _rng(seed, "theorem_sweep")
    pools: dict[tuple[int, bool], list] = {}
    for n in (5, 6):
        for g in graphs.enumerate_connected_graphs(n, min_max_degree=3):
            bip = checks.color_classes(g.n, g.edges) is not None
            pools.setdefault((n, bip), []).append(g)
    ops = []
    for stratum, count in SWEEP_STRATA.items():
        for g in rng.sample(pools[stratum], count):
            for label in LABELS:
                ops.append(_sweep_op(g, label, random.Random(rng.getrandbits(32))))
    rng.shuffle(ops)
    return ops


def _sweep_op(g, label, rng) -> Op:
    def run():
        gens = catalog.place_on_graph(label, g)
        cls = classify.classify(g, label)
        res = closure.lie_closure(gens)
        return gens, cls, res

    sample_seed = rng.getrandbits(32)

    def check(out):
        gens, cls, res = out
        bad = checks.dimension_problem(label, g.n, g.edges, res.dimension)
        if bad is None and cls.total_dim != res.dimension:
            bad = f"classify gives {cls.total_dim}, closure {res.dimension}"
        if bad is None:
            bad = checks.closure_problem(
                [p.key for p in gens.members], list(res.order), g.n, random.Random(sample_seed)
            )
        return bad

    return Op(f"sweep.{label}", run, check)


# ------------------------------------------------------------------ certify

# (graph, label, alternative generators, members, in-span non-members, outside-span)
# Every placement has at most 12 generators.  The counts put the median and
# the 90th percentile in the middle of a group of operations of nearly equal
# cost, so a few targets more or less expensive than usual do not move them:
# 47 sub-millisecond operations (1 to 8 colorings per target, or outside the
# span), then 12 on K_4 with XX+Z (8 colorings, the median), then 47 with 16
# to 64 colorings, of which the Omega a6 members hold the 90th percentile.
CERTIFY_PLACEMENTS = (
    ("Sigma", "a2", False, 3, 2, 1),
    ("Sigma", "a4", False, 3, 2, 1),
    ("Omega", "a2", False, 3, 2, 1),
    ("Omega", "a4", False, 3, 2, 1),
    ("Sigma", "a14", True, 3, 2, 1),
    ("Omega", "a14", True, 3, 2, 1),
    ("K:4", "a14", True, 8, 4, 1),
    ("Sigma", "a6", False, 8, 0, 1),
    ("Sigma", "a7", False, 8, 0, 1),
    ("Sigma", "a6", True, 3, 0, 1),
    ("Kb:2,3", "a2", False, 3, 1, 1),
    ("Kb:2,3", "a4", False, 3, 1, 1),
    ("K:4", "a2", False, 2, 1, 1),
    ("Omega", "a6", True, 2, 1, 1),
    ("Omega", "a6", False, 6, 2, 1),
    ("K:4", "a4", False, 2, 1, 1),
    ("Omega", "a7", False, 2, 1, 1),
)


def _placement(spec, label, alt):
    g = graphs.graph_from_spec(spec)
    return catalog.place_alternative(label, g) if alt else catalog.place_on_graph(label, g)


def draw_targets(gens, res, rng, members, in_span, outside):
    """(kind, key) targets: closure members, non-members in the generators'
    GF(2) span, and non-members outside it."""
    n = gens.n
    keys = [p.key for p in gens.members]
    span = {0}
    for k in keys:
        span |= {s ^ k for s in span}
    inside = set(res.order)
    span_only = sorted(span - inside - {0})
    targets = [("member", k) for k in rng.sample(list(res.order), members)]
    # some placements have only one or three such strings, so draw with repeats
    targets += [("in_span", k) for k in rng.choices(span_only, k=in_span)]
    drawn = 0
    while drawn < outside:
        k = rng.randrange(1, 1 << (2 * n))
        if k not in span:
            targets.append(("outside", k))
            drawn += 1
    return targets


def setup_certify(seed: int) -> list[Op]:
    rng = _rng(seed, "certify")
    ops = []
    for spec, label, alt, members, in_span, outside in CERTIFY_PLACEMENTS:
        gens = _placement(spec, label, alt)
        res = closure.lie_closure(gens)
        cert = Certifier(gens.n, [p.key for p in gens.members])
        for kind, key in draw_targets(gens, res, rng, members, in_span, outside):
            ops.append(_certify_op(gens, cert, kind, key))
    rng.shuffle(ops)
    return ops


def _certify_op(gens, cert: Certifier, kind: str, key: int) -> Op:
    target = _key_to_string(gens.n, key)

    def run():
        return frustration.member_via_frustration(gens, target)

    def check(trace):
        if (trace is not None) != (kind == "member"):
            return f"{kind} target {key}: trace {trace}"
        answer = None if trace is None else (trace.start, trace.steps, trace.coloring)
        return checks.certificate_problem(cert.gen_keys, cert.n, cert.dist, key, answer)

    return Op(f"certify.{kind}", run, check)


# -------------------------------------------------------------- cli_session

SCOPED_SPECS = ("Sigma", "Omega", "K:3", "K:4", "K:5", "K:6", "Kb:1,3", "Kb:1,4",
                "Kb:2,3", "Kb:1,5", "Kb:2,4", "Kb:3,3")
# the n=5 specs are all bipartite with classes of mixed parity, so each
# label's closure has the same size whichever one the seed picks
CLOSE_SPECS = (("Sigma", "Kb:1,4", "Kb:2,3"), ("Omega", "K:4", "Kb:1,3"))
MEMBER_PLACEMENTS = (("Sigma", "a2", False), ("Sigma", "a4", False), ("Omega", "a2", False),
                     ("Omega", "a4", False), ("Sigma", "a14", True), ("Omega", "a14", True))
PAULI_CASES = 200


def _cli_op(kind, argv, check) -> Op:
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    first = []

    def check_same(result):
        # every pass must print the same bytes as the first one
        code, text = result
        if first:
            return None if first[0] == result else f"{argv}: output changed between passes"
        first.append(result)
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{argv}: exit {code}, stdout is not one JSON object"
        return check(code, payload)

    return Op(kind, run, check_same)


def _expect(code, want, argv):
    return None if code == want else f"{argv}: exit {code}, expected {want}"


def _classify_op(spec, label, oracle=False) -> Op:
    argv = ["classify", "--graph", spec, "--algebra", label, "--json"] + (["--oracle"] if oracle else [])
    n, edges = checks.graph_of_spec(spec)

    def check(code, out):
        return _expect(code, 0, argv) or checks.dimension_problem(label, n, edges, out["dim"])

    return _cli_op("cli.classify", argv, check)


def _out_of_scope_op(spec, label) -> Op:
    argv = ["classify", "--graph", spec, "--algebra", label, "--json"]

    def check(code, out):
        bad = _expect(code, 3, argv)
        return bad or (None if out["scope"] == "OutOfScope" else f"{argv}: scope {out['scope']}")

    return _cli_op("cli.classify", argv, check)


def _close_op(spec, label) -> Op:
    argv = ["close", "--graph", spec, "--algebra", label, "--json"]
    n, edges = checks.graph_of_spec(spec)

    def check(code, out):
        bad = _expect(code, 0, argv) or checks.dimension_problem(label, n, edges, out["dim"])
        if bad is None and (out["n"] != n or len(set(out["basis"])) != out["dim"]):
            bad = f"{argv}: basis does not hold {out['dim']} distinct strings on {n} sites"
        for word in out["basis"]:
            bad = bad or checks.word_problem(word, n)
        return bad

    return _cli_op("cli.close", argv, check)


def _build_op(spec, label) -> Op:
    argv = ["frustration", "build", "--graph", spec, "--algebra", label, "--json"]

    def check(code, out):
        bad = _expect(code, 0, argv)
        if bad:
            return bad
        n = out["n"]
        keys = [checks.key_of(w) for w in out["generators"]]
        want = [[i, j] for i in range(len(keys)) for j in range(i + 1, len(keys))
                if checks.anticommute(keys[i], keys[j], n)]
        if out["size"] != len(keys) or out["edges"] != want:
            return f"{argv}: anticommutation edges differ from the generators'"
        return None

    return _cli_op("cli.frustration", argv, check)


def _member_op(spec, label, alt, kind, key, cert: Certifier) -> Op:
    word = _key_to_string(cert.n, key).letters()
    argv = (["frustration", "member", "--graph", spec, "--algebra", label, "--target", word, "--json"]
            + (["--alt"] if alt else []))

    def check(code, out):
        bad = _expect(code, 0, argv)
        if bad:
            return bad
        if out["member"] != (kind == "member") or out["target"] != word:
            return f"{argv}: member={out['member']} for a {kind} target"
        answer = None
        if out["member"]:
            answer = (out["start"], out["steps"], sum(1 << i for i in out["coloring"]))
        return checks.certificate_problem(cert.gen_keys, cert.n, cert.dist, key, answer)

    return _cli_op("cli.frustration", argv, check)


def _involution_op(l, m, label) -> Op:
    argv = ["involution", "--l", str(l), "--m", str(m), "--algebra", label, "--json"]
    n, edges = checks.graph_of_spec(f"Kb:{l},{m}")

    def check(code, out):
        bad = _expect(code, 0, argv) or checks.dimension_problem(label, n, edges, out["block_dim"])
        if bad is None and not (out["match"] and out["formula_applicable"]):
            bad = f"{argv}: match={out['match']}"
        return bad

    return _cli_op("cli.involution", argv, check)


def _suite_op(argv, total) -> Op:
    def check(code, out):
        bad = _expect(code, 0, argv)
        if bad is None and (out["failed"] != 0 or out["total"] != total):
            bad = f"{argv}: {out['failed']} of {out['total']} cases failed, expected 0 of {total}"
        return bad

    return _cli_op("cli.verify", argv, check)


def setup_cli_session(seed: int) -> list[Op]:
    """One pass of a CLI user's session, 65 calls of fixed make-up."""
    rng = _rng(seed, "cli_session")
    ops = [_classify_op(rng.choice(SCOPED_SPECS), rng.choice(LABELS)) for _ in range(20)]
    ops += [_out_of_scope_op(f"{rng.choice('LC')}:{rng.randint(4, 6)}",
                             rng.choice(("a2", "a4", "a6", "a14"))) for _ in range(4)]
    ops += [_classify_op(f"{rng.choice('LC')}:{n}", rng.choice(("a16", "a20")), oracle=True)
            for n in (4, 5)]
    ops += [_close_op(rng.choice(specs), label) for specs in CLOSE_SPECS for label in LABELS]
    ops += [_build_op(rng.choice(("Sigma", "Omega", "K:4", "Kb:2,3")), rng.choice(LABELS))
            for _ in range(4)]
    for kind in ("member", "member", "in_span", "in_span"):
        spec, label, alt = rng.choice(MEMBER_PLACEMENTS)
        gens = _placement(spec, label, alt)
        res = closure.lie_closure(gens)
        cert = Certifier(gens.n, [p.key for p in gens.members])
        members = 1 if kind == "member" else 0
        (_, key), = draw_targets(gens, res, rng, members, 1 - members, 0)
        ops.append(_member_op(spec, label, alt, kind, key, cert))
    for pairs in (((1, 3), (3, 1)), ((1, 4), (4, 1), (2, 3), (3, 2))):
        for label in ("a4", "a14"):
            ops.append(_involution_op(*rng.choice(pairs), label))
    ops.append(_involution_op(*rng.choice(((1, 5), (2, 4), (3, 3), (4, 2), (5, 1))), "a4"))
    ops.append(_suite_op(["verify", "pauli", "--cases", str(PAULI_CASES),
                          "--seed", str(rng.randrange(1 << 30)), "--json"], 8))
    ops.append(_suite_op(["verify", "equivalence", "--json"], 12))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "theorem_sweep": setup_theorem_sweep,
    "certify": setup_certify,
    "cli_session": setup_cli_session,
}
