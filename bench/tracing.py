"""Traced mode: spans and counts around calls into dlagraph's public functions.

The tracer wraps functions from the benchmark's side only.  ``Tracer.install``
replaces each listed function in every dlagraph module that holds it (the
defining module and each module that imported it by name, plus the suite
table), so calls made inside dlagraph are seen too; ``remove`` puts the
originals back.  Spans are (name, start, end, parent) rows kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import io
import json
import statistics
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

from dlagraph import catalog, cli, closure, frustration, graphs, involution, pauli, suites

classify = importlib.import_module("dlagraph.classify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.closure_inputs: dict[tuple, tuple] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._restore: list = []
        self._last_colorings = 0

    # ---------------------------------------------------------------- spans

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        row = self._open(name)
        try:
            yield row
        finally:
            self._close(row)

    def _open(self, name):
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = perf_counter()
        return row

    def _close(self, row):
        row[2] = perf_counter()
        self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            row = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(row)
            if after is not None:
                after(tracer, row, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("dlagraph")]
        for module, fname, name, after in _TARGETS:
            orig = getattr(module, fname)
            self.originals[f"{module.__name__}.{fname}"] = orig
            wrapped = self._wrap(name, orig, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, orig))
            for key, value in list(suites.SUITES.items()):
                if value is orig:
                    suites.SUITES[key] = wrapped
                    self._restore.append((suites.SUITES, key, orig))
        strings = closure.ClosureResult.strings
        closure.ClosureResult.strings = self._wrap("pauli.strings", strings, _after_strings)
        self._restore.append((closure.ClosureResult, "strings", strings))

    def remove(self):
        for target, attr, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._restore.clear()


# ------------------------------------------------------------- count hooks

def _after_place(tracer, row, args, result):
    tracer.count("catalog.generators", len(result.members))


def _after_closure(tracer, row, args, result):
    members = args[0].members if isinstance(args[0], catalog.GeneratorSet) else tuple(args[0])
    tracer.closure_inputs.setdefault(tuple(p.key for p in members), members)
    tracer.count("closure.pops", result.stats.pops)
    tracer.count("closure.pair_evals", result.stats.pair_evaluations)
    tracer.count("closure.new_elements", result.dimension - len({p.key for p in members}))


def _after_strings(tracer, row, args, result):
    tracer.count("pauli.strings", len(result))


def _after_format(tracer, row, args, result):
    tracer.count("pauli.strings")


def _after_colorings(tracer, row, args, result):
    tracer._last_colorings = len(result)
    tracer.count("frustration.colorings", len(result))


def _after_member(tracer, row, args, result):
    # member_via_frustration calls colorings_for_target once, just before
    if result is not None:
        row[0] = "frustration.hit"
        tracer.count("frustration.certified")
        tracer.count("frustration.trace_steps", len(result.steps))
    elif tracer._last_colorings:
        row[0] = "frustration.miss"
    else:
        row[0] = "frustration.outside"


def _cli_name(args):
    return f"cli.{args[0][0]}"  # the benchmark always passes argv


_TARGETS = (
    (graphs, "enumerate_connected_graphs", "graphs.enumerate", None),
    (catalog, "place_on_graph", "catalog.place", _after_place),
    (catalog, "place_alternative", "catalog.place", _after_place),
    (classify, "classify", "classify.call", None),
    (closure, "lie_closure", "closure.lie_closure", _after_closure),
    (pauli, "format_pauli", "pauli.format", _after_format),
    (frustration, "build_frustration", "frustration.build", None),
    (frustration, "colorings_for_target", "frustration.colorings", _after_colorings),
    (frustration, "member_via_frustration", "frustration.member", _after_member),
    (involution, "fixed_subset", "involution.fixed", None),
    (suites, "suite_pauli", "suites.pauli", None),
    (suites, "suite_equivalence", "suites.equivalence", None),
    (cli, "main", _cli_name, None),
)


# ------------------------------------------------------------------ probes
#
# Every traced run reports every per-layer metric.  A layer that the
# workload never calls is measured on a fixed probe instead, run under the
# tracer inside a "probe" span; the trace file shows which figures came
# from it.

def _probe_graphs():
    graphs.enumerate_connected_graphs(5, min_max_degree=3)
    graphs.enumerate_connected_graphs(6, min_max_degree=3)


def _probe_classify():
    sigma = graphs.sigma_graph()
    for label in ("a2", "a14", "a22"):
        classify.classify(sigma, label)


def _probe_closure():
    closure.lie_closure(catalog.place_on_graph("a14", graphs.sigma_graph()))


def _probe_pauli():
    res = closure.lie_closure(catalog.place_on_graph("a22", graphs.complete_graph(5)))
    for p in res.strings():
        pauli.format_pauli(p)


def _probe_frustration():
    gens = catalog.place_on_graph("a2", graphs.sigma_graph())
    for word in ("XIIYI", "ZZIII", "XIIXI"):  # member, in-span non-member, outside the span
        frustration.member_via_frustration(gens, pauli.parse_pauli(word))


def _probe_involution():
    whole = closure.lie_closure(catalog.place_on_graph("a14", graphs.complete_graph(5)))
    involution.fixed_subset(involution.make_theta(2, 3), whole)


def _probe_suites():
    suites.suite_pauli(cases=200, seed=1)
    suites.suite_equivalence()


def _probe_cli():
    for argv in (["classify", "--graph", "Sigma", "--algebra", "a2"],
                 ["close", "--graph", "Omega", "--algebra", "a4"],
                 ["frustration", "member", "--graph", "Sigma", "--algebra", "a2", "--target", "XIIYI"],
                 ["involution", "--l", "1", "--m", "3", "--algebra", "a4"],
                 ["verify", "equivalence"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)


# span names each probe stands in for
PROBES = (
    (("graphs.enumerate",), _probe_graphs),
    (("classify.call",), _probe_classify),
    (("closure.lie_closure",), _probe_closure),
    (("pauli.strings", "pauli.format"), _probe_pauli),
    (("frustration.build", "frustration.hit", "frustration.miss"), _probe_frustration),
    (("involution.fixed",), _probe_involution),
    (("suites.pauli", "suites.equivalence"), _probe_suites),
    (("cli.classify", "cli.close", "cli.frustration", "cli.involution", "cli.verify"), _probe_cli),
)


def run_probes(tracer: Tracer) -> list[str]:
    """Run the probe of every layer some of whose spans are missing."""
    seen = {row[0] for row in tracer.spans}
    ran = []
    for names, probe in PROBES:
        if not all(name in seen for name in names):
            with tracer.span("probe"):
                probe()
            ran.append(probe.__name__[len("_probe_"):])
    return ran


def split_closure(tracer: Tracer) -> None:
    """Time lie_closure with the verify sweep off and on, on every generator
    set the traced pass closed, outside any operation span."""
    lie_closure = tracer.originals["dlagraph.closure.lie_closure"]
    for members in tracer.closure_inputs.values():
        with tracer.span("closure.build"):
            lie_closure(members, verify=False)
        with tracer.span("closure.full"):
            lie_closure(members, verify=True)


# ----------------------------------------------------------------- metrics

def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, import_s: float, overhead_pct: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    d, c = tracer.durations, tracer.counts
    build = _mean(d("closure.build"))
    pauli_s = sum(d("pauli.strings")) + sum(d("pauli.format"))
    colorings = c.get("frustration.colorings", 0)
    return {
        "graphs.enumerate_s": (sum(d("graphs.enumerate")), "s"),
        "catalog.place_ms": (_median(d("catalog.place")) * 1e3, "ms"),
        "catalog.generators": (c.get("catalog.generators", 0), "count"),
        "classify.call_us": (_median(d("classify.call")) * 1e6, "us"),
        "closure.build_ms": (build * 1e3, "ms"),
        "closure.verify_ms": ((_mean(d("closure.full")) - build) * 1e3, "ms"),
        "closure.pair_evals": (c.get("closure.pair_evals", 0), "count"),
        "closure.pops": (c.get("closure.pops", 0), "count"),
        "closure.yield": (c.get("closure.new_elements", 0) / max(c.get("closure.pair_evals", 0), 1), "ratio"),
        "pauli.strings_per_s": (c.get("pauli.strings", 0) / pauli_s if pauli_s else 0.0, "1/s"),
        "frustration.build_ms": (_median(d("frustration.build")) * 1e3, "ms"),
        "frustration.colorings": (colorings, "count"),
        "frustration.hit_ms": (_median(d("frustration.hit")) * 1e3, "ms"),
        "frustration.miss_ms": (_median(d("frustration.miss")) * 1e3, "ms"),
        "frustration.trace_steps": (c.get("frustration.trace_steps", 0), "count"),
        "frustration.yield": (c.get("frustration.certified", 0) / max(colorings, 1), "ratio"),
        "involution.fixed_ms": (_median(d("involution.fixed")) * 1e3, "ms"),
        "suites.pauli_ms": (_median(d("suites.pauli")) * 1e3, "ms"),
        "suites.equivalence_ms": (_median(d("suites.equivalence")) * 1e3, "ms"),
        "cli.classify_ms": (_median(d("cli.classify")) * 1e3, "ms"),
        "cli.close_ms": (_median(d("cli.close")) * 1e3, "ms"),
        "cli.frustration_ms": (_median(d("cli.frustration")) * 1e3, "ms"),
        "cli.involution_ms": (_median(d("cli.involution")) * 1e3, "ms"),
        "cli.verify_ms": (_median(d("cli.verify")) * 1e3, "ms"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def write_trace(path, tracer: Tracer, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "counts": tracer.counts,
                   "spans": [[name, start, end, parent] for name, start, end, parent in tracer.spans]},
                  fh)
