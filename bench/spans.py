"""Span tracing of flataffine from outside the package.

`Tracer.patch()` replaces each traced function with a wrapper in every
namespace that holds it: the defining module, every module that imported it
by name, closures built from it at import time (the cli task runners), and
class attributes for methods.  `unpatch()` restores the originals, so
untraced passes run the program exactly as shipped.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out by `write()` when the run ends.  A span's self time is its
duration minus the time its children cover; `total_s` counts a recursive
function's time once (only spans without an ancestor of the same name).
"""
from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from fractions import Fraction

# (layer, module, attribute) of every traced function; the metric prefix is
# "<layer>.<attribute>".
SPANNED = [
    ("cli", "flataffine.cli", "load_document"),
    ("cli", "flataffine.cli", "run_document"),
    ("envelope", "flataffine.envelope", "compute_envelope"),
    ("envelope", "flataffine.envelope", "commutator_matches_brackets"),
    ("geometry", "flataffine.geometry", "connection_from_frame"),
    ("geometry", "flataffine.geometry", "is_flat_affine"),
    ("geometry", "flataffine.geometry", "is_infinitesimal_affine"),
    ("geometry", "flataffine.geometry", "solve_iat_ansatz"),
    ("geometry", "flataffine.geometry", "product_table"),
    ("geometry", "flataffine.geometry", "express_in_basis"),
    ("geometry", "flataffine.geometry", "independent_fields"),
    ("geometry", "flataffine.geometry", "covariant_derivative"),
    ("geometry", "flataffine.geometry", "lie_bracket"),
    ("geometry", "flataffine.geometry", "torsion"),
    ("geometry", "flataffine.geometry", "curvature"),
    ("algebra", "flataffine.algebra", "check_associative"),
    ("algebra", "flataffine.algebra", "check_left_symmetric"),
    ("algebra", "flataffine.algebra", "commutator_algebra"),
    ("algebra", "flataffine.algebra", "subalgebra_closure"),
    ("algebra", "flataffine.algebra", "restrict_to_subspace"),
    ("algebra", "flataffine.algebra", "opposite"),
    ("linalg", "flataffine.linalg", "solve"),
    ("linalg", "flataffine.linalg", "nullspace"),
    ("linalg", "flataffine.linalg", "invert"),
    ("linalg", "flataffine.linalg", "in_row_space"),
    ("symcore.polynomial", "flataffine.symcore.polynomial", "poly_gcd"),
    ("symcore.polynomial", "flataffine.symcore.polynomial", "exact_div"),
    ("symcore.polynomial", "flataffine.symcore.polynomial", "poly_lcm"),
    ("symcore.parser", "flataffine.symcore.parser", "parse_expr"),
    ("render", "flataffine.render", "render_table_text"),
]
# rref gets one span name per entry field: Q or the rational-function field Q(x)
RREF_NAMES = ("linalg.rref.q", "linalg.rref.qx")
RATFUNC_DIFF = "symcore.ratfunc.diff"
PASS = "bench.pass"
CACHED = ("geometry.torsion", "geometry.curvature")

# counters, each reported with unit "count" except the ratio
COUNTERS = ("linalg.rref.q.cells", "linalg.rref.qx.cells",
            "geometry.torsion.misses", "geometry.curvature.misses",
            "symcore.polynomial.poly_lcm.trivial", "symcore.polynomial.mul.calls",
            "symcore.ratfunc.construct.calls")

TASK_KINDS = ("check-lsa", "check-associative", "commutator", "closure", "torsion",
              "curvature", "check-iat", "solve-iat", "product-table", "envelope",
              "bi-invariant-check")


def span_names():
    return [PASS] + [f"{layer}.{attr}" for layer, _, attr in SPANNED] + \
        list(RREF_NAMES) + [RATFUNC_DIFF]


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in span_names()[1:]:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        if name in CACHED:
            specs.append((f"{name}.misses", "count", "lower"))
        if name in RREF_NAMES:
            specs.append((f"{name}.cells", "count", "lower"))
        if name.endswith("poly_lcm"):
            specs.append((f"{name}.trivial_ratio", "ratio", "lower"))
    specs += [("symcore.polynomial.mul.calls", "count", "lower"),
              ("symcore.ratfunc.construct.calls", "count", "lower")]
    specs += [(f"cli.task_s.{kind}", "s", "lower") for kind in TASK_KINDS]
    specs.append(("bench.trace_overhead_ratio", "ratio", "lower"))
    return specs


class SpanError(Exception):
    """The recorded spans contradict each other."""


class Tracer:
    """Records spans and counters of the passes it runs; see the module docstring."""

    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")     # 1 when no ancestor has the same name
        self.start = array("d")
        self.end = array("d")
        self.passes = []            # index of each pass's root span
        self._stack = []
        self._active = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._pass_counters = []
        self._seen = {name: {} for name in CACHED}
        self._patches = []

    # ----- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def run_pass(self, fn):
        """Run fn() under a root span; per-pass caches and counters start empty."""
        for seen in self._seen.values():
            seen.clear()
        before = dict(self.counters)
        idx = self._open(self._ids[PASS])
        try:
            return fn()
        finally:
            self._close(idx)
            self.passes.append(idx)
            self._pass_counters.append(
                {k: self.counters[k] - before[k] for k in self.counters})
            for seen in self._seen.values():
                seen.clear()

    def _spanning(self, fn, name):
        nid = self._ids[name]
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _wrapper(self, original, name):
        """The wrapper for one traced function, with its counters."""
        counters = self.counters
        spanned = self._spanning(original, name)
        if name in CACHED:
            seen = self._seen[name]
            key = f"{name}.misses"

            def cached(conn):
                if id(conn) not in seen:
                    seen[id(conn)] = conn   # held, so the id stays unique
                    counters[key] += 1
                return spanned(conn)
            return cached
        if name.endswith("poly_lcm"):
            def lcm(p, q):
                if p.is_constant() and q.is_constant():
                    counters["symcore.polynomial.poly_lcm.trivial"] += 1
                return spanned(p, q)
            return lcm
        return spanned

    def _rref_wrapper(self, original):
        counters = self.counters
        q, qx = (self._spanning(original, name) for name in RREF_NAMES)

        def rref(rows, **kwargs):
            cells = len(rows) * len(rows[0]) if rows else 0
            if isinstance(kwargs.get("zero", Fraction(0)), Fraction):
                counters["linalg.rref.q.cells"] += cells
                return q(rows, **kwargs)
            counters["linalg.rref.qx.cells"] += cells
            return qx(rows, **kwargs)
        return rref

    def _counting(self, original, key):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return original(*args, **kwargs)
        return counted

    # ----- patching ----------------------------------------------------------

    def patch(self, extra_modules=()):
        """Install the wrappers in every flataffine module and in extra_modules."""
        from flataffine.symcore.polynomial import Polynomial
        from flataffine.symcore.ratfunc import RationalFunction

        replace = {}
        for layer, module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            replace[original] = self._wrapper(original, f"{layer}.{attr}")
        rref = sys.modules["flataffine.linalg"].rref
        replace[rref] = self._rref_wrapper(rref)

        modules = [m for name, m in sys.modules.items()
                   if name == "flataffine" or name.startswith("flataffine.")]
        for module in list(modules) + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if _hashable(value) and value in replace:
                    self._set(module, attr, replace[value])
                for cell in _closure_cells(value):
                    if _hashable(cell.cell_contents) and cell.cell_contents in replace:
                        self._set(cell, "cell_contents", replace[cell.cell_contents])

        mul = Polynomial.__mul__
        counted_mul = self._counting(mul, "symcore.polynomial.mul.calls")
        for attr in ("__mul__", "__rmul__"):
            if vars(Polynomial)[attr] is mul:
                self._set(Polynomial, attr, counted_mul)
        self._set(RationalFunction, "__init__", self._counting(
            RationalFunction.__init__, "symcore.ratfunc.construct.calls"))
        self._set(RationalFunction, "diff",
                  self._spanning(RationalFunction.diff, RATFUNC_DIFF))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- analysis ----------------------------------------------------------

    def per_pass_stats(self):
        """One dict per traced pass: calls, total_s and self_s of each span name.

        Raises SpanError when a child span is not inside its parent, or when
        the self times of a pass do not add up to the pass's own duration.
        """
        count = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p < 0:
                continue
            if self.start[i] < self.start[p] or self.end[i] > self.end[p] \
                    or dur[i] > dur[p]:
                raise SpanError(f"span {i} ({self.names[self.name[i]]}) is not "
                                f"inside its parent {p} ({self.names[self.name[p]]})")
            child[p] += dur[i]
        stats = []
        bounds = self.passes + [count]
        for root, stop, counters in zip(self.passes, bounds[1:], self._pass_counters):
            calls = [0] * len(self.names)
            total = [0.0] * len(self.names)
            self_s = [0.0] * len(self.names)
            for i in range(root, stop):
                nid = self.name[i]
                calls[nid] += 1
                if self.outer[i]:
                    total[nid] += dur[i]
                self_s[nid] += dur[i] - child[i]
            covered = sum(self_s)
            if abs(covered - dur[root]) > 1e-6 * max(1.0, dur[root]):
                raise SpanError(f"pass self times sum to {covered!r} s, "
                                f"the pass took {dur[root]!r} s")
            stats.append({"calls": dict(zip(self.names, calls)),
                          "total_s": dict(zip(self.names, total)),
                          "self_s": dict(zip(self.names, self_s)),
                          "counters": counters})
        return stats

    def write(self, path):
        """Write every span as gzip CSV: id,parent,name,start_s,end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_s,end_s\n")
            out.writelines(
                f"{i},{p},{names[n]},{s!r},{e!r}\n"
                for i, (p, n, s, e) in enumerate(
                    zip(self.parent, self.name, self.start, self.end)))


def layer_metrics(stats):
    """Per-layer metric values from per-pass stats.

    Counts come from the first pass (every pass of a run makes the same
    calls); times are medians over the passes.
    """
    out = {}
    for name in span_names()[1:]:
        out[f"{name}.calls"] = stats[0]["calls"][name]
        out[f"{name}.total_s"] = statistics.median(s["total_s"][name] for s in stats)
        out[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in stats)
    out.update(stats[0]["counters"])
    trivial = out.pop("symcore.polynomial.poly_lcm.trivial")
    calls = out["symcore.polynomial.poly_lcm.calls"]
    out["symcore.polynomial.poly_lcm.trivial_ratio"] = trivial / calls if calls else 0.0
    return out


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _closure_cells(value):
    """The filled closure cells of a function, or of the functions in a dict."""
    candidates = value.values() if isinstance(value, dict) else (value,)
    cells = []
    for fn in candidates:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                cell.cell_contents
            except ValueError:      # a cell whose variable is not bound yet
                continue
            cells.append(cell)
    return cells
