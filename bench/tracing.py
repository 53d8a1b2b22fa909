"""Per-layer tracing from outside the program.

The tracer wraps public functions of the `marked_bases` modules for the
traced run only.  A wrapped name is rebound in every `marked_bases` module
that holds the original (so `cli`'s imported `free_resolution` is wrapped
as well as `syzygy.free_resolution`), and methods are replaced on their
class.  `remove()` puts every original back.

Span wrappers record (name, start, end, parent span, op id) in memory;
count wrappers only bump a counter, for calls too frequent to hold a span
each.  Span times are CPU seconds of the process, as are the op times of
bench/worker.py.  Self time of a span is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import process_time

PACKAGE = "marked_bases"

# (metric prefix, module, attribute path); each gives <prefix>.calls and
# <prefix>.self_s unless listed in SELF_ONLY.
SPANS = [
    ("cli.emit", "cli", "_emit"),
    ("textio.parse_document", "textio", "parse_document"),
    ("textio.resolution_to_dict", "textio", "resolution_to_dict"),
    ("textio.format_param_poly", "textio", "format_param_poly"),
    ("monom.pommaret_completion", "monom", "pommaret_completion"),
    ("monom.is_pommaret_basis", "monom", "is_pommaret_basis"),
    ("monom.complement_terms", "monom", "complement_terms"),
    ("marked.MarkedSet.init", "marked", "MarkedSet.__init__"),
    ("marked.reduce_full", "marked", "reduce_full"),
    ("marked.is_marked_basis", "marked", "is_marked_basis"),
    ("syzygy.syzygy_marked_basis", "syzygy", "syzygy_marked_basis"),
    ("syzygy.verify_complex", "syzygy", "verify_complex"),
    ("syzygy.free_resolution", "syzygy", "free_resolution"),
    ("syzygy.minimize_resolution", "syzygy", "minimize_resolution"),
    ("family.generic_marked_set", "family", "generic_marked_set"),
    ("family.family_equations", "family", "family_equations"),
    ("family.specialize", "family", "specialize"),
    ("linalg.rref", "linalg", "rref"),
    ("randgen.random_marked_basis", "randgen", "random_marked_basis"),
]
SELF_ONLY = {"marked.MarkedSet.init"}

# (counter, module, attribute path) for calls counted without spans.
COUNTS = [
    ("monom.cone_divisor.calls", "monom", "PommaretBasis.cone_divisor"),
    ("ring.ModuleElement.constructed", "ring", "ModuleElement.__init__"),
    ("ring.exp_add.calls", "ring", "exp_add"),
] + [
    ("ring.ParamPoly.ops", "ring", f"ParamPoly.{op}")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
]

# Counters reported as they are, per pass.
TALLIES = [
    "monom.cone_divisor.calls",
    "syzygy.pivots_cancelled",
    "syzygy.generators",
    "family.params",
    "family.equations",
    "linalg.rref.cells",
    "ring.ModuleElement.constructed",
    "ring.ParamPoly.ops",
    "ring.exp_add.calls",
]

# Ratios: (metric, numerator counter, denominator counter).
RATIOS = [
    ("monom.cone_divisor.hit_frac", "monom.cone_divisor.hits", "monom.cone_divisor.calls"),
    ("marked.reduce_full.distinct_frac", "marked.reduce_full.distinct", "marked.reduce_full.calls"),
    ("marked.is_marked_basis.memo_frac", "marked.is_marked_basis.memo", "marked.is_marked_basis.calls"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _ in SPANS:
        if prefix not in SELF_ONLY:
            units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update({name: "count" for name in TALLIES})
    units.update({name: "ratio" for name, _, _ in RATIOS})
    units["trace.overhead_frac"] = "ratio"
    return units


def _resolve(module: str, path: str):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _levels(res) -> int:
    return sum(len(d) for d in res.degrees)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reduce_seen: set = set()
        self._reduce_refs: list = []

    # ----- wrappers -----

    def _span(self, prefix, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = [prefix, 0.0, 0.0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            counts[f"{prefix}.calls"] += 1
            record[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = process_time()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn, before=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    # ----- hooks for the derived counters -----

    def _reduce_before(self, args, kwargs):
        h, mset = args[0], args[1]
        key = (id(mset), frozenset(h.terms.items()))
        if key not in self._reduce_seen:
            self._reduce_seen.add(key)
            self._reduce_refs.append(mset)  # keeps id(mset) unique within the op
            self.counts["marked.reduce_full.distinct"] += 1

    def _basis_check_before(self, args, kwargs):
        conclusive = kwargs.get("up_to_degree", args[1] if len(args) > 1 else None) is None
        if args[0]._certified is not None and conclusive:
            self.counts["marked.is_marked_basis.memo"] += 1

    def _cone_before(self, args):
        basis, term = args
        if term in basis._cone_cache:
            self.counts["monom.cone_divisor.hits"] += 1

    def _minimize_after(self, args, result):
        self.counts["syzygy.pivots_cancelled"] += (_levels(args[0]) - _levels(result)) // 2

    def _resolution_after(self, args, result):
        self.counts["syzygy.generators"] += _levels(result)

    def _rref_before(self, args, kwargs):
        rows = args[0]
        if rows:
            self.counts["linalg.rref.cells"] += len(rows) * len(rows[0])

    # ----- installation -----

    def install(self):
        hooks = {
            "marked.reduce_full": (self._reduce_before, None),
            "marked.is_marked_basis": (self._basis_check_before, None),
            "syzygy.minimize_resolution": (None, self._minimize_after),
            "syzygy.free_resolution": (None, self._resolution_after),
            "family.generic_marked_set": (
                None, lambda a, r: self.counts.update({"family.params": r.nparams})),
            "family.family_equations": (
                None, lambda a, r: self.counts.update({"family.equations": len(r.generators)})),
            "linalg.rref": (self._rref_before, None),
        }
        for prefix, module, path in SPANS:
            before, after = hooks.get(prefix, (None, None))
            self._patch(module, path, lambda fn, p=prefix, b=before, a=after: self._span(p, fn, b, a))
        for name, module, path in COUNTS:
            before = self._cone_before if name == "monom.cone_divisor.calls" else None
            self._patch(module, path, lambda fn, n=name, b=before: self._count(n, fn, b))

    def _patch(self, module, path, make):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        wrapper.traced_original = original
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_op(self, op_id):
        self.op_id = op_id
        self._reduce_seen.clear()
        self._reduce_refs.clear()

    # ----- results -----

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric but `trace.overhead_frac`, per pass."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for name in metric_units():
            if name.endswith(".self_s"):
                out[name] = self_s[name[: -len(".self_s")]] / passes
            elif name.endswith(".calls") or name in TALLIES:
                out[name] = self.counts[name] / passes
        for name, num, den in RATIOS:
            out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out


def assert_untraced():
    """Fail unless every traced name is bound to the program's own function."""
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for key, value in vars(mod).items():
                if hasattr(value, "traced_original"):
                    raise AssertionError(f"{name}.{key} is still wrapped")
    for _, module, path in SPANS + COUNTS:
        owner, attr = _resolve(module, path)
        if hasattr(getattr(owner, attr), "traced_original"):
            raise AssertionError(f"{module}.{path} is still wrapped")
