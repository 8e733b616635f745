"""Span tracing installed from outside the library.

The tracer replaces every module binding of a traced function with a
wrapper that records a span (binding name, start, end, parent span,
operation number).  A function that several ``algebroid`` modules import
has one binding per module; all of them are wrapped, so calls are seen
whichever module makes them.  Spans stay in memory until the run ends;
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

# The traced bindings, named <defining module>.<qualified name>.
BINDINGS = (
    "polyring.normal_form",
    "groebner.buchberger",
    "groebner.buchberger_tagged",
    "groebner._row_nf",
    "groebner.IdealHandle.groebner",
    "groebner.ideal_membership",
    "groebner.radical_membership",
    "groebner.contains_monomial",
    "groebner.eliminate",
    "localalg.intersection_number",
    "localalg.initial_ideal",
    "localalg.base_weights",
    "parametric.parametric_test",
    "parametric.parametric_intersection",
    "parametric.choose_pivot",
    "parametric.mult_matrix",
    "parametric._det",
    "scalars.univariate_roots",
    "semigroups.membership",
    "semigroups.prim_generators",
    "semigroups.conductor",
    "decide.decide_irreducible",
    "decide.verify_certificate",
    "decide._monomial_witness",
    "decide._screen_round",
    "decide._descend",
    "decide._rays_for_false",
    "cli.certificate_from_json",
)

PACKAGE = "algebroid"

# Span fields, stored as lists for cheap in-place completion.
NAME, START, END, PARENT, OP, NOTE = range(6)


def _poly_keys(polys) -> tuple:
    return tuple(p.key() for p in polys)


def _buchberger_note(args, kwargs):
    gens = list(args[0])
    order = args[1] if len(args) > 1 else kwargs["order"]
    return (order, _poly_keys(gens)), (gens,) + tuple(args[1:])


def _intersection_note(args, kwargs):
    f = args[0]
    ideal = args[1] if len(args) > 1 else kwargs["ideal"]
    w = args[2] if len(args) > 2 else kwargs.get("w")
    gens = list(getattr(ideal, "generators", ideal))
    key = (_poly_keys(gens), f.key(), None if w is None else tuple(w))
    return key, args


# Bindings whose inputs are keyed to count repeated calls within one
# operation.  A note function returns (key, args); the key is taken before
# the call, so generator arguments given as an iterator are passed on as
# the list the key was read from.
_NOTES: Dict[str, Callable] = {
    "groebner.buchberger": _buchberger_note,
    "localalg.intersection_number": _intersection_note,
}


def _resolve(binding: str):
    """(owner object, attribute name, original object) for a binding, or
    None when the module or attribute no longer exists."""
    modname, *path = binding.split(".")
    owner = sys.modules.get(f"{PACKAGE}.{modname}")
    if owner is None:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(path[-1])
    if original is None:
        return None
    return owner, path[-1], original


class Tracer:
    """Wraps the bindings on ``install`` and records spans into ``spans``
    until ``uninstall``."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = tuple(bindings)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.missing: List[str] = []
        self._patched: List[tuple] = []

    # -------------------------------------------------------- installation

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for binding in self.bindings:
            found = _resolve(binding)
            if found is None:
                self.missing.append(binding)
                continue
            owner, attr, original = found
            wrapper = self._wrap(binding, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original and (mod, name) != (owner, attr):
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, binding: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        note = _NOTES.get(binding)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if note is not None:
                extra, args = note(args, kwargs)
            idx = len(spans)
            span = [binding, clock(), 0.0,
                    stack[-1] if stack else -1, tracer.op, extra]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if binding == "groebner.contains_monomial":
                span[NOTE] = result is None
            return result

        return wrapper

    # ------------------------------------------------------------ records

    def begin_op(self, op: int) -> None:
        self.op = op

    def dump(self) -> List[list]:
        """The spans as JSON-ready rows; an input key becomes its hash."""
        out = []
        for s in self.spans:
            row = list(s)
            if isinstance(row[NOTE], tuple):
                row[NOTE] = hashlib.sha256(
                    repr(row[NOTE]).encode()).hexdigest()[:16]
            out.append(row)
        return out


# ------------------------------------------------------------ arithmetic

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover.
    Children of one span run one after another inside it, so the covered
    part is the sum of their durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _ancestors_named(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: List[list], n_ops: int,
                  bindings=BINDINGS, missing=()) -> Dict[str, tuple]:
    """Per-binding calls, total and self time per operation, plus the
    ratio and count metrics, as {name: (value, unit)}.  Total time counts
    only the outermost span of a binding, so recursion is not counted
    twice.  Missing bindings are left out."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    selft = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        selft[name] += own[i]
        if not _ancestors_named(spans, i, name):
            total[name] += s[END] - s[START]
    per = max(n_ops, 1)
    out: Dict[str, tuple] = {}
    for b in bindings:
        if b in missing:
            continue
        out[f"{b}.calls"] = (calls[b] / per, "1/op")
        out[f"{b}.total_s"] = (total[b] / per, "s/op")
        out[f"{b}.self_s"] = (selft[b] / per, "s/op")

    def repeat_ratio(name):
        seen = set()
        n = rep = 0
        for s in spans:
            if s[NAME] != name:
                continue
            key = (s[OP], s[NOTE])
            n += 1
            if key in seen:
                rep += 1
            seen.add(key)
        return rep / n if n else 0.0

    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    gb = [i for i, s in enumerate(spans)
          if s[NAME] == "groebner.IdealHandle.groebner"]
    gb_hits = sum(1 for i in gb
                  if not any(spans[c][NAME] == "groebner.buchberger"
                             for c in children[i]))
    rays = [s for i, s in enumerate(spans)
            if s[NAME] == "groebner.contains_monomial"
            and _ancestors_named(spans, i, "decide._rays_for_false")]
    builds = sum(1 for i, s in enumerate(spans)
                 if s[NAME] == "groebner.buchberger"
                 and _ancestors_named(spans, i, "semigroups.membership"))
    out["groebner.buchberger.repeat_ratio"] = (
        repeat_ratio("groebner.buchberger"), "ratio")
    out["localalg.intersection_number.repeat_ratio"] = (
        repeat_ratio("localalg.intersection_number"), "ratio")
    out["groebner.gb_cache.hit_ratio"] = (
        gb_hits / len(gb) if gb else 0.0, "ratio")
    out["decide.ray_search.hit_ratio"] = (
        sum(1 for s in rays if s[NOTE]) / len(rays) if rays else 0.0, "ratio")
    out["semigroups.membership.basis_builds"] = (builds / per, "1/op")
    return out


def op_self_sums(spans: List[list]) -> Dict[int, float]:
    """Sum of self times of all spans of each operation."""
    own = self_times(spans)
    sums: Dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        sums[s[OP]] += own[i]
    return sums
