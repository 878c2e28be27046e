"""Outside-in spans around the public functions of the e6lab modules.

Nothing in the package is edited: `install` rebinds every module-level name
that refers to a listed function (copies made by ``from .x import f`` and
lru-cached wrappers included, since those are the same object), replaces
listed methods on their classes, and wraps the check groups in
``verify.GROUPS``.  Each call opens a span with a parent id; a span's self
time is its duration minus the time covered by its child spans.

``scalars`` is C-level Fraction arithmetic that cannot be wrapped from the
outside; it shows up only inside the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from math import comb
from time import perf_counter

MODULES = (
    "scalars", "linalg", "algcore", "composition", "jordan", "tits",
    "gradings", "e6sp8", "chevalley", "catalog", "verify", "cli",
)

# Span names are "<module>.<attribute path>".  A class name wraps all of its
# methods, summed into one span.
SPANS = (
    "algcore.jacobi_defect",
    "algcore.killing_matrix",
    "algcore.StructAlgebra.int_tensor",
    "algcore.inertia",
    "algcore.derivations",
    "algcore.fixed_subspace",
    "algcore.is_monomial_automorphism",
    "algcore.is_diagonal_automorphism",
    "algcore.is_automorphism",
    "algcore.twist",
    "linalg.rref",
    "linalg.kernel",
    "linalg.mat_mul",
    "linalg.mat_inverse",
    "linalg.congruence_inertia",
    "linalg.congruence_diagonalize",
    "linalg.SpanSolver",
    "linalg.IntKernelAccumulator",
    "gradings.verify",
    "gradings.killing_orthogonality_violations",
    "gradings.graded_witt_basis",
    "gradings.signature_bound",
    "gradings.combine",
    "gradings.common_refinement",
    "composition.hurwitz",
    "jordan.h3",
    "jordan.jordan_gradings",
    "tits.tits",
    "tits.derj_j0_model",
    "tits.proportionality_constants",
    "tits.sp31_decomposition",
    "e6sp8.assemble_e6",
    "e6sp8.conjugated_form",
    "chevalley.e6_chevalley",
    "chevalley.omega",
    "chevalley.inheriting_signatures",
    "catalog.model",
    "catalog.grading",
    "cli.cmd_verify_all",
)

GROUP_PREFIX = "verify.group."


# Work units for the rate metrics: fixed by the input, not by the algorithm.
def _jacobi_units(args, kwargs):
    return comb(args[0].dim, 3)  # basis triples certified


def _verify_units(args, kwargs):
    return args[0].algebra.dim ** 2  # products of homogeneous basis vectors


def _int_tensor_fast(result):
    return result[1] is not None  # an int64 tensor, not the exact fallback


UNITS = {"algcore.jacobi_defect": _jacobi_units, "gradings.verify": _verify_units}
CLASSIFY = {"algcore.StructAlgebra.int_tensor": _int_tensor_fast}


class TraceError(RuntimeError):
    pass


class Tracer:
    """Span stack plus per-name totals; spans stay in memory until `dump`."""

    def __init__(self):
        self.stack = []  # [span id, time covered by children, time excluded]
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.units = {}
        self.hits = {}  # calls the CLASSIFY predicate accepted

    def wrap(self, name, fn):
        units = UNITS.get(name)
        classify = CLASSIFY.get(name)
        stack, spans = self.stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        for table in (calls, self_s, total_s, self.units, self.hits):
            table.setdefault(name, 0)

        def span(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, name, t0, t1)
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur - frame[2]
            if units is not None:
                self.units[name] += units(args, kwargs)
            if classify is not None and classify(result):
                self.hits[name] += 1
            return result

        return functools.update_wrapper(span, fn)

    def exclude(self, fn):
        """`fn`, with its time counted in no span: neither in the self time
        of the innermost open span nor in the total of any open span."""
        stack = self.stack

        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                if stack:
                    stack[-1][1] += dur
                for frame in stack:
                    frame[2] += dur

        return call

    def reset(self):
        """Forget everything recorded so far, such as calls made in set-up."""
        self.spans.clear()
        for table in (self.calls, self.self_s, self.total_s, self.units, self.hits):
            for name in table:
                table[name] = 0

    def dump(self, path):
        """Write every span as [id, parent, name, start, end] (seconds)."""
        t_base = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [s[0], s[1], s[2], round(s[3] - t_base, 7), round(s[4] - t_base, 7)]
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def summary(self):
        return {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
                "units": self.units[name],
                "hits": self.hits[name],
            }
            for name in self.calls
        }


def _rebind(modules, original, wrapper):
    """Point every module-level name bound to `original` at `wrapper`."""
    found = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                found += 1
    return found


def install() -> Tracer:
    """Wrap every listed span; raise TraceError if one cannot be found."""
    mods = {m: importlib.import_module(f"e6lab.{m}") for m in MODULES}
    modules = list(mods.values())
    tracer = Tracer()
    for name in SPANS:
        mod_name, *path = name.split(".")
        owner = mods[mod_name]
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        target = getattr(owner, path[-1], None) if owner is not None else None
        if target is None:
            raise TraceError(f"span {name}: no such attribute in e6lab.{mod_name}")
        if inspect.isclass(target):
            methods = [
                m for m, v in vars(target).items()
                if inspect.isfunction(v) and (m == "__init__" or not m.startswith("_"))
            ]
            if not methods:
                raise TraceError(f"span {name}: class has no methods to wrap")
            for m in methods:
                setattr(target, m, tracer.wrap(name, vars(target)[m]))
        elif inspect.isclass(owner):
            setattr(owner, path[-1], tracer.wrap(name, vars(owner)[path[-1]]))
        else:
            if not _rebind(modules, target, tracer.wrap(name, target)):
                raise TraceError(f"span {name}: nothing bound to it")
    groups = mods["verify"].GROUPS
    for gname, fn in list(groups.items()):
        wrapper = tracer.wrap(GROUP_PREFIX + gname, fn)
        groups[gname] = wrapper
        _rebind(modules, fn, wrapper)
    return tracer
