"""Spans around evolalg's layer functions, recorded from outside the library.

Wrappers are installed by rebinding names: the modules import each other
with ``from .core import multiply``, so a function is replaced in every
``evolalg`` namespace that binds it and put back afterwards.  A span has a
name, start, end, parent span and op id; spans stay in memory until the
run ends.  Field arithmetic is only counted: a span per scalar operation
would cost more than the operation.
"""

import functools
import sys
import time

# (module, function) pairs that get a span: the cross-module functions
# whose figures the benchmark reports.  Time in any other function counts
# as self time of the nearest spanned caller; is_fourth_power_associative
# is left inside is_power_associative's span, as that check's body.
SPANNED = (
    ("core", "multiply"), ("core", "rref"), ("core", "solve_in_span"),
    ("core", "mat_inverse"), ("core", "mat_mul"),
    ("checks", "is_power_associative"), ("checks", "is_jordan"),
    ("checks", "is_associative"), ("checks", "is_nil"),
    ("checks", "nil_profile"), ("checks", "annihilator_chain"),
    ("decomp", "wedderburn"), ("decomp", "graph_components"),
    ("catalog", "instantiate"), ("catalog", "canonical_algebra"),
    ("monomial", "pattern_cells"),
    ("classify", "classify"), ("classify", "verify_isomorphism"),
    ("classify", "change_basis"),
    ("cli", "parse_algebra_file"),
)
GENERATORS = (("monomial", "monomial_solutions"),)
COUNTED_FIELD_OPS = ("add", "mul", "div", "inv", "is_zero")
OP = "op"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self.spans = []      # [name_id, start, end, parent, op]
        self.stack = []
        self.counts = {}     # name -> calls without a span of their own
        self.op = 0

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid):
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span_fn(self, fn, name):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def op_span(self, fn):
        """Root span of one benchmark op; spans under it carry a new op id."""
        inner = self.span_fn(fn, OP)

        def wrapper(*args):
            self.op += 1
            return inner(*args)
        return wrapper

    def span_gen(self, fn, name):
        """Generator wrapper: one span per next(), covering only time inside it."""
        nid = self.name_id(name)
        self.count(name + ".calls", 0)
        self.count(name + ".yielded", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    idx = self.begin(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    self.count(name + ".yielded")
                    yield item
            return stepped()
        return wrapper

    def counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper


def _evolalg_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "evolalg" or k.startswith("evolalg."))]


def install(tracer):
    """Wrap every traced function in every namespace binding it.

    Returns the list of (owner, attribute, original) needed by restore().
    """
    patched = []
    modules = _evolalg_modules()
    targets = [(m, f, tracer.span_fn) for m, f in SPANNED]
    targets += [(m, f, tracer.span_gen) for m, f in GENERATORS]
    for modname, fname, make in targets:
        orig = getattr(sys.modules[f"evolalg.{modname}"], fname)
        wrapper = make(orig, f"{modname}.{fname}")
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, orig))
    fields = sys.modules["evolalg.fields"]
    for cls in (fields.RationalField, fields.PrimeField):
        for op in COUNTED_FIELD_OPS:
            orig = cls.__dict__[op]
            setattr(cls, op, tracer.counted(orig, f"fields.{op}.calls"))
            patched.append((cls, op, orig))
    return patched


def restore(patched):
    for owner, attr, orig in reversed(patched):
        setattr(owner, attr, orig)


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = {}
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(tracer):
    """``<module>.<function>.{calls,self_s,total_s}`` for every span name.

    total_s counts only outermost spans of a name, so recursion is not
    counted twice.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out = {}
    for nid, name in enumerate(tracer.names):
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.total_s"] = 0.0
    for idx, (nid, start, end, parent, _) in enumerate(spans):
        name = tracer.names[nid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[idx]
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{name}.total_s"] += end - start
    for name, k in tracer.counts.items():
        out[name] = k   # generator calls/yields and field op counts
    return out
