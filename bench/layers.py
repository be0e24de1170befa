"""The layer table, the span tracer of the traced child, and span aggregation.

LAYERS maps each layer (a module of bps_series, plus the cli entry point) to
the callables the traced run wraps, and each callable to every attribute that
binds it: the defining one first, then every `from .x import f` copy and
class-level alias (`__radd__ = __add__`).  For the traced run, resolve() fails
if a listed name is missing or is not the defining object, or if a bps_series
module or class binds a wrapped callable under a name the table does not list.

The untraced child wraps nothing: it resolves the names that exist and checks
afterwards that every binding is still the original object.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

PKG = "bps_series"

_SERIALIZE = (
    "frac_str", "series_to_json", "series_to_tsv", "table_to_json",
    "table_from_json", "poly_to_json", "poly_from_json", "zfunctions_from_json",
)

LAYERS = {
    "qseries": {
        "mul": ("qseries:QSeries.__mul__",),
        "add": ("qseries:QSeries.__add__", "qseries:QSeries.__radd__"),
        "inv": ("qseries:QSeries.inv",),
        "pow": ("qseries:QSeries.__pow__",),
        "exp": ("qseries:QSeries.exp",),
        "eta_product": ("qseries:eta_product", "anomaly:eta_product", ":eta_product"),
        "geom_factor_product": (
            "qseries:geom_factor_product", "goettsche:geom_factor_product", ":geom_factor_product",
        ),
    },
    "laurent": {
        "mul": ("laurent:LaurentPoly.__mul__", "laurent:LaurentPoly.__rmul__"),
        "add": ("laurent:LaurentPoly.__add__", "laurent:LaurentPoly.__radd__"),
    },
    "sl2": {
        "bps_from_character": (
            "sl2:bps_from_character", "goettsche:bps_from_character", ":bps_from_character",
        ),
        "u_expand": ("sl2:u_expand", "goettsche:u_expand", ":u_expand"),
    },
    "goettsche": {
        "refined_goettsche_res": ("goettsche:refined_goettsche_res", ":refined_goettsche_res"),
        "goettsche_series": ("goettsche:goettsche_series", ":goettsche_series"),
        "bps_rational_elliptic": ("goettsche:bps_rational_elliptic", ":bps_rational_elliptic"),
    },
    "gvtransform": {
        "gw_from_gv": ("gvtransform:gw_from_gv", ":gw_from_gv"),
        "gv_from_gw": ("gvtransform:gv_from_gw", ":gv_from_gw"),
        "roundtrip_check": ("gvtransform:roundtrip_check", ":roundtrip_check"),
        "sin_power_series": ("gvtransform:sin_power_series", ":sin_power_series"),
        "lambda_add": ("gvtransform:LambdaSeries.__add__",),
    },
    "anomaly": {
        "triple_product_check": ("anomaly:triple_product_check", ":triple_product_check"),
        "genus_series_n1": ("anomaly:genus_series_n1", ":genus_series_n1"),
        "verify_anomaly": ("anomaly:verify_anomaly", ":verify_anomaly"),
        "solve_anomaly": ("anomaly:solve_anomaly", ":solve_anomaly"),
        "realize": ("anomaly:realize", ":realize"),
    },
    "modular": {
        "eisenstein": ("modular:eisenstein", "anomaly:eisenstein", "cli:eisenstein", ":eisenstein"),
    },
    "serialize": {name: (f"serialize:{name}",) for name in _SERIALIZE},
    "cli": {"main": ("cli:main",)},
}

# Layers whose per-function calls and self time are reported; serialize and
# cli report only their layer self time.
FUNCTION_LAYERS = ("qseries", "laurent", "sl2", "goettsche", "gvtransform", "anomaly", "modular")

# Per workload: the layers it was chosen for, which must cover more than half
# of the traced job time, and the layers it bypasses, which must see no call.
COVERAGE = {
    "hilbert": (("laurent", "qseries", "sl2", "goettsche"), ("gvtransform", "anomaly", "modular")),
    "transform": (("gvtransform",), ("qseries", "laurent", "sl2", "goettsche", "anomaly", "modular")),
    "resummation": (("qseries", "anomaly", "modular"), ("laurent", "sl2", "goettsche", "gvtransform")),
}


class Binding:
    """One attribute that binds a wrapped callable: "module:name" or
    "module:Class.name", with "" for the package itself."""

    def __init__(self, spec):
        module, _, path = spec.partition(":")
        *owner, self.name = path.split(".")
        try:
            self.owner = importlib.import_module(f"{PKG}.{module}" if module else PKG)
        except ImportError:
            self.owner = None
        for part in owner:
            self.owner = getattr(self.owner, part, None)
        self.spec = spec
        self.initial = self.get()

    def get(self):
        return vars(self.owner).get(self.name) if self.owner is not None else None

    def set(self, value):
        setattr(self.owner, self.name, value)


def resolve(strict):
    """[(key, original, [Binding])] for every table entry present in the
    loaded package.  strict (the traced run): raise LookupError if a listed
    name is missing or is another object, or if a bps_series module or class
    binds a listed callable under a name the table does not list."""
    entries, problems, originals = [], [], {}
    for layer, functions in LAYERS.items():
        for fn, specs in functions.items():
            bindings = [Binding(spec) for spec in specs]
            original = bindings[0].initial
            if not callable(original):
                problems.append(f"{specs[0]} is missing")
                continue
            problems += [f"{b.spec} is not {specs[0]}" for b in bindings[1:] if b.initial is not original]
            entries.append((f"{layer}.{fn}", original, bindings))
            originals[id(original)] = (original, {(id(b.owner), b.name) for b in bindings})
    if not strict:
        return entries
    for modname, module in list(sys.modules.items()):
        if modname != PKG and not modname.startswith(PKG + "."):
            continue
        owners = [(module, modname)] + [
            (v, f"{modname}.{v.__name__}")
            for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for owner, where in owners:
            for name, value in vars(owner).items():
                hit = originals.get(id(value))
                if hit and hit[0] is value and (id(owner), name) not in hit[1]:
                    problems.append(f"{where}.{name} is unlisted")
    if problems:
        raise LookupError("layer table out of date: " + "; ".join(problems))
    return entries


def check_untouched(entries):
    """The untraced run's guarantee: every binding is still what it was."""
    for _, _, bindings in entries:
        for b in bindings:
            if b.get() is not b.initial:
                raise LookupError(f"{b.spec} was replaced in an untraced run")


def _trivial(x):
    """0 or the constant 1, as a LaurentPoly or a scalar."""
    terms = getattr(x, "terms", None)
    if terms is None:
        return x == 0 or x == 1
    if not terms:
        return True
    if len(terms) != 1:
        return False
    ((exps, c),) = terms.items()
    return c == 1 and not any(exps)


class Tracer:
    """Spans (id, parent id, key index, thread, start ns, end ns) kept in
    memory.

    Parents come from a per-thread stack.  Work submitted to a thread pool
    runs under the span that submitted it, so the pool's spans are children
    of the call that started the pool.  Spans are timed on their thread's CPU
    clock: pool threads take turns on the interpreter lock, and wall-clock
    spans would charge each of them for the other's turns.
    """

    def __init__(self):
        # imported here so that an untraced child loads no module the
        # command itself would not
        import threading

        self.keys = []
        self.spans = []
        self._ids = itertools.count(1)
        self._threads = itertools.count()
        self._local = threading.local()
        # probe records are appended (atomic under the interpreter lock),
        # because pool threads multiply too: a shared += could lose counts
        self.laurent_useful = []  # per product: neither operand 0 or 1
        self.qseries_slots = []  # per product: (nonzero operand coefficients, slots)
        self.sin_args = []

    def _stack(self):
        """This thread's [thread number, span id, span id, ...]; the first id
        is the parent of the thread's outermost span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [next(self._threads), 0]
        return stack

    def wrap(self, key, original, probe=None):
        index = len(self.keys)
        self.keys.append(key)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, stack[0], start, end))

        return traced

    def _probe_laurent_mul(self, args):
        self.laurent_useful.append(not (_trivial(args[0]) or _trivial(args[1])))

    def _probe_qseries_mul(self, args):
        a, b = args
        if a.is_same_ring(b):
            n = min(a.order, b.order) + 1
            nonzero = sum(1 for c in a.coeffs[:n] if c) + sum(1 for c in b.coeffs[:n] if c)
            self.qseries_slots.append((nonzero, 2 * n))

    def _probe_sin(self, args):
        self.sin_args.append(tuple(args))

    def install(self, entries):
        probes = {
            "laurent.mul": self._probe_laurent_mul,
            "qseries.mul": self._probe_qseries_mul,
            "gvtransform.sin_power_series": self._probe_sin,
        }
        for key, original, bindings in entries:
            traced = self.wrap(key, original, probes.get(key))
            for b in bindings:
                b.set(traced)
        from concurrent.futures import ThreadPoolExecutor

        submit = ThreadPoolExecutor.submit
        tracer = self

        def adopting_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer._adopt, tracer._stack()[-1], fn, args, kwargs)

        ThreadPoolExecutor.submit = adopting_submit

    def _adopt(self, parent, fn, args, kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "keys": self.keys,
                    "spans": self.spans,
                    "laurent_mul": [sum(self.laurent_useful), len(self.laurent_useful)],
                    "qseries_slots": [sum(n for n, _ in self.qseries_slots), sum(s for _, s in self.qseries_slots)],
                    "sin_args": self.sin_args,
                },
                fh,
                separators=(",", ":"),
            )


def ratio(part, whole):
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


class Totals:
    """Per-layer sums over the traced jobs of a run."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.laurent_mul = [0, 0]
        self.qseries_slots = [0, 0]
        self.sin_calls = 0
        self.sin_distinct = set()

    def add(self, dump):
        """Fold one job's spans in.  A span's self time is its duration minus
        the time its children on the same thread cover; a child on a pool
        thread ran on another CPU clock while the parent waited."""
        keys, spans = dump["keys"], dump["spans"]
        thread_of = {sid: thread for sid, _, _, thread, _, _ in spans}
        covered = {}
        for sid, parent, _, thread, start, end in spans:
            if thread_of.get(parent) == thread:
                covered[parent] = covered.get(parent, 0) + end - start
        for sid, _, index, _, start, end in spans:
            key = keys[index]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_ns[key] = self.self_ns.get(key, 0) + end - start - covered.get(sid, 0)
        for mine, theirs in ((self.laurent_mul, dump["laurent_mul"]), (self.qseries_slots, dump["qseries_slots"])):
            mine[0] += theirs[0]
            mine[1] += theirs[1]
        self.sin_calls += len(dump["sin_args"])
        self.sin_distinct.update(tuple(a) for a in dump["sin_args"])

    def layer_self_s(self, layer):
        return sum(ns for key, ns in self.self_ns.items() if key.split(".")[0] == layer) / 1e9

    def layer_calls(self, layer):
        return sum(n for key, n in self.calls.items() if key.split(".")[0] == layer)

    def metrics(self):
        """{name: (value, unit)} for every per-function and per-layer metric."""
        out = {}
        for layer in FUNCTION_LAYERS:
            for fn in LAYERS[layer]:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self.self_ns.get(key, 0) / 1e9, "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")

        out["laurent.mul.useful_ratio"] = (ratio(*self.laurent_mul), "ratio")
        out["qseries.mul.nonzero_ratio"] = (ratio(*self.qseries_slots), "ratio")
        out["gvtransform.sin_power_series.distinct_ratio"] = (
            ratio(len(self.sin_distinct), self.sin_calls),
            "ratio",
        )
        return out
