"""Tracing from outside the library: wrappers around the public functions
of each ``spmul`` module, recording one span per call.

``spmul`` modules import each other's functions by name (``from .x import
y``), so a wrapper has to replace every module attribute the callers look
up.  :meth:`Tracer.install` replaces every attribute of every loaded
``spmul`` module that is bound to the original function, and
:meth:`Tracer.uninstall` puts them all back.

A span is ``[key, start, end, parent, ring_mults, note]``: ``parent`` is
the index of the enclosing span (-1 at the top of an operation),
``ring_mults`` the delta of ``rings.mul_count()`` across the call, and
``note`` a small fact about the result (see ``NOTES``), or ``"raised"``.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from spmul import rings

# the layers: one span per call of each public function listed here
TRACED = {
    "arith": ("first_primes", "random_prime", "irreducible_poly"),
    "poly": ("cyclic_reduce", "derivative", "dense_cyclic_mul", "eval_sparse"),
    "verify": ("verify_sp", "verify_sum_sp", "eval_cyclic_product"),
    "interp": ("interp_sum_sp", "cyclic_product_residue", "find_terms"),
    "product": ("sparse_product",),
    "multivar": ("kronecker", "inverse_kronecker", "randomized_kronecker",
                 "multivar_product_z", "multivar_product_field",
                 "multivar_product_smallchar", "sparsity_estimate"),
    "cli": ("parse_poly", "format_poly", "run_command"),
}
KEYS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# facts kept from a call, for the ratio metrics
NOTES = {
    "arith.first_primes": lambda args, out: len(out),
    "verify.verify_sp": lambda args, out: bool(out),
    "interp.find_terms": lambda args, out: out.sparsity,
}

KEY, START, END, PARENT, MULTS, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        self.originals: dict = {}  # key -> the unwrapped function

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(key)
        mul_count = rings.mul_count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, 0, "raised"]
            stack.append(len(spans))
            spans.append(rec)
            m0 = mul_count()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                rec[NOTE] = note(args, out) if note else None
                return out
            finally:
                rec[END] = clock()
                rec[MULTS] = mul_count() - m0
                rec[START] = t0
                stack.pop()
        return wrapper

    def install(self) -> None:
        homes = {mod_name: importlib.import_module(f"spmul.{mod_name}") for mod_name in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spmul" or name.startswith("spmul."))]
        for mod_name, fns in TRACED.items():
            home = homes[mod_name]
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if orig is None:  # gone from the library: its metrics read 0
                    continue
                key = f"{mod_name}.{fn_name}"
                self.originals[key] = orig
                wrapper = self._wrap(key, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to the next op."""
        return len(self.spans)


# ---------------------------------------------------------------------------
# analysis

def _children(spans, lo: int, hi: int) -> dict:
    kids: dict = {}
    for i in range(lo, hi):
        kids.setdefault(spans[i][PARENT], []).append(i)
    return kids


def op_breakdown(spans, lo: int, hi: int, op_s: float, op_mults: int) -> dict:
    """Self times of the spans of one operation (indices lo..hi-1), and
    the time and ring mults outside every span."""
    kids = _children(spans, lo, hi)
    self_s = {}
    for i in range(lo, hi):
        s = spans[i]
        self_s[i] = (s[END] - s[START]) - sum(spans[c][END] - spans[c][START]
                                              for c in kids.get(i, ()))
    top = kids.get(-1, ())
    return {"self_s": self_s,
            "remainder_s": op_s - sum(spans[i][END] - spans[i][START] for i in top),
            "remainder_m": op_mults - sum(spans[i][MULTS] for i in top)}


def _outermost(spans, idx: list, keys) -> list:
    """Spans among idx with no ancestor whose key is in keys."""
    out = []
    for i in idx:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][KEY] not in keys:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(spans, ops: list) -> tuple[dict, dict]:
    """Per-layer metrics over the traced operations.

    ``ops`` holds, per traced operation, (first span, end span, op seconds,
    op ring mults).  Counts, times and ring mults are per operation; the
    ``*_frac`` metrics are shares, and ``max_count`` is the largest prime
    list asked for.  Returns (metrics, checks).
    """
    n_ops = max(1, len(ops))
    by_key: dict = {k: [] for k in KEYS}
    self_s: dict = {}
    rem_s = rem_m = total_s = total_m = 0.0
    under_eval = 0
    for lo, hi, op_s, op_m in ops:
        br = op_breakdown(spans, lo, hi, op_s, op_m)
        self_s.update(br["self_s"])
        rem_s += br["remainder_s"]
        rem_m += br["remainder_m"]
        total_s += op_s
        total_m += op_m
        for i in range(lo, hi):
            by_key[spans[i][KEY]].append(i)
        eval_keys = ("verify.eval_cyclic_product", "poly.eval_sparse")
        evals = [i for i in range(lo, hi) if spans[i][KEY] in eval_keys]
        under_eval += sum(spans[i][MULTS] for i in _outermost(spans, evals, eval_keys))

    m: dict = {}
    for key, idx in by_key.items():
        outer = _outermost(spans, idx, (key,))
        m[f"{key}.calls"] = len(idx) / n_ops
        m[f"{key}.self_s"] = sum(self_s[i] for i in idx) / n_ops
        m[f"{key}.total_s"] = sum(spans[i][END] - spans[i][START] for i in outer) / n_ops
        m[f"{key}.ring_mults"] = sum(spans[i][MULTS] for i in outer) / n_ops
    m["rings.ring_mults"] = total_m / n_ops

    def frac(num, den):
        return num / den if den else 0.0

    fp = by_key["arith.first_primes"]
    m["arith.first_primes.max_count"] = max((spans[i][NOTE] for i in fp
                                             if spans[i][NOTE] != "raised"), default=0)
    vs = by_key["verify.verify_sp"]
    m["verify.verify_sp.accept_frac"] = frac(sum(spans[i][NOTE] is True for i in vs), len(vs))
    res = by_key["interp.cyclic_product_residue"]
    dense_parents = {spans[i][PARENT] for i in by_key["poly.dense_cyclic_mul"]}
    m["interp.cyclic_product_residue.dense_frac"] = frac(
        sum(i in dense_parents for i in res), len(res))
    m["interp.find_terms.terms_out"] = sum(
        spans[i][NOTE] for i in by_key["interp.find_terms"]
        if spans[i][NOTE] != "raised") / n_ops
    sp = by_key["product.sparse_product"]
    rounds = [i for i in vs if spans[i][PARENT] in set(sp)]
    m["product.doublings"] = frac(len(rounds), len(sp))
    m["product.verify_accept_frac"] = frac(sum(spans[i][NOTE] is True for i in rounds),
                                           len(rounds))
    est = set(by_key["multivar.sparsity_estimate"])
    m["multivar.sparse_products_per_estimate"] = frac(
        sum(spans[i][PARENT] in est for i in sp), len(est))
    m["cli.field_fallbacks"] = _field_fallbacks(spans, by_key) / n_ops

    busiest = max(KEYS, key=lambda k: m[f"{k}.self_s"])
    checks = {
        "remainder_frac_s": frac(rem_s, total_s),
        "remainder_frac_ring_mults": frac(rem_m, total_m),
        "largest_self_s": busiest,
        "eval_share_of_ring_mults": frac(under_eval, total_m),
    }
    return m, checks


def _field_fallbacks(spans, by_key) -> int:
    """Calls where multivar_product_field raised and
    multivar_product_smallchar followed under the same parent."""
    failed = [i for i in by_key["multivar.multivar_product_field"] if spans[i][NOTE] == "raised"]
    small = by_key["multivar.multivar_product_smallchar"]
    return sum(any(j > i and spans[j][PARENT] == spans[i][PARENT] for j in small)
               for i in failed)


def missing(spans, reaches) -> list:
    """Functions in ``reaches`` that no span recorded: a wrapper sits at
    an attribute the callers do not use, or the workload lost a path."""
    seen = {s[KEY] for s in spans}
    return [k for k in reaches if k not in seen]


def census(tracer: Tracer, run) -> dict:
    """Run ``run()`` with the wrappers installed and a trace hook that
    counts every call of each wrapped function's own code.  Returns
    {key: (calls, calls through a wrapper)} for every function whose two
    counts differ: some caller reached it without a wrapper, so a wrapper
    sits at an attribute that caller does not use."""
    lo = tracer.mark()
    tracer.install()
    codes = {fn.__code__: key for key, fn in tracer.originals.items()}
    calls = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        key = codes.get(frame.f_code)
        if key is not None:
            calls[key] += 1

    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(None)
        tracer.uninstall()
    wrapped = dict.fromkeys(calls, 0)
    for span in tracer.spans[lo:]:
        wrapped[span[KEY]] += 1
    return {key: (n, wrapped[key]) for key, n in calls.items() if n != wrapped[key]}
