"""Layer tracer for weildescent, attached from outside the package.

Each layer is one module of src/weildescent.  Installing a Tracer replaces
every public function of those modules, a fixed list of methods, and the
arithmetic kernel, with wrappers that time the call.  Functions imported by
name into other modules (the kernel into fields and finite, most helpers
into cli) are replaced there too, by identity, so every call site is seen.

Calls above the element arithmetic are kept as spans (id, parent, name,
start, end, self).  Element arithmetic (the kernel, CycloNum, FqElem and the
other fields/finite helpers) runs millions of times per job, so it is only
aggregated per name; its time still counts as child time of the enclosing
span.  Self time is duration minus the time covered by wrapped children.
Bookkeeping done by hooks (monomial tests, digit counts) runs on a paused
clock, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

PKG = "weildescent"

# module -> layer name; the kernel is handled apart (its functions live in
# _kernel_py or the compiled _speedups and are re-exported by _kernel)
LAYERS = {
    "fields": "fields",
    "finite": "finite",
    "linalg": "linalg",
    "weil": "weil",
    "rationality": "rationality",
    "descent": "descent",
    "theta": "theta",
    "symbols": "symbols",
    "cli": "cli",
}
KERNEL = ("zpoly_mul", "zpoly_rem", "lpoly_mul", "lpoly_rem")
ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "inv", "__truediv__", "__pow__")
METHODS = {
    "fields": {"CycloNum": ARITH},
    "finite": {
        "FqElem": ARITH,
        "SpElement": ("__mul__", "inverse"),
        "HeisElem": ("__mul__",),
        "AdditiveCharacter": ("__call__",),
    },
    "linalg": {
        "Matrix": (
            "__mul__", "__add__", "__sub__", "scale", "rref", "nullspace",
            "inverse", "det", "is_invertible", "kron", "mul_vec", "transpose", "map",
        ),
    },
    "weil": {"MarkedRep": ("image", "gens_images", "conjugate", "to_json")},
    "rationality": {"EndAlgebra": ("structure_constants", "center_basis", "to_json")},
    "descent": {"DescentDatum": ("validate",), "DescentResult": ("to_json",)},
    "theta": {"CommutingPair": ("h1_elements",)},
}
# private helpers wrapped because a metric needs their arguments
PRIVATE = {"linalg": ("_dense_intertwiners",)}
# fields/finite functions coarse enough to keep as spans
SPANNED = {
    "finite:sp_factor", "finite:sp_enumerate", "finite:heis_enumerate",
    "finite:fq_field", "fields:field_make",
}


def _targets():
    "(key, owner, attribute, original) for everything the tracer wraps."
    out = []
    for modname, layer in LAYERS.items():
        mod = sys.modules[f"{PKG}.{modname}"]
        for name, obj in vars(mod).items():
            own = getattr(obj, "__module__", None) == mod.__name__
            if not own or not callable(obj) or inspect.isclass(obj):
                continue
            if name.startswith("_") and name not in PRIVATE.get(modname, ()):
                continue
            if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                out.append((f"{layer}:{name}", mod, name, obj))
        for cls, names in METHODS.get(modname, {}).items():
            klass = getattr(mod, cls)
            for name in names:
                out.append((f"{layer}:{cls}.{name}", klass, name, vars(klass)[name]))
    kernel = sys.modules[f"{PKG}._kernel"]
    for name in KERNEL:
        out.append((f"kernel:{name}", kernel, name, getattr(kernel, name)))
    return out


class Tracer:
    """Wraps the layers of one imported weildescent package; install() and
    uninstall() patch and restore them.  Single-threaded use only."""

    def __init__(self):
        self.names = []  # span name table
        self.spans = []  # (id, parent id, name index, start, end, self)
        self.stats = {}  # key -> [calls, inclusive s, self s]
        self.active = Counter()  # key -> recursion depth, for inclusive time
        self.counts = Counter()
        self.den_bits_max = 0
        self.paused = [0.0]
        self.stack = [[0.0, 0]]  # frames: [child time, enclosing span id]
        self._patches = []

    # --- clock and hooks

    def now(self):
        return perf_counter() - self.paused[0]

    def _hooked(self, hook):
        def run(*args):
            t0 = perf_counter()
            try:
                hook(*args)
            finally:
                self.paused[0] += perf_counter() - t0

        return run

    # --- wrappers

    def _wrap(self, key, fn, pre=None, post=None):
        span = key.split(":")[0] not in ("kernel", "fields", "finite") or key in SPANNED
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, spans, active, paused = self.stack, self.spans, self.active, self.paused
        name_idx = len(self.names)
        self.names.append(key)
        pre = self._hooked(pre) if pre else None
        post = self._hooked(post) if post else None
        if inspect.isgeneratorfunction(fn):
            # consumed inside the timed call; every caller lists the result
            fn = _listing(fn)

        def wrapper(*args, **kwargs):
            if pre:
                pre(args)
            parent = stack[-1]
            sid = len(spans) + 1 if span else parent[1]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, sid]
            stack.append(frame)
            active[key] += 1
            result = exc = None
            start = perf_counter() - paused[0]
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter() - paused[0]
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                parent[0] += dur
                stats[0] += 1
                stats[2] += own
                active[key] -= 1
                if not active[key]:
                    stats[1] += dur
                if span:
                    spans[sid - 1] = (sid, parent[1], name_idx, start, end, own)
                if post:
                    post(args, result, exc)

        return wrapper

    def span(self, label):
        "Context manager: a root span (one per job) around uninstrumented code."
        return _Span(self, label)

    # --- hooks for the per-layer counters

    def _hooks(self):
        c = self.counts
        is_monomial = sys.modules[f"{PKG}.linalg"].Matrix.is_monomial

        def matmul_pre(args):
            a, b = args
            if is_monomial(a) or is_monomial(b):
                c["matmul_monomial"] += 1

        def rref_post(args, result, exc):
            if result is not None:
                m = args[0]
                c["rref_cells"] += m.nrows * m.ncols
                c["rref_rows"] += m.nrows
                c["rref_rank"] += len(result[1])

        def dense_pre(args):
            c["dense_unknowns"] += args[2] * args[3]

        def invertible_pre(args):
            if self.active["linalg:invertible_element"]:
                c["invertible_tries"] += 1

        def image_pre(args):
            rep, key = args
            c["image_calls"] += 1
            c["image_hits"] += key in rep._images

        def bfs_post(args, result, exc):
            if result is not None:
                c["bfs_products"] += len(result) - 1

        def norm_post(args, result, exc):
            # the transcript is returned, or carried by NotFoundWithinBound
            transcript = result[1] if result is not None else (exc.args or [None])[0]
            if isinstance(transcript, dict):
                c["norm_tried"] += transcript.get("tried", 0)

        def fixed_post(args, result, exc):
            if result is not None:
                for img in result.images.values():
                    for row in img.rows:
                        for e in row:
                            c["model_digits"] += len(str(e.den)) + sum(
                                len(str(abs(x))) for x in e.nums
                            )

        def den_post(args, result, exc):
            den = getattr(result, "den", 1)
            if den != 1 and den.bit_length() > self.den_bits_max:
                self.den_bits_max = den.bit_length()

        hooks = {
            "linalg:Matrix.__mul__": (matmul_pre, None),
            "linalg:Matrix.rref": (None, rref_post),
            "linalg:_dense_intertwiners": (dense_pre, None),
            "linalg:Matrix.is_invertible": (invertible_pre, None),
            "weil:MarkedRep.image": (image_pre, None),
            "weil:bfs_matrices": (None, bfs_post),
            "descent:solve_norm_equation": (None, norm_post),
            "descent:fixed_points": (None, fixed_post),
        }
        for name in ARITH:
            hooks[f"fields:CycloNum.{name}"] = (None, den_post)
        return hooks

    # --- install / uninstall

    def install(self):
        hooks = self._hooks()
        targets = _targets()
        wrapped = {}
        for key, owner, attr, orig in targets:
            if id(orig) not in wrapped:
                wrapped[id(orig)] = (orig, self._wrap(key, orig, *hooks.get(key, (None, None))))
            self._patch(owner, attr, wrapped[id(orig)][1])
        # the same objects imported by name into other modules
        for modname, mod in list(sys.modules.items()):
            if modname == PKG or modname.startswith(PKG + "."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                        self._patch(mod, attr, wrapped[id(obj)][1])
        commands = sys.modules[f"{PKG}.cli"].COMMANDS
        for verb, fn in list(commands.items()):
            self._patch(commands, verb, wrapped[id(fn)][1], item=True)

    def _patch(self, owner, attr, value, item=False):
        if item:
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, vars(owner)[attr], False))
            setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig, item in reversed(self._patches):
            if item:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # --- results

    def _sum(self, keys, col):
        return sum(self.stats[k][col] for k in keys if k in self.stats)

    def _layer(self, layer, col):
        return sum(v[col] for k, v in self.stats.items() if k.startswith(layer + ":"))

    def metrics(self):
        "Per-layer metrics: name -> (value, unit)."
        calls = lambda *keys: self._sum(keys, 0)  # noqa: E731
        incl = lambda *keys: self._sum(keys, 1)  # noqa: E731
        c = self.counts
        cmds = [k for k in self.stats if k.startswith("cli:cmd_")]
        out = {
            "kernel.calls": (self._layer("kernel", 0), "count"),
            "kernel.s": (self._layer("kernel", 2), "s"),
            "fields.mul_calls": (calls("fields:CycloNum.__mul__"), "count"),
            "fields.add_calls": (calls("fields:CycloNum.__add__"), "count"),
            "fields.inv_calls": (calls("fields:CycloNum.inv"), "count"),
            "fields.aut_calls": (calls("fields:apply_aut"), "count"),
            "fields.den_bits_max": (self.den_bits_max, "bits"),
            "finite.fq_mul_calls": (calls("finite:FqElem.__mul__"), "count"),
            "finite.fq_add_calls": (calls("finite:FqElem.__add__"), "count"),
            "finite.sp_factor_calls": (calls("finite:sp_factor"), "count"),
            "finite.enumerate_s": (incl("finite:sp_enumerate", "finite:heis_enumerate"), "s"),
            "linalg.matmul_calls": (calls("linalg:Matrix.__mul__"), "count"),
            "linalg.matmul_s": (incl("linalg:Matrix.__mul__"), "s"),
            "linalg.matmul_monomial_share": (
                _ratio(c["matmul_monomial"], calls("linalg:Matrix.__mul__")), "ratio"),
            "linalg.rref_calls": (calls("linalg:Matrix.rref"), "count"),
            "linalg.rref_s": (incl("linalg:Matrix.rref"), "s"),
            "linalg.rref_cells": (c["rref_cells"], "count"),
            "linalg.rref_rank_per_row": (_ratio(c["rref_rank"], c["rref_rows"]), "ratio"),
            "linalg.intertwiner_calls": (calls("linalg:intertwiner_space"), "count"),
            "linalg.intertwiner_dense_unknowns": (c["dense_unknowns"], "count"),
            "linalg.intertwiner_s": (incl("linalg:intertwiner_space"), "s"),
            "linalg.invertible_tries": (c["invertible_tries"], "count"),
            "weil.rho_matrix_calls": (calls("weil:rho_matrix"), "count"),
            "weil.rho_matrix_s": (incl("weil:rho_matrix"), "s"),
            "weil.hom_check_s": (incl("weil:heisenberg_hom_check"), "s"),
            "weil.bfs_products": (c["bfs_products"], "count"),
            "weil.bfs_s": (incl("weil:bfs_matrices"), "s"),
            "weil.cocycle_s": (incl("weil:cocycle_certificate"), "s"),
            "weil.image_hit_ratio": (_ratio(c["image_hits"], c["image_calls"]), "ratio"),
            "rationality.character_field_s": (incl("rationality:character_field"), "s"),
            "rationality.iso_test_calls": (calls("rationality:iso_test"), "count"),
            "rationality.iso_test_s": (incl("rationality:iso_test"), "s"),
            "rationality.end_algebra_s": (incl("rationality:endomorphism_algebra"), "s"),
            "descent.fixed_points_s": (incl("descent:fixed_points"), "s"),
            "descent.validate_s": (incl("descent:DescentDatum.validate"), "s"),
            "descent.norm_solve_s": (incl("descent:solve_norm_equation"), "s"),
            "descent.norm_tried": (c["norm_tried"], "count"),
            "descent.model_digits": (c["model_digits"], "digits"),
            "theta.lift_s": (incl("theta:theta_lift"), "s"),
            "theta.unitarity_s": (incl("theta:theta_unitarity"), "s"),
            "cli.overhead_s": (incl("cli:run") - incl(*cmds), "s"),
        }
        for layer in ("fields", "finite", "linalg", "weil", "rationality", "descent",
                      "theta", "symbols"):
            out[f"{layer}.s"] = (self._layer(layer, 2), "s")
        return out

    def dump(self):
        "The trace as plain data: span table, per-name totals, counters."
        return {
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "per_name": {
                k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items()) if v[0]
            },
            "counts": dict(self.counts),
        }


class _Span:
    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans) + 1
        t.spans.append(None)
        self.idx = len(t.names)
        t.names.append(self.label)
        self.frame = [0.0, self.sid]
        self.parent = t.stack[-1]
        t.stack.append(self.frame)
        self.start = t.now()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = t.now()
        t.stack.pop()
        self.parent[0] += end - self.start
        own = end - self.start - self.frame[0]
        t.spans[self.sid - 1] = (self.sid, self.parent[1], self.idx, self.start, end, own)
        return False


def _listing(gen):
    def run(*args, **kwargs):
        return list(gen(*args, **kwargs))

    return run


def _ratio(num, den):
    return num / den if den else 0.0
