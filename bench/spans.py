"""Spans around the public functions of su2fourier, recorded from outside.

``Tracer.install`` replaces each traced function in every su2fourier module
namespace that bound it (``from .representations import wigner_d`` gives
``fourier`` its own binding) and three methods on their classes; ``remove``
puts the originals back.  Spans keep (name, start, end, parent) in memory and
are reduced when the run ends.  A span's self time is its duration minus the
durations of its direct children, which nest because everything runs on one
thread.  Counters named ``computed_*`` in their unit are computed from argument
and result shapes, not measured.
"""

from __future__ import annotations

import time

import numpy as np

# Public functions per layer; a span is named "<layer>.<function>".
FUNCTIONS = {
    "group": ("haar_grid", "weyl_grid", "mul_arrays"),
    "representations": ("wigner_d", "repr_matrix", "char_table"),
    "fourier": ("matrix_coeffs", "partial_sum_general", "lebesgue_constant"),
    "divergence": ("divergence_table", "verify_chain"),
    "convergence": ("translate_norm_quadrature", "integral_modulus", "modulus_profile"),
    "cli": ("run", "write_table"),
}
METHODS = (
    ("fourier", "CentralFn", "coeffs"),
    ("fourier", "CentralFn", "on_group"),
    ("group", "QuadratureRule", "element_arrays"),
)
LAYERS = tuple(FUNCTIONS) + ("bench",)
OWN = "trace"  # spans of the tracer's own checks: excluded from every share


class _CountingStream:
    """Forwards writes and counts the UTF-8 bytes written."""

    def __init__(self, stream, tracer):
        self._stream, self._tracer = stream, tracer

    def write(self, text):
        self._tracer.count("cli.bytes_out", len(text.encode("utf-8")))
        return self._stream.write(text)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in FUNCTIONS]
        self.spans = []  # [name, start, end, parent index, root index]
        self.stack = []
        self.counts = {}  # name -> [count in setup roots, count in pass roots]
        self.roots = []  # (span index, kind) with kind "setup" or "pass"
        self.worst_unitarity = 0.0
        self.coeff_calls = 0
        self.coeff_repeats = 0
        self._coeff_seen = set()
        self._element_ids = {}
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def root(self, kind, fn):
        """Run fn() as a root span of kind "setup" or "pass"."""
        if kind == "pass":
            self._coeff_seen.clear()
        self.roots.append((len(self.spans), kind))
        return self.span(f"bench.{kind}", fn)

    def count(self, name, amount=1):
        kind = self.roots[-1][1] if self.roots else "setup"
        slot = self.counts.setdefault(name, [0.0, 0.0])
        slot[kind == "pass"] += amount

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        def wrapped(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                tracer._open(OWN + ".check")
                try:
                    after(args, kwargs, out)
                finally:
                    tracer._close()
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _after_representations_wigner_d(self, args, kwargs, d):
        self.count("representations.wigner_d.calls")
        eye = np.eye(d.shape[-1])
        err = np.abs(np.einsum("bij,bkj->bik", d, d) - eye).max()
        self.worst_unitarity = max(self.worst_unitarity, float(err))

    def _after_representations_char_table(self, args, kwargs, out):
        self.count("representations.char_table.entries", out.size)

    def _after_fourier_matrix_coeffs(self, args, kwargs, out):
        rule = args[2] if len(args) > 2 else kwargs["rule"]
        self.count("fourier.matrix_coeffs.nodes", len(rule))

    def _after_fourier_coeffs(self, args, kwargs, out):
        fn = args[0]
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        rule = args[2] if len(args) > 2 else kwargs.get("rule")
        rule_key = None if rule is None else hash(rule.weights.tobytes())
        key = (fn.name, fn.cusps, n_max, rule_key)
        self.coeff_calls += 1
        self.coeff_repeats += key in self._coeff_seen
        self._coeff_seen.add(key)
        self.count("fourier.coeffs.calls")

    def _after_group_haar_grid(self, args, kwargs, rule):
        self.count("group.nodes_built", len(rule))

    _after_group_weyl_grid = _after_group_haar_grid

    def _after_group_element_arrays(self, args, kwargs, out):
        # count each materialised array once; holding it keeps its id unique
        for arr in out:
            if id(arr) not in self._element_ids:
                self._element_ids[id(arr)] = arr
                self.count("group.element_arrays.bytes", arr.nbytes)

    def _after_convergence_translate_norm_quadrature(self, args, kwargs, out):
        self.count("convergence.translate_norm_quadrature.calls")

    def _before_cli_write_table(self, args, kwargs):
        meta, rows, fmt, stream = args
        return (meta, rows, fmt, _CountingStream(stream, self)), kwargs

    # -- patching -----------------------------------------------------------

    def install(self):
        for layer, names in FUNCTIONS.items():
            module = getattr(self.package, layer)
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for mod in self.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for layer, cls_name, name in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            original = cls.__dict__[name]
            self._patched.append((cls, name, original))
            setattr(cls, name, self._wrap(f"{layer}.{name}", original))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def report(self) -> dict:
        """Per-layer figures for one set-up plus one pass.

        Spans under the set-up root count once, spans under pass roots are
        averaged over the passes.
        """
        passes = sum(1 for _, kind in self.roots if kind == "pass")
        weight = {idx: (1.0 / passes if kind == "pass" else 1.0) for idx, kind in self.roots}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, root in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {}
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            if root not in weight:
                continue  # outside any set-up or pass (the benchmark's checks)
            self_s[name] = self_s.get(name, 0.0) + weight[root] * (end - start - child_time[i])
        out = {}
        for key, (in_setup, in_passes) in self.counts.items():
            out[key] = in_setup + in_passes / passes
        layer_s = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer = name.split(".", 1)[0]
            if layer != OWN:
                layer_s[layer] += value
            out[name + ".self_s"] = value
        total = sum(layer_s.values())
        for layer, value in layer_s.items():
            out[f"layer.{layer}.share"] = value / total
        out["representations.unitarity_digits"] = digits(self.worst_unitarity) if self.worst_unitarity else 0.0
        out["fourier.coeffs.repeat_ratio"] = self.coeff_repeats / self.coeff_calls if self.coeff_calls else 0.0
        return out


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 16 (double precision)."""
    return float(-np.log10(max(rel_err, 1e-16)))
