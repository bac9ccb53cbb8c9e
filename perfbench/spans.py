"""In-memory span tracer for the benchmark's traced run.

The tracer wraps every public function of each splinecomb layer module, and
the arithmetic methods of ``Polynomial``, in a span recorder, and rebinds
the wrapper in every splinecomb module namespace that binds the original,
so calls between modules and inside a module are both seen.  Spans live in
compact arrays until the run ends; per-layer self time is computed from
them afterwards.  Counts that need call arguments (coefficient products,
distinct (d, k) keys, enumerated objects, Monte Carlo samples) are recorded
by hooks at the same boundaries, after the wrapped call returns.

A layer module that is not yet imported when the tracer is installed cannot
be wrapped; if it is imported while the tracer is active, its calls go
untraced, and ``untraced_layers`` names it.  numpy is imported only by the
functions that analyse spans, so a traced CLI child loads what the CLI loads.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("numcore", "polyring", "splinecore", "eulerian", "descent", "geometry", "verify", "cli")

# Polynomial methods that do coefficient arithmetic; cheap accessors such as
# ``degree`` or ``coefficient`` stay unwrapped and count toward the caller.
POLYNOMIAL_METHODS = (
    "__init__",
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "__call__",
    "antiderivative",
    "coefficient_strings",
)


def _poly_products(tracer, args, result):
    a, b = args["self"], args["other"]
    b_len = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer.counts["polyring.mul.coeff_products"] += len(a.coeffs) * b_len


def _key_dk(family):
    def hook(tracer, args, result):
        tracer.keys[family].add((args["d"], args["k"]))

    return hook


def _eulerian_perms(tracer, args, result):
    tracer.counts["eulerian.brute.perms"] += math.factorial(args["d"])


def _refined_perms(tracer, args, result):
    tracer.counts["eulerian.brute.perms"] += math.factorial(args["d"] + 1)


def _indexed_objects(tracer, args, result):
    d, n = args["d"], args["n"]
    tracer.counts["descent.brute.objects"] += n**d * math.factorial(d)


def _mc_samples(tracer, args, result):
    tracer.counts["geometry.mc.samples"] += args["samples"]


def _verify_cases(tracer, args, result):
    tracer.counts["verify.cases"] += result.cases_run


HOOKS = {
    "polyring.Polynomial.__mul__": _poly_products,
    "polyring.Polynomial.__rmul__": _poly_products,
    "eulerian.refined_lambda_extraction": _key_dk("eulerian.lambda"),
    "geometry.minkowski_poly": _key_dk("geometry.minkowski"),
    "eulerian.eulerian_bruteforce": _eulerian_perms,
    "eulerian.refined_bruteforce": _refined_perms,
    "descent.indexed_bruteforce": _indexed_objects,
    "geometry.mc_volume": _mc_samples,
    **{f"verify.verify_{suite}": _verify_cases for suite in ("bspline", "eulerian", "descent", "geometry", "mc")},
}


class Tracer:
    """Records one span per wrapped call: name, parent span, start and end.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.  Single-threaded by design, like the
    benchmark's closed loop.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._unwrapped: list[str] = []
        self.merged_untraced: set[str] = set()  # untraced layers of merged tracers

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        name_ids, parents, starts, ends, stack = (
            self.name_ids,
            self.parents,
            self.starts,
            self.ends,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "splinecomb" and m]
        for layer in LAYERS:
            module = sys.modules.get(f"splinecomb.{layer}")
            if module is None:
                self._unwrapped.append(layer)
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for owner in package:
                    for bound_name, bound in list(vars(owner).items()):
                        if bound is obj:
                            self._patch(owner, bound_name, wrapper)
        poly = sys.modules["splinecomb.polyring"].Polynomial
        for attr in POLYNOMIAL_METHODS:
            self._patch(poly, attr, self.wrap(f"polyring.Polynomial.{attr}", vars(poly)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def untraced_layers(self) -> list[str]:
        """Layers first imported after the tracer was installed: their calls
        ran unwrapped, so their per-layer numbers miss work."""
        return [layer for layer in self._unwrapped if f"splinecomb.{layer}" in sys.modules]

    def mark(self) -> int:
        """Index of the next span; pass boundaries are recorded as marks."""
        return len(self.starts)

    def snapshot(self) -> dict:
        """Counts so far: calls per span name, hook counts, distinct keys."""
        calls = Counter(self.names[i] for i in self.name_ids)
        return {
            "calls": dict(calls),
            "counts": dict(self.counts),
            "distinct": {family: len(keys) for family, keys in self.keys.items()},
        }

    def export(self) -> dict:
        """Spans and counts as plain lists, for a child process to hand back."""
        return {
            "names": self.names,
            "name_ids": self.name_ids.tolist(),
            "parents": self.parents.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "counts": dict(self.counts),
            "keys": {family: sorted(keys) for family, keys in self.keys.items()},
            "untraced_layers": self.untraced_layers(),
        }

    def merge(self, exported: dict) -> None:
        """Append spans and counts exported by another tracer."""
        offset = len(self.starts)
        remap = [self.name_id(name) for name in exported["names"]]
        self.name_ids.extend(remap[i] for i in exported["name_ids"])
        self.parents.extend(p + offset if p >= 0 else -1 for p in exported["parents"])
        self.starts.extend(exported["starts"])
        self.ends.extend(exported["ends"])
        self.counts.update(exported["counts"])
        for family, keys in exported["keys"].items():
            self.keys[family].update(tuple(k) for k in keys)
        self.merged_untraced.update(exported["untraced_layers"])

    def arrays(self):
        """(name_ids, parents, durations, self_times) as numpy arrays."""
        import numpy as np

        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        return np.asarray(self.name_ids), parents, durations, self_times(parents, durations)

    def write(self, path) -> None:
        """Write every span to an .npz file (names table plus span arrays)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.asarray(self.name_ids),
            parents=np.asarray(self.parents),
            starts=np.asarray(self.starts),
            ends=np.asarray(self.ends),
        )


def self_times(parents, durations):
    """Each span's duration minus the time its direct child spans cover.

    Calls are single-threaded, so children of one span never overlap and
    the time they cover is the sum of their durations.  Takes and returns
    numpy arrays.
    """
    import numpy as np

    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered
