"""Span tracing from outside the program.

A Tracer patches the entry points of each radnorm layer with thin wrappers
that record one span per call: (name, start, end, parent, operation id,
extra count).  Spans stay in memory and are turned into per-layer metrics
when the traced round ends; `save` writes them out when the run ends.
Nothing in src/ is changed: the wrappers replace module attributes and
are removed again by `uninstall`.

A span's layer is its name up to the first dot.  A span's self time is
its duration minus the part of its interval that its child spans cover;
children may overlap when a worker pool runs them, so the covered part is
the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

import numpy as np

#: Decomposition entry points counted as the `kernel` layer.
KERNEL_FUNCS = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "svd"),
    ("scipy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh"),
    ("scipy.sparse.linalg", "svds"),
    ("scipy.sparse.linalg", "eigsh"),
)

def _shape_counts(args, kwargs, result):
    """(matrices, elements) decomposed by one kernel call, batch-expanded."""
    a = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(a)
    matrices = math.prod(shape[:-2]) if len(shape) > 2 else 1
    return matrices, math.prod(shape)


def _samples(args, kwargs, result):
    return result.samples


def _certified(args, kwargs, result):
    return int(result.certified)


def _nbytes(args, kwargs, result):
    return result[1].nbytes


class Tracer:
    """Records spans around patched callables; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list = []
        self.records: list = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> tuple:
        st = self._stack()
        if st:
            parent = st[-1][0]
        else:
            # a pool worker's first span hangs under the span that is open
            # in the submitting (main) thread
            main = self._main_stack
            parent = main[-1][0] if main and st is not main else -1
        rec = [next(self._ids), nid, time.perf_counter(), 0.0, parent, self.op, 0]
        st.append(rec)
        self.records.append(rec)
        return st, rec

    def wrap(self, fn, name: str, note=None):
        """Callable that records a span named `name` around each call of
        fn; note(args, kwargs, result) gives the span's extra count."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, rec = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                st.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, note=None):
        """Like wrap, for a generator function: one span per item drawn."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                st, rec = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self.records.remove(rec)
                    return
                finally:
                    rec[3] = time.perf_counter()
                    st.pop()
                if note is not None:
                    rec[6] = note(args, kwargs, item)
                yield item

        return wrapper

    def patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- radnorm layers ------------------------------------------------------

    def install(self) -> None:
        """Patch every layer boundary the benchmark measures."""
        from radnorm import bounds, cli, moments, sampler, scenarios, streams

        self._main_stack = self._stack()
        w = self.wrap
        self.patch(cli, "main", w(cli.main, "cli.main"))
        self.patch(cli, "load_input", w(cli.load_input, "matio.load"))
        self.patch(cli, "run_scenario", w(cli.run_scenario, "scenarios.run"))
        self.patch(cli, "bound_profile", w(cli.bound_profile, "bounds.profile"))
        for owner in (cli, scenarios):
            for attr in ("mc_norm", "mc_norm_moments"):
                if hasattr(owner, attr):
                    self.patch(owner, attr, w(getattr(owner, attr), "sampler.mc", _samples))
        for attr in ("seginer_bound", "bvh_bound", "trivial_degree_bound"):
            self.patch(scenarios, attr, w(getattr(scenarios, attr), "bounds.closed_form"))
        self.patch(scenarios, "union_complete",
                   w(scenarios.union_complete, "families.build"))
        self.patch(bounds, "ksweep_term", w(bounds.ksweep_term, "bounds.ksweep"))
        self.patch(bounds, "r_heuristic", w(bounds.r_heuristic, "bounds.r_heuristic"))
        self.patch(bounds, "r_exact_01", w(bounds.r_exact_01, "bounds.r_exact", _certified))
        self.patch(bounds, "hitczenko_surrogate",
                   w(bounds.hitczenko_surrogate, "moments.surrogate"))
        self.patch(bounds, "water_fill", w(bounds.water_fill, "moments.water_fill"))
        self.patch(sampler, "power_mean_estimate",
                   w(sampler.power_mean_estimate, "moments.power_mean"))
        self.patch(streams, "uniform_blocks",
                   self.wrap_generator(streams.uniform_blocks, "streams.uniform", _nbytes))
        for attr in ("signs_from_uniform", "gaussians_from_uniform"):
            self.patch(streams, attr, w(getattr(streams, attr), "streams.transform"))
        self._install_kernel()

    def _install_kernel(self) -> None:
        """Wrap each decomposition entry point where it is defined and
        wherever a radnorm module bound it to a name of its own."""
        originals = {}
        for modname, attr in KERNEL_FUNCS:
            mod = sys.modules.get(modname)
            if mod is not None and hasattr(mod, attr):
                fn = getattr(mod, attr)
                wrapped = originals.setdefault(
                    id(fn), (fn, self.wrap(fn, f"kernel.{attr}", _shape_counts)))[1]
                self.patch(mod, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("radnorm"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self.patch(mod, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def take(self) -> dict:
        """Move the recorded spans into arrays and start a fresh record."""
        recs = self.records
        self.records = []
        index = {r[0]: k for k, r in enumerate(recs)}
        return {
            "name": np.array([r[1] for r in recs], dtype=np.int32),
            "start": np.array([r[2] for r in recs]),
            "end": np.array([r[3] for r in recs]),
            "parent": np.array([index.get(r[4], -1) for r in recs], dtype=np.int64),
            "op": np.array([r[5] for r in recs], dtype=np.int32),
            "extra": np.array([r[6] for r in recs], dtype=object),
        }


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    children: dict = {}
    for k, p in enumerate(parent.tolist()):
        if p >= 0:
            children.setdefault(p, []).append(k)
    out = dur.copy()
    for p, kids in children.items():
        covered = 0.0
        hi = -math.inf
        for k in sorted(kids, key=lambda k: start[k]):
            lo = max(start[k], hi)
            if end[k] > lo:
                covered += end[k] - lo
            hi = max(hi, end[k])
        out[p] = dur[p] - covered
    return out


def _outermost(spans: dict, mask: np.ndarray) -> np.ndarray:
    """Mask of the spans in `mask` with no ancestor that is also in it."""
    parent = spans["parent"].tolist()
    inside = mask.tolist()
    keep = []
    for k, hit in enumerate(inside):
        if not hit:
            keep.append(False)
            continue
        p = parent[k]
        while p >= 0 and not inside[p]:
            p = parent[p]
        keep.append(p < 0)
    return np.array(keep, dtype=bool)


def layer_metrics(spans: dict, names: list) -> dict:
    """Per-layer times and counts of one traced round.

    Times are inclusive unless named self_s; kernel time is also split by
    the layer of the nearest non-kernel ancestor span.
    """
    name_arr = np.array(names, dtype=object)[spans["name"]]
    layer = np.array([n.split(".")[0] for n in name_arr], dtype=object)
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    extra = spans["extra"]

    def sel(name):
        return name_arr == name

    def total(mask):
        return float(dur[_outermost(spans, mask)].sum())

    def layer_self(lay):
        return float(own[layer == lay].sum())

    kernel = layer == "kernel"
    parent = spans["parent"]
    enclosing = []
    for k in np.nonzero(kernel)[0].tolist():
        p = int(parent[k])
        while p >= 0 and layer[p] == "kernel":
            p = int(parent[p])
        enclosing.append(layer[p] if p >= 0 else "")
    enclosing = np.array(enclosing, dtype=object)
    kdur = dur[kernel]
    # a kernel call that raised has no counts
    kcounts = [c if isinstance(c, tuple) else (0, 0) for c in extra[kernel]]
    r_exact = sel("bounds.r_exact")
    n_exact = int(r_exact.sum())
    return {
        "bounds.profile_s": total(sel("bounds.profile")),
        "bounds.ksweep_s": total(sel("bounds.ksweep")),
        "bounds.self_s": layer_self("bounds"),
        "bounds.r_heuristic_calls": int(sel("bounds.r_heuristic").sum()),
        "bounds.r_heuristic_s": total(sel("bounds.r_heuristic")),
        "bounds.r_exact_calls": n_exact,
        "bounds.r_exact_s": total(r_exact),
        "bounds.r_exact_certified_ratio":
            float(sum(extra[r_exact])) / n_exact if n_exact else 0.0,
        "moments.surrogate_calls": int(sel("moments.surrogate").sum()),
        "moments.surrogate_s": total(sel("moments.surrogate")),
        "moments.water_fill_calls": int(sel("moments.water_fill").sum()),
        "moments.water_fill_s": total(sel("moments.water_fill")),
        "moments.power_mean_s": total(sel("moments.power_mean")),
        "kernel.calls": int(kernel.sum()),
        "kernel.matrices": int(sum(c[0] for c in kcounts)),
        "kernel.melems": sum(c[1] for c in kcounts) / 1e6,
        "kernel.s": float(kdur.sum()),
        "kernel.bounds_s": float(kdur[enclosing == "bounds"].sum()),
        "kernel.sampler_s": float(kdur[enclosing == "sampler"].sum()),
        "streams.uniform_s": total(sel("streams.uniform")),
        "streams.uniform_mb": float(sum(extra[sel("streams.uniform")])) / 1e6,
        "streams.transform_s": total(sel("streams.transform")),
        "sampler.calls": int(sel("sampler.mc").sum()),
        "sampler.samples": int(sum(extra[sel("sampler.mc")])),
        "sampler.mc_s": total(sel("sampler.mc")),
        "sampler.self_s": layer_self("sampler"),
        "scenarios.self_s": layer_self("scenarios"),
        "cli.self_s": layer_self("cli"),
        "matio.load_s": total(sel("matio.load")),
    }


def save(path, rounds: list, names: list) -> None:
    """Write every traced round's spans to one compressed .npz file."""
    arrays = {"names": np.array(names, dtype=str)}
    for k, spans in enumerate(rounds):
        for key, value in spans.items():
            if key == "extra":
                # kernel spans carry (matrices, elements); others one count
                pairs = [v if isinstance(v, tuple) else (v, 0) for v in value]
                value = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            arrays[f"round{k}_{key}"] = value
    np.savez_compressed(path, **arrays)
