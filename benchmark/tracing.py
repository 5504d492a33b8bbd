"""Spans around calls into qtriad's public functions, patched in from outside.

``Tracer.install`` replaces each traced function in every ``qtriad`` module
namespace that binds it (so calls between modules are seen too) and each
traced ``Quaternion`` method on the class; ``uninstall`` puts the originals
back. A span records its name, start, end, parent span, the pass (round and
workload) it ran in, its self time and the states it handled. Spans stay in
memory until the run writes them out.

A layer metric is the self time of its spans divided by the states they
handled, so time spent in a traced callee is charged to the callee only.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict


def _one(args, result) -> int:
    return 1


def _len_arg0(args, result) -> int:
    return len(args[0])


def _len_result(args, result) -> int:
    return len(result)


def _count_arg0(args, result) -> int:
    return args[0]


def _is_infinity(args, result) -> int:
    return int(type(result).__name__ == "_Infinity")


def _compared(args, result) -> int:
    return result[0].samples


def _emit_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    return f"dataset.emit_{fmt}"


# (module, attribute, span name or a function of the call's arguments that
# gives it, states handled by one call)
TARGETS = (
    ("sampling", "sample", "sampling.sample", _len_result),
    ("sampling", "sample_haar", "sampling.sample_haar", _len_result),
    ("sampling", "sample_separable", "sampling.sample_separable", _len_result),
    ("sampling", "sample_fixed_concurrence", "sampling.sample_fixed_concurrence", _len_result),
    ("sampling", "haar_state", "sampling.haar_state", _one),
    ("sampling", "separable_state", "sampling.separable_state", _one),
    ("sampling", "fixed_concurrence_state", "sampling.fixed_concurrence_state", _one),
    ("states", "make_state", "states.make_state", _one),
    ("states", "make_correlated", "states.make_correlated", _one),
    ("states", "embed_correlated", "states.embed_correlated", _one),
    ("states", "triad", "states.triad", _one),
    ("states", "fringe_extrema", "states.fringe_extrema", _one),
    ("states", "reduced_density_photon", "states.reduced_density_photon", _one),
    ("projection", "coords_from_state", "projection.coords_from_state", _one),
    ("projection", "ball_point", "projection.ball_point", _one),
    ("projection", "quaternify", "projection.quaternify", _one),
    ("projection", "stereo_project", "projection.stereo_project", _one),
    ("projection", "inverse_stereo", "projection.inverse_stereo", _one),
    ("quaternion", "Quaternion.__mul__", "quaternion.mul", _one),
    ("quaternion", "Quaternion.inverse", "quaternion.inverse", _one),
    ("classify", "classify", "classify.classify", _one),
    ("classify", "schmidt_decompose", "classify.schmidt_decompose", _one),
    ("dataset", "state_record", "dataset.state_record", _one),
    ("dataset", "emit_dataset", _emit_name, _len_arg0),
    ("verify", "verify_suite", "verify.verify_suite", _count_arg0),
    ("verify", "check_identity", "verify.identity", _len_arg0),
    ("verify", "check_dual_route", "verify.dual_route", _len_arg0),
    ("verify", "check_concurrence_oracle", "verify.concurrence_oracle", _len_arg0),
    ("verify", "check_bilinear_convention", "verify.bilinear_convention", _len_arg0),
    ("verify", "check_fringe", "verify.fringe", _len_arg0),
    ("verify", "check_purity", "verify.purity", _len_arg0),
    ("verify", "check_separable_plane", "verify.separable_plane", _len_arg0),
    ("verify", "check_unit_q_iff_d0", "verify.unit_q_iff_d0", _len_arg0),
    ("cli", "main", "cli.main", _one),
)

# Counters kept at span boundaries: span name -> (counter, count of a result).
COUNTERS = {
    "projection.stereo_project": ("projection.points_at_infinity", _is_infinity),
    "verify.dual_route": ("verify.dual_route_compared", _compared),
}

# Per-state layer metrics: metric -> the span names it times. Quaternion
# metrics are per call (one product or one inverse), since a state's route
# makes several.
LAYER_US = {
    "sampling.haar_state_us": ("sampling.haar_state",),
    "sampling.separable_state_us": ("sampling.separable_state",),
    "sampling.fixed_concurrence_state_us": ("sampling.fixed_concurrence_state",),
    "sampling.sample_us": ("sampling.sample", "sampling.sample_haar",
                           "sampling.sample_separable", "sampling.sample_fixed_concurrence"),
    "states.make_state_us": ("states.make_state",),
    "states.embed_correlated_us": ("states.embed_correlated",),
    "states.triad_us": ("states.triad",),
    "states.fringe_extrema_us": ("states.fringe_extrema",),
    "states.reduced_density_photon_us": ("states.reduced_density_photon",),
    "projection.coords_from_state_us": ("projection.coords_from_state",),
    "projection.ball_point_us": ("projection.ball_point",),
    "projection.stereo_route_us": ("projection.quaternify", "projection.stereo_project",
                                   "projection.inverse_stereo"),
    "quaternion.mul_us": ("quaternion.mul",),
    "quaternion.inverse_us": ("quaternion.inverse",),
    "classify.classify_us": ("classify.classify",),
    "classify.schmidt_decompose_us": ("classify.schmidt_decompose",),
    "dataset.state_record_us": ("dataset.state_record",),
    "dataset.emit_csv_us": ("dataset.emit_csv",),
    "dataset.emit_json_us": ("dataset.emit_json",),
    "verify.identity_us": ("verify.identity",),
    "verify.dual_route_us": ("verify.dual_route",),
    "verify.concurrence_oracle_us": ("verify.concurrence_oracle",),
    "verify.bilinear_convention_us": ("verify.bilinear_convention",),
    "verify.fringe_us": ("verify.fringe",),
    "verify.purity_us": ("verify.purity",),
    "verify.separable_plane_us": ("verify.separable_plane",),
    "verify.unit_q_iff_d0_us": ("verify.unit_q_iff_d0",),
}
# Spans whose states divide a metric, where they differ from the timed ones:
# the stereographic route counts one state per traversal (quaternify call).
LAYER_DIVISOR = {"projection.stereo_route_us": ("projection.quaternify",)}

ROUND_COUNTERS = tuple(counter for counter, _ in COUNTERS.values())

# Span record fields, in order.
SPAN_FIELDS = ("parent", "name", "pass", "start_ns", "end_ns", "self_ns", "states")


class Tracer:
    """Collects spans for patched qtriad functions; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.passes: list[tuple[int, str]] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._stack = [[-1, 0]]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_pass(self, rnd: int, workload: str) -> None:
        self.passes.append((rnd, workload))

    def _wrap(self, fn, name, states):
        spans, stack, counters, passes = self.spans, self._stack, self.counters, self.passes
        clock = time.perf_counter_ns
        fixed = None if callable(name) else self.name_id(name)
        counter, count_fn = COUNTERS.get(name, (None, None))
        name_id = self.name_id

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(name(args, kwargs))
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            pid = len(passes) - 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # A failed per-state call still attempted its state.
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                n = 1 if states is _one else 0
                spans[frame[0]] = (stack[-1][0], nid, pid, t0, t1, t1 - t0 - frame[1], n)
                raise
            t1 = clock()
            stack.pop()
            stack[-1][1] += t1 - t0
            spans[frame[0]] = (stack[-1][0], nid, pid, t0, t1, t1 - t0 - frame[1],
                               states(args, result))
            if counter is not None:
                counters[(pid, counter)] += count_fn(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qtriad" or k.startswith("qtriad.")]
        for modname, attr, name, states in TARGETS:
            owner = sys.modules[f"qtriad.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, states))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, states)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Per-state self time of each layer, in microseconds."""
        self_ns: dict[int, int] = defaultdict(int)
        states: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span is not None:
                self_ns[span[1]] += span[5]
                states[span[1]] += span[6]
        out = {}
        for metric, timed in LAYER_US.items():
            per = LAYER_DIVISOR.get(metric, timed)
            t = sum(self_ns[self._name_ids[n]] for n in timed if n in self._name_ids)
            k = sum(states[self._name_ids[n]] for n in per if n in self._name_ids)
            out[metric] = t / k / 1000.0 if k else None
        return out

    def pass_durations(self, names: set[str], parent_name: str | None = None) -> dict[int, int]:
        """Total duration (ns) per pass of spans named in ``names``.

        With ``parent_name``, only spans whose parent span has that name count.
        """
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        pid = self._name_ids.get(parent_name) if parent_name else None
        out: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span is None or span[1] not in ids:
                continue
            if parent_name is not None:
                if span[0] < 0 or self.spans[span[0]][1] != pid:
                    continue
            out[span[2]] += span[4] - span[3]
        return out

    def round_counter(self, counter: str) -> dict[int, int]:
        """Counter totals per round."""
        out: dict[int, int] = defaultdict(int)
        for (pid, name), value in self.counters.items():
            if name == counter:
                out[self.passes[pid][0]] += value
        return out

    def dump(self) -> dict:
        """Spans as columns, with the name and pass tables. Start and end are
        relative to ``origin_ns``, the first span's start."""
        rows = [s for s in self.spans if s is not None]
        origin = min((r[3] for r in rows), default=0)
        cols = {f: [r[i] for r in rows] for i, f in enumerate(SPAN_FIELDS)}
        for f in ("start_ns", "end_ns"):
            cols[f] = [t - origin for t in cols[f]]
        return {
            "names": self.names,
            "passes": [list(p) for p in self.passes],
            "origin_ns": origin,
            "fields": list(SPAN_FIELDS),
            "spans": cols,
        }


def median_or_none(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None
