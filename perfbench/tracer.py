"""Per-layer spans recorded from outside the solver.

The solver's modules look up their collaborators as module or class
attributes at call time, so replacing those attributes with timing wrappers
traces every layer boundary without touching the solver's source.  Spans are
aggregated in memory as they close: per layer the number of calls, the
inclusive time and the self time (inclusive time minus the time covered by
child spans).  Every original attribute is put back when the trace ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

ROOT = "adaptivity.adaptive_step"


class LayerStats:
    """Calls, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregates nested spans; one instance per traced run."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        # seconds of spans opened while no span was open, by layer name
        self.root_time: dict[str, float] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn, on_call=None):
        """A function that calls `fn` inside a span named `name`.

        `on_call(tracer, args)` runs before the span opens, so its own cost
        is not charged to the layer; it records work counts from the
        arguments.
        """
        stats = self.layers.setdefault(name, LayerStats())
        children = self._children
        root_time = self.root_time

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                covered = children.pop()
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - covered
                if children:
                    children[-1] += dur
                else:
                    root_time[name] = root_time.get(name, 0.0) + dur

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount


def _count_gbsv(tracer: Tracer, args) -> None:
    # gbsv(kl, ku, ab, b, ...): one unknown per column of the work array
    ab = args[2]
    tracer.count("gbsv.unknowns", ab.shape[1])
    tracer.count("gbsv.band_bytes", ab.nbytes)


def layer_targets(bathymetry) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, layer name, on_call) for every traced boundary.

    `derivative_values` is wrapped in every module that imported it, so all
    of its callers are seen under one layer name.
    """
    from nhswe import adaptivity, corrector, driver, grid, hydrostatic, scenarios
    from nhswe.bathymetry import BathymetryModel

    targets = [
        (driver, "adaptive_step", ROOT, None),
        (adaptivity, "heun_step", "hydrostatic.heun_step", None),
        (hydrostatic, "rhs_operator", "hydrostatic.rhs_operator", None),
        (adaptivity, "evaluate_criterion", "adaptivity.evaluate_criterion", None),
        (adaptivity, "apply_correction", "adaptivity.apply_correction", None),
        (corrector, "assemble_coefficients", "corrector.assemble_coefficients", None),
        (corrector, "solve_on_ranges", "corrector.solve_on_ranges", None),
        (corrector, "correct_momentum", "corrector.correct_momentum", None),
        (corrector, "_GBSV", "corrector.gbsv", _count_gbsv),
        (corrector, "_banded_matvec", "corrector.residual", None),
        (corrector, "_ldg_template", "corrector.ldg_template", None),
        (BathymetryModel, "sample", "bathymetry.sample", None),
        (type(bathymetry), "_sample", "bathymetry._sample", None),
    ]
    for module in (grid, adaptivity, corrector, scenarios):
        targets.append((module, "derivative_values", "grid.derivative_values", None))
    return targets


def _original(owner, attr):
    # class attributes are read from the class dict so that functions stay
    # plain functions rather than bound or unbound method objects
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@contextmanager
def traced(tracer: Tracer, targets):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, on_call in targets:
            original = _original(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_call))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unrestored(targets, originals) -> list[str]:
    """Attributes that are not the original object again after a trace."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr, _, _), original in zip(targets, originals)
            if _original(owner, attr) is not original]


def originals(targets) -> list[object]:
    return [_original(owner, attr) for owner, attr, _, _ in targets]
