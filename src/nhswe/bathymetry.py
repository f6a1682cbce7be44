"""Time-dependent bottom profiles d(x, t) and their derivatives.

Every model exposes the five derivative channels (d_x, d_t, d_tt, d_xt, d_xx)
needed by the pressure closure, evaluated analytically and vectorized over x.
Depth d is positive downward from the still water line; the wet column is
h = eta + d.

A model's depth is continuous in x except at the positions it declares in
`jumps(t)`.  The predictor reconstructs its interface flux only at the
element interfaces nearest those positions, so a model whose bottom can jump
must list every such position; a smooth model declares none.

Each model evaluates its formula only on its own moving points, in whatever
order the points come, and builds its sample one way, `_still_bottom_with`:
one read-only block of the six channels, every other point having depth
`h0` and zero channels.  Where no point moves, as on the flat bottom always,
the block is a broadcast view of that still column and allocates nothing of
its size.  Its active channels are named from the moving values, so no scan
of the whole sample runs; being read-only, it can be handed on and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

GRAVITY = 9.81
RHO_WATER = 1000.0

CHANNELS = ("d", "d_x", "d_t", "d_tt", "d_xt", "d_xx")


@dataclass(frozen=True)
class BottomSample:
    """All bathymetry channels at a set of points for one instant: one
    read-only block of shape (6, *points) in CHANNELS order, whose rows the
    attributes `d` ... `d_xx` view, set once when the sample is built."""

    channels: np.ndarray
    active: frozenset[str]      # the derivative channels nonzero somewhere

    def __post_init__(self):
        channels = self.channels
        vars(self).update({name: channels[k, ...] for k, name in enumerate(CHANNELS)})


class BathymetryModel:
    """Base class; subclasses implement _sample(x, t) -> BottomSample on a
    float array x of any shape and order.

    sample() evaluates the model afresh on every call, with exactly one call
    of _sample.  A time step takes one sample of the grid at its new time
    and passes it on to every stage that reads the bottom there, including
    the next step's first stage.

    A subclass whose depth can be discontinuous in x overrides jumps(t) to
    list the positions where it may jump at time t; everywhere else the
    depth must be continuous.
    """

    def sample(self, x: np.ndarray, t: float) -> BottomSample:
        """All channels at the points x at time t, in any order."""
        return self._sample(np.asarray(x, dtype=float), t)

    def _still_bottom_with(self, shape: tuple, where, values) -> BottomSample:
        """A sample of points of the given shape: the still bottom, depth h0
        and zero derivative channels, except at the flat indices `where`,
        which take the six channel values, six arrays over those points or
        six numbers for all of them; its active channels are those nonzero
        among the values.  With no point in `where` it is a read-only view
        of the still column and allocates nothing of its size."""
        still = np.array((self.h0, 0.0, 0.0, 0.0, 0.0, 0.0)).reshape((-1,) + (1,) * len(shape))
        if not len(where):
            return BottomSample(np.broadcast_to(still, (len(CHANNELS),) + shape), frozenset())
        moving = np.array(values).reshape(len(CHANNELS), -1)
        channels = np.empty((len(CHANNELS),) + shape)
        channels[...] = still
        channels.reshape(len(CHANNELS), -1)[:, where] = moving
        channels.setflags(write=False)
        return BottomSample(channels, frozenset(compress(CHANNELS[1:],
                                                         moving[1:].any(axis=1))))

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        raise NotImplementedError

    def jumps(self, t: float) -> tuple[float, ...]:
        """The positions x where the depth may jump at time t; none by default."""
        return ()

    def depth(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.sample(x, t).d


@dataclass(frozen=True)
class FlatBottom(BathymetryModel):
    """Constant still depth; all derivative channels vanish."""

    h0: float

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("still depth h0 must be positive")

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        return self._still_bottom_with(x.shape, (), ())


@dataclass(frozen=True)
class HammackPlate(BathymetryModel):
    """Impulsively moved flat plate of half-width b centered at x = 0.

    The plate displacement grows as zeta0 * (1 - exp(-alpha t)) inside
    |x| < b; zeta0 > 0 lifts the bottom (uplift), zeta0 < 0 lowers it.
    """

    h0: float
    zeta0: float
    b: float
    t_c: float

    def __post_init__(self):
        if self.h0 <= 0 or self.b <= 0 or self.t_c <= 0:
            raise ValueError("h0, b and t_c must be positive")
        if abs(self.zeta0) >= self.h0:
            raise ValueError("|zeta0| must stay below the still depth")

    @property
    def alpha(self) -> float:
        return 1.11 / self.t_c

    def jumps(self, t: float) -> tuple[float, ...]:
        # the plate edges, once the plate has left the still bottom
        return (-self.b, self.b) if t > 0.0 else ()

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        a = self.alpha
        decay = np.exp(-a * max(t, 0.0))
        # the plate top is flat and moves as one: no spatial variation on it
        values = (self.h0 - self.zeta0 * (1.0 - decay), 0.0, -self.zeta0 * a * decay,
                  self.zeta0 * a * a * decay, 0.0, 0.0)
        inside = (np.abs(x) < self.b).ravel().nonzero()[0]
        return self._still_bottom_with(x.shape, inside, values)


@dataclass(frozen=True)
class SlideMotion:
    """Piecewise-quadratic slide displacement: accelerate, coast, brake, stop."""

    a0: float
    u_t: float
    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if not 0 < self.t1 < self.t2 < self.t3:
            raise ValueError("require 0 < t1 < t2 < t3")

    def position(self, t: float) -> tuple[float, float, float]:
        """Displacement S(t) with velocity and acceleration."""
        a0, u_t, t1, t2, t3 = self.a0, self.u_t, self.t1, self.t2, self.t3
        s1 = 0.5 * a0 * t1 * t1
        if t <= t1:
            return 0.5 * a0 * t * t, a0 * t, a0
        if t <= t2:
            return s1 + u_t * (t - t1), u_t, 0.0
        if t <= t3:
            return (s1 + u_t * (t - t1) - 0.5 * a0 * (t - t2) ** 2,
                    u_t - a0 * (t - t2), -a0)
        return s1 + u_t * (t3 - t1) - 0.5 * a0 * (t3 - t2) ** 2, 0.0, 0.0


@dataclass(frozen=True)
class WhittakerSlide(BathymetryModel):
    """Quartic bump of length Ls and height Hs sliding along a flat bottom."""

    h0: float
    Hs: float
    Ls: float
    motion: SlideMotion
    x_start: float = 0.0

    def __post_init__(self):
        if not self.h0 > self.Hs > 0:
            raise ValueError("require h0 > Hs > 0")
        if self.Ls <= 0:
            raise ValueError("slide length Ls must be positive")

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        s, sp, spp = self.motion.position(t)
        center = self.x_start + s
        xi = 2.0 * (x.reshape(-1) - center) / self.Ls
        on = (np.abs(xi) < 1.0).nonzero()[0]
        xi = xi[on]
        xi2, xi3 = xi ** 2, xi ** 3
        c = 2.0 / self.Ls
        # exact derivatives of h0 - Hs(1 - xi^4) with xi = c (x - x_start - S(t))
        a3 = self.Hs * 4.0 * xi3          # d_x / c and d_t / (-c S')
        a2 = self.Hs * 12.0 * xi2 * c     # d_xx / c and d_xt / (-c S')
        d_tt = 12.0 * xi2 * (c * sp) ** 2
        if spp != 0.0:
            # while the slide coasts this term is a signed zero, which
            # leaves d_tt unchanged: d_tt >= +0 before it is taken off
            d_tt = d_tt - 4.0 * xi3 * c * spp
        values = (
            self.h0 - self.Hs * (1.0 - xi ** 4),
            a3 * c,
            a3 * (-c * sp),
            self.Hs * d_tt,
            a2 * (-c * sp),
            a2 * c,
        )
        return self._still_bottom_with(x.shape, on, values)


def hammack_time_constant(h0: float, b: float, direction: str) -> float:
    """Characteristic plate time from the nondimensional constants 0.148 / 0.093."""
    const = {"up": 0.148, "down": 0.093}.get(direction)
    if const is None:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return const * b / np.sqrt(GRAVITY * h0)
