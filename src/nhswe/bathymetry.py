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
the block is one strided view of the model's read-only still column, built
once per model, and allocates nothing of its size.  Its active channels are
named from the moving values, so no scan of the whole sample runs; being
read-only, it can be handed on and shared.  A sample is built every step, so
its record skips the frozen `__init__` (`BottomSample._of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        vars(self).update(vars(self._of(self.channels, self.active)))

    @classmethod
    def _of(cls, channels: np.ndarray, active: frozenset[str]) -> BottomSample:
        """The sample of the block `channels`, every field filled at once.
        A sample is made every step: skip the frozen __init__, as
        `corrector.NonHydroMask._of` does.  Each row is `channels[k, ...]`,
        an array even where the points are 0-d."""
        sample = object.__new__(cls)
        # the rows in CHANNELS order
        sample.__dict__.update(channels=channels, active=active, d=channels[0, ...],
                               d_x=channels[1, ...], d_t=channels[2, ...],
                               d_tt=channels[3, ...], d_xt=channels[4, ...],
                               d_xx=channels[5, ...])
        return sample


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

    @cached_property
    def _still(self) -> np.ndarray:
        """The still column (h0, 0, 0, 0, 0, 0), read-only, built once."""
        still = np.array((self.h0, 0.0, 0.0, 0.0, 0.0, 0.0))
        still.setflags(write=False)
        return still

    def _still_bottom_with(self, shape: tuple, where, values) -> BottomSample:
        """A sample of points of the given shape: the still bottom, depth h0
        and zero derivative channels, except at the flat indices `where`,
        which take the six channel values, a (6, points) block, six arrays
        over those points or six numbers for all of them; its active
        channels are those nonzero among the values.  With no point in
        `where` it is a read-only view of the still column and allocates
        nothing of its size."""
        still = self._still
        # every point views the one column: the points' strides are 0
        view = np.ndarray((len(CHANNELS),) + shape, buffer=still,
                          strides=(still.itemsize,) + (0,) * len(shape))
        if not len(where):
            return BottomSample._of(view, frozenset())
        moving = np.asarray(values).reshape(len(CHANNELS), -1)
        channels = view.copy()
        channels.reshape(len(CHANNELS), -1)[:, where] = moving
        channels.setflags(write=False)
        active = np.logical_or.reduce(moving[1:], axis=1)
        return BottomSample._of(channels, frozenset(compress(CHANNELS[1:], active)))

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
        xi = x.reshape(-1) - (self.x_start + s)
        xi *= 2.0
        xi /= self.Ls
        on = (np.abs(xi) < 1.0).nonzero()[0]
        xi = xi[on]
        c = 2.0 / self.Ls
        v = -c * sp
        # exact derivatives of h0 - Hs(1 - xi^4) with xi = c (x - x_start - S(t)),
        # written into one block, whose rows hold the temporaries until their
        # channel is due: with a3 = 4 Hs xi^3 and a2 = 12 Hs xi^2 c, d_x and
        # d_t are a3 c and a3 v, d_xx and d_xt are a2 c and a2 v
        values = np.empty((len(CHANNELS), len(on)))
        d, d_x, d_t, d_tt, d_xt, d_xx = values
        # numpy's xi ** 4 and xi ** 3, not repeated products, which round otherwise
        np.power(xi, 4.0, out=d)
        np.power(xi, 3.0, out=d_x)
        xi2 = np.multiply(xi, xi, out=xi)
        np.multiply(xi2, 12.0, out=d_tt)
        d_tt *= (c * sp) ** 2
        if spp != 0.0:
            # while the slide coasts this term is a signed zero, which
            # leaves d_tt unchanged: d_tt >= +0 before it is taken off
            brake = np.multiply(d_x, 4.0, out=d_t)
            brake *= c
            brake *= spp
            d_tt -= brake
        d_tt *= self.Hs
        d_x *= self.Hs * 4.0
        np.multiply(d_x, v, out=d_t)
        d_x *= c
        np.multiply(xi2, self.Hs * 12.0, out=d_xx)
        d_xx *= c
        np.multiply(d_xx, v, out=d_xt)
        d_xx *= c
        np.subtract(1.0, d, out=d)
        d *= self.Hs
        np.subtract(self.h0, d, out=d)
        return self._still_bottom_with(x.shape, on, values)


def hammack_time_constant(h0: float, b: float, direction: str) -> float:
    """Characteristic plate time from the nondimensional constants 0.148 / 0.093."""
    const = {"up": 0.148, "down": 0.093}.get(direction)
    if const is None:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return const * b / np.sqrt(GRAVITY * h0)
