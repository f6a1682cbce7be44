"""Time-dependent bottom profiles d(x, t) and their derivatives.

Every model exposes the five derivative channels (d_x, d_t, d_tt, d_xt, d_xx)
needed by the pressure closure, evaluated analytically and vectorized over x.
Depth d is positive downward from the still water line; the wet column is
h = eta + d.

A model's depth is continuous in x except at the positions it declares in
`jumps(t)`.  The predictor reconstructs its interface flux only at the
element interfaces nearest those positions, so a model whose bottom can jump
must list every such position; a smooth model declares none.

A model also declares its support, `support(t)`: the closed interval outside
which the depth is its still depth `h0` and every derivative channel is zero.
`sample` evaluates the model only on the points inside it, in whatever order
they come, fills the rest with h0 and zeros, and takes the sample's active
channels from those points alone.  The sliding bump's support is its own
length and the plate's is the plate; the flat bottom's is empty.  A model
that declares no support is evaluated everywhere.  Either way the sample
equals the model's evaluation on all the points, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

GRAVITY = 9.81
RHO_WATER = 1000.0

CHANNELS = ("d", "d_x", "d_t", "d_tt", "d_xt", "d_xx")

# supports: every point, and no point
WHOLE_LINE = (-np.inf, np.inf)
NOWHERE = (np.inf, -np.inf)


@dataclass(frozen=True)
class BottomSample:
    """All bathymetry channels at a set of points for one instant."""

    d: np.ndarray
    d_x: np.ndarray
    d_t: np.ndarray
    d_tt: np.ndarray
    d_xt: np.ndarray
    d_xx: np.ndarray

    @cached_property
    def active(self) -> frozenset[str]:
        """Names of the derivative channels that are nonzero somewhere."""
        return frozenset(name for name in CHANNELS[1:]
                         if np.count_nonzero(getattr(self, name)))


class BathymetryModel:
    """Base class; subclasses implement _sample(x, t) -> BottomSample.

    sample() evaluates the model afresh on every call, with exactly one call
    of _sample.  A time step takes one sample of the grid at its new time
    and passes it on to every stage that reads the bottom there, including
    the next step's first stage.

    A subclass whose depth can be discontinuous in x overrides jumps(t) to
    list the positions where it may jump at time t; everywhere else the
    depth must be continuous.  A subclass with a still depth h0 overrides
    support(t) to bound where its bottom differs from the still bottom.
    """

    def sample(self, x: np.ndarray, t: float) -> BottomSample:
        """All channels at the points x at time t, in any order.

        _sample sees only the run of x from its first to its last point
        inside the support, even when that run is empty; the points off the
        run get h0 and zero channels.  For ascending x, as the grid's sample
        nodes are, the run is exactly the points inside the support.
        """
        x = np.asarray(x, dtype=float)
        lo, hi = self.support(t)
        flat = x.reshape(-1)
        # every point past either end of the run is off the support, in any
        # order of x, and _sample is right at the off-support points it sees
        inside = np.flatnonzero((flat >= lo) & (flat <= hi))
        run = slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)
        window = self._sample(flat[run], t)
        values = np.array([getattr(window, name) for name in CHANNELS])
        sample = self._still_bottom_with(x.shape, run, values)
        # every nonzero derivative lies in the run: fill the cached set from it
        object.__setattr__(sample, "active", frozenset(
            compress(CHANNELS[1:], values[1:].any(axis=1))))
        return sample

    def _still_bottom_with(self, shape: tuple, where: np.ndarray | slice,
                           values) -> BottomSample:
        """A sample of the given shape that is the still bottom, depth h0 and
        zero channels, except at the flat positions `where` (a mask or a
        slice), which take the six channel values."""
        count = len(values[0])
        if count == math.prod(shape):
            # no still bottom shows: the values are the sample
            return BottomSample(*(v.reshape(shape) for v in values))
        if count == 0:
            # one zero array serves all five channels
            zero = np.zeros(shape)
            return BottomSample(np.full(shape, self.h0), zero, zero, zero, zero, zero)
        channels = np.zeros((len(CHANNELS),) + shape)
        channels[0] = self.h0
        channels.reshape(len(CHANNELS), -1)[:, where] = values
        return BottomSample(*channels)

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        raise NotImplementedError

    def jumps(self, t: float) -> tuple[float, ...]:
        """The positions x where the depth may jump at time t; none by default."""
        return ()

    def support(self, t: float) -> tuple[float, float]:
        """The closed interval (lo, hi) outside which the depth is h0 and every
        derivative channel is zero at time t; empty when lo > hi.  The whole
        line by default."""
        return WHOLE_LINE

    def depth(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.sample(x, t).d


@dataclass(frozen=True)
class FlatBottom(BathymetryModel):
    """Constant still depth; all derivative channels vanish."""

    h0: float

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("still depth h0 must be positive")

    def support(self, t: float) -> tuple[float, float]:
        return NOWHERE

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        return BottomSample(np.full_like(x, self.h0), zero, zero, zero, zero, zero)


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

    def support(self, t: float) -> tuple[float, float]:
        return (-self.b, self.b)

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.b
        a = self.alpha
        decay = np.exp(-a * max(t, 0.0))
        zero = np.zeros_like(x)
        d = np.where(inside, self.h0 - self.zeta0 * (1.0 - decay), self.h0)
        d_t = np.where(inside, -self.zeta0 * a * decay, 0.0)
        d_tt = np.where(inside, self.zeta0 * a * a * decay, 0.0)
        # the plate top is flat: no spatial variation inside the support
        return BottomSample(d, zero, d_t, d_tt, zero, zero)


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

    def support(self, t: float) -> tuple[float, float]:
        # |xi| < 1 rounds to false at every float outside these rounded ends
        center, half = self.x_start + self.motion.position(t)[0], 0.5 * self.Ls
        return (center - half, center + half)

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        x = np.asarray(x, dtype=float)
        s, sp, spp = self.motion.position(t)
        center = self.x_start + s
        xi = 2.0 * (x - center) / self.Ls
        inside = np.abs(xi) < 1.0
        xi = xi[inside]
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
        if xi.shape == x.shape:
            # every point is on the bump, as in a window of its support
            return BottomSample(*values)
        return self._still_bottom_with(x.shape, inside.reshape(-1), values)


def hammack_time_constant(h0: float, b: float, direction: str) -> float:
    """Characteristic plate time from the nondimensional constants 0.148 / 0.093."""
    const = {"up": 0.148, "down": 0.093}.get(direction)
    if const is None:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return const * b / np.sqrt(GRAVITY * h0)
