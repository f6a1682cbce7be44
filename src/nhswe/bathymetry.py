"""Time-dependent bottom profiles d(x, t) and their derivatives.

Every model exposes the five derivative channels (d_x, d_t, d_tt, d_xt, d_xx)
needed by the pressure closure, evaluated analytically and vectorized over x.
Depth d is positive downward from the still water line; the wet column is
h = eta + d.

A model's depth is continuous in x except at the positions it declares in
`jumps(t)`.  The predictor reconstructs its interface flux only at the
element interfaces nearest those positions, so a model whose bottom can jump
must list every such position; a smooth model declares none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

GRAVITY = 9.81
RHO_WATER = 1000.0

CHANNELS = ("d", "d_x", "d_t", "d_tt", "d_xt", "d_xx")


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

    sample() evaluates the model afresh on every call.  A time step takes
    one sample of the grid at its new time and passes it on to every stage
    that reads the bottom there, including the next step's first stage.

    A subclass whose depth can be discontinuous in x overrides jumps(t) to
    list the positions where it may jump at time t; everywhere else the
    depth must be continuous.
    """

    def sample(self, x: np.ndarray, t: float) -> BottomSample:
        return self._sample(np.asarray(x, dtype=float), t)

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

    def _sample(self, x: np.ndarray, t: float) -> BottomSample:
        x = np.asarray(x, dtype=float)
        s, sp, spp = self.motion.position(t)
        center = self.x_start + s
        xi = 2.0 * (x - center) / self.Ls
        inside = np.abs(xi) < 1.0
        xi = np.where(inside, xi, 0.0)
        c = 2.0 / self.Ls

        d = np.full_like(x, self.h0)
        d[inside] -= self.Hs * (1.0 - xi[inside] ** 4)
        # exact derivatives of h0 - Hs(1 - xi^4) with xi = c (x - x_start - S(t))
        d_x = np.where(inside, self.Hs * 4.0 * xi ** 3 * c, 0.0)
        d_xx = np.where(inside, self.Hs * 12.0 * xi ** 2 * c * c, 0.0)
        d_t = np.where(inside, self.Hs * 4.0 * xi ** 3 * (-c * sp), 0.0)
        d_xt = np.where(inside, self.Hs * 12.0 * xi ** 2 * c * (-c * sp), 0.0)
        d_tt = np.where(
            inside,
            self.Hs * (12.0 * xi ** 2 * (c * sp) ** 2 - 4.0 * xi ** 3 * c * spp),
            0.0,
        )
        return BottomSample(d, d_x, d_t, d_tt, d_xt, d_xx)


def hammack_time_constant(h0: float, b: float, direction: str,
                          g: float = GRAVITY) -> float:
    """Characteristic plate time from the nondimensional constants 0.148 / 0.093."""
    const = {"up": 0.148, "down": 0.093}.get(direction)
    if const is None:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return const * b / np.sqrt(g * h0)
