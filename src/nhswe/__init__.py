"""Locally adaptive non-hydrostatic shallow water solver (1D)."""

from .adaptivity import Criterion, Stepper, adaptive_step, evaluate_criterion
from .bathymetry import (FlatBottom, HammackPlate, SlideMotion, WhittakerSlide,
                         GRAVITY, RHO_WATER)
from .corrector import (EllipticSolveError, NonHydroMask, PressureSolution,
                        assemble_coefficients, correct_momentum, ldg_solve)
from .driver import RunResult, simulate
from .grid import FlowState, GridSpec, NodalField
from .hydrostatic import (ABSORBING, WALL, BoundaryCondition, BoundaryPair,
                          PositivityError, heun_step)
from .metrics import RunReport, SeriesPair, pearson, rmse, time_ratio
from .scenarios import (ScenarioSpec, build_hammack, build_scenario, build_solitary,
                        build_whittaker, solitary_exact)

__version__ = "0.1.0"
