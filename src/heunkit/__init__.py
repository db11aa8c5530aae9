"""Numerical toolkit for the Heun family of ordinary differential equations.

Layers:

* poly / ode      exact rational-coefficient ODEs, singularity
                  classification, indicial analysis, residual checks
* series / heun   every power series from one recurrence, tail rule and
                  Horner evaluator: Frobenius series (the Heun series is
                  the generic one with Heun's labels) and the Taylor steps
                  of path continuation; the general four-regular-point
                  equation, its confluent family, reductions between
                  family members
* engine          complex paths and their entry points, Wronskian
                  integrity checks, numerical connection matrices
* mathieu         characteristic values and angular/modified Mathieu
                  functions
* scenarios       physics reduction pipelines with machine-checked claims
* cli             command-line front end
"""

from .errors import HeunkitError
from .poly import Polynomial, RationalFunction, make_rational
from .ode import (LinearODE, PointKind, SingularPoint, classify_singularities,
                  indicial_exponents, ode_residual, singularity_signature)
from .series import LocalSeries, eval_local, frobenius_series
from .heun import (ConfluentFormParams, GeneralHeunParams,
                   anharmonic_to_biconfluent, build_confluent_form,
                   double_confluent_to_mathieu, general_heun, heun_series,
                   heun_value)
from .engine import (ComplexPath, ConnectionMatrix, SolutionState,
                     connection_matrix, integrate_path, loop_transfer_matrix,
                     wronskian_abel_check)
from .mathieu import (CharacteristicValue, MathieuParams, angular_mathieu,
                      characteristic_value, modified_mathieu,
                      orthogonality_matrix)
from .scenarios import SCENARIOS, ScenarioReport, run_scenario

__version__ = "0.1.0"
