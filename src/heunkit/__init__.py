"""Numerical toolkit for the Heun family of ordinary differential equations.

Layers, bottom up:

* errors          the HeunkitError hierarchy
* poly / ode      exact rational-coefficient ODEs, singularity
                  classification, indicial analysis, residual checks
* grammar         the textual equation and parameter-line forms
* series / heun   every power series from one recurrence, tail rule and
                  Horner evaluator: Frobenius series (the Heun series is
                  the generic one with Heun's labels) and the Taylor steps
                  of path continuation; the general four-regular-point
                  equation, its confluent family, reductions between
                  family members
* corpus          the named equations with known singularity signatures
* engine          complex paths and their entry points, Wronskian
                  integrity checks, numerical connection matrices
* mathieu         characteristic values and angular/modified Mathieu
                  functions
* serialize       the scenario report types and their JSON and text forms
* scenarios       physics reduction pipelines with machine-checked claims
* cli             command-line front end

Layer order: errors < poly < ode < grammar < series < heun < corpus <
engine < mathieu < serialize < scenarios < cli < __main__.

A module imports only modules that come before it, so importing one loads
nothing above it; this package imports no submodule. Import each name from
the module that defines it, as in ``from heunkit.heun import heun_value``.
"""

__version__ = "0.1.0"
