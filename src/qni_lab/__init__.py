"""Quadratic-net identification lab.

Function identification for overparameterized quadratic networks, plus the
three systems built on it: an explore-then-commit bandit, a two-stage
transfer-learning estimator, and a compositional module-network simulator,
with numerical verification of the stated bounds and constants.
"""

__version__ = "0.1.0"
