"""Collapsed variational inference for sparse Bayesian group factor analysis."""

__version__ = "0.2.0"
