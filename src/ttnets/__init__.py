"""Tensor-format score networks, rank certificates and training experiments."""

__version__ = "0.1.0"
