"""Exact arithmetic for the doubled unit interval, lattice-valued measures,
Stone pairings of finite structures, and the finite chain duality toolkit."""

from . import chains, errors, fo, gamma, lattice, measure, pairing, pl

__version__ = "0.1.0"
