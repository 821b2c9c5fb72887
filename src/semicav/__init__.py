"""Semiclassical phase-space simulator for single-mode cavity QED.

Two independent solvers for the same physics: a unitary Schroedinger
integrator on the truncated atom+mode Hilbert space, and a semiclassical
wave equation for an atomic state vector attached to a classical complex
field variable. Phase-space machinery (Wigner / Husimi transforms,
symmetric-ordering superoperators, Gaussian coarse-graining) connects the
two pictures and is cross-checked identity by identity.
"""

__version__ = "0.1.0"
