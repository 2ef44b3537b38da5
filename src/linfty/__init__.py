"""Exact constructors and Maurer-Cartan checkers for derived-bracket algebras."""

__version__ = "0.1.0"
