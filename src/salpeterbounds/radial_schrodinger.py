"""The former finite-difference layer's name, kept only because
perfbench/tracer.py imports this module and wraps its eigh_tridiagonal by
name; no command runs it.  ROADMAP item 4's tracer change deletes it."""

from ._lapack import eigh_tridiagonal
