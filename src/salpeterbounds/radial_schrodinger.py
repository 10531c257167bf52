"""The former finite-difference layer's name, kept only because
perfbench/tracer.py imports this module and wraps its eigh_tridiagonal by
name; no command runs it.  ROADMAP item 4's tracer change deletes it."""


def eigh_tridiagonal(d, e, **kwargs):
    """The tracer reads the size of d; no solver stands behind the name."""
    raise NotImplementedError("the finite-difference solver is deleted; ROADMAP item 4 deletes this stub")
