"""Lowest eigenpair of a symmetric operator by single-vector LOBPCG.

Knyazev, SIAM J. Sci. Comput. 23 (2001) 517: each step applies the
preconditioner to the residual r = A x - rho x and takes the lowest Ritz pair
of A on span{x, w, p}, where w is the preconditioned residual and p the
previous step's move.  The span is orthonormalized explicitly, so the small
Rayleigh-Ritz problem is a standard 3 x 3 eigenproblem with no Gram matrix
to factorize; a direction that orthogonalization reduces to rounding noise
(w parallel to x, or p empty) is dropped instead.  One product with A per
step: A x and A p are carried as the same combinations as x and p.
"""

import numpy as np

# a direction whose component outside the span is at most this fraction of
# its length holds nothing but rounding noise
_NOISE = 1e-10


def _extend(basis, a_basis, v, av=None):
    """v orthonormalized against the orthonormal columns of basis, with its
    image under A (the carried av, combined the same way, or None to be
    formed by the caller); None when nothing of v is left."""
    length = np.linalg.norm(v)
    for _ in range(2):
        c = basis.T @ v
        v = v - basis @ c
        if av is not None:
            av = av - a_basis @ c
    norm = np.linalg.norm(v)
    if not norm > _NOISE * length:
        return None
    return v / norm, None if av is None else av / norm


def lobpcg(a, x, *, preconditioner, tol, maxiter):
    """Lowest eigenvalue and unit eigenvector of the symmetric operator a.

    a maps an (n, k) array to its image; x is the (n,) or (n, 1) start
    vector and preconditioner maps a residual of shape (n, 1) to its
    correction.  Stops when |A x - rho x| <= tol; after maxiter steps it
    returns the last iterate, whose residual the caller can check.  Returns
    (rho, x) with x of shape (n, 1).
    """
    x = np.reshape(x, (-1, 1)) / np.linalg.norm(x)
    ax = a(x)
    rho = (x.T @ ax).item()
    p = ap = None
    for _ in range(maxiter):
        r = ax - rho * x
        if np.linalg.norm(r) <= tol:
            break
        basis, a_basis = x, ax
        if p is not None and (moved := _extend(basis, a_basis, p, ap)) is not None:
            basis, a_basis = np.hstack((basis, moved[0])), np.hstack((a_basis, moved[1]))
        w = _extend(basis, a_basis, preconditioner(r))
        if w is not None:
            basis, a_basis = np.hstack((basis, w[0])), np.hstack((a_basis, a(w[0])))
        if basis.shape[1] == 1:
            break
        gram = basis.T @ a_basis
        values, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
        c = vectors[:, :1]
        # the new x minus its old-x part is the move p
        p, ap = basis[:, 1:] @ c[1:], a_basis[:, 1:] @ c[1:]
        x, ax = x * c[0, 0] + p, ax * c[0, 0] + ap
        rho = values[0]
    return float(rho), x
