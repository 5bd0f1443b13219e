"""The tests' reference layer: numpy and nothing from soclab, written from
the conventions of ``soclab.process``, so that a bug in the package's shared
layer cannot move a reference together with its subject.  A Choi matrix is
``sum_ij |i><j| (x) f(|i><j|)`` on ``[inputs | outputs]`` in row-major kron
order; wires are contracted rows with rows and columns with columns; a
two-hole body maps ``[A1, A2, B1, B2]`` to ``[C1, C2]``."""

import numpy as np


def random_matrix(rng, side):
    """A complex Gaussian ``side x side`` matrix, real parts drawn first."""
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


def random_unitary(rng, d):
    """A Haar-random unitary: the phase-fixed QR of :func:`random_matrix`."""
    q, r = np.linalg.qr(random_matrix(rng, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def choi(kraus, d_in, d_out):
    """The Choi matrix of ``rho -> sum_k K_k rho K_k^dag``: entry ``[i o, j p]``
    is ``sum_k K_k[o, i] conj(K_k[p, j])``."""
    k = np.asarray(kraus, dtype=complex).reshape(-1, d_out, d_in)
    return np.einsum("koi,kpj->iojp", k, k.conj()).reshape(d_in * d_out, d_in * d_out)


def ptrace(m, dims, keep):
    """Trace out the factors not in ``keep`` (any axes before the last two
    are a stack); the result's factors are ``keep`` in its order.  Factor
    ``k``'s row index is ``k``, its column index ``n + k``, or ``k`` if traced."""
    n, stack = len(dims), m.shape[:-2]
    cols = [n + k if k in keep else k for k in range(n)]
    t = np.einsum(m.reshape(stack + tuple(dims) * 2), [..., *range(n), *cols], [..., *keep, *(n + k for k in keep)])
    side = int(np.prod([dims[k] for k in keep]))
    return t.reshape(stack + (side, side))


def permute(m, dims, perm):
    """Factor ``k`` of the result is factor ``perm[k]`` of ``m``."""
    n = len(dims)
    return m.reshape(tuple(dims) * 2).transpose(*perm, *(n + p for p in perm)).reshape(m.shape)


def seq(f, g, x, y, z):
    """``g`` after ``f``, for ``f: x -> y`` and ``g: y -> z`` (wire totals)."""
    return np.einsum("apcq,psqt->asct", f.reshape(x, y, x, y), g.reshape(y, z, y, z)).reshape(x * z, x * z)


def par(f, f_dims, g, g_dims):
    """``f`` beside ``g``, each with its ``(in, out)`` totals, on ``[f in, g in | f out, g out]``."""
    (fi, fo), (gi, go) = f_dims, g_dims
    side = fi * fo * gi * go
    return np.einsum("apcq,bsdt->abpscdqt", f.reshape(fi, fo, fi, fo), g.reshape(gi, go, gi, go)).reshape(side, side)


def fill(body, dims, pa, pb, a_anc=(1, 1), b_anc=(1, 1)):
    """Fill hole A and then hole B of ``body`` on ``dims = (A1, A2, B1, B2,
    C1, C2)``: ``pa`` on ``[a anc in, A1 | a anc out, A2]`` with ancillas
    ``a_anc = (in, out)``, ``pb`` likewise, each a matrix or a stack of them
    (the grid of all pairs, ``pa``'s axes first).  A filling is on ``[a anc
    in, b anc in, C1 | a anc out, b anc out, C2]``."""
    (ai, ao), (bi, bo) = a_anc, b_anc
    a1, a2, b1, b2, c1, c2 = dims
    x = pa.reshape((-1,) + (ai, a1, ao, a2) * 2)
    y = pb.reshape((-1,) + (bi, b1, bo, b2) * 2)
    # Rows A1 a, A2 b, B1 c, B2 d, C1 e, C2 f, a ancilla g h, b ancilla i j,
    # each with its capital as its column; stacks k and l.
    t = np.einsum("abcdefABCDEF,kgahbGAHB->kcdefghCDEFGH", body.reshape(tuple(dims) * 2), x, optimize=True)
    t = np.einsum("kcdefghCDEFGH,licjdICJD->klgiehjfGIEHJF", t, y, optimize=True)
    side = ai * bi * c1 * ao * bo * c2
    return t.reshape(pa.shape[:-2] + pb.shape[:-2] + (side, side))


def tp_basis(d_in, d_out):
    """An affine basis of the trace-preserving Choi matrices ``d_in -> d_out``,
    a ``(K, side, side)`` stack from matrix units: ``I/d_out``, then that
    plus each direction ``E_ij (x) X``, ``X`` an off-diagonal ``E_kl`` or a
    normalized traceless diagonal, so that the directions are orthonormal."""
    side = d_in * d_out
    xs = [e for e in np.eye(d_out * d_out).reshape(-1, d_out, d_out) if not e.trace()]
    xs += [np.diag([1.0] * k + [-k] + [0.0] * (d_out - k - 1)) / np.sqrt(k * (k + 1)) for k in range(1, d_out)]
    # kron(E, X)[i k, j l] = E[i, j] X[k, l], for every pair (E, X).
    units = np.eye(d_in * d_in).reshape(-1, d_in, d_in)
    dirs = np.einsum("eij,xkl->exikjl", units, np.reshape(xs, (-1, d_out, d_out))).reshape(-1, side, side)
    return np.eye(side, dtype=complex) / d_out + np.concatenate([np.zeros((1, side, side)), dirs])
