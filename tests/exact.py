"""An exact referee for soundness: decides, in Python integers, that a
number v > 0 is at most mu_min_plus(K), the smallest positive eigenvalue
of K = [[A, B^T], [B, 0]], for the float arrays A and B as stored.

The argument is one of inertia. For beta > 0, the Schur complement of
the block -beta I of K - beta I is A - beta I + B^T B / beta, so
Sylvester's law of inertia with Haynsworth's additivity gives

    #{eig(K) < beta} = m + #neg(A + B^T B / beta - beta I).

When B has full row rank (B B^T > 0), K has at least m negative
eigenvalues: its form is negative on the m-dimensional space of the
vectors (-t B^T y, y) for a small t > 0. So, with

    S_v = v A - v^2 I + B^T B    (v times the matrix above at beta = v),

B B^T > 0 and S_v >= 0 give #{eig(K) < v} = m, all of them negative:
no eigenvalue of K lies in [0, v), so v <= mu_min_plus(K), and K is
nonsingular. Proving a bound proves every smaller one.

Every float is a dyadic rational, so one power of two, 2^e, scales the
entries of A, B and v to integers, and the definiteness of B B^T and S_v
is that of their integer images (scaled by 2^(2e), which changes no
sign). Both are decided by fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) with symmetric diagonal pivoting, the largest diagonal
first: after each step the entries are minors of the pivoted matrix, so
every division is exact, and the trailing diagonal has the signs of the
true Schur complement's. A symmetric matrix is positive definite when
every pivot is positive; it is positive semidefinite when, at the first
nonpositive largest diagonal, that diagonal is zero and so is the rest
of the trailing block. No floating-point operation is involved.
"""

from operator import mul

import numpy as np


def _dyadic(values):
    """(numerator, log2 of the denominator) of each float in ``values``."""
    out = []
    for x in values:
        num, den = float(x).as_integer_ratio()
        out.append((num, den.bit_length() - 1))
    return out


def _integer_images(a, b, v):
    """A, B and v times one power of two, as lists of Python ints: the
    least power that makes every entry an integer."""
    parts = [_dyadic(np.ravel(x)) for x in (a, b, [v])]
    e = max(k for part in parts for _, k in part)
    ints = [[num << (e - k) for num, k in part] for part in parts]
    n = a.shape[0]
    m = b.shape[0]
    a_int = [ints[0][r * n:(r + 1) * n] for r in range(n)]
    b_int = [ints[1][r * n:(r + 1) * n] for r in range(m)]
    return a_int, b_int, ints[2][0]


def _definite(rows, strict):
    """Whether the symmetric integer matrix ``rows`` (a list of lists,
    consumed) is positive definite (``strict``) or semidefinite."""
    prev = 1
    while rows:
        k = max(range(len(rows)), key=lambda r: rows[r][r])
        pivot_row = rows.pop(k)
        p = pivot_row.pop(k)
        if p <= 0:
            if strict or p < 0:
                return False
            # every trailing diagonal is zero: semidefinite only if the
            # whole trailing block is
            return not any(pivot_row) and not any(any(row) for row in rows)
        for r, row in enumerate(rows):
            factor = row.pop(k)
            # the block stays symmetric: form the upper triangle, and
            # mirror the rows above into the lower
            row[r:] = [(p * x - factor * y) // prev for x, y in zip(row[r:], pivot_row[r:])]
            row[:r] = [above[r] for above in rows[:r]]
        prev = p
    return True


def _gram(vectors):
    """The integer Gram matrix of ``vectors``, as a list of lists."""
    k = len(vectors)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = sum(map(mul, vectors[i], vectors[j]))
    return gram


def proves_lower_bound(a, b, v):
    """Whether B B^T > 0 and S_v = v A - v^2 I + B^T B >= 0 hold exactly
    for the float arrays ``a`` (n x n, exactly symmetric) and ``b``
    (m x n) and the float ``v`` > 0, which proves v <= mu_min_plus(K).
    A ``b`` whose rows are not linearly independent is refused with a
    ValueError: the argument needs K's m negative eigenvalues."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.array_equal(a, a.T):
        raise ValueError("A is not exactly symmetric")
    if not v > 0:
        raise ValueError(f"v must be positive, got {v}")
    a_int, b_int, v_int = _integer_images(a, b, v)
    if not _definite(_gram(b_int), strict=True):
        raise ValueError("the rows of B are linearly dependent: B B^T is not positive definite")
    s_v = _gram(list(zip(*b_int)))
    for i, row in enumerate(s_v):
        row[:] = [s + v_int * x for s, x in zip(row, a_int[i])]
        row[i] -= v_int * v_int
    return _definite(s_v, strict=False)
