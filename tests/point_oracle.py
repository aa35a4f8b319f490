"""Digit-wise defining point arithmetic on codes: the test oracle for
`Field.add_codes/sub_codes/neg_codes` and `LinMap.apply_batch`.

Each function decodes its codes to coordinate tuples, combines them
coordinate by coordinate mod ell in plain Python, and encodes the result.
`Field.decode` rejects codes outside [0, q).
"""


def add(f, a, b):
    return f.encode(tuple((x + y) % f.ell for x, y in zip(f.decode(a), f.decode(b))))


def sub(f, a, b):
    return f.encode(tuple((x - y) % f.ell for x, y in zip(f.decode(a), f.decode(b))))


def neg(f, a):
    return f.encode(tuple(-x % f.ell for x in f.decode(a)))


def smul(f, c, a):
    return f.encode(tuple(c * x % f.ell for x in f.decode(a)))


def apply(f, tau, pts):
    """tau applied to one tuple of point codes: output coordinate j is
    sum_i coeffs[i][j] * pts[i], digit by digit."""
    assert len(pts) == tau.src_arity
    vecs = [f.decode(c) for c in pts]
    return tuple(
        f.encode(tuple(sum(row[j] * v[t] for row, v in zip(tau.coeffs, vecs)) % f.ell
                       for t in range(f.dim)))
        for j in range(tau.dst_arity))
