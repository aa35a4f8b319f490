"""Digit-wise defining point arithmetic on codes: the test oracle for
`Field.add_codes/sub_codes/neg_codes`.

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
