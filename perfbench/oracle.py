"""Independent correctness oracle for the benchmark.

Nothing here calls into ``spmul``: products are schoolbook over plain
dicts, extension-field coefficients are reduced by their own code, the
canonical defining polynomial is found by a root search, and product
files written by the ``spmul`` command are read back by their own parser.

Polynomials are dicts from exponent (an int, or a tuple of ints for
several variables) to coefficient.  A coefficient is an int over Z and
F_q, and a tuple of ``s`` residues (little-endian) over F_{q^s}.
"""

from __future__ import annotations


class Field:
    """Coefficient domain of the oracle: Z (q is None), F_q (s == 1) or
    F_{q^s} with a monic degree-s modulus, little-endian."""

    def __init__(self, q: int | None = None, s: int = 1, modulus: tuple | None = None):
        self.q, self.s, self.modulus = q, s, modulus

    @property
    def is_ext(self) -> bool:
        return self.s > 1

    def zero(self):
        return (0,) * self.s if self.is_ext else 0

    def reduce(self, raw):
        """Reduce an unreduced value: an int, or for F_{q^s} a list of
        up to 2s-1 int coordinates of a product in the power basis."""
        if self.q is None:
            return raw
        if not self.is_ext:
            return raw % self.q
        q, s, m = self.q, self.s, self.modulus
        v = list(raw)
        for i in range(len(v) - 1, s - 1, -1):
            c = v[i] % q
            if c:
                for j in range(s):
                    v[i - s + j] -= c * m[j]
        v = v[:s] + [0] * (s - len(v))
        return tuple(x % q for x in v)


def _add_exp(e1, e2):
    if isinstance(e1, int):
        return e1 + e2
    return tuple(a + b for a, b in zip(e1, e2))


def schoolbook(fa: dict, fb: dict, field: Field) -> dict:
    """Exact product of two dict polynomials over ``field``."""
    acc: dict = {}
    if field.is_ext:
        width = 2 * field.s - 1
        for e1, c1 in fa.items():
            for e2, c2 in fb.items():
                e = _add_exp(e1, e2)
                vec = acc.get(e)
                if vec is None:
                    vec = acc[e] = [0] * width
                for i, a in enumerate(c1):
                    if a:
                        for j, b in enumerate(c2):
                            vec[i + j] += a * b
    else:
        for e1, c1 in fa.items():
            for e2, c2 in fb.items():
                e = _add_exp(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
    zero = field.zero()
    out = {}
    for e, raw in acc.items():
        c = field.reduce(raw)
        if c != zero:
            out[e] = c
    return out


def smallest_irreducible(q: int, s: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree 2 or 3 over
    F_q (low coefficients read as a little-endian base-q number).  In these
    degrees a polynomial is irreducible exactly when it has no root."""
    if s not in (2, 3):
        raise ValueError("the oracle only knows degrees 2 and 3")
    for k in range(q ** s):
        low = [(k // q ** i) % q for i in range(s)]
        coeffs = low + [1]
        if all(sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q for x in range(q)):
            return tuple(coeffs)
    raise RuntimeError("no irreducible found")


def example2_product(T: int) -> dict:
    """Closed form of the structured family: (sum_{i<T} X^i) *
    (sum_{i<T} X^(Ti+1) - X^(Ti)) = (X^T - 1) * sum_{i<T} X^(Ti) = X^(T^2) - 1."""
    return {0: -1, T * T: 1}


def parse_poly_text(text: str) -> tuple[tuple, dict]:
    """Read the ``spmul`` file format into ((q, s) or None, {exps: coeff}).

    Exponents are tuples even for one variable; the ring header is
    returned so callers can check it.
    """
    ring = None
    nvars = None
    terms: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "ring":
            ring = None
        elif line[0] == "field":
            ring = (int(line[1]), int(line[2]))
        elif line[0] == "vars":
            nvars = int(line[1])
        elif line[0] == "term":
            exps = tuple(int(v) for v in line[2:])
            if nvars is None or len(exps) != nvars or exps in terms:
                raise ValueError(f"malformed term line {raw!r}")
            vals = [int(v) for v in line[1].split(",")]
            terms[exps] = tuple(vals) if ring is not None and ring[1] > 1 else vals[0]
        else:
            raise ValueError(f"unknown record {raw!r}")
    return ring, terms
