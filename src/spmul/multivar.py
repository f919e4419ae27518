"""Multivariate sparse polynomials: Kronecker substitution, randomized
substitution, sparsity estimation, and products over any characteristic.

Classical Kronecker substitution encodes an exponent vector as base-d
digits of one univariate exponent, turning a multivariate product into a
univariate one without changing sparsity or height.  Randomized
substitution x_i -> X^(s_i) trades injectivity for much smaller degrees.
The sparsity estimate forms no product of F and G: for one random
substitution s it counts the terms of F_s*G_s, one schoolbook product of
the substituted operands, at #F*#G ring mults at most.  Substitution only
merges terms, so the count never exceeds the true sparsity, and with the
substitution box large enough few terms merge.  Small characteristic is
handled by lifting coefficients to Z, multiplying there, and reducing
back.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

from .arith import RandomSource, ceil_bound
from .errors import RingMismatchError, UnsupportedRingError
from .poly import SparsePoly, _merge, _same_ring, naive_mul
from .product import ProductParams, sparse_product
from .rings import RingSpec, integers


@dataclass(frozen=True)
class MultiPoly:
    """Canonical multivariate sparse polynomial.

    terms hold (exponent vector, coefficient) pairs in strictly
    increasing lexicographic order with no zero coefficients.
    """

    ring: RingSpec
    nvars: int
    terms: tuple  # ((exps, coeff), ...)

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def var_degrees(self) -> tuple:
        """Max exponent of each variable; () for the zero polynomial, whose
        partial degrees are all 0.  One pass over the terms on the first
        call, kept for later ones: a MultiPoly does not change."""
        return self._var_degrees

    @cached_property
    def _var_degrees(self) -> tuple:
        return _partial_degrees(self.terms)


def _partial_degrees(terms) -> tuple:
    return tuple(map(max, zip(*(e for e, _ in terms))))


def _shared_ring(F: MultiPoly, G: MultiPoly) -> RingSpec:
    # poly._same_ring plus the variable count, under one message
    if F.nvars == G.nvars:
        with suppress(RingMismatchError):
            return _same_ring(F, G)
    raise RingMismatchError("operands must share ring and variables")


def canonicalize_multi(terms, nvars: int, ring: RingSpec) -> MultiPoly:
    """Merge duplicate exponent vectors, drop zeros, sort lexicographically."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    checked = []
    for exps, c in terms:
        exps = tuple(int(v) for v in exps)
        if len(exps) != nvars:
            raise ValueError("exponent vector has wrong length")
        if any(v < 0 for v in exps):
            raise ValueError("exponents must be nonnegative")
        checked.append((exps, ring.coerce(c)))
    return MultiPoly(ring, nvars, _merge(checked, ring))


def zero_multi(ring: RingSpec, nvars: int) -> MultiPoly:
    return MultiPoly(ring, nvars, ())


def naive_mul_multi(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """Schoolbook multivariate product; exact reference path."""
    ring = _shared_ring(F, G)
    acc: dict = {}
    for e1, c1 in F.terms:
        for e2, c2 in G.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            c = ring.mul(c1, c2)
            if e in acc:
                acc[e] = ring.add(acc[e], c)
            else:
                acc[e] = c
    return MultiPoly(ring, F.nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))


# variables below which one Horner chain (or divmod chain) does a whole
# exponent vector: its steps work on numbers of at most this many digits
_CHAIN = 32


def _half_powers(d: int, n: int) -> list:
    # d^(2^k) for every 2^k < n: the split points of n digits halved
    pows = [d]
    while 1 << len(pows) < n:
        pows.append(pows[-1] * pows[-1])
    return pows


def _image(exps, lo: int, hi: int, d: int, pows: list) -> int:
    # sum exps[lo + i] * d^i: the low 2^k digits, then d^(2^k) times the
    # rest, 2^k < hi - lo <= 2^(k+1)
    n = hi - lo
    if n <= _CHAIN:
        v = 0
        for i in range(hi - 1, lo - 1, -1):
            v = v * d + exps[i]
        return v
    k = (n - 1).bit_length() - 1
    mid = lo + (1 << k)
    return _image(exps, lo, mid, d, pows) + pows[k] * _image(exps, mid, hi, d, pows)


def _split(v: int, n: int, d: int, pows: list, out: list) -> None:
    # append the n base-d digits of v, lowest first: one divmod by
    # d^(2^k) splits off the low 2^k digits, 2^k < n <= 2^(k+1)
    if n <= _CHAIN:
        for _ in range(n):
            v, r = divmod(v, d)
            out.append(r)
        return
    k = (n - 1).bit_length() - 1
    high, low = divmod(v, pows[k])
    _split(low, 1 << k, d, pows, out)
    _split(high, n - (1 << k), d, pows, out)


def kronecker(F: MultiPoly, d: int) -> SparsePoly:
    """Encode exponent vectors as base-d digits of one exponent.

    Injective on (and invertible from) exponents with all partial degrees
    below d; preserves sparsity and height.  Each image exponent is taken
    from the term's own exponents, as lo + d^h * hi for the images lo of
    its low h = 2^k digits and hi of the rest, recursively, with each
    power d^h computed once per call.  That costs a few products of
    numbers of n*log2(d) bits for n variables, where one Horner chain over
    the whole vector costs n steps on such numbers; the chain remains for
    runs of at most _CHAIN digits.  A polynomial without terms costs
    nothing whatever its variable count.
    """
    if any(v >= d for v in F.var_degrees()):
        raise ValueError("partial degree >= d")
    n = F.nvars
    pows = _half_powers(d, n) if F.terms else []
    return SparsePoly(F.ring, tuple(sorted(
        (_image(exps, 0, n, d, pows), c) for exps, c in F.terms)))


def inverse_kronecker(H: SparsePoly, d: int, n: int) -> MultiPoly:
    """Decode base-d digits back into exponent vectors, splitting each
    exponent by halves as kronecker builds it."""
    if not H.is_zero and H.degree >= d ** n:
        raise ValueError("exponent >= d^n")
    pows = _half_powers(d, n) if H.terms else []
    out = []
    for e, c in H.terms:
        exps = []
        _split(e, n, d, pows, exps)
        out.append((tuple(exps), c))
    return MultiPoly(H.ring, n, tuple(sorted(out)))


def randomized_kronecker(F: MultiPoly, s_vec) -> SparsePoly:
    """Substitute x_i -> X^(s_i); colliding images merge, so the result
    has at most #F terms."""
    s_vec = tuple(int(v) for v in s_vec)
    if len(s_vec) != F.nvars:
        raise ValueError("substitution vector has wrong length")
    if any(v < 0 for v in s_vec):
        raise ValueError("exponents must be nonnegative")
    # merged, not canonicalized: the coefficients are ring elements already
    return SparsePoly(F.ring, _merge(
        [(sum(e * s for e, s in zip(exps, s_vec)), c) for exps, c in F.terms], F.ring))


def sparsity_estimate(F: MultiPoly, G: MultiPoly, eps: float, lam,
                      rng: RandomSource) -> int:
    """Estimate #(F*G) within a factor lam, without forming F*G.

    The return value never exceeds ceil(lam * #(FG)) (lam * #(FG) for an
    integer lam); it is at least #(FG) with probability >= 1 - eps, over
    Z and over any finite field: counting the terms of a product, unlike
    interpolating it, puts no condition on the characteristic.

    One draw: s uniform in [0, b^ell)^n, with b = ceil((#F*#G - 1)/delta),
    delta = (1 - 1/lam)/2 and ell = ceil(-log2(eps)); the estimate is
    ceil(lam*count) for the count of terms of F_s*G_s, one schoolbook
    product of the substituted operands, at #F*#G ring mults at most on
    exponents about ell*log2(b) bits wide, whatever eps.

    Upper bound.  Substitution x_i -> X^(s_i) is a ring homomorphism that
    only merges terms, so count = #(FG)_s <= #(FG), and ceil(lam*count)
    <= ceil(lam*#(FG)) holds deterministically.

    Lower bound.  Two distinct exponent vectors of FG collide under s
    with probability <= 1/b^ell (they differ in some coordinate, and given
    the others at most one s_i merges them): (1/b)^ell, the chance that
    they collide in each of ell draws from [0, b)^n.  A term of FG that
    collides with no other is a term of (FG)_s = F_s*G_s, so at most
    #FG*(#FG - 1)/b^ell terms collide in expectation, and the estimate
    falls short of #FG only if more than #FG*(1 - 1/lam) do.  By Markov's
    inequality, and #FG - 1 <= #F*#G - 1 <= delta*b, that has probability
    <= (#FG - 1)/((1 - 1/lam)*b^ell) <= b^(1-ell)/2 <= 2^-ell <= eps, as
    b >= 2 whenever #F*#G >= 2 (and a single term never collides).
    """
    _shared_ring(F, G)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not (lam > 1 and math.isfinite(lam)):
        raise ValueError("lam must be finite and exceed 1")
    if F.is_zero or G.is_zero:
        return 0
    delta = (1.0 - 1.0 / lam) / 2.0
    b = max(1, ceil_bound((F.sparsity * G.sparsity - 1) / delta))
    box = b ** ceil_bound(-math.log2(eps))
    s_vec = tuple(rng.randrange(box) for _ in range(F.nvars))
    F_s, G_s = randomized_kronecker(F, s_vec), randomized_kronecker(G, s_vec)
    return ceil_bound(lam, naive_mul(F_s, G_s).sparsity)


def _kronecker_product(F: MultiPoly, G: MultiPoly, eps: float, rng: RandomSource,
                       over_field: bool) -> MultiPoly:
    # classical Kronecker substitution plus the univariate algorithm
    if _shared_ring(F, G).is_field != over_field:
        what = "field" if over_field else "integer"
        raise UnsupportedRingError(f"this path multiplies {what} polynomials")
    if F.is_zero or G.is_zero:
        return zero_multi(F.ring, F.nvars)
    d = 1 + max(x + y for x, y in zip(F.var_degrees(), G.var_degrees()))
    params = ProductParams(eps / 2.0, eps / 2.0)
    h_u = sparse_product(kronecker(F, d), kronecker(G, d), params, rng)
    return inverse_kronecker(h_u, d, F.nvars)


def multivar_product_z(F: MultiPoly, G: MultiPoly, eps: float,
                       rng: RandomSource) -> MultiPoly:
    """Multivariate product over Z via classical Kronecker substitution."""
    return _kronecker_product(F, G, eps, rng, over_field=False)


def multivar_product_field(F: MultiPoly, G: MultiPoly, eps: float,
                           rng: RandomSource) -> MultiPoly:
    """Multivariate product over a field with large characteristic:
    classical Kronecker plus the univariate algorithm.

    Requires characteristic > D = deg(F_u) + deg(G_u) after substitution,
    and when F_u or G_u wraps modulo X^p - 1 (degree >= p) for
    sparse_product's cyclic prime p >= lam = lambda_no_collision(#F*#G,
    D, mu1/2), mu1 = eps/2, characteristic > 2p too
    (CharacteristicTooSmallError otherwise).  That prime is drawn only
    when deg F_u or deg G_u reaches lam; below it nothing wraps, and
    characteristic > D suffices.  Use multivar_product_smallchar below
    that.
    """
    return _kronecker_product(F, G, eps, rng, over_field=True)


def multivar_product_smallchar(F: MultiPoly, G: MultiPoly, eps: float,
                               rng: RandomSource) -> MultiPoly:
    """Multivariate product over F_q or F_{q^s} for any characteristic.

    Coefficients are lifted to their integer images (RingSpec.lift, at a
    digit width wide enough for the at most min(#F, #G) products that
    share an exponent), the product is taken over Z, and each coefficient is
    dropped back into the field.  The intermediate sparsity is the
    structural sparsity of the product rather than its true sparsity.
    """
    ring = _shared_ring(F, G)
    if not ring.is_field:
        raise UnsupportedRingError("input must live over a finite field")
    zz = integers()
    width = ring.lift_width(min(F.sparsity, G.sparsity))
    f_z = MultiPoly(zz, F.nvars, tuple((e, ring.lift(c, width)) for e, c in F.terms))
    g_z = MultiPoly(zz, G.nvars, tuple((e, ring.lift(c, width)) for e, c in G.terms))
    h_z = multivar_product_z(f_z, g_z, eps, rng)
    return MultiPoly(ring, F.nvars, tuple(
        (e, c) for e, v in h_z.terms if (c := ring.drop(v, width))))
