"""Probabilistic verification that F*G = H (and sum-of-products variants)
in quasi-linear time.

The test never forms the product: it reduces everything modulo X^p - 1
for a random prime p, evaluates the reduced product at a random field
point via a circulant recurrence, and compares against the reduced H.
A true identity always verifies; a false one survives with probability
at most eps.

Over the integers the evaluation is never carried out in Z (values of
size p*log(alpha) would defeat sparsity); a random coefficient prime q
is drawn and everything moves to F_q first.  Over a prime field too
small to supply enough evaluation points, an extension F_{q^s} is built
on the fly; over a small extension field the identity is split into
prime-field component identities instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import RandomSource, irreducible_poly, random_prime
from .errors import RingMismatchError, UnsupportedRingError
from .poly import (SparsePoly, cyclic_reduce, eval_sparse, eval_terms,
                   fixed_base_powers, scale)
from .rings import RingSpec, ext_field, prime_field

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class VerifyParams:
    """Failure-budget split constants for one verification run."""

    eps: float
    c1: float
    c2: float
    c3: float | None = None
    path: str = "generic"

    def validate(self) -> None:
        eps, c1, c2, c3 = self.eps, self.c1, self.c2, self.c3
        slack = 1e-9
        if self.path == "generic":
            ok = c1 > 10 / 3 and c2 > 1 and \
                10 / (3 * c1) + (1 - 10 / (3 * c1)) / c2 <= eps + slack
        elif self.path == "integers":
            ok = c1 >= 10 / 3 and c2 >= 10 / 3 and \
                1 - (1 - 10 / (3 * c1)) * (1 - 10 / (3 * c2)) * (1 - 1 / c2) <= eps + slack
        elif self.path == "extension":
            ok = c3 is not None and \
                1 - (1 - 10 / (3 * c1)) * (1 - 1 / c2) * (1 - 1 / c3) <= eps + slack
        else:
            raise ValueError(f"unknown path {self.path!r}")
        if not ok:
            raise ValueError(f"constants do not meet the eps budget on the {self.path} path")

    @classmethod
    def generic(cls, eps: float) -> "VerifyParams":
        # 10/(3c1) <= eps/2 and (1 - .)/c2 <= eps/2
        p = cls(eps, max(4.0, 20.0 / (3.0 * eps)), max(2.0, 2.0 / eps), None, "generic")
        p.validate()
        return p

    @classmethod
    def for_integers(cls, eps: float) -> "VerifyParams":
        # three failure sources at eps/3, eps/3, eps/10
        p = cls(eps, 10.0 / eps, 10.0 / eps, None, "integers")
        p.validate()
        return p

    @classmethod
    def for_extension(cls, eps: float) -> "VerifyParams":
        # three equal shares: 1 - (1 - eps/3)^3 <= eps
        p = cls(eps, 10.0 / eps, 3.0 / eps, 3.0 / eps, "extension")
        p.validate()
        return p


def eval_cyclic_product(F_p: SparsePoly, G_p: SparsePoly, p: int, alpha):
    """Evaluate [(F_p * G_p) mod X^p - 1] at alpha without forming the product.

    Writing c_j for the degree-j coefficient functional of the cyclic
    product against F_p, the values at the support points of G_p satisfy

        c_j = alpha * c_{j-1} + (1 - alpha^p) * f_{(p-j) mod p},

    seeded with c_0 = F_p(alpha).  Iterating the relation across the gap
    between consecutive support points j_k < j_{k+1} of G_p gives

        c_{j_{k+1}} = alpha^(j_{k+1}-j_k) * c_{j_k}
                      + (1 - alpha^p) * sum_{ell=j_k+1}^{j_{k+1}} alpha^(j_{k+1}-ell) * f_{p-ell},

    in which every nonzero coefficient of F_p is consumed exactly once.
    The answer is sum_k c_{j_k} * g_{j_k}.  The powers for c_0, alpha^p
    and every gap power come from one fixed-base table (fixed_base_powers)
    for exponents up to p, whose windows are about log2(#F + #G) bits
    wide, so the walk and the table together take
    O((#F + #G) log p / log(#F + #G)) ring multiplications, all charged
    to the global counter.
    """
    if F_p.ring != G_p.ring:
        raise RingMismatchError("operands live in different rings")
    ring = F_p.ring
    if not ring.is_field:
        raise UnsupportedRingError("cyclic evaluation requires a finite field")
    if p < 1:
        raise ValueError("p must be >= 1")
    if (not F_p.is_zero and F_p.degree >= p) or (not G_p.is_zero and G_p.degree >= p):
        raise ValueError("degrees must be < p")

    zero = ring.zero()
    # lookups: c_0, the window terms, the gaps and alpha^p
    power, settle = fixed_base_powers(ring, alpha, p + 1, 2 * F_p.sparsity + G_p.sparsity + 1)
    c = eval_terms(ring, F_p.terms, power)  # c_0 = F_p(alpha)
    one_minus_ap = ring.sub(ring.one(), power(p))
    # F terms with exponent t > 0 enter window ell = p - t; walk them in
    # increasing ell, i.e. decreasing t.  The t = 0 term lives only in c_0.
    f_desc = [term for term in reversed(F_p.terms) if term[0] > 0]
    idx = 0
    j_prev = 0
    acc = zero
    for j, g_coeff in G_p.terms:
        window = zero
        while idx < len(f_desc):
            t, f_coeff = f_desc[idx]
            ell = p - t
            if ell > j:
                break
            window = ring.add(window, ring.mul(power(j - ell), f_coeff))
            idx += 1
        if j > j_prev:
            c = ring.mul(power(j - j_prev), c)
        if window != zero:
            c = ring.add(c, ring.mul(one_minus_ap, window))
        acc = ring.add(acc, ring.mul(c, g_coeff))
        j_prev = j
    settle()
    return acc


def _split_ext_identity(pairs, H: SparsePoly, eps: float, rng: RandomSource) -> bool:
    """Check sum F_i*G_i = H over a small F_{q^s} by component checks.

    Writing elements as polynomials in Y over F_q, the identity holds iff
    for every j < s the prime-field identity

        sum_i sum_{k,l} lambda[k+l][j] * (F_i)_k * (G_i)_l = H_j

    holds, where lambda[d][j] is the Y^j coordinate of Y^d mod m.  Each
    component is tested with the full eps budget: true components never
    fail, and a false overall identity is false in some component, which
    then rejects with probability >= 1 - eps.
    """
    ring = H.ring
    q, s = ring.q, ring.s
    fq = prime_field(q)

    # lambda rows: Y^d mod m for d = 0 .. 2s-2, little-endian over F_q
    rows = [ring._reduce([0] * d + [1]) for d in range(2 * s - 1)]

    def components(P):
        return [SparsePoly(fq, tuple((e, c[k]) for e, c in P.terms if c[k]))
                for k in range(s)]

    split_pairs = [(components(F), components(G)) for F, G in pairs]
    h_parts = components(H)
    for j in range(s):
        sum_pairs = []
        for f_parts, g_parts in split_pairs:
            for k, f_k in enumerate(f_parts):
                if f_k.is_zero:
                    continue
                for l, g_l in enumerate(g_parts):
                    lam = rows[k + l][j]
                    if lam and not g_l.is_zero:
                        sum_pairs.append((scale(f_k, lam), g_l))
        if not sum_pairs:
            if not h_parts[j].is_zero:
                return False
            continue
        if not verify_sum_sp(h_parts[j], sum_pairs, eps, rng):
            return False
    return True


def _delta_height_bound(pairs, H: SparsePoly) -> int:
    # rigorous bound on || sum F_i G_i - H ||_inf over Z
    total = H.height()
    for F, G in pairs:
        total += min(F.sparsity, G.sparsity) * F.height() * G.height()
    return max(total, 1)


def _residue_in(P: SparsePoly, p: int, field: RingSpec) -> SparsePoly:
    # P mod X^p - 1 with its coefficients mapped into the evaluation field
    P_p = cyclic_reduce(P, p)
    if P.ring == field:
        return P_p
    if P.ring.kind == "integers":
        # into the F_q built once per check (reduce_coeffs_mod_q would build
        # and primality-test a new one per polynomial)
        q = field.q
        return SparsePoly(field, tuple((e, cr) for e, c in P_p.terms if (cr := c % q)))
    return SparsePoly(field, tuple((e, field.coerce(c)) for e, c in P_p.terms))


def _modular_check(pairs, H: SparsePoly, D, sparsity_sum: int, eps: float,
                   rng: RandomSource) -> bool:
    """Shared evaluation core: True iff sum F_i G_i and H evaluate equally
    modulo X^p - 1 at a random point of a large-enough field.

    Each kind of ring picks only the budget split (hence p) and the field:
    a random F_q over Z, the ring itself when it has more than c2*p points,
    and F_{q^s} (s >= 1) over a smaller prime field.
    """
    ring = H.ring
    ln_d = math.log(max(D, 2))

    def lam(params: VerifyParams) -> int:
        return max(21, math.ceil(params.c1 * sparsity_sum * ln_d))

    if ring.kind == "integers":
        params = VerifyParams.for_integers(eps)
    else:
        params = VerifyParams.generic(eps)
        # too small when some possible p leaves it without c2*p points
        if ring.size <= params.c2 * (2 * lam(params)):
            if ring.kind == "ext_field":
                # no tower extensions: split into prime-field component checks
                return _split_ext_identity(pairs, H, eps, rng)
            params = VerifyParams.for_extension(eps)
    p = random_prime(lam(params), 5.0 / (3.0 * params.c1), rng)

    field = ring
    if ring.kind == "integers":
        # ln of the height bound via bit length; overestimating is safe
        ln_height = _delta_height_bound(pairs, H).bit_length() * _LN2
        mu = math.ceil(params.c2 * max(p, math.ceil(ln_height)))
        field = prime_field(random_prime(mu, 5.0 / (3.0 * params.c2), rng))
    elif params.path == "extension":
        s = 1
        while ring.q ** s <= params.c2 * p:
            s += 1
        if s > 1:
            field = ext_field(ring.q, s, irreducible_poly(ring.q, s, 1.0 / params.c3, rng))

    alpha = field.rand_elem(rng)
    lhs = field.zero()
    for F, G in pairs:
        lhs = field.add(lhs, eval_cyclic_product(_residue_in(F, p, field),
                                                 _residue_in(G, p, field), p, alpha))
    return lhs == eval_sparse(_residue_in(H, p, field), alpha)


def verify_sp(F: SparsePoly, G: SparsePoly, H: SparsePoly, eps: float,
              rng: RandomSource) -> bool:
    """Test whether F*G = H.

    Always True when the identity holds; False with probability at least
    1 - eps otherwise.  Works over Z, F_q, and F_{q^s} (any characteristic).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if F.ring != G.ring or F.ring != H.ring:
        raise RingMismatchError("operands live in different rings")
    if F.is_zero or G.is_zero:
        return H.is_zero
    # cheap structural rejects; afterwards deg H bounds every degree
    if H.sparsity > F.sparsity * G.sparsity:
        return False
    if H.degree != F.degree + G.degree:
        return False
    sparsity_sum = F.sparsity * G.sparsity + H.sparsity
    return _modular_check([(F, G)], H, H.degree, sparsity_sum, eps, rng)


def verify_sum_sp(H: SparsePoly, pairs, eps: float, rng: RandomSource) -> bool:
    """Test whether sum_i F_i*G_i = H; same guarantees as verify_sp."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not pairs:
        raise ValueError("pairs must be nonempty")
    for F, G in pairs:
        if F.ring != H.ring or G.ring != H.ring:
            raise RingMismatchError("operands live in different rings")
    live = [(F, G) for F, G in pairs if not F.is_zero and not G.is_zero]
    if not live:
        return H.is_zero
    D = max(F.degree + G.degree for F, G in live)
    if not H.is_zero:
        D = max(D, H.degree)
    sparsity_sum = sum(F.sparsity * G.sparsity for F, G in live) + H.sparsity
    return _modular_check(live, H, D, sparsity_sum, eps, rng)
