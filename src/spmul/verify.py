"""Probabilistic verification that F*G = H (and sum-of-products variants)
in quasi-linear time.

The test never forms the product: it reduces everything modulo X^p - 1,
evaluates the reduced product at a random field point via a circulant
recurrence, and compares against the reduced H.  A true identity always
verifies, whatever eps is; a false one survives with probability at most
eps, which sizes the check (_split) and nothing else.

p is D + 1 for a degree bound D with D + 1 <= lam, the sampling bound:
a difference of degree <= D is its own residue (the classic
Schwartz-Zippel test, and the p-share of eps goes unspent).  Above lam, p
is a random prime from [lam, 2*lam], and the reduction keeps the field
from growing with D.  Every identity takes one check: one p, at most one
extension field and one point.  Over the integers the evaluation is
never carried out in Z (values of size p*log(alpha) would defeat
sparsity); a random coefficient prime q is drawn and the check runs in
F_q.  The factors' residues are copied into F_q first, but H, the large
side, is evaluated in F_q from its own terms (poly.eval_sparse with a
field), never copied.  A field
with more than c2*p points hosts the point itself.  A smaller one is
evaluated in F_{q^S'}, built on the fly over its prime field F_q: S is
least with q^S > c2*p, and S' (arith.cyclotomic_degree) the least
degree in [S, 2S) with S' + 1 a prime modulo which q is a primitive root.
Its modulus Phi_{S'+1} = 1 + Y + ... + Y^S' is irreducible without a
test and reduces each product by a cyclic fold; without such a degree,
S' = S and the modulus is arith.canonical_irreducible(q, S), so the check
field is a function of q and S alone.  A small F_{q^s} enters the
extension through a random linear combination of the identity's F_q
coordinates.
"""

from __future__ import annotations

import math
from functools import reduce

from .arith import (RandomSource, ceil_bound, cyclotomic_degree, irreducible_poly,
                    lambda_nonzero, random_prime)
from .errors import UnsupportedRingError
from .poly import (SparsePoly, _same_ring, cyclic_reduce, eval_sparse, eval_terms,
                   fixed_base_powers, height_bound)
from .rings import RingSpec, prime_field

_LN2 = math.log(2.0)


def _split(eps: float, over_z: bool) -> tuple[float, float]:
    """The p-share and the constant c2 that size one check at failure
    budget eps.

    A check fails to reject a false identity only if the difference
    vanishes modulo X^p - 1 (probability at most the p-share, for p drawn
    above lambda_nonzero at that share, and zero at p = D + 1), or, over
    Z, if the coefficient prime q divides every coefficient of the
    reduced difference (at most 10/(3*c2)), or if the random point is a
    root (at most 1/c2).  Over Z
    the three sources get eps/3 + eps/3 + eps/10, so the p-share is eps/3
    and c2 = 10/eps; over a field the first and last get eps/2 + eps/2, so
    the p-share is eps/2 and c2 = 2/eps.
    """
    if over_z:
        return eps / 3.0, 10.0 / eps
    return eps / 2.0, 2.0 / eps


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
    ring = _same_ring(F_p, G_p)
    if not ring.is_field:
        raise UnsupportedRingError("cyclic evaluation requires a finite field")
    if p < 1:
        raise ValueError("p must be >= 1")
    if (not F_p.is_zero and F_p.degree >= p) or (not G_p.is_zero and G_p.degree >= p):
        raise ValueError("degrees must be < p")

    # lookups: c_0, the window terms, the gaps and alpha^p
    power, settle = fixed_base_powers(ring, alpha, p + 1, 2 * F_p.sparsity + G_p.sparsity + 1)
    c = eval_terms(ring, F_p.terms, power)  # c_0 = F_p(alpha)
    one_minus_ap = ring.sub(1, power(p))
    # F terms with exponent t > 0 enter window ell = p - t; walk them in
    # increasing ell, i.e. decreasing t.  The t = 0 term lives only in c_0.
    f_desc = [term for term in reversed(F_p.terms) if term[0] > 0]
    idx = 0
    j_prev = 0
    acc = 0
    for j, g_coeff in G_p.terms:
        window = 0
        while idx < len(f_desc):
            t, f_coeff = f_desc[idx]
            ell = p - t
            if ell > j:
                break
            window = ring.add(window, ring.mul(power(j - ell), f_coeff))
            idx += 1
        if j > j_prev:
            c = ring.mul(power(j - j_prev), c)
        if window:
            c = ring.add(c, ring.mul(one_minus_ap, window))
        acc = ring.add(acc, ring.mul(c, g_coeff))
        j_prev = j
    settle()
    return acc


def _residue_in(P: SparsePoly, p: int, field: RingSpec) -> SparsePoly:
    # P mod X^p - 1 with its coefficients mapped into the evaluation field
    P_p = cyclic_reduce(P, p)
    if P.ring == field:
        return P_p
    if P.ring.kind == "integers":
        # into the F_q built once per check, not a new (primality-tested)
        # prime_field(q) per polynomial
        q = field.q
        return SparsePoly(field, tuple((e, cr) for e, c in P_p.terms if (cr := c % q)))
    # an F_q element is its own image in an extension of F_q
    return SparsePoly(field, P_p.terms)


def _image(P_p: SparsePoly, weights, field: RingSpec) -> SparsePoly:
    # sum_l weights[l] * (coordinate l of P_p), over the evaluation field
    residues = P_p.ring.residues
    return SparsePoly(field, tuple(
        (e, v) for e, c in P_p.terms
        if (v := reduce(field.add, map(field.smul, weights, residues(c))))))


def _modular_check(pairs, H: SparsePoly, D, sparsity_sum: int, eps: float,
                   rng: RandomSource) -> bool:
    """The one evaluation core: True iff sum F_i G_i and H agree modulo
    X^p - 1 at a random point of a large-enough field.

    eps sizes the check and nothing else: (share_p, c2) = _split(eps,
    over Z) and lam = lambda_nonzero(sparsity_sum, max(D, 2), share_p).
    When D + 1 <= lam, p = D + 1 and nothing is drawn: the reduction is
    the identity, and p need not be prime.  Otherwise p is a random prime
    from [lam, 2*lam], the paper's cyclic route.  The point lives in a
    random F_q over Z, in the ring itself when it has more than c2*p
    points, and otherwise in F_{q^S'} over the ring's prime field F_q,
    where S is least with q^S > c2*p and S' = cyclotomic_degree(q, S):
    the least degree in [S, 2S) whose field is F_q[Y]/(Phi_{S'+1}), or S
    itself, with the modulus arith.canonical_irreducible(q, S), when there
    is none.  Either way the field has at least q^S > c2*p points.

    A small F_{q^s} (s >= 2) enters F_{q^S'} through its F_q coordinates:
    write elements as polynomials in Y, lambda[d] for the coordinates of
    Y^d mod m, and phi(c) = sum_j beta_j c_j with beta_0 = 1 and
    beta_1 .. beta_{s-1} uniform in F_{q^S'}.  phi is F_q-linear and
    phi(Y^k c) = sum_l w_{k+l} c_l with w_d = sum_j beta_j lambda[d][j],
    so sum_j beta_j (sum F_i G_i)_j = sum_i sum_{k,l} w_{k+l} (F_i)_k (G_i)_l,
    and by bilinearity of the cyclic-product evaluation E the check
    compares

        sum_i sum_k E((F_i)_k, phi(Y^k G_i))  with  phi(H)(alpha),

    s evaluations per pair, phi applied to each coefficient.

    Over Z and F_q, H is evaluated from its own terms, never copied into
    the field: eval_sparse with the field takes H itself at p = D + 1 and
    cyclic_reduce(H, p) on the cyclic route.  Only the factors, and the
    image phi(H) of a small F_{q^s}, are copied.

    Soundness.  Let D_j be coordinate j of sum F_i G_i - H.  Its support
    lies in supp(sum F_i G_i) u supp(H), so it has at most sparsity_sum
    terms and degree at most D.  At p = D + 1 a nonzero D_j is its own
    residue, so the share_p goes unspent; at a prime p >= lam it stays
    nonzero modulo X^p - 1 except with probability share_p.  Then
    sum_j beta_j D_j(alpha), taken modulo X^p - 1, is a nonzero
    polynomial of total degree at most p in (alpha, beta_1 .. beta_{s-1}),
    which vanishes at a uniform point with probability at most
    p/|F_{q^S'}| < 1/c2 (Schwartz-Zippel), the last share of the budget
    split.  A true identity has every D_j = 0, so it always passes; only
    the random searches for a prime p and for q can fail, each with a
    RetryBudgetError of probability at most e^-64 whatever eps is.
    """
    ring = H.ring
    share_p, c2 = _split(eps, ring.kind == "integers")
    lam = lambda_nonzero(sparsity_sum, max(D, 2), share_p)
    # a difference of degree <= D is its own residue mod X^(D+1) - 1
    p = D + 1 if D + 1 <= lam else random_prime(lam, rng)

    field = ring
    if ring.kind == "integers":
        # ln of a bound on ||sum F_i G_i - H|| via bit length; overestimating is safe
        ln_height = (H.height() + height_bound(pairs)).bit_length() * _LN2
        mu = ceil_bound(c2, max(p, math.ceil(ln_height)))
        field = prime_field(random_prime(mu, rng))
    elif ring.size <= c2 * p:
        s = ring.s + 1
        while ring.q ** s <= c2 * p:
            s += 1
        s = cyclotomic_degree(ring.q, s)
        # irreducible_poly proves its modulus irreducible, so the field is
        # built directly rather than through ext_field's second test
        field = RingSpec("ext_field", q=ring.q, s=s,
                         modulus=irreducible_poly(ring.q, s))

    alpha = field.rand_elem(rng)
    if ring.kind == "ext_field" and field != ring:
        beta = [1] + [field.rand_elem(rng) for _ in range(ring.s - 1)]
        w = [reduce(field.add, map(field.smul, beta, row)) for row in ring._yrows]

        def factors(F, G):  # (F_k, phi(Y^k G)) for k < s
            # a residue of F is a prime-subfield element, so an element of
            # field as it stands
            F_r = [(e, ring.residues(c)) for e, c in cyclic_reduce(F, p).terms]
            G_p = cyclic_reduce(G, p)
            return [(SparsePoly(field, tuple((e, c[k]) for e, c in F_r if c[k])),
                     _image(G_p, w[k:], field)) for k in range(ring.s)]

        h = _image(cyclic_reduce(H, p), beta, field)
    else:
        def factors(F, G):
            return [(_residue_in(F, p, field), _residue_in(G, p, field))]

        h = cyclic_reduce(H, p)  # H itself at p = D + 1

    lhs = 0
    for F, G in pairs:
        for f, g in factors(F, G):
            lhs = field.add(lhs, eval_cyclic_product(f, g, p, alpha))
    return lhs == eval_sparse(h, alpha, field)


def verify_sp(F: SparsePoly, G: SparsePoly, H: SparsePoly, eps: float,
              rng: RandomSource) -> bool:
    """Test whether F*G = H.

    Always True when the identity holds; False with probability at least
    1 - eps otherwise.  Works over Z, F_q, and F_{q^s} (any characteristic).
    The primes it draws are certified by arith.is_prime, exact only below
    3.3e24 and wrong with probability <= 2^-80 above, so an eps below
    2^-80 is honoured only while every prime drawn stays below 3.3e24.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _same_ring(F, G, H)
    # cheap structural rejects (zero degrees are -inf); afterwards deg H
    # bounds every degree
    if H.sparsity > F.sparsity * G.sparsity:
        return False
    if H.degree != F.degree + G.degree:
        return False
    return verify_sum_sp(H, [(F, G)], eps, rng)


def verify_sum_sp(H: SparsePoly, pairs, eps: float, rng: RandomSource) -> bool:
    """Test whether sum_i F_i*G_i = H; same guarantees as verify_sp."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not pairs:
        raise ValueError("pairs must be nonempty")
    _same_ring(H, *(F for pair in pairs for F in pair))
    live = [(F, G) for F, G in pairs if not F.is_zero and not G.is_zero]
    if not live:
        return H.is_zero
    D = max(F.degree + G.degree for F, G in live)
    if not H.is_zero:
        D = max(D, H.degree)
    sparsity_sum = sum(F.sparsity * G.sparsity for F, G in live) + H.sparsity
    return _modular_check(live, H, D, sparsity_sum, eps, rng)
