"""Probabilistic verification that F*G = H (and sum-of-products variants)
in quasi-linear time.

The test never forms the product: it reduces everything modulo X^p - 1,
evaluates the reduced product at a random field point alpha as
F_p(alpha) * G_p(alpha) plus a wrap term over the pairs of terms whose
exponents sum to p or more (eval_cyclic_product), and compares against
the reduced H.  A true identity always verifies, whatever eps is; a false
one survives with probability at most eps, which sizes the check (_split)
and nothing else.

p is D + 1 for a degree bound D with D + 1 <= lam, the sampling bound:
a difference of degree <= D is its own residue (the classic
Schwartz-Zippel test, and the p-share of eps goes unspent).  Above lam, p
is a random prime from [lam, 2*lam], and the reduction keeps the field
from growing with D.  Every identity takes one check: one p, at most one
extension field and one point.  Over the integers the evaluation is
never carried out in Z (values of size p*log(alpha) would defeat
sparsity); a random coefficient prime q is drawn and the check runs in
F_q.  F, G and H are evaluated in F_q from their own terms
(eval_cyclic_product and poly.eval_sparse with a field), never copied,
as they are in an extension hosting an F_q check.  Every evaluation of a
check reads its values from one fixed-base table of the point
(poly.fixed_base_powers) for exponents below p, built once per check.
A field with more than c2*p points hosts the point itself.  A smaller one is evaluated
in F_{q^S'}, built on the fly over its prime field F_q: S is
least with q^S > c2*p, and S' (arith.cyclotomic_degree) the least
degree in [S, 2S) with S' + 1 a prime modulo which q is a primitive root.
Its modulus Phi_{S'+1} = 1 + Y + ... + Y^S' is irreducible without a
test, and each product reduces by the lane fold of rings.RingSpec._fold:
a shift-add and one multiply-shift-mask by a reciprocal of q act on all
S' digits at once; without such a degree,
S' = S and the modulus is arith.canonical_irreducible(q, S), so the check
field is a function of q and S alone.  A small F_{q^s} enters the
extension through a random linear combination of the identity's F_q
coordinates, whose weights come from its modulus by a recurrence.  The
check field is built anew for every check and held by no cache: a
cyclotomic one builds no reduction rows, only the lane fold's constants
(about 12 us for F_{3^42}, CPython 3.11.7 on a 2-core x86-64 host), far
below the check itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import itemgetter, mul as _int_mul

from .arith import (RandomSource, ceil_bound, cyclotomic_degree, irreducible_poly,
                    lambda_nonzero, random_prime)
from .poly import (SparsePoly, _image_field, _same_ring, _table_bound, cyclic_reduce,
                   eval_sparse, fixed_base_powers, height_bound, ring_sum, term_sum,
                   term_values)
from .rings import RingSpec, _proven_prime_field, add_mul_count

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


def eval_cyclic_product(F_p: SparsePoly, G_p: SparsePoly, p: int, alpha,
                        field: RingSpec | None = None, *, table=None):
    """Evaluate R = (F_p * G_p) mod X^p - 1 at alpha in field (the
    operands' ring by default, or a field holding an image of it, as for
    eval_sparse) without forming the product or copying the operands.

    F_p * G_p = R + (X^p - 1) * Q, where Q = sum f_t g_j X^(t+j-p) over
    the pairs with t + j >= p, so

        R(alpha) = F_p(alpha) * G_p(alpha) + (alpha^-p - 1) * W,
        W = sum_j g_j alpha^j * S(p - j),  S(k) = sum_{t >= k} f_t alpha^t,

    for alpha != 0, as alpha^p * Q(alpha) = W.  Only the terms of G_p
    with j >= p - deg F_p can wrap; when none does (deg F_p + deg G_p < p,
    as at p = D + 1) the value is F_p(alpha) * G_p(alpha) alone.  At
    alpha = 0, Q(0) is the X^p coefficient of F_p * G_p, so R(0) =
    f_0 g_0 + sum_{t+j=p} f_t g_j.

    The values f_t alpha^t and g_j alpha^j come from one fixed-base table
    (fixed_base_powers) for exponents below p, looked up as in
    eval_sparse (poly.term_values).  The table is built here, sized by
    #F_p + #G_p, unless one is passed: it must be of the same alpha in
    the same field (verify_sum_sp passes its check's one table, for the
    bound p), is then not charged here, and a ValueError is raised when
    it does not reach deg F_p and deg G_p.  When no pair wraps, or at
    alpha = 0, F_p(alpha) and G_p(alpha) are summed by poly.term_sum,
    which takes the top window once per run of terms where the top row
    is short.  Otherwise each term's value is kept: the wrapping terms
    of G_p are taken by increasing j, so each S(p - j) is the previous
    one plus the values of F_p it newly reaches, summed by
    poly.ring_sum; the products g_j alpha^j * S(p - j) are raw ints,
    reduced by field._fold over F_{q^s}, summed by one ring_sum and
    charged in bulk.

    The charge is the table, the lookups of F_p and of G_p as term_sum
    or term_values charges them (a term whose coefficient vanishes mod q
    is looked up too: its value is 0), and one product for
    F_p(alpha) * G_p(alpha).  A wrapping pair adds, for alpha != 0, one
    product per wrapping term of G_p, the exponentiation
    alpha^((-p) mod (|F| - 1)) = alpha^-p through ring.pow and one
    product more; at alpha = 0, one product per wrapping term g_j of
    G_p whose partner p - j is an exponent of F_p, the pairs with
    t + j = p, and none for the others.  That is O((#F + #G) log p /
    log(#F + #G) + log |F|) ring multiplications, all charged to the
    global counter.
    """
    field = _image_field(_same_ring(F_p, G_p), field)
    if p < 1:
        raise ValueError("p must be >= 1")
    if (not F_p.is_zero and F_p.degree >= p) or (not G_p.is_zero and G_p.degree >= p):
        raise ValueError("degrees must be < p")
    if F_p.is_zero or G_p.is_zero:
        return 0

    if table is None:
        table = fixed_base_powers(field, alpha, p, F_p.sparsity + G_p.sparsity)
    elif max(F_p.degree, G_p.degree) >= _table_bound(table):
        raise ValueError("the table does not reach deg F_p and deg G_p")
    first = bisect_left(G_p.terms, p - F_p.degree, key=itemgetter(0))
    wraps = G_p.terms[first:]
    if not wraps or not alpha:
        value = field.mul(term_sum(field, F_p.terms, table), term_sum(field, G_p.terms, table))
        if not wraps:
            return value
        f = dict(F_p.terms)
        return reduce(field.add, (field.mul(f[p - j], g) for j, g in wraps if p - j in f), value)
    f_vals = list(term_values(field, F_p.terms, table))
    g_vals = list(term_values(field, G_p.terms, table))
    value = field.mul(ring_sum(field, f_vals), ring_sum(field, g_vals))
    # S(p - j) for each wrapping j, from the smallest j, the shortest
    # suffix, up: each adds the values of F_p's terms it newly reaches
    f_exps = list(map(itemgetter(0), F_p.terms))
    suffixes, suffix, top = [], 0, len(f_vals)
    for j, _ in wraps:
        i = bisect_left(f_exps, p - j)
        suffix = ring_sum(field, [suffix, *f_vals[i:top]])
        suffixes.append(suffix)
        top = i
    products = map(_int_mul, g_vals[first:], suffixes)
    if field.kind == "ext_field":
        products = map(field._fold, products)
    add_mul_count(len(wraps))
    W = ring_sum(field, products)
    return field.add(value, field.mul(field.sub(field.pow(alpha, -p % (field.size - 1)), 1), W))


def _image(P_p: SparsePoly, weights, field: RingSpec) -> SparsePoly:
    """P_p's coefficients mapped into field by c -> sum_l weights[l] * c_l,
    over the F_q coordinates c_l of c, terms whose image is 0 dropped.

    The image is computed once per distinct coefficient (a small
    F_{q^s} has at most q^s - 1 of them) as one int combination of the
    packed weights and one field._fold.  The weights are elements of
    field, with digits in [0, q), and each c_l lies in [0, q), so every
    digit of the combination is at most s(q-1)^2, within the bound
    S'(q-1)^2 that _fold takes for field's degree S' > s.  It is charged
    s mults per term, one per coordinate as s scalar products would be.
    """
    ring = P_p.ring
    coeffs = {c for _, c in P_p.terms}
    images = {c: field._fold(sum(map(_int_mul, weights, ring.residues(c)))) for c in coeffs}
    add_mul_count(ring.s * P_p.sparsity)
    return SparsePoly(field, tuple((e, v) for e, c in P_p.terms if (v := images[c])))


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
    """Test whether sum_i F_i*G_i = H; same guarantees as verify_sp.

    One evaluation core for every ring: True iff sum F_i G_i and H agree
    modulo X^p - 1 at a random point of a large-enough field.  Pairs with
    a zero side drop out; with none left, the answer is whether H is zero.
    D is the largest deg F_i + deg G_i and deg H, and sparsity_sum is
    sum #F_i*#G_i + #H over the pairs left.

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
    is none.  Either way the field has at least q^S > c2*p points.  It is
    built for this check alone (module docstring: no cache).

    A small F_{q^s} (s >= 2) enters F_{q^S'} through its F_q coordinates:
    write elements as polynomials in Y and phi(c) = sum_j beta_j c_j with
    beta_0 = 1 and beta_1 .. beta_{s-1} uniform in F_{q^S'}.  phi is
    F_q-linear and phi(Y^k c) = sum_l w_{k+l} c_l with the weights
    w_d = phi(Y^d mod m): w_d = beta_d for d < s, and, as
    Y^d = -sum_{j<s} m_j Y^(d-s+j) for the modulus m,
    w_d = -sum_{j<s} m_j w_{d-s+j} for d = s .. 2s-2, s scalar products
    each, read off ring.modulus alone.  So
    sum_j beta_j (sum F_i G_i)_j = sum_i sum_{k,l} w_{k+l} (F_i)_k (G_i)_l,
    and by bilinearity of the cyclic-product evaluation E the check
    compares

        sum_i sum_k E((F_i)_k, phi(Y^k G_i))  with  phi(H)(alpha),

    s evaluations per pair, phi applied to each coefficient.

    Over Z and F_q no polynomial is copied into the field: F_i, G_i and H
    are evaluated from their own terms (eval_cyclic_product and
    eval_sparse with the field), as cyclic_reduce(P, p), which is P
    itself at p = D + 1.  Only phi's images of a small F_{q^s} are built.
    Every evaluation reads one table of alpha,
    fixed_base_powers(field, alpha, p, sum(#f + #g) + #h), over the pairs
    (f, g) evaluated and the h compared: exponents below p, and a window
    sized by all of the check's lookups, one per term of every f, g and
    h, each looked up as poly.term_sum or poly.term_values charges it.

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
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not pairs:
        raise ValueError("pairs must be nonempty")
    ring = _same_ring(H, *(F for pair in pairs for F in pair))
    pairs = [(F, G) for F, G in pairs if not F.is_zero and not G.is_zero]
    if not pairs:
        return H.is_zero
    D = max(F.degree + G.degree for F, G in pairs)
    if not H.is_zero:
        D = max(D, H.degree)
    sparsity_sum = sum(F.sparsity * G.sparsity for F, G in pairs) + H.sparsity
    share_p, c2 = _split(eps, ring.kind == "integers")
    lam = lambda_nonzero(sparsity_sum, max(D, 2), share_p)
    # a difference of degree <= D is its own residue mod X^(D+1) - 1
    p = D + 1 if D + 1 <= lam else random_prime(lam, rng)

    field = ring
    if ring.kind == "integers":
        # ln of a bound on ||sum F_i G_i - H||: the larger bit length plus
        # one bit for the sum; overestimating is safe
        h_bits = max(map(int.bit_length, map(itemgetter(1), H.terms)), default=0)
        ln_height = (max(h_bits, height_bound(pairs).bit_length()) + 1) * _LN2
        mu = ceil_bound(c2, max(p, math.ceil(ln_height)))
        # random_prime certified q, so the field is built without a
        # second test
        field = _proven_prime_field(random_prime(mu, rng))
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
        # w_d = phi(Y^d mod m) by the modulus recurrence, d = s .. 2s-2
        w = list(beta)
        neg_m = [-c for c in ring.modulus[:-1]]
        for _ in range(ring.s - 1):
            w.append(reduce(field.add, map(field.smul, w[-ring.s:], neg_m)))

        def factors(F, G):  # (F_k, phi(Y^k G)) for k < s
            # a residue of F is a prime-subfield element, so an element of
            # field as it stands
            F_r = [(e, ring.residues(c)) for e, c in cyclic_reduce(F, p).terms]
            G_p = cyclic_reduce(G, p)
            return [(SparsePoly(field, tuple((e, c[k]) for e, c in F_r if c[k])),
                     _image(G_p, w[k:], field)) for k in range(ring.s)]

        h = _image(cyclic_reduce(H, p), beta, field)
    else:
        def factors(F, G):  # F and G themselves at p = D + 1
            return [(cyclic_reduce(F, p), cyclic_reduce(G, p))]

        h = cyclic_reduce(H, p)

    evaluations = [fg for F, G in pairs for fg in factors(F, G)]
    # one table of alpha for the check: every exponent evaluated is below p
    table = fixed_base_powers(field, alpha, p, sum(
        f.sparsity + g.sparsity for f, g in evaluations) + h.sparsity)
    lhs = 0
    for f, g in evaluations:
        lhs = field.add(lhs, eval_cyclic_product(f, g, p, alpha, field, table=table))
    return lhs == eval_sparse(h, alpha, field, table=table)
