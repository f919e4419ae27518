"""The polynomial files the CI workflow feeds the installed spmul CLI.

Run it from the directory that should receive them:

    python tests/ci_inputs.py

It writes ten sets of pairs, each from its own fixed seed:

* za/zb, qa/qb, f9a/f9b and x3a/x3b.poly (wrapping_pairs): 6 x 6 terms
  over Z with exponents near 10^30, over F_(2^61 - 1) with exponents near
  10^15, over F_9 with exponents near 10^15, and over F_((2^61 - 1)^3)
  with exponents in [10^11, 10^12).  Their products wrap modulo X^p - 1
  (an operand's degree exceeds the cyclic prime p; F_9 products are taken
  through Z, while the x3 product is interpolated in F_((2^61 - 1)^3)
  itself, by the two-pair job of the derivative's residue as well), and
  their degrees exceed the verifier's bound lam, so
  they are the only CLI inputs in CI whose check takes the cyclic route
  (a random prime p in [lam, 2*lam]).  The F_9 check runs in
  F_3[Y]/(Phi_43), an extension of degree 42; the x3 check runs in the
  ring itself, whose canonical modulus is reduced through the row fold.
* z3a/z3b and f3a/f3b.poly (trivariate_pairs): 3-variable files of 8
  terms with partial degrees below 4, over Z and over F_9, whose product
  lifts through Z.
* f256a/f256b.poly (f256_pair): 8 terms each over F_256 = F_(2^8) with
  exponents below 10^4, whose check runs at p = D + 1 in
  F_2[Y]/(Phi_37) = F_(2^36), so a field of characteristic 2 goes
  through the cyclotomic check field end to end.
* x3na/x3nb.poly (extension_pair): 8 x 8 terms over F_((2^61 - 1)^3)
  with exponents below 10^4.  No operand wraps, so the product is
  interpolated in that field by jobs of the one pair (F, G), and checked
  at p = D + 1 in the ring itself.
* x2a/x2b.poly (quadratic_pair): 8 x 8 terms over F_((2^61 - 1)^2), whose
  canonical modulus is Y^2 + 1, with exponents below 10^4.  The product
  is interpolated in that field itself: its walks drop their slot sums
  at s = 2 and read its 64 distinct sums as lone terms, and the check
  runs at p = D + 1 in the ring itself, so every F_(q^2) operation goes
  through the row fold at s = 2 and a large q.
* rza/rzb.poly (random_pair): 64 x 64 terms over Z with exponents below
  10^9 and coefficients below 2^30 in absolute value, shaped like the
  benchmark's largest random_z product (about 4,000 output terms).  Its
  product runs two interpolation jobs: the first overflows, and the
  exponent floor counted there sizes the second, which draws its prime
  from its pool and ends in one walk, the slots whose terms collide at
  that prime repaired from the operands.
* rz128a/rz128b.poly (random_pair_128): the same at 128 x 128 terms, about
  16,000 output terms.  Its final job draws from about 944,000 primes, a
  pool whose sieve spans several segments.
* bigza/bigzb.poly (large_pair): 200 x 200 terms over Z with exponents
  below 10^9, whose product has about 40,000 terms.  Its check runs at
  p = D + 1 and evaluates that H in F_q from its own terms; CI verifies
  it in a step of its own, after the loop over the pairs above.
* bigf9a/bigf9b.poly (small_field_pair): 300 x 300 terms over F_9 with
  exponents below 10^6, whose product has about 87,000 terms.  Its check
  runs at p = D + 1 in an extension F_(3^S') of F_3, with every
  evaluation reading the check's one power table; CI verifies it in a
  step of its own, as it does the large pair.
* bigf256a/bigf256b.poly (small_field_pair_2): 200 x 200 terms over
  F_256 = F_(2^8) with exponents below 10^6, whose product has about
  40,000 terms.  Its check runs at p = D + 1 in an extension F_(2^S')
  of F_2, the characteristic-2 case of the check field's lane width;
  CI verifies it in the same step as the F_9 pair.

test_cli imports wrapping_pairs, f256_pair, extension_pair,
quadratic_pair, random_pair, random_pair_128 and large_pair, so the pairs
it checks for the cyclic route, the x3, x3n and x2 pairs it checks for
interpolation in their extension field, the F_256 pair whose check field
it checks, the random pairs whose jobs and pools it checks, and the large
pair it verifies, are the ones CI runs.
"""

import random

Q61 = 2 ** 61 - 1
# the nonzero elements of F_9 in the file format
F9 = [f"{a},{b}" for a in range(3) for b in range(3) if a or b]


def wrapping_pairs() -> dict:
    """{file name: text} of the four wrapping pairs."""
    rnd = random.Random(1)
    files = {}
    for name, head, emax, coeff in (
            ("z", "ring int", 10 ** 30, lambda: rnd.randint(1, 2 ** 20)),
            ("q", f"field {Q61} 1", 10 ** 15, lambda: rnd.randint(1, Q61 - 1)),
            ("f9", "field 3 2", 10 ** 15, lambda: rnd.choice(F9)),
            ("x3", f"field {Q61} 3", 10 ** 12,
             lambda: ",".join(str(rnd.randint(1, Q61 - 1)) for _ in range(3)))):
        for side in "ab":
            exps = set()
            while len(exps) < 6:
                exps.add(rnd.randrange(emax // 2, emax))
            files[name + side + ".poly"] = head + "\nvars 1\n" + "".join(
                f"term {coeff()} {e}\n" for e in exps)
    return files


def trivariate_pairs() -> dict:
    """{file name: text} of the two 3-variable pairs."""
    rnd = random.Random(2)
    z = [str(c) for c in range(-9, 10) if c]
    files = {}
    for name, head, coeffs in (("z3", "ring int", z), ("f3", "field 3 2", F9)):
        for side in "ab":
            exps = set()
            while len(exps) < 8:
                exps.add(tuple(rnd.randrange(4) for _ in range(3)))
            files[name + side + ".poly"] = head + "\nvars 3\n" + "".join(
                f"term {rnd.choice(coeffs)} {a} {b} {c}\n" for a, b, c in exps)
    return files


def f256_pair() -> dict:
    """{file name: text} of the pair over F_256."""
    rnd = random.Random(4)

    def coeff():  # a nonzero element in the file format: 8 bits, not all 0
        c = rnd.randrange(1, 256)
        return ",".join(str(c >> i & 1) for i in range(8))

    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < 8:
            exps.add(rnd.randrange(10 ** 4))
        files["f256" + side + ".poly"] = "field 2 8\nvars 1\n" + "".join(
            f"term {coeff()} {e}\n" for e in exps)
    return files


def extension_pair(s: int = 3, seed: int = 8, name: str = "x3n") -> dict:
    """{file name: text} of an 8 x 8 pair over F_((2^61 - 1)^s) with
    exponents below 10^4, which does not wrap; at s = 3 by default."""
    rnd = random.Random(seed)
    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < 8:
            exps.add(rnd.randrange(10 ** 4))
        files[name + side + ".poly"] = f"field {Q61} {s}\nvars 1\n" + "".join(
            f"term {','.join(str(rnd.randint(1, Q61 - 1)) for _ in range(s))} {e}\n"
            for e in exps)
    return files


def quadratic_pair() -> dict:
    """{file name: text} of the 8 x 8 pair over F_((2^61 - 1)^2)."""
    return extension_pair(2, 9, "x2")


def random_pair(t: int = 64, seed: int = 5, name: str = "rz") -> dict:
    """{file name: text} of a t x t pair over Z, 64 x 64 by default."""
    rnd = random.Random(seed)
    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < t:
            exps.add(rnd.randrange(10 ** 9))
        files[name + side + ".poly"] = "ring int\nvars 1\n" + "".join(
            f"term {rnd.choice((-1, 1)) * rnd.randint(1, 2 ** 30 - 1)} {e}\n" for e in exps)
    return files


def large_pair() -> dict:
    """{file name: text} of the 200 x 200 pair over Z."""
    rnd = random.Random(3)
    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < 200:
            exps.add(rnd.randrange(10 ** 9))
        files["bigz" + side + ".poly"] = "ring int\nvars 1\n" + "".join(
            f"term {rnd.choice((-1, 1)) * rnd.randint(1, 2 ** 30)} {e}\n" for e in exps)
    return files


def small_field_pair() -> dict:
    """{file name: text} of the 300 x 300 pair over F_9."""
    rnd = random.Random(10)
    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < 300:
            exps.add(rnd.randrange(10 ** 6))
        files["bigf9" + side + ".poly"] = "field 3 2\nvars 1\n" + "".join(
            f"term {rnd.choice(F9)} {e}\n" for e in exps)
    return files


def small_field_pair_2() -> dict:
    """{file name: text} of the 200 x 200 pair over F_256."""
    rnd = random.Random(11)

    def coeff():  # a nonzero element in the file format: 8 bits, not all 0
        c = rnd.randrange(1, 256)
        return ",".join(str(c >> i & 1) for i in range(8))

    files = {}
    for side in "ab":
        exps = set()
        while len(exps) < 200:
            exps.add(rnd.randrange(10 ** 6))
        files["bigf256" + side + ".poly"] = "field 2 8\nvars 1\n" + "".join(
            f"term {coeff()} {e}\n" for e in exps)
    return files


def random_pair_128() -> dict:
    """{file name: text} of the 128 x 128 pair over Z."""
    return random_pair(128, 6, "rz128")


def main() -> None:
    for name, text in {**wrapping_pairs(), **trivariate_pairs(), **f256_pair(),
                       **extension_pair(), **quadratic_pair(), **random_pair(),
                       **random_pair_128(), **large_pair(), **small_field_pair(),
                       **small_field_pair_2()}.items():
        with open(name, "w") as out:
            out.write(text)


if __name__ == "__main__":
    main()
