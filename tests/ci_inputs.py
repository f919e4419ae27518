"""The polynomial files the CI workflow feeds the installed spmul CLI.

Run it from the directory that should receive them:

    python tests/ci_inputs.py

It writes three sets of pairs, each from its own fixed seed:

* za/zb, qa/qb, f9a/f9b and x3a/x3b.poly (wrapping_pairs): 6 x 6 terms
  over Z with exponents near 10^30, over F_(2^61 - 1) with exponents near
  10^15, over F_9 with exponents near 10^15, and over F_((2^61 - 1)^3)
  with exponents in [10^11, 10^12).  Their products wrap modulo X^p - 1
  (an operand's degree exceeds the cyclic prime p; F_9 products are taken
  through Z, while the x3 product is interpolated in F_((2^61 - 1)^3)
  itself, the only CI product whose terms find_terms reads off in an
  extension field), and their degrees exceed the verifier's bound lam, so
  they are the only CLI inputs in CI whose check takes the cyclic route
  (a random prime p in [lam, 2*lam]).  The F_9 check runs in
  F_3[Y]/(Phi_43), an extension of degree 42; the x3 check runs in the
  ring itself, whose canonical modulus is reduced through the row fold.
* z3a/z3b and f3a/f3b.poly (trivariate_pairs): 3-variable files of 8
  terms with partial degrees below 4, over Z and over F_9, whose product
  lifts through Z.
* bigza/bigzb.poly (large_pair): 200 x 200 terms over Z with exponents
  below 10^9, whose product has about 40,000 terms.  Its check runs at
  p = D + 1 and evaluates that H in F_q from its own terms; CI verifies
  it in a step of its own, after the loop over the pairs above.

test_cli imports wrapping_pairs and large_pair, so the pairs it checks
for the cyclic route, the x3 pair it checks for interpolation in its
extension field, and the large pair it verifies, are the ones CI runs.
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


def main() -> None:
    for name, text in {**wrapping_pairs(), **trivariate_pairs(), **large_pair()}.items():
        with open(name, "w") as out:
            out.write(text)


if __name__ == "__main__":
    main()
