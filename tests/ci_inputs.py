"""The polynomial files the CI workflow feeds the installed spmul CLI.

Run it from the directory that should receive them:

    python tests/ci_inputs.py

It writes two sets of pairs, each from its own fixed seed:

* za/zb and qa/qb.poly (wrapping_pairs): 6 x 6 terms over Z with
  exponents near 10^30, and over F_(2^61 - 1) with exponents near 10^15.
  Their products wrap modulo X^p - 1 (an operand's degree exceeds the
  cyclic prime p), and their degrees exceed the verifier's bound lam, so
  they are the only CLI inputs in CI whose check takes the cyclic route
  (a random prime p in [lam, 2*lam]).
* z3a/z3b and f3a/f3b.poly (trivariate_pairs): 3-variable files of 8
  terms with partial degrees below 4, over Z and over F_9, whose product
  lifts through Z.

test_cli imports wrapping_pairs, so the pairs it checks for the cyclic
route are the ones CI runs.
"""

import random

Q61 = 2 ** 61 - 1


def wrapping_pairs() -> dict:
    """{file name: text} of the two wrapping pairs."""
    rnd = random.Random(1)
    files = {}
    for name, head, emax, cmax in (("z", "ring int", 10 ** 30, 2 ** 20),
                                   ("q", f"field {Q61} 1", 10 ** 15, Q61 - 1)):
        for side in "ab":
            exps = set()
            while len(exps) < 6:
                exps.add(rnd.randrange(emax // 2, emax))
            files[name + side + ".poly"] = head + "\nvars 1\n" + "".join(
                f"term {rnd.randint(1, cmax)} {e}\n" for e in exps)
    return files


def trivariate_pairs() -> dict:
    """{file name: text} of the two 3-variable pairs."""
    rnd = random.Random(2)
    z = [str(c) for c in range(-9, 10) if c]
    f9 = [f"{a},{b}" for a in range(3) for b in range(3) if a or b]
    files = {}
    for name, head, coeffs in (("z3", "ring int", z), ("f3", "field 3 2", f9)):
        for side in "ab":
            exps = set()
            while len(exps) < 8:
                exps.add(tuple(rnd.randrange(4) for _ in range(3)))
            files[name + side + ".poly"] = head + "\nvars 3\n" + "".join(
                f"term {rnd.choice(coeffs)} {a} {b} {c}\n" for a, b, c in exps)
    return files


def main() -> None:
    for name, text in {**wrapping_pairs(), **trivariate_pairs()}.items():
        with open(name, "w") as out:
            out.write(text)


if __name__ == "__main__":
    main()
