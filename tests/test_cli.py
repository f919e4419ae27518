import csv
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spmul import (PolyFileError, RetryBudgetError, RingSpec, SparsityBoundError, canonicalize,
                   canonicalize_multi, ext_field, integers, kronecker, lambda_nonzero,
                   multivar_product_smallchar, naive_mul_multi, prime_field)
from spmul import arith, cli, interp, multivar, product, verify
from spmul.cli import DEFAULT_EPSILON, format_poly, parse_poly, run_command

import ci_inputs
from helpers import (Q62, as_multi, rand_multi, rand_sparse, reference_parse_poly,
                     watch_cyclic_evaluations)

ZZ = integers()

F_TEXT = "ring int\nvars 1\nterm 2 7\nterm 1 14\nterm 2 0\n"
G_TEXT = "ring int\nvars 1\nterm 3 13\nterm 5 8\nterm 3 0\n"

FG_TEXT = ("ring int\nvars 1\n"
           "term 6 0\nterm 6 7\nterm 10 8\nterm 6 13\nterm 3 14\n"
           "term 10 15\nterm 6 20\nterm 5 22\nterm 3 27\n")

F9_A_TEXT = "field 3 2\nvars 1\nterm 1,2 0\nterm 2,0 3\nterm 1,1 7\nterm 0,1 12\n"
F9_B_TEXT = "field 3 2\nvars 1\nterm 2,2 1\nterm 1,0 5\nterm 0,2 9\nterm 1,1 20\n"


class TestParseFormat:
    def test_parse_example_polynomial(self):
        f = parse_poly(F_TEXT)
        assert f.nvars == 1
        assert f.terms == (((0,), 2), ((7,), 2), ((14,), 1))

    def test_empty_term_list_is_zero(self):
        assert parse_poly("ring int\nvars 1\n").is_zero

    def test_comments_and_blank_lines(self):
        text = "# header comment\nring int\n\nvars 1\nterm 5 3 # trailing\n"
        assert parse_poly(text).terms == (((3,), 5),)

    def test_round_trip_univariate(self):
        rnd = random.Random(1)
        for ring in (ZZ, prime_field(101), ext_field(3, 2)):
            for _ in range(20):
                f = as_multi(rand_sparse(rnd, ring, 8, 10 ** 6, 2 ** 20))
                text = format_poly(f)
                assert parse_poly(text) == f
                # the same terms, their lines in reverse order, parse to f too
                head, vars_line, *terms = text.splitlines(keepends=True)
                assert parse_poly("".join([head, vars_line, *terms[::-1]])) == f

    def test_field_built_once_per_header(self, monkeypatch):
        # verify parses three files with one header: the field, and the
        # search for its canonical modulus, is built for the first only
        calls = []
        real = arith.canonical_irreducible

        def canonical_irreducible(q, s):
            calls.append((q, s))
            return real(q, s)

        monkeypatch.setattr(arith, "canonical_irreducible", canonical_irreducible)
        cli._field.cache_clear()
        try:
            polys = [parse_poly(f"field 3 5\nvars 1\nterm 1,0,0,0,{k} {k}\n") for k in (1, 2, 1)]
        finally:
            cli._field.cache_clear()
        assert calls == [(3, 5)]
        assert polys[0] == polys[2] and polys[0].ring is polys[1].ring

    def test_round_trip_multivariate(self):
        # the extension fields cover each width the bulk residue conversion
        # packs at: F_9 and F_(101^2) elements are 2 and 8 bytes (array
        # items), F_(3^3) and F_(Q62^2) ones 3 and 48 bytes (not)
        rnd = random.Random(2)
        for ring in (ZZ, prime_field(7), ext_field(3, 2), ext_field(101, 2), ext_field(3, 3),
                     ext_field(Q62, 2)):
            for _ in range(20):
                f = rand_multi(rnd, ring, 3, 6, 9, 50)
                assert parse_poly(format_poly(f)) == f

    def test_ext_field_coefficients(self):
        f9 = ext_field(3, 2)
        f = canonicalize_multi([((4,), (2, 1)), ((0,), (0, 1))], 1, f9)
        assert [(e, f9.residues(c)) for e, c in f.terms] == [((0,), (0, 1)), ((4,), (2, 1))]
        text = format_poly(f)
        assert "term 0,1 0" in text and "term 2,1 4" in text
        assert parse_poly(text) == f

    def test_field_header_prime(self):
        f = parse_poly("field 7 1\nvars 1\nterm 3 2\n")
        assert f.ring == prime_field(7)

    def test_malformed_header(self):
        with pytest.raises(PolyFileError):
            parse_poly("ring rational\nvars 1\n")
        with pytest.raises(PolyFileError):
            parse_poly("field 8 1\nvars 1\n")  # 8 not prime
        # psi_12, composite though a strong pseudoprime to the first 12
        # prime bases
        with pytest.raises(PolyFileError, match="^line 1: prime field needs a prime q$"):
            parse_poly("field 318665857834031151167461 1\nvars 1\n")

    def test_out_of_range_coefficient(self):
        with pytest.raises(PolyFileError):
            parse_poly("field 7 1\nvars 1\nterm 9 2\n")
        with pytest.raises(PolyFileError):
            parse_poly("field 7 1\nvars 1\nterm -1 2\n")

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(PolyFileError):
            parse_poly("ring int\nvars 1\nterm 1 3\nterm 2 3\n")

    def test_zero_coefficient_rejected(self):
        with pytest.raises(PolyFileError):
            parse_poly("ring int\nvars 1\nterm 0 3\n")

    def test_wrong_exponent_count(self):
        with pytest.raises(PolyFileError):
            parse_poly("ring int\nvars 2\nterm 1 3\n")

    @pytest.mark.parametrize("text, reason", [
        ("field 7\nvars 1\n", "line 1: field header needs q and s"),
        ("field seven 1\nvars 1\n", "line 1: field parameters must be integers"),
        ("field 7 one\nvars 1\n", "line 1: field parameters must be integers"),
        ("ring int\nvars 1\nterm 2x 3\n", "line 3: bad coefficient '2x'"),
        ("ring int\nvars 1\nterm 1,2 3\n", "line 3: integer coefficients take one value"),
        ("field 3 2\nvars 1\nterm 1,3 0\n", "line 3: coefficient out of field range"),
        ("# no vars line\nring int\n", "line 3: expected 'vars <n>'"),
        ("", "line 1: expected 'ring int' or 'field <q> <s>'"),
        ("ring int\nnvars 1\n", "line 2: expected 'vars <n>'"),
        ("ring int\nvars two\n", "line 2: vars count must be an integer"),
        ("ring int\nvars 0\n", "line 2: vars count must be >= 1"),
        ("ring int\nvars 1\nterm 1 0\nterms 2 1\n", "line 4: expected a term record"),
        ("ring int\nvars 2\nterm 1 0 y\n", "line 3: exponents must be integers"),
        ("# comment\nring int\n\nvars 1\nterm 1 -1\n", "line 5: exponents must be nonnegative"),
        ("ring int\nvars 1\nterm 0 3\n", "line 3: zero coefficient; files must be canonical"),
        ("ring int\nvars 1\nterm 1 3\n\nterm 2 3\n",
         "line 5: duplicate exponent; files must be canonical"),
        ("ring int\nvars 2\nterm 1 3\n", "line 3: term needs a coefficient and 2 exponents"),
        ("field 3 2\nvars 1\nterm 1 0\n", "line 3: coefficient out of field range"),
        ("field 7 1\nvars 1\nterm 9 2\n", "line 3: coefficient out of field range"),
        # line 3 fails a later check than line 5 does; line 3 is reported
        ("ring int\nvars 1\nterm 1 -2\n# comment\nterms 2 1\n",
         "line 3: exponents must be nonnegative"),
        # six tokens for two terms, every third one term, split 2 + 4
        ("ring int\nvars 1\nterm 1\n2 term 3 4\n",
         "line 3: term needs a coefficient and 1 exponents"),
    ], ids=["field-arity", "field-q", "field-s", "coeff-token", "int-residues",
            "ext-residue-range", "too-few-lines", "empty-file", "vars-line", "vars-count",
            "vars-zero", "not-a-term", "exponent-token", "negative-exponent", "zero-coeff",
            "duplicate-exponent", "exponent-count", "ext-one-residue", "prime-range",
            "first-bad-line", "wrapped-token"])
    def test_rejected_file(self, tmp_path, capsys, text, reason):
        # the error names the offending line (counting comment and blank
        # lines), and spmul mul reports it with exit code 2
        with pytest.raises(PolyFileError, match=f"^{re.escape(reason)}$"):
            parse_poly(text)
        bad = tmp_path / "bad.poly"
        bad.write_text(text)
        assert run_command(["mul", str(bad), str(bad), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"spmul: {reason}\n"


# the rings the column parser is compared with the line reference over:
# integer and prime-field coefficients, and extension fields at residue
# widths 1 and 24 bytes
PARSE_RINGS = [ZZ, prime_field(101), prime_field(Q62), ext_field(3, 2), ext_field(3, 3),
               ext_field(Q62, 2)]
PARSE_RING_IDS = ["Z", "F101", "FQ62", "F9", "F27", "FQ62^2"]


def _outcome(parse, text):
    """What parse makes of text: the polynomial, or the message it rejects
    the file with."""
    try:
        return parse(text)
    except PolyFileError as exc:
        return f"rejected: {exc}"


def _loose_number(rnd, token):
    # a spelling int() reads as the same number: a leading 0 or +
    if token[0] != "-" and rnd.random() < 0.2:
        return rnd.choice(["0", "+"]) + token
    return token


def _loose_text(rnd, poly):
    """A valid but non-canonical file of poly: its term lines shuffled,
    tokens split by tabs and runs of spaces, numbers with a leading 0 or +,
    comment and blank lines added, and LF or CRLF line ends."""
    head, vars_line, *terms = format_poly(poly).splitlines()
    rnd.shuffle(terms)
    out = ["# a polynomial"] if rnd.random() < 0.5 else []
    for line in [head, vars_line, *terms]:
        word, *tokens = line.split(" ")
        if word == "term":
            tokens = [",".join(_loose_number(rnd, v) for v in t.split(",")) for t in tokens]
        line = word + "".join(rnd.choice([" ", "\t", "   ", " \t "]) + t for t in tokens)
        out.append(rnd.choice(["", " ", "\t"]) + line
                   + rnd.choice(["", " ", "\t", "  # note", "# term 1 2"]))
        while rnd.random() < 0.2:
            out.append(rnd.choice(["", "   ", "\t", "# comment", "  # term 0 0"]))
    eol = rnd.choice(["\n", "\r\n"])
    return eol.join(out) + rnd.choice([eol, ""])


# mutations of a term line; all but the coefficients -1 and 1,2 and an
# out-of-range one over Z (a large integer) are rejected everywhere.  A
# wrapped token moves the line's last token to the start of the next term
# line, so the file keeps its token count
ALWAYS_BAD = ("2x", "0", "missing-exponent", "extra-exponent", "terms", "duplicate-line",
              "wrapped-token")
MUTATIONS = ALWAYS_BAD + ("-1", "1,2", "out-of-range")


def _mutate(rnd, ring, kind, tokens):
    """The tokens of a term line changed by the mutation kind."""
    tokens = list(tokens)
    if kind in ("2x", "0", "-1", "1,2"):
        tokens[1] = kind
    elif kind == "out-of-range":
        residues = tokens[1].split(",")
        residues[rnd.randrange(len(residues))] = str(ring.q if ring.is_field else 3 ** 90)
        tokens[1] = ",".join(residues)
    elif kind == "missing-exponent":
        del tokens[rnd.randrange(2, len(tokens))]
    elif kind == "extra-exponent":
        tokens.insert(rnd.randrange(2, len(tokens) + 1), "3")
    elif kind == "terms":
        tokens[0] = "terms"
    return tokens


def _mutant(rnd, ring, text, kinds):
    """text with one term line changed per mutation kind in kinds, each on
    its own line; a duplicated line is inserted anywhere after the header,
    before or after its twin, and the last term line's wrapped token goes
    to the first term line."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.partition("#")[0].split()[:1] == ["term"]]
    copies = []
    for i, kind in zip(rnd.sample(rows, len(kinds)), kinds):
        tokens = lines[i].partition("#")[0].split()
        if kind == "duplicate-line":
            copies.append("\t".join(tokens))
        elif kind == "wrapped-token":
            j = next((j for j in rows if j > i), rows[0])
            lines[i] = " ".join(tokens[:-1])
            lines[j] = f"{tokens[-1]} {lines[j]}"
        else:
            lines[i] = " ".join(_mutate(rnd, ring, kind, tokens))
    for copy in copies:
        lines.insert(rnd.randrange(rows[0], len(lines) + 1), copy)
    return "\n".join(lines) + "\n"


class TestColumnParser:
    # parse_poly checks term lines a column at a time and, on a bad file,
    # line by line; both must agree with the line-by-line reference

    @pytest.mark.parametrize("ring", PARSE_RINGS, ids=PARSE_RING_IDS)
    def test_valid_files_parse_as_the_reference_does(self, ring, monkeypatch):
        # and every one of them is read by its columns: none is read again
        # line by line
        def line_terms(*args):
            raise AssertionError("a valid file was read line by line")

        monkeypatch.setattr(cli, "_line_terms", line_terms)
        rnd = random.Random(f"valid {ring.kind} {ring.q} {ring.s}")
        for nvars in (1, 2, 3, 4):
            for _ in range(10):
                f = rand_multi(rnd, ring, nvars, 12, 30, 2 ** 70)
                text = _loose_text(rnd, f)
                assert parse_poly(text) == reference_parse_poly(text) == f

    @pytest.mark.parametrize("ring", PARSE_RINGS, ids=PARSE_RING_IDS)
    def test_mutated_files_fail_as_the_reference_does(self, ring):
        rnd = random.Random(f"mutated {ring.kind} {ring.q} {ring.s}")
        for nvars in (1, 2, 3, 4):
            for kind in MUTATIONS + ("two-bad-lines",):
                for _ in range(3):
                    f = rand_multi(rnd, ring, nvars, 12, 30, 2 ** 70)
                    if f.sparsity < 2:
                        continue
                    kinds = rnd.sample(MUTATIONS, 2) if kind == "two-bad-lines" else [kind]
                    text = _mutant(rnd, ring, _loose_text(rnd, f), kinds)
                    got = _outcome(parse_poly, text)
                    assert got == _outcome(reference_parse_poly, text), text
                    if kind in ALWAYS_BAD:
                        assert isinstance(got, str)

    def test_each_mutation_names_its_check(self):
        # the reference's message for each mutation of one line, so the
        # comparisons above cover every check (test_rejected_file pins the
        # wrapped token's)
        text = "ring int\nvars 2\nterm 5 1 2\n"
        want = {"2x": "line 3: bad coefficient '2x'",
                "0": "line 3: zero coefficient; files must be canonical",
                "missing-exponent": "line 3: term needs a coefficient and 2 exponents",
                "extra-exponent": "line 3: term needs a coefficient and 2 exponents",
                "terms": "line 3: expected a term record",
                "1,2": "line 3: integer coefficients take one value"}
        for kind, reason in want.items():
            bad = _mutant(random.Random(0), ZZ, text, [kind])
            assert _outcome(parse_poly, bad) == _outcome(reference_parse_poly, bad) \
                == f"rejected: {reason}"
        # the copy of line 3 goes in before or after it; the later twin is
        # reported
        for seed in range(8):
            bad = _mutant(random.Random(seed), ZZ, text, ["duplicate-line"])
            twins = [lineno for lineno, line in enumerate(bad.splitlines(), start=1)
                     if line.split() == ["term", "5", "1", "2"]]
            assert _outcome(parse_poly, bad) == _outcome(reference_parse_poly, bad) \
                == f"rejected: line {twins[1]}: duplicate exponent; files must be canonical"

    @pytest.mark.parametrize("text", [
        "ring int\nvars 100000000\n",
        "# none\r\nfield 3 2\r\n\r\nvars 100000000  # many\r\n\t\n# end",
        "ring int\nvars 100000000\nterm 1 2\n",
        "ring int\nvars 100000000\n\nterms\n",
    ], ids=["termless", "termless-decorated", "short-term", "not-a-term"])
    def test_files_in_10_to_the_8_variables(self, text):
        # neither parser does work per declared variable: a termless file
        # parses to zero, and a term line is rejected by its token count
        assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)


class TestCommands:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_mul_verify_example(self, tmp_path):
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        out = str(tmp_path / "h.poly")
        assert run_command(["mul", a, b, "-o", out, "--seed", "5"]) == 0
        assert (tmp_path / "h.poly").read_text() == FG_TEXT
        assert run_command(["verify", a, b, out]) == 0

    def test_termless_files_in_many_variables_verify(self, tmp_path, capsys):
        # the Kronecker map reads the terms, not each of the 10^8 variables
        z = self._write(tmp_path, "z.poly", "ring int\nvars 100000000\n")
        assert run_command(["verify", z, z, z]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_verify_takes_one_partial_degree_pass_per_file(self, tmp_path, monkeypatch):
        # the Kronecker base d comes from the three files' partial degrees,
        # and each kronecker checks its operand against d: both read the
        # degrees one pass over each polynomial's terms gave
        passes = []
        real = multivar._partial_degrees
        monkeypatch.setattr(multivar, "_partial_degrees",
                            lambda terms: passes.append(len(terms)) or real(terms))
        f = canonicalize_multi([((1, 0, 2), 1), ((0, 3, 1), 2)], 3, ZZ)
        g = canonicalize_multi([((2, 1, 0), -1), ((0, 0, 1), 5), ((1, 1, 1), 1)], 3, ZZ)
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        h = self._write(tmp_path, "h.poly", format_poly(naive_mul_multi(f, g)))
        assert run_command(["verify", a, b, h]) == 0
        assert sorted(passes) == [2, 3, 6]

    def test_verify_mismatch_exit_code(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        bad = self._write(tmp_path, "bad.poly",
                          "ring int\nvars 1\nterm 6 0\nterm 1 27\n")
        assert run_command(["verify", a, b, bad]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_verify_true_f9_triple_at_large_eps(self, tmp_path, capsys):
        # a true identity verifies at any eps, which sizes only the check
        # field (an extension of F_3) and the chance of a false pass
        a = self._write(tmp_path, "a.poly", F9_A_TEXT)
        b = self._write(tmp_path, "b.poly", F9_B_TEXT)
        h = str(tmp_path / "h.poly")
        assert run_command(["mul", "--naive", a, b, "-o", h]) == 0
        capsys.readouterr()
        assert run_command(["verify", a, b, h, "--epsilon", "0.3", "--seed", "6"]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_naive_and_default_byte_identical(self, tmp_path):
        rnd = random.Random(3)
        f = as_multi(rand_sparse(rnd, ZZ, 10, 10 ** 5, 2 ** 20))
        g = as_multi(rand_sparse(rnd, ZZ, 10, 10 ** 5, 2 ** 20))
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_command(["mul", a, b, "-o", o1, "--seed", "9"]) == 0
        assert run_command(["mul", a, b, "-o", o2, "--naive", "--seed", "9"]) == 0
        assert (tmp_path / "o1").read_bytes() == (tmp_path / "o2").read_bytes()

    def test_large_extension_field_mul_and_verify(self, tmp_path):
        # the header names F_{Q62^3}, whose canonical modulus Y^3 + Y + 5
        # follows about q reducible binomials Y^3 + c
        ring = ext_field(Q62, 3)
        rnd = random.Random(4)
        f = as_multi(rand_sparse(rnd, ring, 6, 10 ** 4))
        g = as_multi(rand_sparse(rnd, ring, 6, 10 ** 4))
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        assert (tmp_path / "a.poly").read_text().startswith(f"field {Q62} 3\n")
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_command(["mul", a, b, "-o", o1, "--seed", "3"]) == 0
        assert run_command(["mul", a, b, "-o", o2, "--naive"]) == 0
        assert (tmp_path / "o1").read_bytes() == (tmp_path / "o2").read_bytes()
        assert run_command(["verify", a, b, o1]) == 0

    def test_runs_deterministic(self, tmp_path):
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        run_command(["mul", a, b, "-o", o1, "--seed", "77"])
        run_command(["mul", a, b, "-o", o2, "--seed", "77"])
        assert (tmp_path / "o1").read_bytes() == (tmp_path / "o2").read_bytes()

    def test_multivariate_mul_and_verify(self, tmp_path):
        f = canonicalize_multi([((1, 0), 1), ((0, 1), 1)], 2, ZZ)
        g = canonicalize_multi([((1, 0), 1), ((0, 1), -1)], 2, ZZ)
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        out = str(tmp_path / "h.poly")
        assert run_command(["mul", a, b, "-o", out]) == 0
        h = parse_poly((tmp_path / "h.poly").read_text())
        assert h.terms == (((0, 2), -1), ((2, 0), 1))
        assert run_command(["verify", a, b, out]) == 0

    def test_small_char_field_mul(self, tmp_path):
        f2 = prime_field(2)
        f = canonicalize_multi([((1,), 1), ((0,), 1)], 1, f2)
        a = self._write(tmp_path, "a.poly", format_poly(f))
        out = str(tmp_path / "h.poly")
        assert run_command(["mul", a, a, "-o", out]) == 0
        h = parse_poly((tmp_path / "h.poly").read_text())
        assert h.terms == (((0,), 1), ((2,), 1))

    def test_field_path_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise RetryBudgetError("sparsity-doubling loop failed to converge")

        monkeypatch.setattr("spmul.cli.multivar_product_field", exhausted)
        a = self._write(tmp_path, "a.poly", "field 1000003 1\nvars 1\nterm 1 0\nterm 2 5\n")
        out = tmp_path / "h.poly"
        assert run_command(["mul", a, a, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spmul: ") and err.count("\n") == 1
        assert not out.exists()

    def _mul_lifts(self, tmp_path, monkeypatch, f, g) -> int:
        """Run spmul mul on univariate f and g, check its output against
        mul --naive byte for byte, and return how often it lifted through Z."""
        lifted = []

        def smallchar(*args):
            lifted.append(args)
            return multivar_product_smallchar(*args)

        monkeypatch.setattr("spmul.cli.multivar_product_smallchar", smallchar)
        a = self._write(tmp_path, "a.poly", format_poly(as_multi(f)))
        b = self._write(tmp_path, "b.poly", format_poly(as_multi(g)))
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_command(["mul", a, b, "-o", o1]) == 0
        assert run_command(["mul", a, b, "-o", o2, "--naive"]) == 0
        assert (tmp_path / "o1").read_bytes() == (tmp_path / "o2").read_bytes()
        return len(lifted)

    def test_char_below_cyclic_prime_falls_back(self, tmp_path, monkeypatch):
        # q = 211 exceeds the degree 160 but not 2p for a cyclic prime
        # p = 107 that deg F = 150 wraps past, so the field path raises and
        # the lift through Z takes over (drawing its own prime); the field
        # path's lam is pinned below deg F, so it draws its prime at all
        real = product.random_prime
        real_lam = product.lambda_no_collision
        monkeypatch.setattr(product, "lambda_no_collision",
                            lambda T, D, eps: 100 if pinned else real_lam(T, D, eps))
        pinned = [107]
        monkeypatch.setattr(product, "random_prime",
                            lambda lam, rng: pinned.pop() if pinned else real(lam, rng))
        f211 = prime_field(211)
        f = canonicalize([(0, 1), (150, 2)], f211)
        g = canonicalize([(0, 3), (10, 1)], f211)
        assert self._mul_lifts(tmp_path, monkeypatch, f, g) == 1
        assert pinned == []

    def test_char_below_degree_bound_falls_back(self, tmp_path, monkeypatch):
        # an unwrapped product reads its exponents up to its degree D, so
        # q = 101 = D + 1 stays on the field path and q = D falls back
        f101 = prime_field(101)
        f = canonicalize([(0, 1), (40, 2), (50, 1)], f101)
        g = canonicalize([(0, 3), (7, 5), (50, 1)], f101)
        assert self._mul_lifts(tmp_path, monkeypatch, f, g) == 0
        g = canonicalize([(0, 3), (7, 5), (51, 1)], f101)
        assert self._mul_lifts(tmp_path, monkeypatch, f, g) == 1

    def test_field_mul_adds_no_kronecker_maps(self, tmp_path, monkeypatch):
        # the field path does its own Kronecker maps; the CLI adds none
        calls = []

        def counted(*args):
            calls.append(args)
            return kronecker(*args)

        monkeypatch.setattr("spmul.cli.kronecker", counted)
        fq = prime_field(Q62)
        rnd = random.Random(5)
        f = rand_multi(rnd, fq, 2, 6, 20)
        g = rand_multi(rnd, fq, 2, 6, 20)
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_command(["mul", a, b, "-o", o1]) == 0
        assert calls == []
        assert run_command(["mul", a, b, "-o", o2, "--naive"]) == 0
        assert (tmp_path / "o1").read_bytes() == (tmp_path / "o2").read_bytes()

    def test_estimate(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        assert run_command(["estimate", a, b, "--epsilon", "0.05"]) == 0
        value = int(capsys.readouterr().out.strip())
        assert 9 <= value <= 18  # true sparsity 9, lambda = 2

    def test_estimate_over_f9(self, tmp_path, capsys):
        # a field far smaller than the product's degree and term count
        f9 = ext_field(3, 2)
        rnd = random.Random(9)
        f = rand_multi(rnd, f9, 3, 8, 10)
        g = rand_multi(rnd, f9, 3, 8, 10)
        true = naive_mul_multi(f, g).sparsity
        assert f9.q < true
        a = self._write(tmp_path, "a.poly", format_poly(f))
        b = self._write(tmp_path, "b.poly", format_poly(g))
        for seed in range(5):
            assert run_command(["estimate", a, b, "--seed", str(seed)]) == 0
            assert true <= int(capsys.readouterr().out.strip()) <= 2 * true

    def test_bench_example2_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert run_command(["bench", "--family", "example2", "--tmin", "4",
                            "--tmax", "16", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algorithm"] for r in rows] == ["naive", "sparse"] * 3
        assert all(r["out_terms"] == "2" for r in rows)
        assert set(rows[0].keys()) == {"family", "T", "D", "algorithm", "millis",
                                       "ring_mults", "out_terms", "seed"}

    def test_bench_random_and_multivar(self, tmp_path):
        for family in ("random", "multivar"):
            out = str(tmp_path / f"{family}.csv")
            assert run_command(["bench", "--family", family, "--tmin", "2",
                                "--tmax", "4", "--out", out, "--seed", "3"]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            by_t = {}
            for r in rows:
                by_t.setdefault(r["T"], set()).add(r["out_terms"])
            assert all(len(v) == 1 for v in by_t.values())  # algorithms agree

    # (T, D, out_terms, seed) per trial, both algorithms; millis and
    # ring_mults are left out, as they measure rather than define a row
    @pytest.mark.parametrize("family, argv, trials", [
        ("example2", ["--tmin", "4", "--tmax", "16"],
         [(4, 16, 2, 0), (8, 64, 2, 1), (16, 256, 2, 2)]),
        ("random", ["--tmin", "2", "--tmax", "8", "--seed", "3"],
         [(2, 93, 4, 3), (4, 102, 15, 2), (8, 454, 60, 1)]),
        ("multivar", ["--tmin", "2", "--tmax", "8", "--seed", "3"],
         [(2, 6, 4, 3), (4, 6, 15, 2), (8, 14, 64, 1)]),
    ], ids=["example2", "random", "multivar"])
    def test_bench_deterministic_columns(self, tmp_path, family, argv, trials):
        out = str(tmp_path / "bench.csv")
        assert run_command(["bench", "--family", family, "--out", out] + argv) == 0
        with open(out, newline="") as fh:
            got = [tuple(r[k] for k in ("family", "T", "D", "algorithm", "out_terms", "seed"))
                   for r in csv.DictReader(fh)]
        assert got == [(family, str(t), str(d), algorithm, str(n), str(seed))
                       for t, d, n, seed in trials for algorithm in ("naive", "sparse")]

    def test_error_exit_codes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.poly")
        assert run_command(["verify", missing, missing, missing]) == 2
        assert run_command(["bogus"]) == 2
        bad = self._write(tmp_path, "bad.poly", "ring int\nvars 1\nterm 0 1\n")
        assert run_command(["mul", bad, bad, "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("spmul:") == 3

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        # one parser serves every command in the process; a flag given to
        # one command must not leak into the next as a default
        from spmul import cli
        assert cli._build_parser() is cli._build_parser()
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        assert run_command(["estimate", a, b, "--lambda", "3"]) == 0
        with_flag = capsys.readouterr().out
        assert run_command(["estimate", a, b]) == 0
        assert capsys.readouterr().out != with_flag
        assert run_command(["estimate", a, b, "--lambda", "3"]) == 0
        assert capsys.readouterr().out == with_flag
        assert cli._build_parser.cache_info().currsize == 1

    def test_ci_wrapping_pairs_take_the_cyclic_route(self, tmp_path, monkeypatch):
        # the four wrapping pairs CI writes (6 x 6 terms over Z with
        # exponents near 10^30, over F_(2^61 - 1) and over F_9 near 10^15,
        # over F_((2^61 - 1)^3) near 10^12) are the CLI inputs whose
        # verifier bound lam lies below the product's degree D, so the
        # check reduces mod X^p - 1 for a prime p in [lam, 2*lam]; the F_9
        # check runs in the cyclotomic extension F_3[Y]/(Phi_(s+1)) with
        # s >= 40 and more than c2*p elements, the F_(Q61^3) one in its own
        # ring, through the row fold
        seen = watch_cyclic_evaluations(monkeypatch)
        files = ci_inputs.wrapping_pairs()
        for name in ("z", "q", "f9", "x3"):
            paths = [self._write(tmp_path, name + side + ".poly", files[name + side + ".poly"])
                     for side in "ab"]
            h = str(tmp_path / (name + "h.poly"))
            assert run_command(["mul", "--naive", *paths, "-o", h]) == 0
            a, b, fg = (parse_poly(Path(path).read_text()) for path in (*paths, h))
            D = fg.var_degrees()[0]
            lam = lambda_nonzero(a.sparsity * b.sparsity + fg.sparsity, D,
                                 verify._split(DEFAULT_EPSILON, name == "z")[0])
            assert lam <= D
            seen.clear()
            assert run_command(["verify", *paths, h]) == 0
            assert seen and all(lam <= p <= 2 * lam for _, p in seen)
            if name == "f9":
                c2 = verify._split(DEFAULT_EPSILON, False)[1]
                assert all(field.q == 3 and field.s >= 40 and field._cyclic
                           and field.modulus == (1,) * (field.s + 1) and field.size > c2 * p
                           for field, p in seen)
            if name == "x3":
                assert all(field == a.ring and not field._cyclic and field._width == 24
                           for field, _ in seen)

    def test_ci_f256_pair_checks_in_a_cyclotomic_field(self, tmp_path, monkeypatch, capsys):
        # f256a/f256b: 8 x 8 terms over F_256 below 10^4, checked at
        # p = D + 1 in F_2[Y]/(Phi_37) = F_(2^36), so q = 2 takes the lane
        # fold
        seen = watch_cyclic_evaluations(monkeypatch)
        files = ci_inputs.f256_pair()
        a, b = (self._write(tmp_path, f"f256{side}.poly", files[f"f256{side}.poly"])
                for side in "ab")
        h = tmp_path / "f256h.poly"
        assert run_command(["mul", "--naive", a, b, "-o", str(h)]) == 0
        fg = parse_poly(h.read_text())
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"
        assert seen and all(field.q == 2 and field.s == 36 and field._cyclic
                            and field.modulus == (1,) * 37 and p == fg.var_degrees()[0] + 1
                            for field, p in seen)

    def test_ci_large_pair_checks_h_at_d_plus_one(self, tmp_path, monkeypatch, capsys):
        # bigza/bigzb: 200 x 200 terms over Z below 10^9, about 40,000
        # product terms, checked at p = D + 1 with H evaluated as it is;
        # one changed coefficient is a MISMATCH with exit code 1
        seen = []
        real = verify.eval_sparse

        def eval_sparse(P, alpha, field=None, **kwargs):
            seen.append((P.ring, P.terms[-1][0], P.sparsity, field))
            return real(P, alpha, field, **kwargs)

        monkeypatch.setattr(verify, "eval_sparse", eval_sparse)
        primes = watch_cyclic_evaluations(monkeypatch, lambda F_p, G_p, p, field: p)
        files = ci_inputs.large_pair()
        a, b = (self._write(tmp_path, f"bigz{side}.poly", files[f"bigz{side}.poly"])
                for side in "ab")
        h = tmp_path / "bigzh.poly"
        assert run_command(["mul", "--naive", a, b, "-o", str(h)]) == 0
        lines = h.read_text().splitlines(keepends=True)
        n = sum(line.startswith("term") for line in lines)
        assert 39000 <= n <= 40000
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"
        (ring, degree, sparsity, field), = seen
        assert ring == ZZ and sparsity == n and field.kind == "prime_field"
        assert set(primes) == {degree + 1}
        i = next(k for k, line in enumerate(lines) if line.startswith("term"))
        _, c, e = lines[i].split()
        lines[i] = f"term {2 * int(c)} {e}\n"
        bad = self._write(tmp_path, "bigzbad.poly", "".join(lines))
        assert run_command(["verify", a, b, bad]) == 1
        assert capsys.readouterr().out == "MISMATCH\n"

    def test_ci_random_pair_runs_multi_round_jobs(self, tmp_path, monkeypatch, capsys):
        # rza/rzb: 64 x 64 terms over Z below 10^9, about 4,000 product
        # terms; the product runs two interpolation jobs, the second sized
        # by the exponent floor its first overflow counts, and that job
        # ends in one walk, its colliding slots repaired from the
        # operands; the product equals the schoolbook one, passes its
        # check, and fails it with one coefficient changed; the estimate
        # lies in [n, 2n]
        walks = []
        real_job, real_walk = product.interp_sum_sp, interp.cyclic_product_residue

        def interp_sum_sp(pairs, T, mu, rng):
            walks.append(0)
            return real_job(pairs, T, mu, rng)

        def cyclic_product_residue(*args, **kwargs):
            walks[-1] += 1
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        files = ci_inputs.random_pair()
        a, b = (self._write(tmp_path, f"rz{side}.poly", files[f"rz{side}.poly"])
                for side in "ab")
        h, naive = tmp_path / "rzh.poly", tmp_path / "rznaive.poly"
        assert run_command(["mul", a, b, "-o", str(h)]) == 0
        assert len(walks) == 2 and walks[-1] == 1
        assert run_command(["mul", "--naive", a, b, "-o", str(naive)]) == 0
        assert h.read_bytes() == naive.read_bytes()
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"
        lines = h.read_text().splitlines(keepends=True)
        n = sum(line.startswith("term") for line in lines)
        assert 4000 <= n <= 64 * 64
        i = next(k for k, line in enumerate(lines) if line.startswith("term"))
        _, c, e = lines[i].split()
        lines[i] = f"term {int(c) + 1} {e}\n"
        bad = self._write(tmp_path, "rzbad.poly", "".join(lines))
        assert run_command(["verify", a, b, bad]) == 1
        assert capsys.readouterr().out == "MISMATCH\n"
        assert run_command(["estimate", a, b]) == 0
        assert n <= int(capsys.readouterr().out) <= 2 * n

    def test_ci_random_pair_128_draws_across_sieve_segments(self, tmp_path, monkeypatch,
                                                            capsys):
        # rz128a/rz128b: 128 x 128 terms over Z below 10^9; the final job's
        # pool of about 944,000 primes lies past several sieve segments,
        # and the product equals the schoolbook one and passes its check
        pools = []
        real = interp.first_primes
        monkeypatch.setattr(interp, "first_primes", lambda n: pools.append(n) or real(n))
        files = ci_inputs.random_pair_128()
        a, b = (self._write(tmp_path, f"rz128{side}.poly", files[f"rz128{side}.poly"])
                for side in "ab")
        h, naive = tmp_path / "rz128h.poly", tmp_path / "rz128naive.poly"
        assert run_command(["mul", a, b, "-o", str(h)]) == 0
        assert 900_000 < max(pools) < 1_000_000
        assert real(max(pools))[-1] // 2 > 5 * arith._SEGMENT
        assert run_command(["mul", "--naive", a, b, "-o", str(naive)]) == 0
        assert h.read_bytes() == naive.read_bytes()
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_ci_extension_pair_is_interpolated_in_its_field(self, tmp_path, monkeypatch):
        # x3a/x3b: the CLI product wraps modulo X^p - 1 and its terms are
        # read off by find_terms in F_((2^61 - 1)^3) itself, not through Z
        seen = []
        real = product.find_terms

        def find_terms(p, ring, slots, D, C):
            seen.append((ring, p, D))
            return real(p, ring, slots, D, C)

        monkeypatch.setattr(product, "find_terms", find_terms)
        files = ci_inputs.wrapping_pairs()
        a, b = (self._write(tmp_path, f"x3{side}.poly", files[f"x3{side}.poly"])
                for side in "ab")
        h, naive = str(tmp_path / "x3h.poly"), str(tmp_path / "x3naive.poly")
        assert run_command(["mul", a, b, "-o", h]) == 0
        assert run_command(["mul", "--naive", a, b, "-o", naive]) == 0
        assert Path(h).read_bytes() == Path(naive).read_bytes()
        ring = parse_poly(Path(a).read_text()).ring
        assert ring.q == 2 ** 61 - 1 and ring.s == 3
        assert seen and all(r == ring and p < D for r, p, D in seen)

    def test_ci_unwrapped_extension_pair_walks_one_pair(self, tmp_path, monkeypatch, capsys):
        # x3na/x3nb: 8 x 8 terms over F_((2^61 - 1)^3) below 10^4; no
        # operand wraps, so every walk is of the one pair (F, G), in that
        # field itself, and no h2 job runs.  The product equals the
        # schoolbook one, passes its check, fails it with one coefficient
        # changed, and its estimate lies in [n, 2n]
        walks = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(pairs, minus, p, limit):
            walks.append((len(pairs), minus.ring))
            return real(pairs, minus, p, limit)

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        files = ci_inputs.extension_pair()
        a, b = (self._write(tmp_path, f"x3n{side}.poly", files[f"x3n{side}.poly"])
                for side in "ab")
        h, naive = tmp_path / "x3nh.poly", tmp_path / "x3nnaive.poly"
        assert run_command(["mul", a, b, "-o", str(h)]) == 0
        ring = parse_poly(Path(a).read_text()).ring
        assert ring.q == 2 ** 61 - 1 and ring.s == 3
        assert walks and set(walks) == {(1, ring)}
        assert run_command(["mul", "--naive", a, b, "-o", str(naive)]) == 0
        assert h.read_bytes() == naive.read_bytes()
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"
        lines = h.read_text().splitlines(keepends=True)
        n = sum(line.startswith("term") for line in lines)
        assert n == 64
        i = next(k for k, line in enumerate(lines) if line.startswith("term"))
        _, c, e = lines[i].split()
        c = c.split(",")
        c[0] = str((int(c[0]) + 1) % ring.q)
        lines[i] = f"term {','.join(c)} {e}\n"
        bad = self._write(tmp_path, "x3nbad.poly", "".join(lines))
        assert run_command(["verify", a, b, bad]) == 1
        assert capsys.readouterr().out == "MISMATCH\n"
        assert run_command(["estimate", a, b]) == 0
        assert n <= int(capsys.readouterr().out) <= 2 * n

    def test_ci_quadratic_pair_folds_at_s2(self, tmp_path, monkeypatch, capsys):
        # x2a/x2b: 8 x 8 terms over F_((2^61 - 1)^2) below 10^4, modulus
        # Y^2 + 1; no operand wraps, so every walk is of the one pair
        # (F, G) in that field, the walks drop their slot sums at s = 2,
        # and the check runs at p = D + 1 in the ring itself, each through
        # _fold's two-digit case.  Its 64 sums are distinct, so its walks
        # read them as lone terms; a second pair in that field, with
        # exponents 0..7 on both sides, has repeated sums, and find_terms
        # multiplies and inverts at s = 2 to read its slots.  Both products
        # equal the schoolbook ones; x2's passes its check, fails it with
        # one coefficient changed, and its estimate lies in [n, 2n]
        calls = {"drop": 0, "inv": 0, "_fold": 0}
        for name in calls:
            def counted(self, *args, _real=getattr(RingSpec, name), _name=name):
                calls[_name] += self.s == 2
                return _real(self, *args)

            monkeypatch.setattr(RingSpec, name, counted)
        walks = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(pairs, minus, p, limit):
            walks.append((len(pairs), minus.ring))
            return real(pairs, minus, p, limit)

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        seen = watch_cyclic_evaluations(monkeypatch)
        files = ci_inputs.quadratic_pair()
        rnd = random.Random(12)
        q = ci_inputs.Q61
        for side in "ab":
            files[f"x2r{side}.poly"] = f"field {q} 2\nvars 1\n" + "".join(
                f"term {rnd.randint(1, q - 1)},{rnd.randint(1, q - 1)} {e}\n" for e in range(8))
        paths = {}
        for name in ("x2r", "x2"):
            a, b = (self._write(tmp_path, f"{name}{side}.poly", files[f"{name}{side}.poly"])
                    for side in "ab")
            h, naive = tmp_path / f"{name}h.poly", tmp_path / f"{name}naive.poly"
            assert run_command(["mul", a, b, "-o", str(h)]) == 0
            paths[name] = a, b, h, naive
        ring = parse_poly(Path(a).read_text()).ring
        assert ring == ext_field(2 ** 61 - 1, 2) and ring.modulus == (1, 0, 1)
        assert ring._packed_rows == () and not ring._cyclic
        assert walks and set(walks) == {(1, ring)}
        assert calls["drop"] > 0 and calls["inv"] > 0 and calls["_fold"] > calls["drop"]
        for a, b, h, naive in paths.values():
            assert run_command(["mul", "--naive", a, b, "-o", str(naive)]) == 0
            assert h.read_bytes() == naive.read_bytes()
        a, b, h, _ = paths["x2"]
        seen.clear()
        assert run_command(["verify", a, b, str(h)]) == 0
        assert capsys.readouterr().out == "OK\n"
        fg = parse_poly(h.read_text())
        assert seen and all(field == ring and p == fg.var_degrees()[0] + 1 for field, p in seen)
        lines = h.read_text().splitlines(keepends=True)
        n = sum(line.startswith("term") for line in lines)
        assert n == fg.sparsity == 64
        i = next(k for k, line in enumerate(lines) if line.startswith("term"))
        _, c, e = lines[i].split()
        c = c.split(",")
        c[0] = str((int(c[0]) + 1) % ring.q)
        lines[i] = f"term {','.join(c)} {e}\n"
        bad = self._write(tmp_path, "x2bad.poly", "".join(lines))
        assert run_command(["verify", a, b, bad]) == 1
        assert capsys.readouterr().out == "MISMATCH\n"
        assert run_command(["estimate", a, b]) == 0
        assert n <= int(capsys.readouterr().out) <= 2 * n

    def test_extreme_budgets_are_usage_errors(self, tmp_path, capsys):
        # sizing bounds past the float range, a budget that is no number
        # and bench sizes out of order: exit 2 with one line, never the
        # MISMATCH code 1 with a traceback, and no output file
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        h = self._write(tmp_path, "h.poly", FG_TEXT)
        out = tmp_path / "x.poly"
        bench = ["bench", "--family", "example2", "--out", str(out)]
        for argv in (["verify", a, b, h, "--epsilon", "1e-200"],
                     ["mul", a, b, "-o", str(out), "--epsilon", "1e-200"],
                     ["estimate", a, b, "--lambda", "inf"],
                     ["mul", a, b, "-o", str(out), "--epsilon", "abc"],
                     bench + ["--tmin", "0", "--tmax", "4"],
                     bench + ["--tmin", "8", "--tmax", "4"]):
            assert run_command(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("spmul: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_budget_below_2_to_the_minus_80_is_a_usage_error(self, tmp_path, capsys):
        # is_prime errs with probability up to 2^-80 above 3.3e24, so mul and
        # verify, which draw primes, refuse a smaller budget; estimate draws
        # none and keeps its own rule
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", G_TEXT)
        h = self._write(tmp_path, "h.poly", FG_TEXT)
        out = str(tmp_path / "x.poly")
        for eps, code in ((2.0 ** -80, 0), (2.0 ** -80 * 0.999, 2), (1e-30, 2), (1.0, 2)):
            for argv in (["verify", a, b, h], ["mul", a, b, "-o", out],
                         ["mul", "--naive", a, b, "-o", out]):
                assert run_command(argv + ["--epsilon", repr(eps)]) == code
                captured = capsys.readouterr()
                if code:
                    assert captured.out == ""
                    assert captured.err.count("\n") == 1 and "2^-80" in captured.err
        assert Path(out).read_text() == FG_TEXT
        assert run_command(["estimate", a, b, "--epsilon", "1e-30"]) == 0
        # a subnormal budget sizes its one draw from -log2(eps), not 1/eps
        assert run_command(["estimate", a, b, "--epsilon", "1e-310"]) == 0

    def test_mixed_rings_rejected(self, tmp_path):
        a = self._write(tmp_path, "a.poly", F_TEXT)
        b = self._write(tmp_path, "b.poly", "field 7 1\nvars 1\nterm 3 2\n")
        assert run_command(["mul", a, b, "-o", str(tmp_path / "x")]) == 2


class TestModuleEntryPoints:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    def test_python_m_spmul_and_spmul_cli(self, tmp_path):
        a, b = tmp_path / "a.poly", tmp_path / "b.poly"
        a.write_text(F_TEXT)
        b.write_text(G_TEXT)
        for module in ("spmul", "spmul.cli"):
            done = self._run(module, "estimate", str(a), str(b))
            assert done.returncode == 0, done.stderr
            assert 9 <= int(done.stdout) <= 18  # true sparsity 9, lambda = 2
        done = self._run("spmul", "estimate", str(a))
        assert done.returncode == 2
        assert done.stdout == "" and done.stderr.startswith("spmul: ")

    def test_python_m_spmul_mul_past_an_overflowing_guess(self, tmp_path, monkeypatch):
        # a 6 x 6 product with 36 terms: the first guess, 3 (half of
        # max(#F, #G) = 6), overflows, and the guess its floor sizes leads
        # to the product
        a, b = tmp_path / "a.poly", tmp_path / "b.poly"
        a.write_text("ring int\nvars 1\n" + "".join(f"term {i + 2} {i}\n" for i in range(6)))
        b.write_text("ring int\nvars 1\n" + "".join(f"term {-3 * j - 1} {6 * j}\n" for j in range(6)))
        floors = []
        real = product.interp_sum_sp

        def interp_sum_sp(pairs, T, mu, rng):
            try:
                return real(pairs, T, mu, rng)
            except SparsityBoundError as err:
                floors.append((T, err.floor))
                raise

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        assert run_command(["mul", str(a), str(b), "-o", str(tmp_path / "in_process")]) == 0
        assert floors and floors[0][0] == 3 and floors[0][1] > 6
        outs = []
        for name, extra in (("sparse", []), ("naive", ["--naive"])):
            out = tmp_path / name
            done = self._run("spmul", "mul", str(a), str(b), "-o", str(out), *extra)
            assert done.returncode == 0, done.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == (tmp_path / "in_process").read_bytes()
        assert outs[0].count(b"term") == 36
