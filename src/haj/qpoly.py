"""Exact polynomials in one variable over Q, and over Z/m for the factorizer.

A polynomial is a tuple of coefficients, constant term first, with no
trailing zeros; the zero polynomial is (). Over Q (modulus m = 0, the
default) the coefficients are Fractions. With a modulus m > 0 the same
helpers work over Z/m on ints in [0, m): a field when m is prime, and, for a
divisor with a unit leading coefficient, still exact division modulo a prime
power, which is what Hensel lifting needs.

The module covers the exact symbol algebra of ``milnor``: a bounded parser
for rational expressions in t, Euclid, inverses and powers modulo a
polynomial, the resultant, factorization over Q and a printer.

Factorization is Yun's squarefree decomposition followed, on each primitive
integer part, by Zassenhaus's algorithm (Cantor and Zassenhaus, Math. Comp.
36, 1981; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15):
Eisenstein's criterion at small primes first, then distinct- and
equal-degree factorization modulo a few small primes, which also bounds the
degrees a rational factor can have; Hensel lifting modulo the prime with
the fewest factors until the modulus exceeds twice Mignotte's bound; and
recombination of the lifted factors by subsets, with a fixed trial budget.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

from .invariants import StratificationOverflow

Poly = Tuple  # coefficients, constant term first, no trailing zeros

# parser caps, checked before anything is expanded: a factor of a polynomial
# of degree d can have coefficients 2^d times larger than the polynomial's, so
# a canonical form built from capped parts stays below Python's 4300-digit
# int/str conversion limit (about 14284 bits)
_MAX_DEGREE = 256
_MAX_BITS = 8192
_MAX_LITERAL = 4300
_MAX_DEPTH = 100

# recombination subsets tried per squarefree part before the factorizer
# refuses; the primes tried for the modular factorization
_MAX_TRIALS = 1 << 16
_PRIME_TRIALS = 3


class ParseError(ValueError):
    """A rational expression in t that the bounded parser refuses."""


# ---------------------------------------------------------------------------
# Kernel operations (m = 0: over Q; m > 0: over Z/m)
# ---------------------------------------------------------------------------


def trim(a: Sequence) -> Poly:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def _red(a: list, m: int) -> Poly:
    return trim([c % m for c in a] if m else a)


def _inv(c, m: int):
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _one(m: int) -> Poly:
    return (1,) if m else (Fraction(1),)


def add(a: Poly, b: Poly, m: int = 0) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _red(out, m)


def scale(a: Poly, c, m: int = 0) -> Poly:
    return _red([x * c for x in a], m)


def sub(a: Poly, b: Poly, m: int = 0) -> Poly:
    return add(a, scale(b, -1), m)


def mul(a: Poly, b: Poly, m: int = 0) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _red(out, m)


def quo_rem(a: Poly, b: Poly, m: int = 0) -> Tuple[Poly, Poly]:
    """(q, r) with a = q*b + r and deg r < deg b; b's leading coefficient
    must be a unit (nonzero over Q)."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else _inv(b[-1], m)
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv
        if m:
            c %= m
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return _red(q, m), _red(r[:db], m)


def monic(a: Poly, m: int = 0) -> Poly:
    return a if a[-1] == 1 else scale(a, _inv(a[-1], m), m)


def gcd(a: Poly, b: Poly, m: int = 0) -> Poly:
    """The monic gcd; () when both are zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, quo_rem(a, b, m)[1]
        if b:
            b = monic(b, m)
    return monic(a, m) if a else ()


def derivative(a: Poly, m: int = 0) -> Poly:
    return _red([k * c for k, c in enumerate(a)][1:], m)


def horner(a: Poly, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def inverse_mod(a: Poly, q: Poly, m: int = 0) -> Poly:
    """The inverse of a modulo q, of degree below deg q (extended Euclid)."""
    r0, r1 = trim(q), quo_rem(a, q, m)[1]
    s0, s1 = (), _one(m)
    # invariant: s_i * a = r_i modulo q
    while len(r1) > 1:
        quo, rem = quo_rem(r0, r1, m)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(quo, s1, m), m)
    if not r1:
        raise ZeroDivisionError("not invertible modulo the polynomial")
    return scale(s1, _inv(r1[0], m), m)


def pow_mod(a: Poly, e: int, q: Poly, m: int = 0) -> Poly:
    """a^e reduced modulo q; a negative e inverts a modulo q first."""
    if e < 0:
        a, e = inverse_mod(a, q, m), -e
    a = quo_rem(a, q, m)[1]
    out = _one(m)
    while e:
        if e & 1:
            out = quo_rem(mul(out, a, m), q, m)[1]
        e >>= 1
        if e:
            a = quo_rem(mul(a, a, m), q, m)[1]
    return out


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) over Q by res(a, b) = (-1)^{mn} lc(b)^{m-k} res(b, a mod b)."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return Fraction(0)
    out = Fraction(1)
    while len(b) > 1:
        r = quo_rem(a, b)[1]
        if not r:
            return Fraction(0)
        da, db = len(a) - 1, len(b) - 1
        out *= (-1) ** (da * db) * Fraction(b[-1]) ** (da - len(r) + 1)
        a, b = b, r
    return out * Fraction(b[0]) ** (len(a) - 1)


# ---------------------------------------------------------------------------
# Factorization over Q
# ---------------------------------------------------------------------------


def factor(a: Sequence) -> Tuple[Fraction, List[Tuple[Poly, int]]]:
    """A nonzero polynomial as a unit times monic irreducibles to powers.

    The factors come sorted by degree, then multiplicity, then the
    primitive integer coefficients read from the highest degree down: the
    regulator adds one floating-point residue term per factor, so this
    order fixes its rounding. Raises StratificationOverflow when
    recombination exceeds its trial budget.
    """
    a = trim(tuple(Fraction(c) for c in a))
    if not a:
        raise ValueError("the zero polynomial has no factorization")
    found = []
    for part, mult in _squarefree(monic(a)):
        found.extend((g, mult) for g in _zassenhaus(_primitive(part)))
    found.sort(key=lambda item: (len(item[0]), item[1], item[0][::-1]))
    return a[-1], [(monic(g), mult) for g, mult in found]


def _squarefree(a: Poly) -> List[Tuple[Poly, int]]:
    """Yun's decomposition of a monic a into monic squarefree parts."""
    out = []
    da = derivative(a)
    g = gcd(a, da)
    if len(g) == 1:
        return [(a, 1)] if len(a) > 1 else []
    b, c = quo_rem(a, g)[0], quo_rem(da, g)[0]
    mult = 1
    while len(b) > 1:
        d = sub(c, derivative(b))
        g = gcd(b, d)
        if len(g) > 1:
            out.append((g, mult))
        b, c = quo_rem(b, g)[0], quo_rem(d, g)[0]
        mult += 1
    return out


def _primitive(a: Poly) -> Poly:
    """The primitive integer multiple of a with a positive leading coefficient."""
    den = math.lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    g = g if ints[-1] > 0 else -g
    return tuple(c // g for c in ints)


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _eisenstein(f: Poly) -> bool:
    """Eisenstein's criterion at a prime below 100."""
    g = math.gcd(*f[:-1])
    return any(
        g % p == 0 and f[-1] % p and f[0] % (p * p)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    )


def _ddf(f: Poly, p: int) -> List[Tuple[Poly, int]]:
    """Distinct-degree factorization of a monic squarefree f over Z/p."""
    out, h, d = [], (0, 1), 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, f, p)
        g = gcd(f, sub(h, (0, 1), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = quo_rem(f, g, p)[0]
            h = quo_rem(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g: Poly, d: int, p: int, rng: random.Random) -> List[Poly]:
    """Cantor-Zassenhaus split of g, a product of irreducibles of degree d over Z/p."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        h = gcd(g, sub(pow_mod(a, (p**d - 1) // 2, g, p), (1,), p), p)
        if 1 < len(h) < len(g):
            return _edf(h, d, p, rng) + _edf(quo_rem(g, h, p)[0], d, p, rng)


def _hensel(f: Poly, factors: List[Poly], p: int, modulus: int) -> List[Poly]:
    """Monic lifts modulo ``modulus`` = p^(2^j) of f = lc(f) * prod(factors) mod p."""
    if len(factors) == 1:
        return [monic(_red(list(f), modulus), modulus)]
    k = len(factors) // 2
    g = scale(_product(factors[:k], p), f[-1], p)
    h = _product(factors[k:], p)
    s = inverse_mod(g, h, p)
    t = quo_rem(sub((1,), mul(s, g, p), p), h, p)[0]
    m = p
    while m < modulus:
        # one quadratic Hensel step (von zur Gathen and Gerhard, Alg. 15.10)
        m = m * m
        e = sub(f, mul(g, h, m), m)
        q, r = quo_rem(mul(s, e, m), h, m)
        g = add(g, add(mul(t, e, m), mul(q, g, m), m), m)
        h = add(h, r, m)
        b = sub(add(mul(s, g, m), mul(t, h, m), m), (1,), m)
        c, d = quo_rem(mul(s, b, m), h, m)
        s = sub(s, d, m)
        t = sub(t, add(mul(t, b, m), mul(c, g, m), m), m)
    return _hensel(g, factors[:k], p, modulus) + _hensel(h, factors[k:], p, modulus)


def _product(factors: List[Poly], m: int) -> Poly:
    out = (1,)
    for u in factors:
        out = mul(out, u, m)
    return out


def _exact_quo(a: Poly, b: Poly):
    """a / b over Z when b divides a there, else None."""
    r, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            return None
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    return None if any(r[:db]) else tuple(q)


def _zassenhaus(f: Poly) -> List[Poly]:
    """Irreducible factors over Z of a squarefree primitive f with lc(f) > 0."""
    n = len(f) - 1
    if n == 1 or _eisenstein(f):
        return [f]
    # each small prime's degree pattern bounds the degrees a rational factor
    # can have: the sums of subsets of its modular factor degrees
    degrees, best, tried = (1 << (n + 1)) - 1, None, 0
    for p in _odd_primes():
        if f[-1] % p == 0:
            continue
        fp = monic(_red(list(f), p), p)
        if len(gcd(fp, derivative(fp, p), p)) > 1:
            continue
        split = _ddf(fp, p)
        sums, count = 1, 0
        for g, d in split:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                count += 1
        degrees &= sums
        if degrees == 1 | 1 << n:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, split)
        tried += 1
        if tried == _PRIME_TRIALS:
            break
    _, p, split = best
    rng = random.Random(p)
    factors = [u for g, d in split for u in _edf(g, d, p, rng)]
    # Mignotte: a factor of f has coefficients at most 2^n * ||f||_2, and the
    # lifted products carry lc(f) on top of that
    bound = 2 * f[-1] * 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel(f, factors, p, modulus), modulus, degrees)


def _recombine(f: Poly, lifted: List[Poly], modulus: int, degrees: int) -> List[Poly]:
    out, left, size, trials = [], list(range(len(lifted))), 1, 0
    half = modulus // 2
    while 2 * size <= len(left):
        for subset in itertools.combinations(left, size):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            trials += 1
            if trials > _MAX_TRIALS:
                raise StratificationOverflow(
                    f"factor recombination needs more than {_MAX_TRIALS} trials"
                )
            lc = f[-1]
            c0 = lc
            for i in subset:
                c0 = c0 * lifted[i][0] % modulus
            c0 = c0 - modulus if c0 > half else c0
            if c0 and f[0] and (lc * f[0]) % c0:
                continue
            g = scale(_product([lifted[i] for i in subset], modulus), lc, modulus)
            g = _primitive(tuple(c - modulus if c > half else c for c in g))
            quo = _exact_quo(f, g)
            if quo is None:
                continue
            out.append(g)
            f = quo
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


# ---------------------------------------------------------------------------
# Parser: a fixed grammar, sizes capped before anything is expanded
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([0-9]+(?:\.[0-9]*)?|\.[0-9]+)|([A-Za-z_]\w*)|(\*\*|[-+*/^()])|(\S))")


def parse(text: str) -> Tuple[Poly, Poly]:
    """(numerator, denominator) of a rational expression in t, over Q.

    The grammar is Python's for integers, decimals (read exactly), t,
    + - * /, unary signs, ^ or ** with an integer exponent, and parentheses.
    Every intermediate value is a pair of integer polynomials, and the
    degree and coefficient size of each product and power are checked
    against fixed caps before it is formed. Raises ParseError.
    """
    return _Parser(text).run()


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.pos, self.depth = [], 0, 0
        for number, name, op, bad in _TOKEN.findall(text):
            if bad:
                raise ParseError(f"unexpected character {bad!r}")
            if name and name != "t":
                raise ParseError(f"unknown symbol {name!r}")
            self.tokens.append(("n", number) if number else (name or op, None))

    def run(self) -> Tuple[Poly, Poly]:
        if not self.tokens:
            raise ParseError("empty expression")
        num, den = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"unexpected {self.tokens[self.pos][0]!r}")
        return tuple(map(Fraction, num)), tuple(map(Fraction, den))

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)
        self.pos += 1
        return token

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            (a, b), (c, d) = value, self.term()
            _check(max(len(a) + len(d), len(c) + len(b)) - 2,
                   max(_bits(a) + _bits(d), _bits(c) + _bits(b)) + 1)
            value = (add(mul(a, d), scale(mul(c, b), sign)), mul(b, d))
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            (a, b), (c, d) = value, self.factor()
            if op == "/":
                if not c:
                    raise ParseError("division by zero")
                c, d = d, c
            _check(max(len(a) + len(c), len(b) + len(d)) - 2,
                   max(_bits(a) + _bits(c), _bits(b) + _bits(d)))
            value = (mul(a, c), mul(b, d))
        return value

    def factor(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH}")
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            num, den = self.factor()
            value = (scale(num, sign), den)
        else:
            value = self.atom()
            if self.peek() in ("**", "^"):
                self.take()
                value = _power(value, _integer(self.factor()))
        self.depth -= 1
        return value

    def atom(self):
        kind, number = self.take()
        if kind == "n":
            whole, _, frac = number.partition(".")
            if len(whole + frac) > _MAX_LITERAL:
                raise ParseError(f"a literal longer than {_MAX_LITERAL} digits")
            value = (trim((int(whole + frac or "0"),)), (10 ** len(frac),))
            _check(0, max(map(_bits, value)))
            return value
        if kind == "t":
            return (0, 1), (1,)
        if kind == "(":
            value = self.expr()
            if self.take()[0] != ")":
                raise ParseError("unbalanced parentheses")
            return value
        raise ParseError("unexpected end of expression" if kind is None else f"unexpected {kind!r}")


def _bits(a: Poly) -> int:
    return max((abs(c).bit_length() for c in a), default=0) + len(a).bit_length()


def _check(degree: int, bits: int) -> None:
    if degree > _MAX_DEGREE:
        raise ParseError(f"degree above {_MAX_DEGREE}")
    if bits > _MAX_BITS:
        raise ParseError(f"coefficients above {_MAX_BITS} bits")


def _integer(value) -> int:
    num, den = value
    if len(num) > 1 or len(den) > 1 or (num and num[0] % den[0]):
        raise ParseError("exponents must be integers")
    return num[0] // den[0] if num else 0


def _power(value, e: int):
    num, den = value
    if e < 0:
        if not num:
            raise ParseError("division by zero")
        num, den, e = den, num, -e
    _check((max(len(num), len(den), 1) - 1) * e, max(_bits(num), _bits(den)) * e)
    return _ipow(num, e), _ipow(den, e)


def _ipow(a: Poly, e: int) -> Poly:
    out = (1,)
    while e:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def to_str(a: Poly) -> str:
    """The polynomial as the documents print it, e.g. ``3*t**2/2 - 1``.

    Terms run from the highest degree down, a coefficient a/b prints as
    ``a*t**k/b`` with a = 1 omitted, and a binomial c - m*t^k with c > 0
    puts the constant first, as in ``2 - t**3``.
    """
    terms = [(k, Fraction(c)) for k, c in enumerate(a) if c][::-1]
    if not terms:
        return "0"
    if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
        terms.reverse()
    out = []
    for k, c in terms:
        out.append("-" if c < 0 else "+")
        c = abs(c)
        if k == 0:
            out.append(str(c))
            continue
        body = "t" if k == 1 else f"t**{k}"
        if c.numerator != 1:
            body = f"{c.numerator}*{body}"
        out.append(body if c.denominator == 1 else f"{body}/{c.denominator}")
    head = "-" if out[0] == "-" else ""
    return head + " ".join(out[1:])
