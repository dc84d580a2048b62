"""Sparse multivariate polynomials over the cyclotomic numbers, univariate
resultants and discriminants, exact polynomial square roots, and truncated
bivariate power series.

Coefficients ("scalars") are int, Fraction, or Cyclotomic values; results are
canonicalized so that rational values are stored as int/Fraction and only
genuinely irrational cyclotomic numbers keep the Cyclotomic type.

>>> x, y = MPoly.var("x"), MPoly.var("y")
>>> print((x + y) ** 2)
x^2 + 2*x*y + y^2
>>> print(discriminant(parse_poly("t^2 + b*t + c"), "t"))
b^2 - 4*c
"""
from __future__ import annotations

import re
from fractions import Fraction

from .exactnum import Cyclotomic, primitive_root

__all__ = [
    "MPoly",
    "TruncSeries2",
    "resultant",
    "discriminant",
    "poly_sqrt",
    "parse_poly",
    "charpoly_berkowitz",
]


def canon_scalar(c):
    """Normalize a scalar: rational cyclotomics become Fraction, integral
    fractions become int."""
    if isinstance(c, Cyclotomic):
        if c.order == 1:
            c = c.coeffs[0]
        else:
            return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def scalar_div(a, b):
    """Exact division of scalars."""
    if isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic):
        a = a if isinstance(a, Cyclotomic) else Cyclotomic.from_rational(a)
        b = b if isinstance(b, Cyclotomic) else Cyclotomic.from_rational(b)
        return canon_scalar(a / b)
    return canon_scalar(Fraction(a) / Fraction(b))


def scalar_conjugate(c):
    if isinstance(c, Cyclotomic):
        return canon_scalar(c.conjugate())
    return c


class MPoly:
    """Sparse multivariate polynomial: an ordered variable tuple and a map
    from exponent vectors to nonzero scalar coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                c = canon_scalar(c)
                if c != 0:
                    self.terms[tuple(exp)] = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c):
        c = canon_scalar(c)
        if c == 0:
            return MPoly((), {})
        return MPoly((), {(): c})

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly((name,), {(1,): 1})

    @staticmethod
    def zero() -> "MPoly":
        return MPoly((), {})

    # -- variable alignment ----------------------------------------------

    def _aligned(self, newvars: tuple[str, ...]) -> dict:
        if newvars == self.vars:
            return self.terms
        pos = [newvars.index(v) for v in self.vars]
        n = len(newvars)
        out = {}
        for exp, c in self.terms.items():
            newexp = [0] * n
            for p, e in zip(pos, exp):
                newexp[p] = e
            key = tuple(newexp)
            out[key] = out.get(key, 0) + c
        return out

    @staticmethod
    def _merge_vars(a: "MPoly", b: "MPoly") -> tuple[str, ...]:
        if a.vars == b.vars:
            return a.vars
        return tuple(sorted(set(a.vars) | set(b.vars)))

    def in_vars(self, newvars) -> "MPoly":
        newvars = tuple(newvars)
        missing = set(self.vars) - set(newvars)
        if missing:
            raise ValueError(f"cannot drop variables {sorted(missing)}")
        return MPoly(newvars, self._aligned(newvars))

    def trim(self) -> "MPoly":
        """Drop variables that do not occur."""
        used = [i for i, v in enumerate(self.vars)
                if any(exp[i] for exp in self.terms)]
        newvars = tuple(self.vars[i] for i in used)
        terms = {tuple(exp[i] for i in used): c for exp, c in self.terms.items()}
        return MPoly(newvars, terms)

    # -- coercion --------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, MPoly):
            return value
        if isinstance(value, (int, Fraction, Cyclotomic)):
            return MPoly.const(value)
        return NotImplemented

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = MPoly._merge_vars(self, other)
        a = self._aligned(nv)
        out = dict(a)
        for exp, c in other._aligned(nv).items():
            s = canon_scalar(out.get(exp, 0) + c)
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        result = MPoly.__new__(MPoly)
        result.vars = nv
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = MPoly.__new__(MPoly)
        result.vars = self.vars
        result.terms = {exp: -c for exp, c in self.terms.items()}
        return result

    def __sub__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = MPoly._merge_vars(self, other)
        a = self._aligned(nv)
        b = other._aligned(nv)
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        result = MPoly.__new__(MPoly)
        result.vars = nv
        result.terms = {}
        for exp, c in out.items():
            c = canon_scalar(c)
            if c != 0:
                result.terms[exp] = c
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = MPoly._merge_vars(self, other)
        return self._aligned(nv) == other._aligned(nv)

    def __hash__(self):
        t = self.trim()
        return hash((t.vars, frozenset(t.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ---------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self):
        for exp, c in self.terms.items():
            if any(exp):
                raise ValueError("not a constant polynomial")
        return self.terms.get(tuple([0] * len(self.vars)), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(exp[i] for exp in self.terms)

    def coefficient(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, a polynomial in the other variables."""
        if name not in self.vars:
            if power == 0:
                return self
            return MPoly.zero()
        i = self.vars.index(name)
        restvars = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == power:
                terms[exp[:i] + exp[i + 1:]] = c
        return MPoly(restvars, terms)

    def as_univariate(self, name: str) -> list["MPoly"]:
        """Dense coefficient list [c0, c1, ...] with respect to a variable."""
        d = self.degree_in(name)
        if d < 0:
            return []
        return [self.coefficient(name, k) for k in range(d + 1)]

    def substitute(self, assignments: dict) -> "MPoly":
        """Substitute polynomials or scalars for variables."""
        relevant = {k: v for k, v in assignments.items() if k in self.vars}
        if not relevant:
            return self
        result = MPoly.zero()
        cache: dict = {}

        def var_power(name, k):
            if k == 0:
                return MPoly.const(1)
            key = (name, k)
            if key not in cache:
                if name in relevant:
                    base = MPoly._coerce(relevant[name])
                else:
                    base = MPoly.var(name)
                cache[key] = base ** k
            return cache[key]

        for exp, c in self.terms.items():
            piece = MPoly.const(c)
            for name, k in zip(self.vars, exp):
                if k:
                    piece = piece * var_power(name, k)
            result = result + piece
        return result

    # -- lex order helpers ----------------------------------------------

    def _lex_leading(self):
        """(exponent, coeff) maximal in lex order over self.vars."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms)
        return exp, self.terms[exp]

    def divexact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ArithmeticError when not divisible."""
        other = MPoly._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MPoly.zero()
        if other.is_constant():
            c = other.constant_value()
            result = MPoly.__new__(MPoly)
            result.vars = self.vars
            result.terms = {exp: scalar_div(v, c) for exp, v in self.terms.items()}
            return result
        nv = MPoly._merge_vars(self, other)
        rem = dict(self._aligned(nv))
        den = other._aligned(nv)
        lt_exp = max(den)
        lt_coeff = den[lt_exp]
        quot: dict = {}
        while rem:
            exp = max(rem)
            c = rem[exp]
            qexp = tuple(a - b for a, b in zip(exp, lt_exp))
            if any(e < 0 for e in qexp):
                raise ArithmeticError("polynomial division is not exact")
            qc = scalar_div(c, lt_coeff)
            quot[qexp] = qc
            for dexp, dc in den.items():
                key = tuple(a + b for a, b in zip(qexp, dexp))
                s = canon_scalar(rem.get(key, 0) - qc * dc)
                if s == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = s
        result = MPoly.__new__(MPoly)
        result.vars = nv
        result.terms = quot
        return result

    def divides(self, other: "MPoly") -> bool:
        try:
            other.divexact(self)
            return True
        except ArithmeticError:
            return False

    # -- printing --------------------------------------------------------

    def sorted_terms(self):
        """Deterministic term order: graded lex, descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars, exp):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if isinstance(c, Cyclotomic):
                cs = f"({c})"
            else:
                cs = str(c)
            if mono:
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = f"-{mono}"
                else:
                    term = f"{cs}*{mono}"
            else:
                term = cs
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"MPoly({self})"


# ---------------------------------------------------------------------------
# univariate resultants over the polynomial ring
# ---------------------------------------------------------------------------


def _uni_degree(p: list[MPoly]) -> int:
    return len(p) - 1


def _uni_trim(p: list[MPoly]) -> list[MPoly]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _uni_scale(p: list[MPoly], c: MPoly) -> list[MPoly]:
    return _uni_trim([c * a for a in p])


def _uni_sub(p: list[MPoly], q: list[MPoly]) -> list[MPoly]:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else MPoly.zero()
        b = q[i] if i < len(q) else MPoly.zero()
        out.append(a - b)
    return _uni_trim(out)


def _uni_shift_mul(p: list[MPoly], c: MPoly, k: int) -> list[MPoly]:
    return [MPoly.zero()] * k + [c * a for a in p]


def _prem_full(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """Pseudo-remainder with the exact factor lc(b)^(da-db+1)."""
    da, db = _uni_degree(a), _uni_degree(b)
    lcb = b[-1]
    r = list(a)
    e = da - db + 1
    while r and _uni_degree(r) >= db:
        dr = _uni_degree(r)
        lead = r[-1]
        r = _uni_sub(_uni_scale(r, lcb), _uni_shift_mul(b, lead, dr - db))
        e -= 1
    if e > 0:
        r = _uni_scale(r, lcb ** e)
    return _uni_trim(r)


def resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant of f and g with respect to a variable, by the subresultant
    polynomial remainder sequence (fraction free).

    >>> f = parse_poly("t^2 - a")
    >>> print(resultant(f, parse_poly("t - b"), "t"))
    b^2 - a
    """
    A = _uni_trim(f.as_univariate(name))
    B = _uni_trim(g.as_univariate(name))
    if not A or not B:
        return MPoly.zero()
    sign = 1
    if _uni_degree(A) < _uni_degree(B):
        if (_uni_degree(A) % 2) and (_uni_degree(B) % 2):
            sign = -sign
        A, B = B, A
    if _uni_degree(B) == 0:
        return _scale_sign(B[0] ** _uni_degree(A), sign)
    g_prev = MPoly.const(1)
    h_prev = MPoly.const(1)
    while True:
        da, db = _uni_degree(A), _uni_degree(B)
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        R = _prem_full(A, B)
        A = B
        denom = g_prev * (h_prev ** delta)
        B = [c.divexact(denom) for c in R]
        _uni_trim(B)
        g_prev = A[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h_prev = g_prev
        else:
            h_prev = (g_prev ** delta).divexact(h_prev ** (delta - 1))
        if not B:
            return MPoly.zero()
        if _uni_degree(B) == 0:
            da = _uni_degree(A)
            res = (B[0] ** da).divexact(h_prev ** (da - 1)) if da > 1 else B[0]
            return _scale_sign(res, sign)


def _scale_sign(p: MPoly, sign: int) -> MPoly:
    return p if sign >= 0 else -p


def discriminant(f: MPoly, name: str) -> MPoly:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') for monic f in the given variable.

    >>> print(discriminant(parse_poly("t^3 + p*t + q"), "t"))
    -4*p^3 - 27*q^2
    """
    coeffs = f.as_univariate(name)
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if not (coeffs[-1].is_constant() and coeffs[-1].constant_value() == 1):
        raise ValueError("polynomial must be monic in the distinguished variable")
    deriv = MPoly.zero()
    tvar = MPoly.var(name)
    for k in range(1, d + 1):
        if not coeffs[k].is_zero():
            deriv = deriv + k * coeffs[k] * tvar ** (k - 1)
    res = resultant(f, deriv, name)
    return _scale_sign(res, -1 if (d * (d - 1) // 2) % 2 else 1)


# ---------------------------------------------------------------------------
# exact polynomial square root
# ---------------------------------------------------------------------------


def _scalar_sqrt(c):
    """Exact square root of a rational scalar, or None."""
    if isinstance(c, Cyclotomic):
        if c.order != 1:
            return None
        c = c.coeffs[0]
    q = Fraction(c)
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return canon_scalar(Fraction(num, den))


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def poly_sqrt(f: MPoly):
    """Return g with g*g == f (sign fixed so the lex-leading coefficient is
    positive when rational), or None when f is not a square.

    >>> g = parse_poly("x^2*y - z^2")
    >>> poly_sqrt(g * g) == g
    True
    """
    if f.is_zero():
        return MPoly.zero()
    lt_exp, lt_c = f._lex_leading()
    if any(e % 2 for e in lt_exp):
        return None
    root_c = _scalar_sqrt(lt_c)
    if root_c is None:
        return None
    half_exp = tuple(e // 2 for e in lt_exp)
    g = MPoly(f.vars, {half_exp: root_c})
    rem = f - g * g
    while not rem.is_zero():
        rexp, rc = rem._lex_leading()
        texp = tuple(a - b for a, b in zip(rexp, half_exp))
        if any(e < 0 for e in texp) or texp >= half_exp:
            return None
        tc = scalar_div(rc, 2 * root_c)
        t = MPoly(f.vars, {texp: tc})
        # (g + t)^2 = g^2 + 2 g t + t^2; update the remainder incrementally
        rem = rem - 2 * g * t - t * t
        g = g + t
    return g


# ---------------------------------------------------------------------------
# truncated bivariate power series
# ---------------------------------------------------------------------------


class TruncSeries2:
    """Power series in (t, u) truncated to the rectangle 0 <= i, j <= N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        self.coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i <= order and j <= order:
                    c = canon_scalar(c)
                    if c != 0:
                        self.coeffs[(i, j)] = c

    @staticmethod
    def one(order: int) -> "TruncSeries2":
        return TruncSeries2(order, {(0, 0): 1})

    @staticmethod
    def from_poly(p: MPoly, order: int, tname="t", uname="u") -> "TruncSeries2":
        coeffs = {}
        for exp, c in p.terms.items():
            i = j = 0
            for name, k in zip(p.vars, exp):
                if name == tname:
                    i = k
                elif name == uname:
                    j = k
                elif k:
                    raise ValueError(f"unexpected variable {name}")
            coeffs[(i, j)] = coeffs.get((i, j), 0) + c
        return TruncSeries2(order, coeffs)

    def get(self, i: int, j: int):
        return self.coeffs.get((i, j), 0)

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        out = {}
        for key in set(self.coeffs) | set(other.coeffs):
            out[key] = self.coeffs.get(key, 0) + other.coeffs.get(key, 0)
        return TruncSeries2(n, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries2(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _coerce(self, other):
        if isinstance(other, TruncSeries2):
            return other
        return TruncSeries2(self.order, {(0, 0): other})

    def __mul__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= n and j <= n:
                    key = (i, j)
                    out[key] = out.get(key, 0) + c1 * c2
        return TruncSeries2(n, out)

    __rmul__ = __mul__

    def scale(self, c):
        return TruncSeries2(self.order, {k: c * v for k, v in self.coeffs.items()})

    def invert(self) -> "TruncSeries2":
        c0 = self.get(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("series has no invertible constant term")
        n = self.order
        inv_c0 = scalar_div(1, c0)
        out = {(0, 0): inv_c0}
        for total in range(1, 2 * n + 1):
            for i in range(max(0, total - n), min(n, total) + 1):
                j = total - i
                if j < 0 or j > n:
                    continue
                acc = 0
                for (a, b), c in self.coeffs.items():
                    if (a, b) == (0, 0):
                        continue
                    if a <= i and b <= j:
                        prev = out.get((i - a, j - b), 0)
                        if prev != 0:
                            acc = acc + c * prev
                val = canon_scalar(-1 * acc * inv_c0) if acc != 0 else 0
                if val != 0:
                    out[(i, j)] = val
        return TruncSeries2(n, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        n = min(self.order, other.order)
        for i in range(n + 1):
            for j in range(n + 1):
                if canon_scalar(self.get(i, j)) != canon_scalar(other.get(i, j)):
                    return False
        return True

    def __hash__(self):
        raise TypeError("unhashable")

    def table(self):
        """Sorted (i, j, value) rows for printing."""
        return [(i, j, self.coeffs[(i, j)]) for (i, j) in sorted(self.coeffs)]

    def __str__(self):
        rows = [f"t^{i}*u^{j}: {v}" for i, j, v in self.table()]
        return "\n".join(rows) if rows else "0"


# ---------------------------------------------------------------------------
# characteristic polynomial (division free)
# ---------------------------------------------------------------------------


def charpoly_berkowitz(mat: list[list[MPoly]], name: str) -> MPoly:
    """Characteristic polynomial det(tI - M) by the Berkowitz algorithm
    (division free, exact over any commutative ring).

    >>> m = [[MPoly.const(2), MPoly.const(0)], [MPoly.const(0), MPoly.const(3)]]
    >>> print(charpoly_berkowitz(m, "t"))
    t^2 - 5*t + 6
    """
    n = len(mat)
    t = MPoly.var(name)
    if n == 0:
        return MPoly.const(1)
    # vectors of charpoly coefficients, highest degree first
    coeffs = [MPoly.const(1), -mat[0][0]]
    for k in range(1, n):
        # principal submatrix data
        a = mat[k][k]
        row = [mat[k][j] for j in range(k)]     # R (1 x k)
        col = [mat[i][k] for i in range(k)]     # C (k x 1)
        sub = [[mat[i][j] for j in range(k)] for i in range(k)]
        # Toeplitz column: [1, -a, -R C, -R A C, -R A^2 C, ...]
        tvals = [MPoly.const(1), -a]
        vec = col
        for _ in range(k):
            tvals.append(-sum((r * v for r, v in zip(row, vec)), MPoly.zero()))
            vec = [sum((sub[i][j] * vec[j] for j in range(k)), MPoly.zero())
                   for i in range(k)]
        newc = []
        for i in range(k + 2):
            acc = MPoly.zero()
            for j in range(len(coeffs)):
                d = i - j
                if 0 <= d < len(tvals):
                    acc = acc + tvals[d] * coeffs[j]
            newc.append(acc)
        coeffs = newc
    poly = MPoly.zero()
    for i, c in enumerate(coeffs):
        poly = poly + c * t ** (n - i)
    return poly


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_poly(text: str) -> MPoly:
    """Parse an infix polynomial expression with +, -, *, ^ and parentheses.

    Variable names are identifiers; "z<e>" denotes the primitive e-th root
    of unity (a scalar, not a variable).

    >>> print(parse_poly("(sigma + Pi)^2 - 2"))
    Pi^2 + 2*Pi*sigma + sigma^2 - 2
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> MPoly:
        sign = 1
        while peek() in ("+", "-"):
            if advance() == "-":
                sign = -sign
        node = parse_term()
        if sign < 0:
            node = -node
        while peek() in ("+", "-"):
            op = advance()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> MPoly:
        node = parse_power()
        while True:
            tok = peek()
            if tok == "*":
                advance()
                node = node * parse_power()
            elif tok is not None and tok not in ("+", "-", ")", "^", "**"):
                # implicit multiplication, e.g. "2x" or ")("
                node = node * parse_power()
            else:
                return node

    def parse_power() -> MPoly:
        base = parse_atom()
        if peek() in ("^", "**"):
            advance()
            exp_tok = advance()
            if not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(exp_tok)
        return base

    def parse_atom() -> MPoly:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            advance()
            node = parse_expr()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            advance()
            return node
        if tok == "-":
            advance()
            return -parse_atom()
        advance()
        if re.fullmatch(r"\d+/\d+", tok) or tok.isdigit():
            return MPoly.const(Fraction(tok))
        if re.fullmatch(r"z\d+", tok):
            return MPoly.const(primitive_root(int(tok[1:])))
        return MPoly.var(tok)

    node = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input near {tokens[pos:]!r}")
    return node


if __name__ == "__main__":
    import doctest

    doctest.testmod()
