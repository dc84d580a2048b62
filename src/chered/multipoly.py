"""Sparse multivariate polynomials over the cyclotomic numbers, univariate
resultants and discriminants, and the division-free characteristic
polynomial.

Coefficients ("scalars") are int, Fraction, or Cyclotomic values in the one
representation that `exactnum` owns: a rational is an int or a Fraction,
never a Cyclotomic, and results pass through `canon_scalar` so that an
integral Fraction is stored as an int.

A polynomial stores its terms as {exponent tuple: coefficient}, aligned to
its `vars`.  Inside a kernel an exponent tuple may become one int, its
entries packed big-endian into fields wide enough for the largest exponent
the kernel can produce (`_packing`; Monagan and Pearce, CASC 2007), so that
a monomial product is one integer addition and int order is lex order.  The
width comes from a bound, not from a check, and every width packs: 8, 16,
32 and 64 bits through `struct`, wider fields through shifts.

A product aligns both operands once and picks a kernel:
- an empty factor gives zero at once, and a one-term factor shifts the
  exponents of the other and scales its coefficients, with no
  accumulation, since distinct terms stay distinct; the constant 1 only
  copies, and a scalar factor only scales;
- otherwise a schoolbook product on packed keys, which it unpacks once.
A sum, and every kernel, stores a coefficient under a new exponent as it
is, and adds only where two terms meet.  `divexact` divides by lex leading
terms on packed keys, taking the next remainder term from a heap (Monagan
and Pearce, J. Symb. Comput. 2011).  `cherednik.multiply` packs whole PBW
terms the same way.

In one distinguished variable a polynomial is read as its dense coefficient
list: `as_univariate(name)` gives [c0, ..., cd] with cd nonzero ([] for
zero), each c_k a polynomial in the other variables, in one pass over the
terms, and `from_univariate(coeffs, name)` builds sum_k c_k name^k back.
`resultant` runs the subresultant algorithm on such lists, with one
pseudo-remainder (`_prem`) for its first step, Lazard's optimisation for a
drop of degree and Ducos's formula for the next subresultant;
`discriminant` and `charpoly_berkowitz`, and every caller that needs
coefficients in one variable, use the same pair.

>>> x, y = MPoly.var("x"), MPoly.var("y")
>>> print((x + y) ** 2)
x^2 + 2*x*y + y^2
>>> b, c, t = MPoly.var("b"), MPoly.var("c"), MPoly.var("t")
>>> print(discriminant(t ** 2 + b * t + c, "t"))
b^2 - 4*c
"""
from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add

from .exactnum import (Cyclotomic, canon_scalar, format_power, format_sum,
                       power, scalar_div)

__all__ = [
    "MPoly",
    "resultant",
    "discriminant",
    "charpoly_berkowitz",
]


class MPoly:
    """Sparse multivariate polynomial: an ordered variable tuple and a map
    from exponent vectors to nonzero scalar coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"repeated variable in {self.vars}")
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != len(self.vars):
                    raise ValueError(f"exponent {exp} does not match the"
                                     f" variables {self.vars}")
                c = canon_scalar(c)
                if c != 0:
                    self.terms[exp] = c

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

    @staticmethod
    def _of(vars: tuple, terms: dict) -> "MPoly":
        """The polynomial with the given terms, taken as they are: each
        exponent is aligned to vars, each coefficient a nonzero canonical
        scalar, and the dict is not shared."""
        result = MPoly.__new__(MPoly)
        result.vars = vars
        result.terms = terms
        return result

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
            out[tuple(newexp)] = c
        return out

    @staticmethod
    def _merge_vars(a: "MPoly", b: "MPoly") -> tuple[str, ...]:
        if a.vars == b.vars:
            return a.vars
        return tuple(sorted(set(a.vars) | set(b.vars)))

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
        out = dict(self._aligned(nv))
        _add_into(out, other._aligned(nv))
        return MPoly._of(nv, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.vars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction, Cyclotomic)):
                return self._scaled(other)
            return NotImplemented
        nv = MPoly._merge_vars(self, other)
        return MPoly._of(nv, _product(self._aligned(nv), other._aligned(nv)))

    __rmul__ = __mul__

    def _scaled(self, c) -> "MPoly":
        """self * c for a scalar c, with the variables a product with the
        constant polynomial c would have (sorted unless there are none)."""
        nv = self.vars if not self.vars else tuple(sorted(set(self.vars)))
        if c == 0:
            return MPoly._of(nv, {})
        return MPoly._of(nv, _product({(0,) * len(nv): c}, self._aligned(nv)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n) if n else MPoly.const(1)

    def __eq__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nv = MPoly._merge_vars(self, other)
        return self._aligned(nv) == other._aligned(nv)

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

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(exp[i] for exp in self.terms)

    def coefficient(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, a polynomial in the other variables:
        entry `power` of `as_univariate(name)`, and zero past either end."""
        coeffs = self.as_univariate(name)
        return coeffs[power] if 0 <= power < len(coeffs) else MPoly.zero()

    def as_univariate(self, name: str) -> list["MPoly"]:
        """Dense coefficient list [c0, ..., cd] in a variable, with cd
        nonzero, each c_k a polynomial in the other variables; [] for zero.
        The inverse of `from_univariate`."""
        if name not in self.vars:
            return [self] if self.terms else []
        i = self.vars.index(name)
        coeffs = [{} for _ in range(self.degree_in(name) + 1)]
        for exp, c in self.terms.items():
            coeffs[exp[i]][exp[:i] + exp[i + 1:]] = c
        restvars = self.vars[:i] + self.vars[i + 1:]
        return [MPoly._of(restvars, terms) for terms in coeffs]

    @staticmethod
    def from_univariate(coeffs, name: str) -> "MPoly":
        """sum_k coeffs[k] * name**k, for scalars or polynomials free of
        name, over the sorted variables of the coefficients and name."""
        coeffs = [MPoly._coerce(c) for c in coeffs]
        nv = tuple(sorted({name}.union(*(c.vars for c in coeffs))))
        i = nv.index(name)
        terms = {}
        for k, c in enumerate(coeffs):
            if c.degree_in(name) > 0:
                raise ValueError(f"coefficient {c} involves {name}")
            for exp, v in c._aligned(nv).items():
                terms[exp[:i] + (k,) + exp[i + 1:]] = v
        return MPoly._of(nv, terms)

    def substitute(self, assignments: dict) -> "MPoly":
        """Substitute polynomials or scalars for variables.  Each term is
        one chain of products with the powers it takes, all over the output
        variables (the sorted union of those of the powers used), added
        into one map: the sum is not copied once per term."""
        relevant = {k: v for k, v in assignments.items() if k in self.vars}
        if not relevant:
            return self
        used = {name for exp in self.terms
                for name, k in zip(self.vars, exp) if k}
        bases = {}
        for name in used:
            base = (MPoly._coerce(relevant[name]) if name in relevant
                    else MPoly.var(name))
            if base is NotImplemented:
                raise TypeError(f"cannot substitute {relevant[name]!r}"
                                f" for {name}: not an exact scalar or"
                                " a polynomial")
            bases[name] = base
        nv = tuple(sorted(set().union(*(b.vars for b in bases.values()))))
        cache: dict = {}

        def var_power(name, k):
            key = (name, k)
            if key not in cache:
                cache[key] = MPoly._of(nv, (bases[name] ** k)._aligned(nv))
            return cache[key]

        zeros = (0,) * len(nv)
        out: dict = {}
        for exp, c in self.terms.items():
            piece = MPoly._of(nv, {zeros: c})
            for name, k in zip(self.vars, exp):
                if k:
                    piece = piece * var_power(name, k)
            _add_into(out, piece.terms)
        return MPoly._of(nv, out)

    def divexact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ArithmeticError when not divisible.

        Division by the lex leading term on packed exponents: fields
        big-endian in the order of the variables, so that int order is lex
        order, and a max-heap of remainder keys, where a key whose term
        cancelled is skipped when popped.  Every exponent of an exact
        quotient is at most the dividend's largest exponent, so a quotient
        term past it ends an inexact division at once, and no remainder key
        exceeds the dividend's largest exponent plus the divisor's.  The
        fields hold that sum below a spare top bit, which a field sets when
        a subtraction borrows or a quotient exponent passes the bound."""
        other = MPoly._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MPoly.zero()
        if other.is_constant():
            c = other.constant_value()
            return MPoly._of(self.vars, {exp: scalar_div(v, c)
                                         for exp, v in self.terms.items()})
        nv = MPoly._merge_vars(self, other)
        num, den = self._aligned(nv), other._aligned(nv)
        top = max(map(max, num))
        bits = _field_bits(2 * (top + max(map(max, den))))
        pack, unpack = _packing(len(nv), bits)
        ones = pack((1,) * len(nv))
        spare = ones << (bits - 1)
        slack = ones * ((1 << (bits - 1)) - 1 - top)
        rem = {pack(exp): c for exp, c in num.items()}
        lead = max(den)
        lead_key, lead_coeff = pack(lead), den[lead]
        rest = [(pack(exp), -c) for exp, c in den.items() if exp != lead]
        heap = [-k for k in rem]
        heapify(heap)
        quot: dict = {}
        while heap:
            key = -heappop(heap)
            c = rem.pop(key, None)
            if c is None:
                continue
            qkey = key - lead_key
            if qkey & spare or (qkey + slack) & spare:
                raise ArithmeticError("polynomial division is not exact")
            qc = scalar_div(c, lead_coeff)
            quot[qkey] = qc
            for dkey, dc in rest:
                k = qkey + dkey
                prev = rem.get(k)
                if prev is None:
                    rem[k] = qc * dc
                    heappush(heap, -k)
                else:
                    s = prev + qc * dc
                    if s == 0:
                        del rem[k]
                    else:
                        rem[k] = s
        return MPoly._of(nv, {unpack(k): c for k, c in quot.items()})

    # -- printing --------------------------------------------------------

    def sorted_terms(self):
        """Deterministic term order: graded lex, descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        return format_sum(
            (f"({c})" if isinstance(c, Cyclotomic) else str(c),
             "*".join(format_power(name, k)
                      for name, k in zip(self.vars, exp) if k))
            for exp, c in self.sorted_terms())

    def __repr__(self):
        return f"MPoly({self})"


def _add_into(out: dict, terms: dict) -> None:
    """Add the term map terms into the map out, aligned to the same
    variables: a new exponent takes its coefficient as it is, and a sum
    that cancels is dropped."""
    get = out.get
    for exp, c in terms.items():
        prev = get(exp)
        if prev is None:
            out[exp] = c
            continue
        c = canon_scalar(prev + c)
        if c == 0:
            del out[exp]
        else:
            out[exp] = c


# struct codes of unsigned big-endian fields, by their widths in bits
_FIELDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _product(a: dict, b: dict) -> dict:
    """The product of two term maps aligned to the same variables, as a new
    map of nonzero canonical coefficients.  An empty factor gives the empty
    map, and a one-term factor shifts and scales the other (the constant 1
    only copies); otherwise `_packed_product`."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) > 1:
        return _packed_product(a, b)
    if not a:
        return {}
    (ea, ca), = a.items()
    if any(ea):
        if ca == 1:
            return {tuple(map(add, ea, eb)): cb for eb, cb in b.items()}
        return {tuple(map(add, ea, eb)): canon_scalar(ca * cb)
                for eb, cb in b.items()}
    if ca == 1:
        return dict(b)
    return {eb: canon_scalar(ca * cb) for eb, cb in b.items()}


def _field_bits(top: int) -> int:
    """The width of a packed field that holds the integers 0..top: the
    narrowest struct field of 8, 16, 32 or 64 bits, and past 64 bits as many
    bits as top needs."""
    w = top.bit_length()
    for bits in _FIELDS:
        if bits >= w:
            return bits
    return w


@lru_cache(maxsize=128)
def _packing(nfields: int, bits: int):
    """(pack, unpack) between tuples of nfields integers in 0..2^bits - 1
    and ints, the first entry in the highest field.  Fields do not carry
    into each other, so adding packed keys adds their tuples as long as each
    sum stays in range.  Widths of 8, 16, 32 and 64 bits go through a
    `struct`, any other width through shifts (slower, equally exact).  The
    pair is built once per shape, since every product packs."""
    code = _FIELDS.get(bits)
    if code is not None:
        fields = struct.Struct(f">{nfields}{code}")
        pack, unpack, size = fields.pack, fields.unpack, fields.size
        from_bytes = int.from_bytes
        return (lambda exp: from_bytes(pack(*exp), "big"),
                lambda k: unpack(k.to_bytes(size, "big")))
    shifts = tuple(range(bits * (nfields - 1), -1, -bits))
    mask = (1 << bits) - 1

    def pack_shifted(exp):
        k = 0
        for e in exp:
            k = k << bits | e
        return k

    return pack_shifted, lambda k: tuple(k >> s & mask for s in shifts)


def _packed_product(a: dict, b: dict) -> dict:
    """The schoolbook product of two term maps of several terms each, with
    each exponent vector packed into one int: a monomial product is one
    integer addition, and the result is unpacked once, its coefficients
    canonical and its zero sums dropped."""
    pack, unpack = _packing(len(next(iter(a))), _field_bits(
        max(map(max, a)) + max(map(max, b))))
    pb = [(pack(exp), c) for exp, c in b.items()]
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        ka = pack(ea)
        for kb, cb in pb:
            k = ka + kb
            prev = get(k)
            out[k] = ca * cb if prev is None else prev + ca * cb
    return {unpack(k): canon_scalar(c) for k, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# univariate resultants over the polynomial ring
# ---------------------------------------------------------------------------


def _prem(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b of coefficient
    lists, deg a >= deg b >= 1: one step per degree of a from the top down
    to deg b, each scaling by lc(b) and cancelling the top coefficient."""
    db, lcb = len(b) - 1, b[-1]
    r = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        lead = r.pop()
        r = [lcb * c for c in r]
        if lead:
            shift = top - db
            for k, c in enumerate(b[:-1]):
                r[shift + k] = r[shift + k] - lead * c
    while r and not r[-1]:
        r.pop()
    return r


def _lazard(x: MPoly, y: MPoly, n: int) -> MPoly:
    """x^n / y^(n-1) for n >= 1, by squaring along the bits of n with one
    exact division by y per step, so that every intermediate is some
    x^k / y^(k-1) with k <= n (Lazard's optimisation; Ducos, JPAA 145,
    2000)."""
    c = x
    for bit in bin(n)[3:]:
        c = (c * c).divexact(y)
        if bit == "1":
            c = (c * x).divexact(y)
    return c


def _next_subresultant(A: list[MPoly], B: list[MPoly], C: list[MPoly],
                       s: MPoly) -> list[MPoly]:
    """S_(e-1) by Ducos's formula, from A of degree d, B = S_(d-1) and
    C = S_e of degree e < d, and s = lc(S_d).  With H_j = lc(C) t^j for
    j < e, H_e = lc(C) t^e - C, and for e < j < d, H_j = t H_(j-1) less
    coeff_e(t H_(j-1)) B / lc(B), every H_j of degree below e:

        D = sum_(j<d) coeff_j(A) H_j / lc(A),
        S_(e-1) = (-1)^(d-e+1) (lc(B) (t H_(d-1) + D)
                                - coeff_e(t H_(d-1)) B) / s.

    Each division is exact (Ducos, JPAA 145, 2000)."""
    d, e = len(A) - 1, len(B) - 1
    lcb = B[-1]
    H = [-c for c in C[:-1]]
    D = [a * C[-1] for a in A[:e]]
    for j in range(e, d):
        if j > e:
            top = H[-1]
            H = [MPoly.zero()] + H[:-1]
            if top:
                H = [h - (top * b).divexact(lcb) for h, b in zip(H, B)]
        if A[j]:
            D = [x + A[j] * h for x, h in zip(D, H)]
    top, lca = H[-1], A[-1]
    tH = [MPoly.zero()] + H[:-1]
    S = [(lcb * (h + x.divexact(lca)) - top * b).divexact(s)
         for h, x, b in zip(tH, D, B)]
    if (d - e) % 2 == 0:
        S = [-c for c in S]
    while S and not S[-1]:
        S.pop()
    return S


def resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant of f and g with respect to a variable, by the subresultant
    algorithm on their coefficient lists with Lazard's and Ducos's
    optimisations (Ducos, JPAA 145, 2000): from P, Q with deg P >= deg Q,
    A = Q, B = prem(P, -Q) and s = lc(Q)^(deg P - deg Q), each step takes
    C = S_e = lc(B)^(d-e-1) B / s^(d-e-1) (`_lazard`), then B = S_(e-1)
    (`_next_subresultant`), A = C and s = lc(C), until B is constant or
    zero.  Every division is `divexact`, so an inexact one raises.

    >>> a, b, t = MPoly.var("a"), MPoly.var("b"), MPoly.var("t")
    >>> print(resultant(t ** 2 - a, t - b, "t"))
    b^2 - a
    """
    P, Q = f.as_univariate(name), g.as_univariate(name)
    if not P or not Q:
        return MPoly.zero()
    sign = 1
    if len(P) < len(Q):
        if len(P) % 2 == 0 and len(Q) % 2 == 0:
            sign = -1
        P, Q = Q, P
    if len(Q) == 1:
        res = Q[0] ** (len(P) - 1)
        return res if sign > 0 else -res
    s = Q[-1] ** (len(P) - len(Q))
    A, B = Q, _prem(P, [-c for c in Q])
    while B:
        d, e = len(A) - 1, len(B) - 1
        C = B
        if d - e > 1:
            c = _lazard(B[-1], s, d - e - 1)
            C = [(c * b).divexact(s) for b in B]
        if e == 0:
            return C[0] if sign > 0 else -C[0]
        A, B, s = C, _next_subresultant(A, B, C, s), C[-1]
    return MPoly.zero()


def discriminant(f: MPoly, name: str) -> MPoly:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') for monic f in the given variable.

    >>> p, q, t = MPoly.var("p"), MPoly.var("q"), MPoly.var("t")
    >>> print(discriminant(t ** 3 + p * t + q, "t"))
    -4*p^3 - 27*q^2
    """
    coeffs = f.as_univariate(name)
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic in the distinguished variable")
    deriv = MPoly.from_univariate([k * c for k, c in enumerate(coeffs) if k],
                                  name)
    res = resultant(f, deriv, name)
    return -res if (d * (d - 1) // 2) % 2 else res


# ---------------------------------------------------------------------------
# characteristic polynomial (division free)
# ---------------------------------------------------------------------------


def charpoly_berkowitz(mat: list[list[MPoly]], name: str) -> MPoly:
    """Characteristic polynomial det(tI - M) by the Berkowitz algorithm
    (division free, exact over any commutative ring; Berkowitz, IPL 18,
    1984).  Entries are polynomials or scalars.

    Step k borders the charpoly coefficients of the leading k x k block A
    with the Toeplitz column [1, -a, -R C, -R A C, ..., -R A^(k-1) C] of
    the next diagonal entry a, row R and column C.  Every sum of products
    in it (`_dot`) skips each product that has a zero factor, so a sparse
    matrix costs about as many products as it has nonzero entries.

    >>> m = [[MPoly.const(2), MPoly.const(0)], [MPoly.const(0), MPoly.const(3)]]
    >>> print(charpoly_berkowitz(m, "t"))
    t^2 - 5*t + 6
    """
    n = len(mat)
    if n == 0:
        return MPoly.const(1)
    # charpoly coefficients of the leading block, highest degree first
    coeffs = [MPoly.const(1), -mat[0][0]]
    for k in range(1, n):
        block = mat[:k]
        row, vec = mat[k][:k], [r[k] for r in block]
        tvals = [MPoly.const(1), -mat[k][k]]
        for _ in range(k):
            tvals.append(-_dot(row, vec))
            # A vec: zip in `_dot` stops at the k entries of vec
            vec = [_dot(r, vec) for r in block]
        coeffs = [_dot(coeffs, tvals[i::-1]) for i in range(k + 2)]
    return MPoly.from_univariate(coeffs[::-1], name)


def _dot(xs, ys):
    """sum_i xs[i] * ys[i] over the pairs with no zero factor; the zero
    polynomial when there is none."""
    products = [x * y for x, y in zip(xs, ys) if x and y]
    return sum(products[1:], products[0]) if products else MPoly.zero()
