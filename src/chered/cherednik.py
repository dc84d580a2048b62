"""The PBW engine for the rational Cherednik algebra at t=0 (and its
T-deformation): normal-form elements k[params] (x) k[V] (x) kW (x) k[V*],
straightening, Euler element, centrality search, bigrading, and the Poisson
bracket on the center.

Normal words are triples (V-monomial, basis element, V*-monomial) over a
basis of the group algebra kW.  An element carries that basis and its value,
and no flag: its terms {word: MPoly}, its one packed form in one `_Frame`
(basis, sorted variable tuple, field width), where a term is one int key and
one scalar, or both.  Products, sums, differences and scalings run on packed
forms and return an element born with its form; its terms are unpacked on
their first read.  An element built from terms adopts the frame of the first
operation that packs it, and an operation in any other frame packs it for
that operation only.  No field of a frame overflows:
every operation bounds the weight |p| + |q| + 2 deg(e) of its terms, by the
sum of the operands' bounds for a product, the larger of them for a sum and
the bound plus 2 deg(c) for a scaling by c, and takes fields that hold it
(`multiply`).  The basis is the group itself, whose elements take
coefficients that are polynomials in the reflection parameters C_s, or, for
a cyclic group, its primitive idempotents (`reflgrp.idempotent_basis`),
which take polynomials in the K_j.  The engine reads the group algebra only
through the fields of a basis (`reflgrp._Basis`: its unit, the products of
two basis elements, its parameters and the brackets [xi_i, v_j]) and its
moves b * m and m * b past a monomial m, and never asks which basis it has.
Straightening rests on one commutation rule, for v in V and xi in V*:

    [xi, v] = -sum_s C_s <s(v)-v, xi> s

together with w * v = w(v) * w and w * xi = w(xi) * w.  `_straighten` owns
the rule: it pushes a V* coordinate through a V-monomial for products in
normal form, and a V coordinate through a V*-monomial for the action on baby
Verma modules (`verma`).

The T-deformation, where [xi, v] gains the term -T<v, xi>, is one more
basis, `_deformed(B)`: a copy of B whose brackets carry that term and whose
parameters include T.  Its only caller is `poisson_bracket`.

For the order-2 cyclic group, s acts by -1, so <s(v)-v, xi> = -2:

>>> from chered.reflgrp import build_group, idempotent_basis
>>> W = build_group("cyclic:2")
>>> xi, v = PBWElement.dual_gen(W, 0), PBWElement.v_gen(W, 0)
>>> print(commutator(xi, v))
2*C1*s
>>> D = _deformed(W)
>>> print(commutator(PBWElement.dual_gen(D, 0), PBWElement.v_gen(D, 0)))
-T + 2*C1*s

In the idempotent basis, s = e_0 - e_1 and C1 = 2 K1:

>>> B = idempotent_basis(W)
>>> print(commutator(PBWElement.dual_gen(B, 0), PBWElement.v_gen(B, 0)))
4*K1*e_0 - 4*K1*e_1
"""
from __future__ import annotations

from functools import lru_cache, partial

from .exactnum import canon_scalar, format_power, format_sum
from .multipoly import MPoly, _field_bits, _packing

__all__ = [
    "PBWElement",
    "multiply",
    "commutator",
    "noncommuting_generator",
    "euler_element",
    "named_center_generators",
    "center_presentation",
    "poisson_bracket",
    "z_degree",
    "residue_summary",
]


# keyed by the basis object, which is equal only to itself: each basis keeps
# its own corrections
_STRAIGHTEN_CACHE: dict = {}


class PBWElement:
    """An element of the algebra in PBW normal form, over a basis of the
    group algebra: a `ReflectionGroup` or an `IdempotentBasis`.

    An element never changes once built.  It holds its value as `terms`,
    {normal word (p, g, q): MPoly}, as one packed form, `packed`
    {key: scalar} (see `multiply`) in the `_Frame` `frame`, or as both.
    `__init__` builds an element from its terms, with no packed form
    (None), and `_from_packed` from the packed form an operation returns,
    whose terms are unpacked on their first read (`_unpacked`).
    An element with no packed form takes the one that the first operation
    on it packs (`_packed`).  `variables` and `weight` choose the frame of
    an operation: the sorted union of the basis's parameters and its
    coefficients' variables, and a bound on the weight |p| + |q| + 2 deg(e)
    of its terms (0 for none).

    The packed form, the left multiples that `multiply` forms of the
    element as a right factor in its frame (`multiples`: (chains, pieces),
    None until the first) and the powers that `__pow__` forms (`powers`:
    {n: self ** n} for every n >= 2 up to the highest asked for, None until
    the first) are caches of its one value, so they stay valid for its
    lifetime."""

    __slots__ = ("basis", "_terms", "frame", "packed", "variables", "weight",
                 "multiples", "powers")

    def __init__(self, basis, terms=None):
        self.basis = basis
        self.frame = self.packed = self.powers = self.multiples = None
        self._terms = {}
        names, weight = set(basis.param_names), 0
        for (p, g, q), c in (terms or {}).items():
            c = MPoly._coerce(c)
            if not c.is_zero():
                self._terms[(p, g, q)] = c
                names.update(c.vars)
                weight = max(weight, sum(p) + sum(q)
                             + 2 * max(map(sum, c.terms)))
        self.variables, self.weight = tuple(sorted(names)), weight

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(B):
        return PBWElement(B, {})

    @staticmethod
    def one(B):
        return PBWElement.unit_monomial(B, _zeros(B), _zeros(B))

    @staticmethod
    def v_gen(B, i: int):
        """The i-th coordinate of V as an element."""
        p = tuple(1 if k == i else 0 for k in range(B.dim))
        return PBWElement.unit_monomial(B, p, _zeros(B))

    @staticmethod
    def dual_gen(B, i: int):
        q = tuple(1 if k == i else 0 for k in range(B.dim))
        return PBWElement.unit_monomial(B, _zeros(B), q)

    @staticmethod
    def group_gen(B, g: int):
        return PBWElement.monomial(B, _zeros(B), g, _zeros(B))

    @staticmethod
    def monomial(B, vexp, g, dexp, coeff=1):
        return PBWElement(B, {(tuple(vexp), g, tuple(dexp)): MPoly._coerce(coeff)})

    @staticmethod
    def unit_monomial(B, vexp, dexp, coeff=1):
        """coeff x^vexp xi^dexp, with the unit of the group algebra between:
        one word per basis element of the unit."""
        c = MPoly._coerce(coeff)
        return PBWElement(B, {(tuple(vexp), u, tuple(dexp)): c
                              for u in B.unit})

    @staticmethod
    def _from_packed(basis, frame, packed: dict, weight: int) -> "PBWElement":
        """The element whose packed form in frame is packed, each value a
        nonzero scalar and the dict never changed, with weight bound
        weight; its terms are unpacked on their first read."""
        result = PBWElement.__new__(PBWElement)
        result.basis, result.frame, result.packed = basis, frame, packed
        result._terms = result.powers = result.multiples = None
        result.variables, result.weight = frame.nv, weight
        return result

    @property
    def terms(self) -> dict:
        """{normal word (p, g, q): nonzero MPoly}, every coefficient over
        one variable tuple for an element that an operation returned."""
        terms = self._terms
        return _unpacked(self) if terms is None else terms

    # -- linear structure --------------------------------------------------

    def _check_compat(self, other):
        if self.basis is not other.basis:
            raise ValueError("elements of different groups, or over"
                             " different bases of one group algebra")

    def _operand(self, other):
        """other as an element of the algebra of self: itself, or an exact
        scalar times the unit; NotImplemented for anything else, so that
        Python raises its own TypeError."""
        if isinstance(other, PBWElement):
            return other
        c = MPoly._coerce(other)
        return NotImplemented if c is NotImplemented else self._scalar(c)

    def __add__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else _sum(self, other, True)

    def __rsub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else _sum(other, self, True)

    def _scalar(self, c) -> "PBWElement":
        """The scalar c times the unit, in the algebra of self."""
        B = self.basis
        return PBWElement.unit_monomial(B, _zeros(B), _zeros(B), c)

    def scale(self, c) -> "PBWElement":
        """c times self, for a polynomial or an exact scalar c, on packed
        terms: c's packed monomials added to each key.  A term's weight
        grows by at most 2 deg c.  Coefficients are polynomials over a
        field, so no product of two nonzero ones is zero."""
        coeff = MPoly._coerce(c)
        if coeff is NotImplemented:
            raise TypeError(f"cannot scale an algebra element by {c!r}")
        B = self.basis
        if coeff.is_zero():
            return PBWElement(B)
        weight = self.weight + 2 * max(map(sum, coeff.terms))
        frame = _frame_for(B, weight, self.variables, coeff.vars)
        keys = frame.coeff_keys
        factor = [(keys[e], v) for e, v in coeff._aligned(frame.nv).items()]
        packed = _packed(self, frame)
        if len(factor) == 1:
            (shift, v), = factor
            out = {k + shift: v * x for k, x in packed.items()}
        else:
            out = {}
            get = out.get
            for shift, v in factor:
                for k, x in packed.items():
                    k += shift
                    prev = get(k)
                    out[k] = v * x if prev is None else prev + v * x
            out = {k: x for k, x in out.items() if x != 0}
        return PBWElement._from_packed(B, frame, out, weight)

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return multiply(self, other)
        if MPoly._coerce(other) is NotImplemented:
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n by repeated multiplication, x^k = x^(k-1) * x from the
        highest power in `powers` below n, keeping every power it forms:
        the element never changes, so neither do its powers.  The left
        factor grows while the right one stays x; for sparse operands this
        beats square-and-multiply, whose squares multiply two large
        factors (Fateman, Stud. Appl. Math. 53, 1974), and the powers
        between serve later requests.  n = 1 gives self and n = 0 a new
        unit; neither is kept."""
        if n < 0:
            raise ValueError("negative power of an algebra element")
        if n < 2:
            return self if n else PBWElement.one(self.basis)
        powers = self.powers
        if powers is None:
            powers = self.powers = {}
        result = powers.get(n)
        if result is None:
            k = max((m for m in powers if m < n), default=1)
            result = powers.get(k, self)
            for k in range(k + 1, n + 1):
                result = powers[k] = multiply(result, self)
        return result

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compat(other)
        frame = _frame_for(self.basis, max(self.weight, other.weight),
                           self.variables, other.variables)
        return _packed(self, frame) == _packed(other, frame)

    def is_zero(self) -> bool:
        return not (self.packed if self._terms is None else self._terms)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        terms = self.terms

        def pair(key):
            c, word = terms[key], _word_str(self.basis, key)
            if word == "1":
                return str(c), ""
            return f"({c})" if len(c.terms) > 1 else str(c), word
        return format_sum(map(pair, sorted(terms, key=_word_order)))

    def __repr__(self):
        return f"PBWElement({self})"


def _sum(a: PBWElement, b: PBWElement, negate: bool) -> PBWElement:
    """a + b, or a - b when negate, on packed terms.  Each term of the
    result is a term of a or of b, or their two coefficients added on one
    word, so its weight is at most the larger of the two bounds."""
    a._check_compat(b)
    B = a.basis
    weight = max(a.weight, b.weight)
    frame = _frame_for(B, weight, a.variables, b.variables)
    out = dict(_packed(a, frame))
    get = out.get
    for k, v in _packed(b, frame).items():
        if negate:
            v = -v
        prev = get(k)
        if prev is None:
            out[k] = v
        else:
            v += prev
            if v != 0:
                out[k] = v
            else:
                del out[k]
    return PBWElement._from_packed(B, frame, out, weight)


def _word_order(key):
    p, _, q = key
    return (sum(p) + sum(q), key)


def _word_str(B, key) -> str:
    """A normal word (p, b, q) as text, e.g. "y^2*s*x"; the unit is "1"."""
    p, b, q = key
    factors = [format_power(name, e) for name, e in zip(B.v_names, p) if e]
    if (b,) != B.unit:
        factors.append(B.names[b])
    factors += [format_power(name, e) for name, e in zip(B.dual_names, q) if e]
    return "*".join(factors) if factors else "1"


def _zeros(B):
    return (0,) * B.dim


def _unpacked(elem) -> dict:
    """The terms of elem, unpacked from its packed form and kept: one
    `MPoly` over the frame's variable tuple per word, each coefficient
    canonical.  It reads the frame's masks and `unpack` and fills none of
    its tables."""
    frame, packed = elem.frame, elem.packed
    d, nv = elem.basis.dim, frame.nv
    n = len(nv)
    coeff_mask, word_mask, unpack = (frame.coeff_mask, frame.word_mask,
                                     frame.unpack)
    words: dict = {}
    exps: dict = {}
    for k, v in packed.items():
        word, coeff = k & word_mask, k & coeff_mask
        t = words.get(word)
        if t is None:
            t = words[word] = {}
        e = exps.get(coeff)
        if e is None:
            e = exps[coeff] = unpack(coeff)[d:d + n]
        t[e] = canon_scalar(v)
    terms = {}
    for word, t in words.items():
        fields = unpack(word)
        key = (fields[d + n:2 * d + n], fields[-1], fields[:d])
        terms[key] = MPoly._of(nv, t)
    elem._terms = terms
    return terms


def _packed(elem, frame) -> dict:
    """The packed form of elem in frame: its own when its frame has frame's
    shape (the same object, or one that `_frame` evicted and built again,
    whose keys are the same), or else packed from its terms, and kept as
    its own when it had none."""
    own = elem.frame
    if own is frame or own is not None and own.shape == frame.shape:
        return elem.packed
    packed = frame.pack(elem.terms)
    if own is None:
        elem.frame, elem.packed = frame, packed
    return packed


def _frame_for(B, weight: int, variables: tuple, *more) -> "_Frame":
    """The frame of an operation over the basis B whose terms weigh at most
    weight, on the sorted union of variables (an element's, so sorted and
    holding the parameters) and each tuple of more."""
    nv = variables
    for other in more:
        if other != nv and not set(other).issubset(nv):
            nv = tuple(sorted(set(nv).union(other)))
    return _frame(B, nv, _field_bits(max(weight, B.order() - 1)))


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def _straighten(B, side: str, i: int, mono: tuple):
    """Correction terms of g * mono - mono * g, as a list of
    (coeff MPoly, monomial, basis element index), over the basis B of the
    group algebra.

    On side "dual" g is the i-th V* coordinate and mono a V-monomial (the PBW
    engine); on side "v" g is the i-th V coordinate and mono a V*-monomial
    (the baby Verma modules).  Peeling the first variable u of mono,
    g (u rest) = u (g rest) + [g, u] rest, and b rest = c rest' b' for each
    basis element b of [g, u] (`B.b_mono`)."""
    key = (B, side, i, mono)
    cached = _STRAIGHTEN_CACHE.get(key)
    if cached is not None:
        return cached
    if not any(mono):
        _STRAIGHTEN_CACHE[key] = ()
        return ()
    j = next(k for k, e in enumerate(mono) if e)
    rest = tuple(e - (1 if k == j else 0) for k, e in enumerate(mono))
    # [g, u] is [xi, v] on side "dual" and [v, xi] = -[xi, v] on side "v",
    # where the monomial, and so b(rest), lives on the V* side
    dual = side == "v"
    sign, v, xi = (-1, i, j) if dual else (1, j, i)
    extras = []
    for c, b in B.brackets[xi][v]:
        scalar, image, b = B.b_mono(b, rest, dual)
        extras.append((c * (sign * scalar), image, b))
    # u * (corrections of g * rest)
    for c, m, b in _straighten(B, side, i, rest):
        lifted = tuple(e + (1 if k == j else 0) for k, e in enumerate(m))
        extras.append((c, lifted, b))
    merged: dict = {}
    for c, m, b in extras:
        prev = merged.get((m, b))
        merged[(m, b)] = c if prev is None else prev + c
    result = tuple((c, m, b) for (m, b), c in merged.items() if not c.is_zero())
    _STRAIGHTEN_CACHE[key] = result
    return result


def multiply(a: PBWElement, b: PBWElement) -> PBWElement:
    """Exact product in PBW normal form, over the basis of a and b: the
    t = 0 algebra over a basis of the group algebra, or its T-deformation
    over `_deformed` of one.

    A term c x^p g xi^q of a contributes c x^p (g (xi^q b)), g a basis
    element.  The left multiples xi^q b and g xi^q b of b are formed once
    each, and kept on b when the product runs in b's own frame
    (`PBWElement.multiples`), so a right factor used again, such as eu in
    the powers of eu, straightens nothing twice: the V* coordinates
    commute, so xi^q b = xi_i (xi^(q - e_i) b) for the first i with q_i > 0
    reuses the shorter chain.  Multiplying by x^p only shifts V-exponents.

    Every operation on elements (this one, `+`, `-`, `scale`, `==`) runs
    in the `_Frame` of its shape (basis, variable tuple, field width) on
    packed terms, each one int key and one scalar: the key packs, from the
    highest field down, the V*-exponents q, the exponents of the
    coefficient monomial over the sorted variable tuple (the operands'
    `variables`: the basis's parameters and their coefficients' variables),
    the V-exponents p and the basis element (`multipoly._packing`).  Each
    element keeps one packed form (`PBWElement.packed`, in the frame
    `PBWElement.frame`): a result is born with its own, whose terms are
    unpacked on their first read, and an element built from terms takes
    the form of the first operation that packs it.
    A shift by x^p, the move of a dual coordinate past a basis element and
    a straightening correction are one int addition each; they depend only
    on the low fields (p, g) of a key, and are memoised as packed deltas in
    the frame, which every later operation of that shape reuses.

    The fields need no overflow check.  Call |p| + |q| + 2 deg(e) the weight
    of a term, and `weight` the bound an element carries: the largest
    weight of its terms when it is built from them.  [xi, v] = -T<v,xi> -
    sum_s C_s <s(v)-v, xi> s trades one x and one xi for one T or one
    parameter (C_s, or a K_j in the idempotent basis), and a basis element
    moves past a monomial up to a scalar, so a term of a product weighs at
    most a term of a plus a term of b: its bound is the sum of theirs.  A
    term of a sum is a term of one operand, or two added on one word, so
    its bound is the larger of theirs; scaling by c adds at most 2 deg c.
    Every field is at most the bound of the operation, and the basis field
    at most the number of basis elements less one; an operand packed in
    another frame (a narrower one, or over fewer variables) is packed again
    from its terms, for this operation only."""
    a._check_compat(b)
    B = a.basis
    if a.is_zero() or b.is_zero():
        return PBWElement(B)
    weight = a.weight + b.weight
    frame = _frame_for(B, weight, a.variables, b.variables)
    left, right = _packed(a, frame), _packed(b, frame)
    own = right is b.packed     # frame is b's own, whose multiples b keeps
    found = b.multiples if own else None
    if found is None:
        found = ({0: right}, {})
        if own:
            b.multiples = found
    chains, pieces = found
    qg_mask = frame.qg_mask
    out: dict = {}
    get = out.get
    for key, c in left.items():
        qg = key & qg_mask
        piece = pieces.get(qg)
        if piece is None:
            piece = _piece(frame, chains, pieces, qg)
        shift = key - qg
        if c == 1:
            for k, v in piece.items():
                k += shift
                prev = get(k)
                out[k] = v if prev is None else prev + v
        else:
            for k, v in piece.items():
                k += shift
                v = c if v == 1 else c * v
                prev = get(k)
                out[k] = v if prev is None else prev + v
    return PBWElement._from_packed(
        B, frame, {k: v for k, v in out.items() if v != 0}, weight)


def _piece(frame, chains: dict, pieces: dict, qg: int) -> dict:
    """g xi^q b for the packed fields qg = (q, g), kept in pieces, from the
    chain xi^q b in chains (keyed by the packed q; chains[0] is b)."""
    g = qg & frame.basis_mask
    chain = _chain(frame, chains, qg - g)
    piece = pieces[qg] = (chain if g == frame.one
                          else _lmul_basis(frame, g, chain))
    return piece


def _chain(frame, chains: dict, q: int) -> dict:
    """xi^q b = xi_i (xi^(q - e_i) b) for the first i with q_i > 0, kept in
    chains."""
    chain = chains.get(q)
    if chain is None:
        i, unit = next((i, unit) for i, (mask, unit)
                       in enumerate(frame.dual_fields) if q & mask)
        chain = chains[q] = _lmul_dual(frame, i,
                                       _chain(frame, chains, q - unit))
    return chain


def _lmul_dual(frame, i: int, packed: dict) -> dict:
    """xi_i * the packed element."""
    out: dict = {}
    get = out.get
    steps, low_mask = frame.dual_steps[i], frame.low_mask
    for key, c in packed.items():
        scalar, delta, extra = steps[key & low_mask]
        k = key + delta
        v = c if scalar == 1 else scalar * c
        prev = get(k)
        out[k] = v if prev is None else prev + v
        for delta, cc in extra:
            k = key + delta
            prev = get(k)
            out[k] = cc * c if prev is None else prev + cc * c
    return {k: c for k, c in out.items() if c != 0}


def _lmul_basis(frame, g: int, packed: dict) -> dict:
    """g * the packed element, which maps distinct words to distinct words,
    or to zero."""
    out: dict = {}
    steps, low_mask = frame.basis_steps[g], frame.low_mask
    for key, c in packed.items():
        step = steps[key & low_mask]
        if step is not None:
            scalar, delta = step
            out[key + delta] = c if scalar == 1 else scalar * c
    return out


class _Frame:
    """The tables of the operations on elements that depend only on the
    shape of their packed keys: the basis B, the sorted variable tuple nv
    and the field width bits.  They map a coefficient exponent, a
    V-monomial and a V*-monomial to its packed key; (i, p) to the
    straightening corrections of xi_i x^p; and the low fields (p, g) of a
    key to the step of xi_i, or of a basis element, past them (None for a
    basis element whose product with g vanishes).  An entry follows from
    the shape and its key alone, so a frame gives the same products
    whichever products filled it, and `_frame` keeps the frames of the
    shapes a process uses."""

    __slots__ = ("shape", "nv", "one", "unpack", "low_mask", "coeff_mask",
                 "word_mask", "qg_mask", "basis_mask", "dual_fields",
                 "coeff_keys", "v_keys", "dual_keys", "corrections",
                 "dual_steps", "basis_steps")

    def __init__(self, B, nv: tuple, bits: int):
        d, n = B.dim, len(nv)
        pack, unpack = _packing(2 * d + n + 1, bits)
        zq, ze = (0,) * d, (0,) * n
        field = (1 << bits) - 1
        self.shape = (B, nv, bits)
        self.nv = nv
        self.one = B.unit[0] if len(B.unit) == 1 else None
        self.unpack = unpack
        self.low_mask = (1 << (d + 1) * bits) - 1       # the fields p and g
        self.coeff_mask = ((1 << n * bits) - 1) << (d + 1) * bits
        self.word_mask = ~self.coeff_mask
        self.basis_mask = field
        # the fields q and g, which name a left multiple g xi^q b
        self.qg_mask = ~((1 << (d + n + 1) * bits) - 1) | field
        # the field of each q_i, and the key of xi_i
        self.dual_fields = [(field << s, 1 << s) for s in (
            (2 * d + n - i) * bits for i in range(d))]
        self.coeff_keys = coeff_keys = _Memo(lambda e: pack((*zq, *e, *zq, 0)))
        self.v_keys = v_keys = _Memo(lambda p: pack((*zq, *ze, *p, 0)))
        self.dual_keys = dual_keys = _Memo(lambda q: pack((*q, *ze, *zq, 0)))
        mult = B.mult_table

        def low_fields(low):
            fields = unpack(low)
            return fields[d + n:2 * d + n], fields[-1]

        def straightened(key):
            """The corrections of xi_i x^p - x^p xi_i as (delta, s, scalar),
            the delta moving x^p to the correction's monomial and
            coefficient."""
            i, p = key
            return [(v_keys[mono] - v_keys[p] + coeff_keys[e], s, v)
                    for cc, mono, s in _straighten(B, "dual", i, p)
                    for e, v in cc._aligned(nv).items()]

        self.corrections = _Memo(straightened)

        def dual_step(i, low):
            """xi_i x^p g = x^p g' xi' + corrections, as the scalar and delta
            of the first term and the (delta, scalar) of the corrections
            x^m s g whose product s g does not vanish."""
            p, g = low_fields(low)
            xi = tuple(1 if k == i else 0 for k in range(d))
            scalar, h, qi = B.mono_b(xi, g)
            return (scalar, dual_keys[qi] + h - g,
                    [(delta + sg - g, v)
                     for delta, s, v in self.corrections[(i, p)]
                     for sg in (mult[s][g],) if sg is not None])

        def basis_step(g, low):
            """g x^p w = scalar x^p' g' w, as the scalar and the delta, or
            None when g' w vanishes."""
            p, w = low_fields(low)
            scalar, image, h = B.b_mono(g, p, dual=False)
            hw = mult[h][w]
            if hw is None:
                return None
            return scalar, v_keys[image] + hw - low

        self.dual_steps = [_Memo(partial(dual_step, i)) for i in range(d)]
        self.basis_steps = [_Memo(partial(basis_step, g))
                            for g in range(B.order())]

    def pack(self, terms: dict) -> dict:
        """The packed form of an element's terms in this frame."""
        nv, coeff_keys, v_keys, dual_keys = (self.nv, self.coeff_keys,
                                             self.v_keys, self.dual_keys)
        out = {}
        for (p, g, q), c in terms.items():
            base = dual_keys[q] + v_keys[p] + g
            for e, v in c._aligned(nv).items():
                out[base + coeff_keys[e]] = v
        return out


# keyed by the basis object, so each basis builds its own frames.  A process
# meets a few shapes; the bound keeps rare ones (a new variable tuple per
# call, say) from piling up, and an evicted frame is rebuilt on its next use.
_frame = lru_cache(maxsize=64)(_Frame)


class _Memo(dict):
    """A dict that fills in a missing key's value once, from fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    return multiply(a, b) - multiply(b, a)


@lru_cache(maxsize=None)
def algebra_generators(B) -> dict:
    """The generating set: V coordinates, V* coordinates, and the
    generators of the group algebra that the basis B names (for a group,
    those of its builder).  Cached per basis, so each generator keeps the
    left multiples it forms as a right factor; the result is shared and
    must not be changed."""
    gens = {}
    for i, name in enumerate(B.v_names):
        gens[name] = PBWElement.v_gen(B, i)
    for i, name in enumerate(B.dual_names):
        gens[name] = PBWElement.dual_gen(B, i)
    for name in B.generators:
        gens[name] = PBWElement.group_gen(B, B.index_of(name))
    return gens


def noncommuting_generator(z: PBWElement):
    """(name, [z, gen]) for the first algebra generator gen that z does not
    commute with, or None when z is central."""
    for name, gen in algebra_generators(z.basis).items():
        comm = commutator(z, gen)
        if not comm.is_zero():
            return name, comm
    return None


# ---------------------------------------------------------------------------
# Euler element and the named center generators
# ---------------------------------------------------------------------------


def euler_element(B) -> PBWElement:
    """eu = sum_i v_i xi_i + sum_s C_s s, over the basis B of the group
    algebra (`B.euler` writes sum_s C_s s in it)."""
    terms: dict = {}
    zeros = _zeros(B)
    for i in range(B.dim):
        p = tuple(1 if k == i else 0 for k in range(B.dim))
        for u in B.unit:
            terms[(p, u, p)] = MPoly.const(1)
    for c, g in B.euler:
        terms[(zeros, g, zeros)] = c
    return PBWElement(B, terms)


def named_center_generators(B) -> dict:
    """Named central elements: eu for all groups; for B2 also eu', eu'',
    delta and the embedded invariants sigma, pi, Sigma, Pi; for cyclic the
    embedded invariants X = x^d (V* side) and Y = y^d (V side).  Over the
    basis B of the group algebra: the group, or a cyclic group's
    idempotents."""
    return dict(center_presentation(B)[0])


@lru_cache(maxsize=None)
def center_presentation(W) -> tuple:
    """(generators, names, basis): the named central elements
    {name: PBWElement}, and the basis of Z as a free module over the
    invariant subalgebra P, each element a tuple of exponents over the
    generators `names`.  W is a basis of the group algebra (the group, or a
    cyclic group's idempotents, for rank 1).  Cached per basis; the result
    is shared and must not be changed.

    Rank 1, order d: {1, eu, ..., eu^(d-1)}.
    B2: {1, eu, eu^2, delta, delta eu, delta eu^2, eu', eu''}.
    """
    gens = {"eu": euler_element(W)}
    if W.spec != "b2":
        d = W.order()
        gens["X"] = PBWElement.unit_monomial(W, (0,), (d,))
        gens["Y"] = PBWElement.unit_monomial(W, (d,), (0,))
        return gens, ("eu",), tuple((i,) for i in range(d))
    A, B = MPoly.var("A"), MPoly.var("B")
    idx = W.index_of
    e = W.identity

    def mono(vexp, gname, dexp, coeff=1):
        return PBWElement.monomial(W, vexp, idx(gname), dexp, coeff)

    # naming: s' = tst, t' = sts, w = st, w' = ts
    eu1 = (mono((1, 0), "1", (1, 2)) + mono((0, 1), "1", (2, 1))
           - mono((0, 0), "s", (1, 1), A) + mono((0, 0), "tst", (1, 1), A)
           + mono((0, 0), "t", (0, 2), B) + mono((0, 0), "sts", (2, 0), B))
    eu2 = (mono((2, 1), "1", (0, 1)) + mono((1, 2), "1", (1, 0))
           - mono((1, 1), "s", (0, 0), A) + mono((1, 1), "tst", (0, 0), A)
           + mono((0, 2), "t", (0, 0), B) + mono((2, 0), "sts", (0, 0), B))
    delta = (mono((1, 1), "1", (1, 1))
             + mono((1, 0), "sts", (1, 0), B) + mono((0, 1), "t", (0, 1), B)
             + mono((0, 0), "1", (0, 0), B * B) + mono((0, 0), "w0", (0, 0), B * B)
             + mono((0, 0), "st", (0, 0), A * B) + mono((0, 0), "ts", (0, 0), A * B))
    gens.update({
        "eu'": eu1,
        "eu''": eu2,
        "delta": delta,
        "sigma": mono((2, 0), "1", (0, 0)) + mono((0, 2), "1", (0, 0)),
        "pi": mono((2, 2), "1", (0, 0)),
        "Sigma": mono((0, 0), "1", (2, 0)) + mono((0, 0), "1", (0, 2)),
        "Pi": mono((0, 0), "1", (2, 2)),
    })
    basis = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1),
             (1, 0, 0, 1), (2, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    return gens, ("eu", "eu'", "eu''", "delta"), basis


# ---------------------------------------------------------------------------
# bigrading
# ---------------------------------------------------------------------------


def _bidegrees(elem: PBWElement) -> set:
    """The bidegrees (|p| + deg e, |q| + deg e) over the normal words
    (p, g, q) of an element and the monomials e of their coefficients: V
    has bidegree (1, 0), V* (0, 1), parameters and T (1, 1) and group
    elements (0, 0)."""
    return {(sum(p) + sum(e), sum(q) + sum(e))
            for (p, _, q), c in elem.terms.items() for e in c.terms}


def residue_summary(elem: PBWElement) -> dict:
    """A compact report of an element, for failed identities: its number of
    terms, its three leading normal words (highest total degree first) and
    the bidegrees that occur."""
    leading = sorted(elem.terms, key=_word_order, reverse=True)[:3]
    return {"terms": len(elem.terms),
            "leading_words": [_word_str(elem.basis, key) for key in leading],
            "bidegrees": sorted(_bidegrees(elem))}


def z_degree(elem: PBWElement):
    """The Z-degree j - i of an element whose bidegrees (i, j) share it; 0
    for the zero element, and None when two bidegrees differ in it."""
    degs = {j - i for i, j in _bidegrees(elem)}
    if len(degs) > 1:
        return None
    return degs.pop() if degs else 0


# ---------------------------------------------------------------------------
# the Poisson bracket
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _deformed(B):
    """The basis B of the T-deformation: a copy of B's record whose
    [xi_i, v_i] gains -T times the unit, and whose parameters gain T.
    Cached per basis, so elements over it share one straightening cache and
    its frames."""
    minus_t = -MPoly.var("T")
    fields = {name: getattr(B, name) for name in type(B).__slots__}
    fields["brackets"] = tuple(
        tuple(bracket + tuple((minus_t, u) for u in B.unit) if i == j
              else bracket for j, bracket in enumerate(row))
        for i, row in enumerate(B.brackets))
    fields["param_names"] = B.param_names + ("T",)
    return type(B)(**fields)


def poisson_bracket(z1: PBWElement, z2: PBWElement) -> PBWElement:
    """{z1, z2}: the commutator of z1 and z2 in the T-deformation, divided by
    T, at T = 0.  The inputs are elements of the t = 0 algebra, so a
    coefficient that involves T raises ValueError; a commutator that is not
    divisible by T (non-central input) raises ArithmeticError."""
    z1._check_compat(z2)
    if any(c.degree_in("T") > 0 for z in (z1, z2) for c in z.terms.values()):
        raise ValueError("the Poisson bracket takes elements of the t = 0"
                         " algebra, not of its T-deformation")
    D = _deformed(z1.basis)
    comm = commutator(PBWElement(D, z1.terms), PBWElement(D, z2.terms))
    out = {}
    for key, c in comm.terms.items():
        if not c.coefficient("T", 0).is_zero():
            raise ArithmeticError("coefficient not divisible by T")
        out[key] = c.coefficient("T", 1)
    return PBWElement(z1.basis, out)
