"""The PBW engine for the rational Cherednik algebra at t=0 (and its
T-deformation): normal-form elements k[params] (x) k[V] (x) kW (x) k[V*],
straightening, Euler element, centrality tests, bigrading, linear-character
twists, and the Poisson bracket on the center.

Normal words are triples (V-monomial, group element, V*-monomial) with
coefficients that are polynomials in the reflection parameters and, for the
T-deformation, in T.  The parameters are written in C-coordinates (the
default) or in K-coordinates, where each C_s is the linear form of
`reflgrp.param_map`; the coordinates are part of the algebra an element lives
in, like the T flag.  The straightening core is the commutation rule, for v in
V and xi in V*:

    xi * v = v * xi - T<v,xi> - sum_s C_s <s(v)-v, xi> s

(the T term is dropped at t=0), together with w * v = w(v) * w.
"""
from __future__ import annotations

from .exactnum import Cyclotomic
from .multipoly import MPoly, canon_scalar
from .reflgrp import ReflectionGroup, Character, param_forms, value_on_element

__all__ = [
    "PBWElement",
    "multiply",
    "commutator",
    "is_central",
    "euler_element",
    "euler_element_T",
    "named_center_generators",
    "twist_by_linear_char",
    "poisson_bracket",
    "bidegree",
    "z_degree",
    "residue_summary",
]


_STRAIGHTEN_CACHE: dict = {}


class PBWElement:
    """An element of the algebra in PBW normal form; `basis` ("C" or "K")
    names the coordinates its parameter coefficients are written in."""

    __slots__ = ("group", "with_T", "basis", "terms")

    def __init__(self, group: ReflectionGroup, with_T: bool = False, terms=None,
                 basis: str = "C"):
        self.group = group
        self.with_T = with_T
        self.basis = basis
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = MPoly._coerce(c)
                if not c.is_zero():
                    self.terms[key] = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(W, with_T=False, basis="C"):
        return PBWElement(W, with_T, {}, basis)

    @staticmethod
    def one(W, with_T=False, basis="C"):
        return PBWElement(W, with_T, {_unit_key(W): MPoly.const(1)}, basis)

    @staticmethod
    def v_gen(W, i: int, with_T=False, basis="C"):
        """The i-th coordinate of V as an element."""
        p = tuple(1 if k == i else 0 for k in range(W.dim))
        return PBWElement.monomial(W, p, W.identity, _zeros(W), 1, with_T, basis)

    @staticmethod
    def dual_gen(W, i: int, with_T=False, basis="C"):
        q = tuple(1 if k == i else 0 for k in range(W.dim))
        return PBWElement.monomial(W, _zeros(W), W.identity, q, 1, with_T, basis)

    @staticmethod
    def group_gen(W, g: int, with_T=False, basis="C"):
        return PBWElement.monomial(W, _zeros(W), g, _zeros(W), 1, with_T, basis)

    @staticmethod
    def monomial(W, vexp, g, dexp, coeff=1, with_T=False, basis="C"):
        return PBWElement(W, with_T,
                          {(tuple(vexp), g, tuple(dexp)): MPoly._coerce(coeff)},
                          basis)

    def _like(self, terms) -> "PBWElement":
        """An element of the same algebra with the given terms."""
        return PBWElement(self.group, self.with_T, terms, self.basis)

    # -- linear structure --------------------------------------------------

    def _check_compat(self, other):
        if (self.group is not other.group or self.with_T != other.with_T
                or self.basis != other.basis):
            raise ValueError("algebra mismatch (group, T flag or parameter"
                             " coordinates)")

    def __add__(self, other):
        if isinstance(other, PBWElement):
            self._check_compat(other)
            out = dict(self.terms)
            for key, c in other.terms.items():
                s = out.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
            return self._like(out)
        return self + self._scalar(other)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, PBWElement):
            return self + (-other)
        return self + self._scalar(-MPoly._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._scalar(other)

    def _scalar(self, c) -> "PBWElement":
        """The scalar c times the unit, in the algebra of self."""
        return self._like({_unit_key(self.group): c})

    def scale(self, c) -> "PBWElement":
        c = MPoly._coerce(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        result = self._scalar(1)
        base = self
        while n:
            if n & 1:
                result = multiply(result, base)
            n >>= 1
            if n:
                base = multiply(base, base)
        return result

    def __eq__(self, other):
        if isinstance(other, PBWElement):
            self._check_compat(other)
            return self.terms == other.terms
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("unhashable")

    def is_zero(self) -> bool:
        return not self.terms

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_word_order):
            c = self.terms[key]
            mono = _word_str(self.group, key)
            cs = str(c)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif len(c.terms) > 1:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"PBWElement({self})"


def _word_order(key):
    p, _, q = key
    return (sum(p) + sum(q), key)


def _word_str(W, key) -> str:
    """A normal word (p, g, q) as text, e.g. "y^2*s*x"; the unit is "1"."""
    p, g, q = key
    factors = []
    for name, e in zip(W.v_names, p):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    if g != W.identity:
        factors.append(W.names[g])
    for name, e in zip(W.dual_names, q):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def _zeros(W):
    return (0,) * W.dim


def _unit_key(W):
    return (_zeros(W), W.identity, _zeros(W))


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def _pairing_s_minus_one(W, s_mat, vj, xi):
    """<s(e_vj) - e_vj, f_xi> for the V basis vector e_vj and dual f_xi."""
    c = s_mat[xi][vj] - (1 if xi == vj else 0)
    return canon_scalar(c)


def _dual_past_vmono(W: ReflectionGroup, xi: int, p: tuple, with_T: bool,
                     basis: str):
    """Correction terms of xi * p - p * xi, as a list of
    (coeff MPoly, V-monomial, group element index), with the parameters
    written in the given coordinates."""
    key = (W.spec, xi, p, with_T, basis)
    cached = _STRAIGHTEN_CACHE.get(key)
    if cached is not None:
        return cached
    if not any(p):
        _STRAIGHTEN_CACHE[key] = ()
        return ()
    j = next(i for i, e in enumerate(p) if e)
    p_rest = tuple(e - (1 if i == j else 0) for i, e in enumerate(p))
    extras = []
    forms = param_forms(W, basis)
    # - T <v, xi> p_rest
    if with_T and xi == j:
        extras.append((-MPoly.var("T"), p_rest, W.identity))
    # - sum_s C_s <s(v) - v, xi> s(p_rest) s
    for refl in W.reflections:
        coeff = _pairing_s_minus_one(W, W.matrices[refl.index], j, xi)
        if coeff == 0:
            continue
        scalar, image = W.act_monomial(refl.index, p_rest, dual=False)
        c = forms[refl.param] * (-coeff * scalar)
        extras.append((c, image, refl.index))
    # v * (corrections of xi * p_rest)
    for c, mono, g in _dual_past_vmono(W, xi, p_rest, with_T, basis):
        lifted = tuple(e + (1 if i == j else 0) for i, e in enumerate(mono))
        extras.append((c, lifted, g))
    # merge duplicates
    merged: dict = {}
    for c, mono, g in extras:
        prev = merged.get((mono, g))
        merged[(mono, g)] = c if prev is None else prev + c
    result = tuple((c, mono, g) for (mono, g), c in merged.items() if not c.is_zero())
    _STRAIGHTEN_CACHE[key] = result
    return result


def _lmul_dual(W, xi: int, elem: PBWElement) -> PBWElement:
    """Left multiplication by the xi-th V* coordinate."""
    out: dict = {}

    def add(key, c):
        prev = out.get(key)
        c = c if prev is None else prev + c
        if c.is_zero():
            out.pop(key, None)
        else:
            out[key] = c

    for (p, g, q), c in elem.terms.items():
        # xi * p = p * xi + corrections
        # main term: p * (xi * g) * q = p * g * (g^{-1}(xi)) * q
        ginv = W.inverse[g]
        scalar, image = W.act_monomial(ginv, tuple(1 if i == xi else 0
                                                   for i in range(W.dim)), dual=True)
        newq = tuple(a + b for a, b in zip(q, image))
        add((p, g, newq), c * scalar if scalar != 1 else c)
        for cc, mono, s in _dual_past_vmono(W, xi, p, elem.with_T, elem.basis):
            add((mono, W.mult_table[s][g], q), cc * c)
    return elem._like(out)


def _lmul_group(W, g: int, elem: PBWElement) -> PBWElement:
    out: dict = {}
    for (p, w, q), c in elem.terms.items():
        scalar, image = W.act_monomial(g, p, dual=False)
        key = (image, W.mult_table[g][w], q)
        cc = c * scalar if scalar != 1 else c
        prev = out.get(key)
        out[key] = cc if prev is None else prev + cc
    return elem._like(out)


def multiply(a: PBWElement, b: PBWElement) -> PBWElement:
    """Exact product in PBW normal form."""
    a._check_compat(b)
    W = a.group
    result = a._like({})
    for (p, g, q), c in a.terms.items():
        piece = b
        for xi in reversed(range(W.dim)):
            for _ in range(q[xi]):
                piece = _lmul_dual(W, xi, piece)
        if g != W.identity:
            piece = _lmul_group(W, g, piece)
        for j in range(W.dim):
            if p[j]:
                piece = a._like({(tuple(e + (p[j] if i == j else 0)
                                        for i, e in enumerate(pp)), w, qq): cc
                                 for (pp, w, qq), cc in piece.terms.items()})
        result = result + piece.scale(c)
    return result


def commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    return multiply(a, b) - multiply(b, a)


def algebra_generators(W: ReflectionGroup, with_T=False, basis="C") -> dict:
    """The generating set: V coordinates, V* coordinates, group generators."""
    gens = {}
    for i, name in enumerate(W.v_names):
        gens[name] = PBWElement.v_gen(W, i, with_T, basis)
    for i, name in enumerate(W.dual_names):
        gens[name] = PBWElement.dual_gen(W, i, with_T, basis)
    if W.spec == "b2":
        for name in ("s", "t"):
            gens[name] = PBWElement.group_gen(W, W.index_of(name), with_T, basis)
    else:
        gens["s"] = PBWElement.group_gen(W, W.index_of("s"), with_T, basis)
    return gens


def is_central(z: PBWElement) -> bool:
    """True iff z commutes with every algebra generator."""
    for gen in algebra_generators(z.group, z.with_T, z.basis).values():
        if not commutator(z, gen).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Euler element and the named center generators
# ---------------------------------------------------------------------------


def euler_element(W: ReflectionGroup, with_T: bool = False,
                  basis: str = "C") -> PBWElement:
    """eu = sum_i v_i xi_i + sum_s C_s s  (plus -dim*T in the T-deformation),
    with C_s written in the given parameter coordinates."""
    forms = param_forms(W, basis)
    terms: dict = {}
    for i in range(W.dim):
        p = tuple(1 if k == i else 0 for k in range(W.dim))
        terms[(p, W.identity, p)] = MPoly.const(1)
    for refl in W.reflections:
        key = (_zeros(W), refl.index, _zeros(W))
        terms[key] = terms.get(key, MPoly.zero()) + forms[refl.param]
    if with_T:
        key = _unit_key(W)
        terms[key] = terms.get(key, MPoly.zero()) - W.dim * MPoly.var("T")
    return PBWElement(W, with_T, terms, basis)


def euler_element_T(W: ReflectionGroup) -> PBWElement:
    return euler_element(W, with_T=True)


def named_center_generators(W: ReflectionGroup, basis: str = "C") -> dict:
    """Named central elements: eu for all groups; for B2 also eu', eu'',
    delta and the embedded invariants sigma, pi, Sigma, Pi; for cyclic the
    embedded invariants X = x^d (V* side) and Y = y^d (V side).  The B2
    generators are written in C-coordinates only."""
    gens = {"eu": euler_element(W, basis=basis)}
    if W.spec.startswith("cyclic:"):
        d = W.order()
        gens["X"] = PBWElement.monomial(W, (0,), W.identity, (d,), basis=basis)
        gens["Y"] = PBWElement.monomial(W, (d,), W.identity, (0,), basis=basis)
        return gens
    if W.spec != "b2":
        raise ValueError(f"no named generators for {W.spec}")
    if basis != "C":
        raise ValueError("the B2 generators are written in C-coordinates")
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
    return gens


# ---------------------------------------------------------------------------
# bigrading
# ---------------------------------------------------------------------------


def _term_bidegrees(elem: PBWElement, key, coeff: MPoly):
    """Set of bidegrees occurring in one normal word (V: (1,0), V*: (0,1),
    parameters and T: (1,1), group elements: (0,0))."""
    p, g, q = key
    base = (sum(p), sum(q))
    out = set()
    for exp in coeff.terms:
        pdeg = sum(exp)
        out.add((base[0] + pdeg, base[1] + pdeg))
    return out


def _bidegrees(elem: PBWElement) -> set:
    found = set()
    for key, c in elem.terms.items():
        found |= _term_bidegrees(elem, key, c)
    return found


def bidegree(elem: PBWElement):
    """The bidegree of a bihomogeneous element, or None."""
    found = _bidegrees(elem)
    if len(found) == 1:
        return found.pop()
    return None if found else (0, 0)


def residue_summary(elem: PBWElement, words: int = 3) -> dict:
    """A compact report of an element, for failed identities: its number of
    terms, its leading normal words (highest total degree first) and the
    bidegrees that occur."""
    leading = sorted(elem.terms, key=_word_order, reverse=True)[:words]
    return {"terms": len(elem.terms),
            "leading_words": [_word_str(elem.group, key) for key in leading],
            "bidegrees": sorted(_bidegrees(elem))}


def bihomogeneous_component(elem: PBWElement, i: int, j: int) -> PBWElement:
    out = {}
    for (p, g, q), c in elem.terms.items():
        vi, vj = sum(p), sum(q)
        keep = {exp: cc for exp, cc in c.terms.items()
                if (vi + sum(exp), vj + sum(exp)) == (i, j)}
        if keep:
            out[(p, g, q)] = MPoly(c.vars, keep)
    return elem._like(out)


def z_degree(elem: PBWElement):
    """The Z-degree (j - i) of a bihomogeneous element, or None."""
    bd = bidegree(elem)
    if bd is None:
        degs = set()
        for (p, g, q), c in elem.terms.items():
            degs.add(sum(q) - sum(p))
        return degs.pop() if len(degs) == 1 else None
    return bd[1] - bd[0]


# ---------------------------------------------------------------------------
# twists and the Poisson bracket
# ---------------------------------------------------------------------------


def twist_by_linear_char(gamma: Character, z: PBWElement) -> PBWElement:
    """The automorphism attached to a linear character: fixes V and V*,
    multiplies a group term w by gamma(w), and rescales C_s by gamma(s)^{-1}."""
    W = z.group
    if not gamma.is_linear():
        raise ValueError("twist requires a linear character")
    if z.basis != "C":
        raise ValueError("twist requires C-coordinates")
    subs = {}
    for refl in W.reflections:
        gs = value_on_element(W, gamma, refl.index)
        inv = gs if gs in (1, -1) else Cyclotomic._coerce(gs).inverse()
        if inv != 1:
            subs[refl.param] = MPoly.var(refl.param) * inv
    out = {}
    for (p, g, q), c in z.terms.items():
        cc = c.substitute(subs) if subs else c
        gval = value_on_element(W, gamma, g)
        if gval != 1:
            cc = cc * gval
        prev = out.get((p, g, q))
        out[(p, g, q)] = cc if prev is None else prev + cc
    return z._like(out)


def _lift_T(z: PBWElement) -> PBWElement:
    if z.with_T:
        return z
    return PBWElement(z.group, True, dict(z.terms), z.basis)


def _coeff_div_T_set_T0(c: MPoly) -> MPoly:
    """(c / T) with T then set to 0; c must be divisible by T."""
    if "T" not in c.vars:
        if c.is_zero():
            return c
        raise ArithmeticError("coefficient not divisible by T")
    i = c.vars.index("T")
    out = {}
    for exp, v in c.terms.items():
        if exp[i] == 0:
            raise ArithmeticError("coefficient not divisible by T")
        if exp[i] == 1:
            out[exp[:i] + exp[i + 1:]] = v
    return MPoly(c.vars[:i] + c.vars[i + 1:], out)


def poisson_bracket(z1: PBWElement, z2: PBWElement) -> PBWElement:
    """{z1, z2}: lift both to the T-deformation with identical coefficients,
    take the commutator, divide by T, and set T = 0.  Raises when the
    commutator is not divisible by T (non-central input)."""
    comm = commutator(_lift_T(z1), _lift_T(z2))
    out = {}
    for key, c in comm.terms.items():
        cc = _coeff_div_T_set_T0(c)
        if not cc.is_zero():
            out[key] = cc
    return PBWElement(z1.group, False, out, z1.basis)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
