"""Reflection-group data: exact matrices, reflections, hyperplane orbits,
conjugacy classes, irreducible characters, invariant degrees, fake degrees,
and the two coordinate systems (C and K) on the parameter space.

Supported groups: the cyclic group of order d acting on a line ("cyclic:d")
and the Weyl group of type B2 ("b2").

>>> W = build_group("b2")
>>> (len(W.names), len(W.reflections), W.degrees)
(8, 4, (2, 4))
>>> print(fake_degree(W, character_table(W)[4]))
t^3 + t
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .exactnum import Cyclotomic, primitive_root
from .multipoly import MPoly, canon_scalar, scalar_conjugate, scalar_div

__all__ = [
    "ReflectionGroup",
    "Character",
    "ParamVector",
    "ParamMap",
    "build_group",
    "character_table",
    "param_map",
    "param_forms",
    "param_convert",
    "fake_degree",
    "b_invariant",
]


# ---------------------------------------------------------------------------
# small exact matrix helpers (dim 1 or 2)
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(canon_scalar(sum(a[i][k] * b[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def mat_det(a):
    if len(a) == 1:
        return a[0][0]
    return canon_scalar(a[0][0] * a[1][1] - a[0][1] * a[1][0])


def mat_trace(a):
    return canon_scalar(sum(a[i][i] for i in range(len(a))))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inverse(a):
    n = len(a)
    if n == 1:
        return ((scalar_div(1, a[0][0]),),)
    det = mat_det(a)
    return (
        (scalar_div(a[1][1], det), scalar_div(-a[0][1], det)),
        (scalar_div(-a[1][0], det), scalar_div(a[0][0], det)),
    )


def mat_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def mat_rank_of_difference(a):
    """Rank of (a - id): 0 means identity, 1 means reflection."""
    n = len(a)
    rows = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = scalar_div(1, rows[rank][col])
        rows[rank] = [canon_scalar(v * inv) for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [canon_scalar(x - f * y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# group data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reflection:
    index: int            # element index in the group
    det: object           # determinant on V (a root of unity)
    orbit: str            # hyperplane-orbit label
    power: int            # j with the reflection = s_H^j on its hyperplane
    param: str            # C-coordinate name attached to its class


@dataclass(frozen=True)
class ReflectionGroup:
    spec: str
    dim: int
    names: tuple[str, ...]
    matrices: tuple            # action on V (column convention)
    dual_matrices: tuple       # action on V* in the dual basis
    mult_table: tuple          # mult_table[i][j] = index of g_i g_j
    inverse: tuple
    identity: int
    reflections: tuple         # of Reflection
    hyperplane_orbits: tuple   # of (label, e_orbit)
    conj_classes: tuple        # of tuples of element indices
    class_of: tuple            # element index -> class index
    degrees: tuple             # invariant degrees d_1 <= ... <= d_n
    v_names: tuple[str, ...]   # coordinate names on V
    dual_names: tuple[str, ...]  # coordinate names on V*

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def order(self) -> int:
        return len(self.names)

    def param_names(self) -> tuple[str, ...]:
        seen = []
        for r in self.reflections:
            if r.param not in seen:
                seen.append(r.param)
        return tuple(seen)

    def k_param_names(self) -> tuple[str, ...]:
        return tuple(lab for label, e in self.hyperplane_orbits
                     for lab in _orbit_k_labels(self, label, e))

    # monomial action on V and V* monomials -----------------------------

    def act_monomial(self, g: int, exp: tuple[int, ...], dual: bool):
        """Image of a monomial under g.  All group matrices are monomial
        matrices, so the image is (scalar, monomial)."""
        mat = self.dual_matrices[g] if dual else self.matrices[g]
        n = self.dim
        scalar = 1
        out = [0] * n
        for j, k in enumerate(exp):
            if k == 0:
                continue
            row = next(i for i in range(n) if mat[i][j] != 0)
            c = mat[row][j]
            if c != 1:
                scalar = scalar * (c ** k if k > 1 else c)
            out[row] += k
        return canon_scalar(scalar), tuple(out)


@dataclass(frozen=True)
class Character:
    name: str
    values: tuple              # indexed by conjugacy-class index
    group_spec: str

    @property
    def degree(self):
        return self.values[0]  # class 0 is the class of the identity

    def value_on_class(self, ci: int):
        return self.values[ci]

    def is_linear(self) -> bool:
        return self.degree == 1


def value_on_element(W: ReflectionGroup, chi: Character, g: int):
    return chi.values[W.class_of[g]]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_group(spec: str) -> ReflectionGroup:
    """Build "cyclic:d" (d >= 2) or "b2".

    >>> W = build_group("cyclic:3")
    >>> (W.order(), len(W.reflections), W.degrees)
    (3, 2, (3,))
    """
    if spec == "b2":
        return _build_b2()
    if spec.startswith("cyclic:"):
        order = spec.split(":", 1)[1]
        if not order.isdecimal():
            raise ValueError("cyclic group order must be a positive integer,"
                             f" got {order!r}")
        d = int(order)
        if d < 2:
            raise ValueError("cyclic group needs order >= 2")
        return _build_cyclic(d)
    raise ValueError(f"unknown group descriptor {spec!r}")


def _close_group(gens: dict[str, tuple]) -> tuple[list[str], list[tuple]]:
    """Generate the group from named generator matrices; names are shortest
    generator words (ties broken alphabetically), identity named "1"."""
    n = len(next(iter(gens.values())))
    ident = mat_identity(n)
    elems = {ident: "1"}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for m in frontier:
            for gname, gmat in sorted(gens.items()):
                prod = mat_mul(m, gmat)
                if prod not in elems:
                    word = (elems[m] + gname) if elems[m] != "1" else gname
                    elems[prod] = word
                    new_frontier.append(prod)
        frontier = new_frontier
    pairs = sorted(elems.items(), key=lambda kv: (len(kv[1]) if kv[1] != "1" else 0, kv[1]))
    names = [name for _, name in pairs]
    mats = [mat for mat, _ in pairs]
    return names, mats


def _finish_group(spec, dim, names, mats, v_names, dual_names,
                  orbit_of_reflection, param_of_reflection, power_of_reflection,
                  orbits):
    order = len(names)
    index = {m: i for i, m in enumerate(mats)}
    mult = tuple(tuple(index[mat_mul(mats[i], mats[j])] for j in range(order))
                 for i in range(order))
    inv = tuple(index[mat_inverse(mats[i])] for i in range(order))
    identity = index[mat_identity(dim)]
    duals = tuple(mat_transpose(mat_inverse(m)) for m in mats)

    # conjugacy classes
    class_of = [-1] * order
    classes = []
    for i in range(order):
        if class_of[i] >= 0:
            continue
        cls = sorted({mult[mult[g][i]][inv[g]] for g in range(order)})
        for j in cls:
            class_of[j] = len(classes)
        classes.append(tuple(cls))
    # put the identity class first
    classes.sort(key=lambda cls: (identity not in cls, cls))
    class_of = [next(ci for ci, cls in enumerate(classes) if i in cls)
                for i in range(order)]

    reflections = []
    for i in range(order):
        if mat_rank_of_difference(mats[i]) == 1:
            reflections.append(Reflection(
                index=i,
                det=mat_det(mats[i]),
                orbit=orbit_of_reflection[names[i]],
                power=power_of_reflection[names[i]],
                param=param_of_reflection[names[i]],
            ))
    degs = _degrees_from_molien(dim, mats, order, len(reflections))
    W = ReflectionGroup(
        spec=spec, dim=dim, names=tuple(names), matrices=tuple(mats),
        dual_matrices=duals, mult_table=mult, inverse=inv, identity=identity,
        reflections=tuple(reflections), hyperplane_orbits=tuple(orbits),
        conj_classes=tuple(classes), class_of=tuple(class_of),
        degrees=degs, v_names=tuple(v_names), dual_names=tuple(dual_names),
    )
    # Chevalley consistency: |W| = prod d_i, |Ref| = sum (d_i - 1)
    prod = 1
    for d in degs:
        prod *= d
    if prod != order or sum(d - 1 for d in degs) != len(reflections):
        raise ArithmeticError(f"invariant degrees {degs} violate Chevalley's"
                              f" |W| = {order}, |Ref| = {len(reflections)}")
    return W


def _build_cyclic(d: int) -> ReflectionGroup:
    z = primitive_root(d)
    names = ["1"] + [f"s^{i}" if i > 1 else "s" for i in range(1, d)]
    mats = [((canon_scalar(z ** i),),) for i in range(d)]
    orbit_of = {names[i]: "s" for i in range(1, d)}
    param_of = {names[i]: f"C{i}" for i in range(1, d)}
    power_of = {names[i]: i for i in range(1, d)}
    return _finish_group(f"cyclic:{d}", 1, names, mats, ("y",), ("x",),
                         orbit_of, param_of, power_of, [("s", d)])


def _build_b2() -> ReflectionGroup:
    s = ((0, 1), (1, 0))
    t = ((-1, 0), (0, 1))
    gens = {"s": s, "t": t}
    names, mats = _close_group(gens)
    # canonical ordering and naming
    wanted = ["1", "s", "t", "st", "ts", "sts", "tst", "w0"]
    lookup = {}
    for name, mat in zip(names, mats):
        lookup[name] = mat
    lookup["w0"] = lookup.pop("stst") if "stst" in lookup else lookup.pop("tsts")
    mats = [lookup[n] for n in wanted]
    orbit_of = {"s": "s", "tst": "s", "t": "t", "sts": "t"}
    param_of = {"s": "A", "tst": "A", "t": "B", "sts": "B"}
    power_of = {"s": 1, "tst": 1, "t": 1, "sts": 1}
    return _finish_group("b2", 2, wanted, mats, ("x", "y"), ("X", "Y"),
                         orbit_of, param_of, power_of, [("s", 2), ("t", 2)])


# ---------------------------------------------------------------------------
# truncated univariate series helpers (lists of scalars, index = degree)
# ---------------------------------------------------------------------------


def ser_inv(a, n):
    if a[0] == 0:
        raise ZeroDivisionError("series has no invertible constant term")
    inv0 = scalar_div(1, a[0])
    out = [inv0] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            if j < len(a) and a[j] != 0:
                acc = acc + a[j] * out[k - j]
        out[k] = canon_scalar(-1 * inv0 * acc) if acc != 0 else 0
    return out


def _det_one_minus_tw(mat):
    """Coefficients of det(1 - t * mat) as a list (degree <= dim)."""
    if len(mat) == 1:
        return [1, canon_scalar(-mat[0][0])]
    return [1, canon_scalar(-mat_trace(mat)), mat_det(mat)]


def _degrees_from_molien(dim, mats, order, num_reflections):
    n = order + 1
    series = [0] * (n + 1)
    for m in mats:
        inv = ser_inv(_det_one_minus_tw(m), n)
        series = [a + b for a, b in zip(series, inv)]
    series = [canon_scalar(scalar_div(c, order)) for c in series]
    degs = []
    for _ in range(dim):
        k = next(i for i in range(1, n + 1) if series[i] != 0)
        degs.append(k)
        # multiply by (1 - t^k)
        series = [canon_scalar(series[i] - (series[i - k] if i >= k else 0))
                  for i in range(n + 1)]
    if any(series[1:]) or series[0] != 1:
        raise ArithmeticError("invariant-degree extraction failed")
    return tuple(sorted(degs))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def character_table(W: ReflectionGroup) -> tuple[Character, ...]:
    """Irreducible characters.

    Cyclic d: the linear characters eps^i with eps(s) = z_d.
    B2: 1, eps_s, eps_t, eps, chi (chi = the reflection representation).
    Rows are verified orthonormal and sum(chi(1)^2) = |W|.
    """
    if W.spec.startswith("cyclic:"):
        d = W.order()
        z = primitive_root(d)
        chars = []
        for i in range(d):
            values = []
            for cls in W.conj_classes:
                j = cls[0]  # classes are singletons; element s^j
                power = next(p for p in range(d)
                             if W.matrices[j][0][0] == canon_scalar(z ** p))
                values.append(canon_scalar(z ** (i * power)))
            chars.append(Character(f"eps^{i}", tuple(values), W.spec))
    elif W.spec == "b2":
        def linear(val_s, val_t):
            vals = []
            for cls in W.conj_classes:
                g = cls[0]
                word = W.names[g] if W.names[g] not in ("1", "w0") else (
                    "" if W.names[g] == "1" else "stst")
                v = 1
                for ch in word:
                    v *= val_s if ch == "s" else val_t
                vals.append(v)
            return tuple(vals)

        chars = [
            Character("1", linear(1, 1), W.spec),
            Character("eps_s", linear(-1, 1), W.spec),
            Character("eps_t", linear(1, -1), W.spec),
            Character("eps", linear(-1, -1), W.spec),
            Character("chi", tuple(mat_trace(W.matrices[cls[0]])
                                   for cls in W.conj_classes), W.spec),
        ]
    else:
        raise ValueError(f"unsupported group {W.spec}")
    _check_character_table(W, chars)
    return tuple(chars)


def inner_product(W: ReflectionGroup, chi: Character, psi: Character):
    acc = 0
    for ci, cls in enumerate(W.conj_classes):
        acc = acc + len(cls) * chi.values[ci] * scalar_conjugate(psi.values[ci])
    return canon_scalar(scalar_div(acc, W.order()))


def _check_character_table(W, chars):
    for i, chi in enumerate(chars):
        for j, psi in enumerate(chars):
            expected = 1 if i == j else 0
            if inner_product(W, chi, psi) != expected:
                raise ArithmeticError(f"characters {chi.name}, {psi.name} are"
                                      " not orthonormal")
    if sum(chi.degree ** 2 for chi in chars) != W.order():
        raise ArithmeticError("sum of chi(1)^2 differs from |W|")


# ---------------------------------------------------------------------------
# fake degrees
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fake_degree(W: ReflectionGroup, chi: Character) -> MPoly:
    """The fake degree f_chi(t): graded multiplicity of chi in the
    coinvariant algebra carrying the V-side coordinates.

    >>> W = build_group("cyclic:4")
    >>> print(fake_degree(W, character_table(W)[3]))
    t^3
    """
    if not isinstance(chi, Character) or chi.group_spec != W.spec:
        raise ValueError("character does not belong to the group")
    if inner_product(W, chi, chi) != 1:
        raise ValueError("character is not irreducible")
    n = sum(d - 1 for d in W.degrees)  # top degree of the coinvariant algebra
    series = [0] * (n + 1)
    for g in range(W.order()):
        inv = ser_inv(_det_one_minus_tw(W.matrices[g]), n)
        weight = scalar_conjugate(value_on_element(W, chi, g))
        series = [a + weight * b for a, b in zip(series, inv)]
    series = [canon_scalar(scalar_div(c, W.order())) for c in series]
    for d in W.degrees:
        series = [canon_scalar(series[i] - (series[i - d] if i >= d else 0))
                  for i in range(n + 1)]
    t = MPoly.var("t")
    poly = MPoly.zero()
    for k, c in enumerate(series):
        if c != 0:
            poly = poly + MPoly.const(c) * t ** k
    return poly


def b_invariant(W: ReflectionGroup, chi: Character) -> int:
    """The t-valuation of the fake degree."""
    f = fake_degree(W, chi)
    if f.is_zero():
        raise ValueError("zero fake degree")
    i = f.vars.index("t") if "t" in f.vars else None
    if i is None:
        return 0
    return min(exp[i] for exp in f.terms)


# ---------------------------------------------------------------------------
# parameter coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamVector:
    """A point or symbolic coordinate vector on the parameter space, in
    C-coordinates (one value per reflection class) or K-coordinates
    (values K_{orbit,j} with sum_j K_{orbit,j} = 0 per orbit)."""

    group_spec: str
    basis: str                    # "C" or "K"
    entries: tuple                # of (label, value) pairs, fixed order

    def as_dict(self) -> dict:
        return dict(self.entries)

    @staticmethod
    def make(W: ReflectionGroup, basis: str, values: dict) -> "ParamVector":
        if basis == "C":
            labels = W.param_names()
        elif basis == "K":
            labels = W.k_param_names()
        else:
            raise ValueError("basis must be 'C' or 'K'")
        missing = [l for l in labels if l not in values]
        if missing:
            raise ValueError(f"missing parameter entries {missing}")
        entries = tuple((l, values[l]) for l in labels)
        pv = ParamVector(W.spec, basis, entries)
        if basis == "K":
            _check_k_constraint(W, pv)
        return pv


def _orbit_k_labels(W: ReflectionGroup, label: str, e: int):
    prefix = "K" if len(W.hyperplane_orbits) == 1 else f"K{label}"
    return [f"{prefix}{j}" for j in range(e)]


def _check_k_constraint(W, pv):
    vals = pv.as_dict()
    for label, e in W.hyperplane_orbits:
        total = 0
        for lab in _orbit_k_labels(W, label, e):
            total = total + vals[lab]
        if not (total == 0 or (isinstance(total, MPoly) and total.is_zero())):
            raise ValueError(f"K-coordinates of orbit {label} do not sum to zero")


@dataclass(frozen=True)
class ParamMap:
    """The change between the C- and K-coordinates of one group.

    Per hyperplane orbit of order e, the class of the reflections s_H^i has
    C_i = sum_j z_e^(i(j-1)) K_j (and C_0 = 0), inverted by
    K_j = (1/e) sum_i z_e^(-i(j-1)) C_i.  The constraint sum_j K_j = 0 is
    encoded by eliminating the orbit's K_0, so every C_s is a linear form in
    the remaining K-labels.
    """

    k_forms: MappingProxyType   # K-label -> MPoly, K_0 = -(K_1 + ... + K_{e-1})
    c_forms: MappingProxyType   # C-label -> MPoly, linear in the K-labels
    c_rows: tuple               # (C-label, ((K-label, coeff), ...)), read off c_forms
    k_rows: tuple               # (K-label, ((C-label, coeff), ...))


@functools.lru_cache(maxsize=None)
def param_map(W: ReflectionGroup) -> ParamMap:
    """The group's parameter map; the one place that holds the coefficient
    table z_e^(i(j-1)) and the elimination of K_0.

    >>> print(param_map(build_group("cyclic:2")).c_forms["C1"])
    2*K1
    """
    k_forms, c_forms, k_rows = {}, {}, []
    for label, e in W.hyperplane_orbits:
        z = primitive_root(e)
        table = [[canon_scalar(z ** (i * (j - 1) % e)) for j in range(e)]
                 for i in range(e)]
        klabs = _orbit_k_labels(W, label, e)
        kvars = [MPoly.var(lab) for lab in klabs]
        kvars[0] = -sum(kvars[1:], MPoly.zero())
        k_forms.update(zip(klabs, kvars))
        classes = {r.power: r.param for r in W.reflections if r.orbit == label}
        for i, param in classes.items():
            form = MPoly.zero()
            for j in range(e):
                form = form + kvars[j] * table[i][j]
            c_forms[param] = form
        for j, lab in enumerate(klabs):
            k_rows.append((lab, tuple(
                (param, scalar_div(scalar_conjugate(table[i][j]), e))
                for i, param in classes.items())))
    c_rows = tuple(
        (param, tuple((form.vars[exp.index(1)], c)
                      for exp, c in form.terms.items()))
        for param, form in c_forms.items())
    return ParamMap(MappingProxyType(k_forms), MappingProxyType(c_forms),
                    c_rows, tuple(k_rows))


@functools.lru_cache(maxsize=None)
def param_forms(W: ReflectionGroup, basis: str) -> MappingProxyType:
    """C_s -> its expression in the given coordinates: the variable C_s
    itself for "C", the linear form of `param_map` for "K"."""
    if basis == "C":
        return MappingProxyType({p: MPoly.var(p) for p in W.param_names()})
    if basis == "K":
        return param_map(W).c_forms
    raise ValueError("basis must be 'C' or 'K'")


def param_convert(W: ReflectionGroup, v: ParamVector, target: str) -> ParamVector:
    """Exact change of coordinates between the C and K bases, through the
    rows of `param_map`.

    >>> W = build_group("cyclic:2")
    >>> v = ParamVector.make(W, "K", {"K0": Fraction(-1), "K1": Fraction(1)})
    >>> param_convert(W, v, "C").as_dict()["C1"]
    2
    """
    if v.group_spec != W.spec:
        raise ValueError("parameter vector belongs to another group")
    if target not in ("C", "K"):
        raise ValueError("target basis must be 'C' or 'K'")
    if target == v.basis:
        return v
    pm = param_map(W)
    vals = v.as_dict()
    out = {}
    for label, row in (pm.c_rows if target == "C" else pm.k_rows):
        acc = 0
        for src, coeff in row:
            acc = coeff * vals[src] + acc
        out[label] = _canon_param(acc)
    return ParamVector.make(W, target, out)


def _canon_param(value):
    if isinstance(value, MPoly):
        return value
    return canon_scalar(value)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
