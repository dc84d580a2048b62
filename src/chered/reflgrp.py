"""Reflection-group data: exact matrices, reflections, hyperplane orbits,
conjugacy classes, irreducible characters, invariant degrees, fake degrees,
and the two coordinate systems (C and K) on the parameter space.  A point of
the parameter space is a plain dict {label: value}; the C-labels are the
reflection classes.  `check_param_labels` is the one check of its labels,
`param_map` holds the change of coordinates as one table of rows each way,
and `param_convert` is the one conversion of a point.

Supported groups: the cyclic group of order d acting on a line ("cyclic:d")
and the Weyl group of type B2 ("b2").  Their builders, `_build_cyclic` and
`_build_b2`, are the one place where the facts of a group are written: the
generator matrices, the word of each element in the generators, and each
irreducible representation as the images of the generators.
`_finish_group` multiplies the words out once, for the group's matrices and
for the matrices of each representation; everything else, the character
table included, is computed from them.

A basis of the group algebra, for the PBW engine of `cherednik`, is either
the group itself (its elements, with coefficients in the C-coordinates) or,
for a cyclic group, `idempotent_basis` (its primitive idempotents, with
coefficients in the K-coordinates).  Both are `_Basis` records, which hold
the structure of the algebra as data: the unit, the products of two basis
elements, the parameters, the brackets [xi_i, v_j] and the group-algebra
part of the Euler element, beside the moves of a basis element past a
monomial.  The engine reads nothing else of a basis.

The records `Reflection`, `ReflectionGroup`, `Character`, `ParamMap` and
`IdempotentBasis` (and `cmcells`' partitions) are slotted and immutable, on
the base `_Record`: each field is set once, and setting or deleting one
raises AttributeError.  A record is equal only to itself; `build_group`,
`character_table` and `idempotent_basis` return one object per group, so
the caches keyed by these records hold one entry per group.

>>> W = build_group("b2")
>>> (len(W.names), len(W.reflections), W.degrees)
(8, 4, (2, 4))
>>> print(fake_degree(W, character_table(W)[4]))
t^3 + t
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from .exactnum import (Cyclotomic, canon_scalar, primitive_root, row_reduce,
                       scalar_div, scalar_pow)
from .multipoly import MPoly

__all__ = [
    "ReflectionGroup",
    "Character",
    "ParamMap",
    "IdempotentBasis",
    "build_group",
    "character_table",
    "k_forms",
    "param_map",
    "idempotent_basis",
    "check_param_labels",
    "param_convert",
    "fake_degree",
    "b_invariant",
    "inverse_det_series",
    "galois_orbits",
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
    return canon_scalar(a[0][0] * a[1][1] - a[0][1] * a[1][0])


def mat_trace(a):
    return canon_scalar(sum(a[i][i] for i in range(len(a))))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def mat_rank_of_difference(a):
    """Rank of (a - id): 0 means identity, 1 means reflection."""
    n = len(a)
    return len(row_reduce([[a[i][j] - (1 if i == j else 0) for j in range(n)]
                           for i in range(n)]))


# ---------------------------------------------------------------------------
# group data
# ---------------------------------------------------------------------------


class _Record:
    """Base of the immutable records: a subclass lists its fields in
    `__slots__` (and annotates them), and `__init__` binds each of them
    exactly once, by position in that order or by name.  Setting or
    deleting a field afterwards raises AttributeError.  A record is equal
    only to itself, so a cache keyed by a record holds the results of that
    object alone."""

    __slots__ = ()

    def __init__(self, *args, **named):
        cls, fields = type(self).__name__, type(self).__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls} takes the fields {fields}, got"
                            f" {len(args)} values by position")
        values = dict(zip(fields, args))
        for kind, bad in (("repeated", [f for f in named if f in values]),
                          ("unknown", [f for f in named if f not in fields]),
                          ("missing", [f for f in fields[len(args):]
                                       if f not in named])):
            if bad:
                raise TypeError(f"{cls}: {kind} fields {bad}; its fields are"
                                f" {fields}")
        values.update(named)
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Reflection(_Record):
    index: int            # element index in the group
    orbit: str            # hyperplane-orbit label
    power: int            # j with the reflection = s_H^j on its hyperplane
    param: str            # C-coordinate name attached to its class

    __slots__ = ("index", "orbit", "power", "param")


class _Basis(_Record):
    """Base of the bases of a group algebra that the PBW engine of
    `cherednik` reads: `ReflectionGroup` (the group elements) and
    `IdempotentBasis` (a cyclic group's primitive idempotents).  Each
    subclass lists these fields in its `__slots__`, and the engine reads
    them without asking which basis it has:

    - spec, dim, names, generators, v_names, dual_names: the names of the
      group, of the basis elements and generators, and of the coordinates;
    - unit: the basis elements whose sum is the unit;
    - mult_table[i][j]: the product of two basis elements (None for 0);
    - param_names: the variables of the structure constants;
    - brackets[i][j]: [xi_i, v_j] as ((coefficient, element), ...);
    - euler: the group-algebra part sum_s C_s s of the Euler element, as
      ((coefficient, element), ...);
    - group: the `ReflectionGroup` whose algebra it spans (a group is its
      own), which owns the coinvariants of the baby Verma modules;

    the methods `b_mono` and `mono_b`, the moves of a basis element past a
    monomial, and `matrices_in`, the matrix of each basis element in an
    irreducible representation, which a baby Verma module (`verma`) acts
    through."""

    __slots__ = ()

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def order(self) -> int:
        return len(self.names)


class ReflectionGroup(_Basis):
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
    # the names of the generators, each also the name of its element, and
    # (name, matrix of each element) per irreducible representation
    generators: tuple[str, ...]
    representations: tuple
    unit: tuple                # (identity,)
    param_names: tuple[str, ...]  # the C-labels, one per reflection class
    brackets: tuple            # -sum_s C_s <s(v_j) - v_j, xi_i> s
    euler: tuple               # sum_s C_s s

    __slots__ = ("spec", "dim", "names", "matrices", "dual_matrices",
                 "mult_table", "inverse", "identity", "reflections",
                 "hyperplane_orbits", "conj_classes", "class_of", "degrees",
                 "v_names", "dual_names", "generators", "representations",
                 "unit", "param_names", "brackets", "euler")

    @property
    def group(self) -> "ReflectionGroup":
        return self

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

    # the group as a basis of its group algebra (`cherednik`) -------------

    def b_mono(self, g: int, mono: tuple, dual: bool):
        """g * mono as (scalar, mono', g'): g mono = g(mono) g."""
        return (*self.act_monomial(g, mono, dual), g)

    def mono_b(self, mono: tuple, g: int):
        """mono * g for a V*-monomial, as (scalar, g', mono'):
        mono g = g g^-1(mono)."""
        scalar, image = self.act_monomial(self.inverse[g], mono, True)
        return scalar, g, image

    def matrices_in(self, chi: "Character") -> tuple:
        """The matrix of each element in the representation of chi:
        `chi.matrices`."""
        return chi.matrices


class Character(_Record):
    name: str
    values: tuple              # indexed by conjugacy-class index
    group_spec: str
    # a representation with these values: its matrix of each element
    matrices: tuple

    __slots__ = ("name", "values", "group_spec", "matrices")

    @property
    def degree(self):
        return self.values[0]  # class 0 is the class of the identity


def value_on_element(W: ReflectionGroup, chi: Character, g: int):
    return chi.values[W.class_of[g]]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_group(spec: str) -> ReflectionGroup:
    """Build "cyclic:d" (d >= 2) or "b2".  The groups are cached on d, so
    specs of one group ("cyclic:03", "cyclic:3") give one object.

    >>> W = build_group("cyclic:3")
    >>> (W.order(), len(W.reflections), W.degrees)
    (3, 2, (3,))
    >>> build_group("cyclic:03") is build_group("cyclic:3")
    True
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


def _realize(words, images):
    """The matrix of each word of `words` {element: word}, the product of
    the images of its letters read left to right.  Each word comes after the
    word one letter shorter, so each product takes one multiplication."""
    mats = {"": mat_identity(len(next(iter(images.values()))))}
    for word in filter(None, words.values()):
        mats[word] = mat_mul(mats[word[:-1]], images[word[-1]])
    return tuple(mats[word] for word in words.values())


def _finish_group(spec, dim, gens, words, irreps, v_names, dual_names,
                  orbit_of_reflection, param_of_reflection, power_of_reflection,
                  orbits):
    names = list(words)
    mats = _realize(words, gens)
    order = len(names)
    index = {m: i for i, m in enumerate(mats)}
    mult = tuple(tuple(index[mat_mul(mats[i], mats[j])] for j in range(order))
                 for i in range(order))
    identity = index[mat_identity(dim)]
    inv = tuple(row.index(identity) for row in mult)
    duals = tuple(mat_transpose(mats[inv[g]]) for g in range(order))

    # conjugacy classes, the identity class first
    classes = sorted({tuple(sorted({mult[mult[g][i]][inv[g]]
                                    for g in range(order)}))
                      for i in range(order)},
                     key=lambda cls: (identity not in cls, cls))
    class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}

    reflections = []
    for i in range(order):
        if mat_rank_of_difference(mats[i]) == 1:
            reflections.append(Reflection(
                index=i,
                orbit=orbit_of_reflection[names[i]],
                power=power_of_reflection[names[i]],
                param=param_of_reflection[names[i]],
            ))

    def bracket(i, j):
        """[xi_i, v_j] = -sum_s C_s <s(v_j) - v_j, xi_i> s."""
        pairings = ((r, canon_scalar(mats[r.index][i][j]
                                     - (1 if i == j else 0)))
                    for r in reflections)
        return tuple((MPoly.var(r.param) * -pairing, r.index)
                     for r, pairing in pairings if pairing != 0)

    degs = _degrees_from_molien(dim, mats, order)
    W = ReflectionGroup(
        spec=spec, dim=dim, names=tuple(names), matrices=tuple(mats),
        dual_matrices=duals, mult_table=mult, inverse=inv, identity=identity,
        reflections=tuple(reflections), hyperplane_orbits=tuple(orbits),
        conj_classes=tuple(classes),
        class_of=tuple(class_of[i] for i in range(order)),
        degrees=degs, v_names=tuple(v_names), dual_names=tuple(dual_names),
        generators=tuple(gens),
        representations=tuple((name, _realize(words, images))
                              for name, images in irreps.items()),
        unit=(identity,),
        param_names=tuple(dict.fromkeys(r.param for r in reflections)),
        brackets=tuple(tuple(bracket(i, j) for j in range(dim))
                       for i in range(dim)),
        euler=tuple((MPoly.var(r.param), r.index) for r in reflections),
    )
    # Chevalley consistency: |W| = prod d_i, |Ref| = sum (d_i - 1)
    prod = 1
    for d in degs:
        prod *= d
    if prod != order or sum(d - 1 for d in degs) != len(reflections):
        raise ArithmeticError(f"invariant degrees {degs} violate Chevalley's"
                              f" |W| = {order}, |Ref| = {len(reflections)}")
    return W


@functools.lru_cache(maxsize=None)
def _build_cyclic(d: int) -> ReflectionGroup:
    z = primitive_root(d)
    names = ["1"] + [f"s^{i}" if i > 1 else "s" for i in range(1, d)]
    words = {name: "s" * i for i, name in enumerate(names)}
    irreps = {f"eps^{i}": {"s": ((scalar_pow(z, i),),)} for i in range(d)}
    orbit_of = {names[i]: "s" for i in range(1, d)}
    param_of = {names[i]: f"C{i}" for i in range(1, d)}
    power_of = {names[i]: i for i in range(1, d)}
    return _finish_group(f"cyclic:{d}", 1, {"s": ((z,),)}, words, irreps,
                         ("y",), ("x",), orbit_of, param_of, power_of,
                         [("s", d)])


@functools.lru_cache(maxsize=None)
def _build_b2() -> ReflectionGroup:
    gens = {"s": ((0, 1), (1, 0)), "t": ((-1, 0), (0, 1))}
    words = {"1": "", "s": "s", "t": "t", "st": "st", "ts": "ts",
             "sts": "sts", "tst": "tst", "w0": "stst"}
    # the four sign characters on (s, t), then chi, the reflection
    # representation
    signs = {"1": (1, 1), "eps_s": (-1, 1), "eps_t": (1, -1), "eps": (-1, -1)}
    irreps = {name: {"s": ((a,),), "t": ((b,),)}
              for name, (a, b) in signs.items()}
    irreps["chi"] = gens
    orbit_of = {"s": "s", "tst": "s", "t": "t", "sts": "t"}
    param_of = {"s": "A", "tst": "A", "t": "B", "sts": "B"}
    power_of = {"s": 1, "tst": 1, "t": 1, "sts": 1}
    return _finish_group("b2", 2, gens, words, irreps, ("x", "y"),
                         ("X", "Y"), orbit_of, param_of, power_of,
                         [("s", 2), ("t", 2)])


# ---------------------------------------------------------------------------
# the series of one group element (a list of scalars, index = degree)
# ---------------------------------------------------------------------------


def inverse_det_series(mat, n):
    """Coefficients 0..n of 1/det(1 - t * mat) for a group matrix (dim 1 or
    2): the term of the Molien sum that belongs to one group element.  As
    det(1 - t g) = 1 - tr(g) t + det(g) t^2, the coefficients satisfy
    c_k = tr(g) c_(k-1) - det(g) c_(k-2), with no det term in dimension 1.

    >>> inverse_det_series(((-1,),), 4)
    [1, -1, 1, -1, 1]
    """
    tr = mat_trace(mat)
    det = mat_det(mat) if len(mat) == 2 else 0
    out = [0, 1]        # c_(-1), c_0
    for _ in range(n):
        c = tr * out[-1]
        if det:
            c = c - det * out[-2]
        out.append(canon_scalar(c))
    return out[1:]


@functools.lru_cache(maxsize=None)
def galois_orbits(W: ReflectionGroup) -> tuple[tuple[int, int], ...]:
    """One (representative, m) per orbit {g^b : gcd(b, m) = 1} of the maps
    g -> g^b, m the order of g and of every element of its orbit.  The
    representative is the least index of its orbit.  The orbits partition W,
    and the orbit of g has phi(m) elements, since g^b = g^b' exactly when
    b = b' mod m.

    The eigenvalues of g^b are the b-th powers of those of g, so
    det(1 - t g^b) = sigma_b(det(1 - t g)) for sigma_b: z_m -> z_m**b, and
    a sum over an orbit of a term built from det(1 - t g) is one trace from
    Q(z_m) to Q.

    >>> W = build_group("cyclic:8")
    >>> [(W.names[g], m) for g, m in galois_orbits(W)]
    [('1', 1), ('s', 8), ('s^2', 4), ('s^4', 2)]
    >>> sorted(sum(math.gcd(b, m) == 1 for b in range(m))
    ...        for _, m in galois_orbits(W))
    [1, 1, 2, 4]
    """
    mult = W.mult_table
    seen = set()
    orbits = []
    for g in range(W.order()):
        if g in seen:
            continue
        powers = [W.identity]      # g^0, ..., g^(m-1)
        x = g
        while x != W.identity:
            powers.append(x)
            x = mult[x][g]
        m = len(powers)
        seen.update(powers[b] for b in range(m) if math.gcd(b, m) == 1)
        orbits.append((g, m))
    return tuple(orbits)


def _degrees_from_molien(dim, mats, order):
    n = order + 1
    series = [0] * (n + 1)
    for m in mats:
        inv = inverse_det_series(m, n)
        series = [a + b for a, b in zip(series, inv)]
    series = [scalar_div(c, order) for c in series]
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
    """Irreducible characters: the trace of each representation of the
    group's builder on a representative of each class, carrying the
    representation's matrices.

    Cyclic d: the linear characters eps^i with eps(s) = z_d.
    B2: 1, eps_s, eps_t, eps, chi (chi = the reflection representation).
    Rows are verified orthonormal and sum(chi(1)^2) = |W|.
    """
    chars = tuple(Character(name, tuple(mat_trace(mats[cls[0]])
                                        for cls in W.conj_classes),
                            W.spec, mats)
                  for name, mats in W.representations)
    _check_character_table(W, chars)
    return chars


def inner_product(W: ReflectionGroup, chi: Character, psi: Character):
    acc = 0
    for ci, cls in enumerate(W.conj_classes):
        acc = acc + len(cls) * chi.values[ci] * psi.values[ci].conjugate()
    return scalar_div(acc, W.order())


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
        inv = inverse_det_series(W.matrices[g], n)
        weight = value_on_element(W, chi, g).conjugate()
        series = [a + weight * b for a, b in zip(series, inv)]
    series = [scalar_div(c, W.order()) for c in series]
    for d in W.degrees:
        series = [canon_scalar(series[i] - (series[i - d] if i >= d else 0))
                  for i in range(n + 1)]
    return MPoly.from_univariate(series, "t")


def b_invariant(W: ReflectionGroup, chi: Character) -> int:
    """The t-valuation of the fake degree."""
    f = fake_degree(W, chi)
    if f.is_zero():
        raise ValueError("zero fake degree")
    return next(k for k, c in enumerate(f.as_univariate("t")) if c)


# ---------------------------------------------------------------------------
# parameter coordinates
# ---------------------------------------------------------------------------


def _orbit_k_labels(W: ReflectionGroup, label: str, e: int):
    prefix = "K" if len(W.hyperplane_orbits) == 1 else f"K{label}"
    return [f"{prefix}{j}" for j in range(e)]


@functools.lru_cache(maxsize=None)
def k_forms(W: ReflectionGroup) -> MappingProxyType:
    """{K-label: MPoly}: each K-label of W as a linear form in the K-labels
    that are left once each orbit's constraint sum_j K_j = 0 is encoded by
    eliminating its K_0, so K_0 = -(K_1 + ... + K_(e-1)) and every other K_j
    is its own variable.  The forms are rational and involve no C-label, so
    they are built without the C<->K table of `param_map`.

    >>> {lab: str(f) for lab, f in k_forms(build_group("cyclic:3")).items()}
    {'K0': '-K1 - K2', 'K1': 'K1', 'K2': 'K2'}
    """
    forms = {}
    for label, e in W.hyperplane_orbits:
        klabs = _orbit_k_labels(W, label, e)
        kvars = [MPoly.var(lab) for lab in klabs]
        kvars[0] = -sum(kvars[1:], MPoly.zero())
        forms.update(zip(klabs, kvars))
    return MappingProxyType(forms)


class ParamMap(_Record):
    """The change between the C- and K-coordinates of one group, as two
    tables of rows (target label, ((source label, coefficient), ...)).

    Per hyperplane orbit of order e, the class of the reflections s_H^i has
    C_i = sum_j z_e^(i(j-1)) K_j (and C_0 = 0), inverted by
    K_j = (1/e) sum_i z_e^(-i(j-1)) C_i.  A C-row is read over the K-labels
    of `k_forms`, those left once K_0 = -(K_1 + ... + K_(e-1)) is
    eliminated, so its coefficient of K_j is z_e^(i(j-1)) - z_e^(-i), and
    the zero ones are dropped.
    """

    c_rows: tuple   # (C-label, ((K-label, coeff), ...)), K_0 eliminated
    k_rows: tuple   # (K-label, ((C-label, coeff), ...))

    __slots__ = ("c_rows", "k_rows")


@functools.lru_cache(maxsize=None)
def param_map(W: ReflectionGroup) -> ParamMap:
    """The group's parameter map; the one place that holds the coefficient
    table z_e^(i(j-1)), whose entries are `Cyclotomic` for e > 2.  Only a
    change of coordinates needs it (`param_convert`); what reads the
    K-coordinates alone reads `k_forms`.

    >>> param_map(build_group("cyclic:2")).c_rows
    (('C1', (('K1', 2),)),)
    """
    c_rows, k_rows = [], []
    for label, e in W.hyperplane_orbits:
        z = primitive_root(e)
        table = [[scalar_pow(z, i * (j - 1)) for j in range(e)] for i in range(e)]
        klabs = _orbit_k_labels(W, label, e)
        classes = {r.power: r.param for r in W.reflections if r.orbit == label}
        for i, param in classes.items():
            row = ((lab, canon_scalar(table[i][j] - table[i][0]))
                   for j, lab in enumerate(klabs) if j)
            c_rows.append((param, tuple((lab, c) for lab, c in row if c != 0)))
        for j, lab in enumerate(klabs):
            k_rows.append((lab, tuple(
                (param, scalar_div(table[i][j].conjugate(), e))
                for i, param in classes.items())))
    return ParamMap(tuple(c_rows), tuple(k_rows))


class IdempotentBasis(_Basis):
    """The primitive idempotents e_j = (1/d) sum_i z^(-ij) s^i of the group
    algebra of the cyclic group of order d, z = z_d, as a basis for the PBW
    engine (`cherednik`), with coefficients in the K-coordinates.

    It holds what the engine reads of a basis, as a `ReflectionGroup` does
    for its elements: the unit sum_j e_j, the moves e_j y^a = y^a e_(j-a)
    and e_j x^a = x^a e_(j+a) (from s y = z y s and s x = z^-1 x s), the
    products e_i e_j = delta_ij e_i, and, from C_i = sum_k z^(i(k-1)) K_k
    and sum_k K_k = 0,

        [x, y] = d sum_j (K_(1-j) - K_(-j)) e_j,
        sum_s C_s s = d sum_j K_(1-j) e_j,

    indices mod d.  Every structure constant is rational, so a product in
    this basis does no `Cyclotomic` arithmetic.  On the line of the linear
    character eps^m, e_j acts as 1 if j = m and as 0 otherwise."""

    group: ReflectionGroup     # the cyclic group
    spec: str                  # of its group
    dim: int                   # 1
    names: tuple[str, ...]     # "e_0", ..., "e_(d-1)"
    generators: tuple[str, ...]  # all of names
    v_names: tuple[str, ...]
    dual_names: tuple[str, ...]
    mult_table: tuple          # mult_table[i][j] = i if i == j, else None
    unit: tuple                # every index
    param_names: tuple[str, ...]  # the K-labels, K_0 eliminated
    brackets: tuple            # (([x, y] as ((K-form, j), ...),),)
    euler: tuple               # sum_s C_s s as ((K-form, j), ...)

    __slots__ = ("group", "spec", "dim", "names", "generators", "v_names",
                 "dual_names", "mult_table", "unit", "param_names",
                 "brackets", "euler")

    def b_mono(self, j: int, mono: tuple, dual: bool):
        """e_j * mono as (scalar, mono', e_j')."""
        a = mono[0] if dual else -mono[0]
        return 1, mono, (j + a) % len(self.names)

    def mono_b(self, mono: tuple, j: int):
        """mono * e_j for a V*-monomial, as (scalar, e_j', mono')."""
        return 1, (j - mono[0]) % len(self.names), mono

    def matrices_in(self, chi: Character) -> tuple:
        """The matrix of each e_j on the line of a linear character chi of
        the group, which sends the k-th element s^k to z^(mk) for one m: (1)
        for e_m and (0) for every other e_j.  m is read from chi's matrix of
        s, and ValueError is raised unless every matrix of chi is z^(mk)."""
        # the group's k-th matrix is ((z^k,),), as `idempotent_basis` checks
        mats, powers = chi.matrices, self.group.matrices
        d = len(powers)
        m = (next((m for m in range(d) if powers[m] == mats[1]), None)
             if len(mats) == d else None)
        if m is None or any(mats[k] != powers[m * k % d] for k in range(d)):
            raise ValueError(f"{chi.name} is not a linear character"
                             f" s^k -> z^(mk) of {self.spec}")
        return tuple(((int(j == m),),) for j in range(d))


@functools.lru_cache(maxsize=None)
def idempotent_basis(W: ReflectionGroup) -> IdempotentBasis:
    """The idempotent basis of the group algebra of W, with the K-forms of
    `k_forms(W)`, for a group whose irreducible representations are all
    lines (the cyclic groups); ValueError for any other group, and for a
    cyclic group whose k-th element does not act on V as z^k and on V* as
    z^-k, the matrices the rules of `IdempotentBasis` are read from.

    >>> B = idempotent_basis(build_group("cyclic:2"))
    >>> [(str(c), B.names[j]) for c, j in B.brackets[0][0]]
    [('4*K1', 'e_0'), ('-4*K1', 'e_1')]
    """
    if any(len(mats[0]) != 1 for _, mats in W.representations):
        raise ValueError("the idempotent basis needs a group whose"
                         f" characters are all linear, got {W.spec}")
    d = W.order()
    z = primitive_root(d)
    if any(W.matrices[k] != ((scalar_pow(z, k),),)
           or W.dual_matrices[k] != ((scalar_pow(z, -k),),) for k in range(d)):
        raise ValueError("the idempotent basis needs the k-th element to act"
                         f" as z^k on V and z^-k on V*, got {W.spec}")
    ks = list(k_forms(W).values())
    names = tuple(f"e_{j}" for j in range(d))
    euler = tuple((d * ks[(1 - j) % d], j) for j in range(d))
    return IdempotentBasis(
        group=W, spec=W.spec, dim=W.dim, names=names, generators=names,
        v_names=W.v_names, dual_names=W.dual_names,
        mult_table=tuple(tuple(i if i == j else None for j in range(d))
                         for i in range(d)),
        unit=tuple(range(d)),
        param_names=tuple(sorted({v for c, _ in euler for v in c.vars})),
        brackets=((tuple((d * (ks[(1 - j) % d] - ks[-j % d]), j)
                         for j in range(d)),),),
        euler=euler)


def check_param_labels(W: ReflectionGroup, values: dict, basis: str) -> None:
    """Raise ValueError unless the keys of `values` are exactly the labels of
    the `basis` ("C" or "K") of W, missing labels named first, and TypeError
    unless every value is exact: an int, a Fraction or a Cyclotomic.

    >>> check_param_labels(build_group("b2"), {"A": 1, "C": 5}, "C")
    Traceback (most recent call last):
    ...
    ValueError: missing parameter entries ['B']
    """
    labels = W.param_names if basis == "C" else W.k_param_names()
    missing = [l for l in labels if l not in values]
    if missing:
        raise ValueError(f"missing parameter entries {missing}")
    unknown = [l for l in values if l not in labels]
    if unknown:
        raise ValueError(f"unknown parameter entries {unknown}")
    inexact = {l: v for l, v in values.items()
               if not isinstance(v, (int, Fraction, Cyclotomic))}
    if inexact:
        raise TypeError(f"parameter values must be exact, got {inexact}")


def param_convert(W: ReflectionGroup, values: dict, target: str) -> dict:
    """Exact change of coordinates of a parameter point, a dict of values
    keyed by the labels of the other basis, into the `target` basis ("C" or
    "K") through the rows of `param_map`: its C-rows, or its K-rows.

    Every label of the source basis must be present.  A K-point must sum to
    zero on each orbit; the C-rows never read the eliminated K_0, so this
    is checked here.

    >>> W = build_group("cyclic:2")
    >>> param_convert(W, {"K0": -1, "K1": 1}, "C")
    {'C1': 2}
    >>> param_convert(W, {"K0": 1, "K1": 1}, "C")
    Traceback (most recent call last):
    ...
    ValueError: K-coordinates of orbit s do not sum to zero
    """
    if target not in ("C", "K"):
        raise ValueError("target basis must be 'C' or 'K'")
    check_param_labels(W, values, "K" if target == "C" else "C")
    if target == "C":
        for label, e in W.hyperplane_orbits:
            if sum(values[lab] for lab in _orbit_k_labels(W, label, e)) != 0:
                raise ValueError(
                    f"K-coordinates of orbit {label} do not sum to zero")
    out = {}
    pm = param_map(W)
    for label, row in pm.c_rows if target == "C" else pm.k_rows:
        acc = 0
        for src, coeff in row:
            acc = coeff * values[src] + acc
        out[label] = canon_scalar(acc)
    return out
