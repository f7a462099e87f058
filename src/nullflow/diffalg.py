"""Exact differential polynomial algebra over curvature generators.

The objects here are polynomials in the derivatives of a finite family of
curvature functions (k1, k2 by default), with coefficients that are exact
rationals times monomials in a fixed set of scalar parameters (a, b, c, G,
c1, c2, ... and the signs eps1, eps2, which square to one).  Everything is
exact: no floats, no simplification heuristics, one canonical form.

The total derivative D treats parameters as constants and bumps generator
orders.  On top of D the module provides the variational tools the rest of
the package needs: anti-derivatives on the image of D (by integration by
parts alone; the Euler operator is kept as the tests' exactness oracle), the
prolongation of an evolutionary vector field (prolong, apply_prolongation),
and through it Frechet derivatives of flow pairs and the Lie bracket of
evolution flows.

Canonical form.  A polynomial is a dict from term keys (gens, powers, eps1,
eps2) to nonzero int numerators over one positive int denominator, with
the denominator coprime to the numerators' content (the zero polynomial has
denominator 1); values become Fractions only at the edges: terms, the
one decoder (str and every reader outside this module walk it), const
and specialize.  gens is a tuple of ((variable, order), exponent)
pairs, strictly increasing in (variable, order), with exponents >= 1;
powers is a tuple of (name, exponent) pairs in parameter-rank order (a, b,
c, G, c1, c2, ...) with nonzero exponents, negative only on a; eps1 and
eps2 are bits, 0 or 1.  Every kernel keeps this invariant and relies on it,
so equal terms always meet at one key: D, partial derivatives and
integration edit one slot of an already sorted key, a product merges two
sorted generator tuples, and sums add into one dict term by term, all
without sorting generators again.  What still sorts: the parameter
monomial of a product whose two sides both carry parameters, the
generators that specialize renames, and terms, into canonical order.  No
cache outlives a call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Union


def _read_max_order() -> int:
    raw = os.environ.get("NULLFLOW_MAX_ORDER", "")
    try:
        value = int(raw)
    except ValueError:
        return 12
    return value if value >= 1 else 12


#: Hard cap on derivative orders.  Creating a generator beyond this raises
#: OrderLimitError.  Overridable through the NULLFLOW_MAX_ORDER env var.
MAX_ORDER = _read_max_order()


class DiffAlgError(Exception):
    """Base class for errors raised by the exact algebra."""


class NotExact(DiffAlgError):
    """An anti-derivative was requested of something outside the image of D."""


class NonZeroConstantTerm(DiffAlgError):
    """The operation needs a polynomial with zero constant term."""


class OrderLimitError(DiffAlgError):
    """A derivative order would exceed MAX_ORDER."""


_NAMED_PARAM_RANK = {"a": (0, 0), "b": (1, 0), "c": (2, 0), "G": (3, 0)}


def _param_rank(name: str) -> tuple[int, int]:
    """Sort rank of a parameter symbol; raises for unknown names."""
    rank = _NAMED_PARAM_RANK.get(name)
    if rank is not None:
        return rank
    if len(name) > 1 and name[0] == "c" and name[1] != "0" and name[1:].isdigit():
        return (4, int(name[1:]))
    raise DiffAlgError("unknown parameter symbol %r" % (name,))


def _power_rank(item: tuple[str, int]) -> tuple[int, int]:
    return _param_rank(item[0])


# Term keys are canonical; see the module docstring.
_GenPart = tuple[tuple[tuple[str, int], int], ...]
_TermKey = tuple[_GenPart, tuple[tuple[str, int], ...], int, int]


def _merge_gens(g1: _GenPart, g2: _GenPart) -> _GenPart:
    """Product of two generator monomials; exponents only add, never cancel."""
    out = []
    i = j = 0
    n1, n2 = len(g1), len(g2)
    while i < n1 and j < n2:
        left, right = g1[i], g2[j]
        if left[0] < right[0]:
            out.append(left)
            i += 1
        elif right[0] < left[0]:
            out.append(right)
            j += 1
        else:
            out.append((left[0], left[1] + right[1]))
            i += 1
            j += 1
    return tuple(out) + g1[i:] + g2[j:]


def _merge_powers(p1: tuple, p2: tuple) -> tuple:
    """Product of two parameter monomials; powers of 'a' may cancel."""
    merged = dict(p1)
    for name, exp in p2:
        exp += merged.get(name, 0)
        if exp:
            merged[name] = exp
        else:
            del merged[name]
    return tuple(sorted(merged.items(), key=_power_rank))


def _accumulate(acc: dict, key: _TermKey, value) -> None:
    value += acc.get(key, 0)
    if value:
        acc[key] = value
    else:  # a cancellation, or a zero that specialize handed in
        acc.pop(key, None)


def _normalized(acc: dict, den: int) -> "DiffPoly":
    """acc / den in canonical form: the only place shared content is divided out."""
    if den != 1:
        content = gcd(den, *acc.values())
        if content != 1:
            den //= content
            acc = {key: value // content for key, value in acc.items()}
    return DiffPoly(acc, den)


def _add_into(acc: dict, den: int, terms: dict, tden: int, sign: int) -> int:
    """Add sign * terms / tden into acc / den in place; returns the new denominator.

    acc is rescaled to the lcm of the two denominators; its content is left
    for _normalized.
    """
    common = lcm(den, tden)
    if common != den:
        up = common // den
        for key in acc:
            acc[key] *= up
    scale = sign * (common // tden)
    for key, value in terms.items():
        _accumulate(acc, key, value * scale)
    return common


def _mul_into(acc: dict, left: dict, right: dict, scale: int = 1) -> None:
    """Add scale times the product of two numerator dicts into acc."""
    # Parameter monomials repeat: in a hierarchy pass 3 in 4 term pairs
    # carry parameters on both sides, and 9 in 10 of those meet a pair
    # already merged in the same call.  Merging each distinct pair once per
    # call takes about a fifth off a hierarchy pass, and equal monomials
    # share one tuple.
    pow_products: dict = {}
    for (g1, p1, a1, b1), q1 in left.items():
        q1 *= scale
        for (g2, p2, a2, b2), q2 in right.items():
            if not p2:
                pows = p1
            elif not p1:
                pows = p2
            else:
                pows = pow_products.get((p1, p2))
                if pows is None:
                    pows = pow_products[(p1, p2)] = _merge_powers(p1, p2)
            gens = _merge_gens(g1, g2) if g1 and g2 else g1 or g2
            _accumulate(acc, (gens, pows, a1 ^ a2, b1 ^ b2), q1 * q2)


def _over_lcm(terms: dict) -> "DiffPoly":
    """Nonzero Fraction values put over their lcm, which leaves them coprime."""
    den = lcm(*(q.denominator for q in terms.values()))
    return DiffPoly({k: q.numerator * (den // q.denominator) for k, q in terms.items()}, den)


def _coordinates(f: "DiffPoly") -> set[tuple[str, int]]:
    """The (variable, order) pairs present in f."""
    return {vo for (gens, _, _, _) in f._terms for vo, _exp in gens}


class DiffPoly:
    """Immutable differential polynomial in canonical form.

    Terms live in a dict keyed by (generator monomial, parameter monomial,
    eps1 bit, eps2 bit) with nonzero int numerators over the one positive
    denominator _den, coprime to their content (1 for zero); so structural
    equality is dict and denominator equality.  str() renders the
    canonical serialization (terms ordered by total generator degree, then
    lexicographically), which the expression parser maps back bit-for-bit.

    The constructor stores what it is given, unchecked: callers pass
    canonical keys, nonzero int numerators and a coprime denominator, and
    hand over the dict.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None, den: int = 1):
        self._terms: dict[_TermKey, int] = {} if terms is None else terms
        self._den = den

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when no generator appears (a pure parameter expression)."""
        return all(not gens for (gens, _, _, _) in self._terms)

    def terms(self) -> Iterator[tuple[_GenPart, Fraction, tuple, int, int]]:
        """(gens, rational, powers, eps1, eps2) per term, in str's canonical order."""
        def sort_key(key: _TermKey):
            gens, pows, e1, e2 = key
            degree = sum(exp for _, exp in gens)
            pow_rank = tuple((_param_rank(n), e) for n, e in pows)
            return (degree, gens, pow_rank, e1, e2)

        for key in sorted(self._terms, key=sort_key):
            gens, pows, e1, e2 = key
            yield gens, Fraction(self._terms[key], self._den), pows, e1, e2

    def generators(self) -> set[tuple[str, int]]:
        """The (variable, order) jet coordinates present."""
        return _coordinates(self)

    def variables(self) -> set[str]:
        return {var for var, _order in _coordinates(self)}

    def parameters(self) -> set[str]:
        out = set()
        for (_, pows, e1, e2) in self._terms:
            out.update(name for name, _ in pows)
            if e1:
                out.add("eps1")
            if e2:
                out.add("eps2")
        return out

    def constant_part(self) -> "DiffPoly":
        return _normalized({k: v for k, v in self._terms.items() if not k[0]}, self._den)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __add__(self, other: "Polylike") -> "DiffPoly":
        other, acc = _as_poly(other), dict(self._terms)
        return _normalized(acc, _add_into(acc, self._den, other._terms, other._den, 1))

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({key: -value for key, value in self._terms.items()}, self._den)

    def __sub__(self, other: "Polylike") -> "DiffPoly":
        other, acc = _as_poly(other), dict(self._terms)
        return _normalized(acc, _add_into(acc, self._den, other._terms, other._den, -1))

    def __rsub__(self, other: "Polylike") -> "DiffPoly":
        return _as_poly(other) - self

    def __mul__(self, other: "Polylike") -> "DiffPoly":
        other, acc = _as_poly(other), {}
        _mul_into(acc, self._terms, other._terms)
        return _normalized(acc, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise DiffAlgError("negative polynomial power")
        out = one()
        for _ in range(n):
            out = out * self
        return out

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for gens, q, pows, e1, e2 in self.terms():
            body = _format_term(gens, abs(q), pows, e1, e2)
            if not chunks:
                chunks.append(("-" if q < 0 else "") + body)
            else:
                chunks.append((" - " if q < 0 else " + ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return "DiffPoly(%s)" % (self,)


Polylike = Union[DiffPoly, int, Fraction]


def _as_poly(value: Polylike) -> DiffPoly:
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    raise TypeError("cannot coerce %r to DiffPoly" % (value,))


def _format_term(gens: _GenPart, magnitude: Fraction, pows: tuple, e1: int, e2: int) -> str:
    factors = []
    if magnitude != 1 or (not gens and not pows and not e1 and not e2):
        factors.append(str(magnitude))
    for name, exp in pows:
        factors.append(name if exp == 1 else "%s^%d" % (name, exp))
    if e1:
        factors.append("eps1")
    if e2:
        factors.append("eps2")
    for (var, order), exp in gens:
        if order <= 3:
            base = var + "'" * order
        else:
            base = "%s^(%d)" % (var, order)
        if exp != 1:
            base += "^%d" % (exp,)
        factors.append(base)
    return "*".join(factors)


# -- public constructors ---------------------------------------------------


def const(value: Union[int, Fraction]) -> DiffPoly:
    """The constant polynomial with the given exact rational value."""
    q = Fraction(value)
    return _over_lcm({((), (), 0, 0): q} if q else {})


def zero() -> DiffPoly:
    return DiffPoly()


def one() -> DiffPoly:
    return const(1)


def gen(variable: str, order: int = 0) -> DiffPoly:
    """The polynomial consisting of a single generator."""
    if not variable or not variable.isidentifier():
        raise DiffAlgError("bad generator variable %r" % (variable,))
    if order < 0:
        raise DiffAlgError("negative derivative order")
    if order > MAX_ORDER:
        raise OrderLimitError(
            "derivative order %d exceeds MAX_ORDER=%d" % (order, MAX_ORDER)
        )
    return DiffPoly({((((variable, order), 1),), (), 0, 0): 1})


def param(name: str, exp: int = 1) -> DiffPoly:
    """A parameter symbol (a, b, c, G, c1, c2, ..., eps1, eps2) to a power."""
    if name == "eps1":
        return DiffPoly({((), (), exp % 2, 0): 1})
    if name == "eps2":
        return DiffPoly({((), (), 0, exp % 2): 1})
    if exp == 0:
        return one()
    _param_rank(name)
    if exp < 0 and name != "a":
        raise DiffAlgError("negative power only allowed on 'a', got %r" % (name,))
    return DiffPoly({((), ((name, exp),), 0, 0): 1})


def specialize(
    f: Polylike, values: dict[str, Union[int, Fraction]], rename: dict | None = None
) -> DiffPoly:
    """Substitute exact rationals for parameters and rename variables.

    values maps parameter names, eps1 and eps2 included, to ints or
    Fractions; a sign must become +-1 and a nonzero.  rename maps curvature
    variables to new names.
    """
    for name, value in values.items():
        is_sign = name in ("eps1", "eps2")
        if not is_sign:
            _param_rank(name)
        if type(value) not in (int, Fraction) or (
            value not in (1, -1) if is_sign else name == "a" and value == 0
        ):
            raise DiffAlgError("cannot specialize %s to %r" % (name, value))
    rename = rename or {}
    for target in rename.values():
        gen(target)  # raises for a name that is no variable
    f = _as_poly(f)
    acc: dict[_TermKey, Fraction] = {}
    for (gens, pows, e1, e2), q in f._terms.items():
        q, kept = Fraction(q, f._den), []
        for name, exp in pows:
            if name in values:
                q *= Fraction(values[name]) ** exp
            else:
                kept.append((name, exp))
        if e1 and "eps1" in values:
            q, e1 = q * values["eps1"], 0
        if e2 and "eps2" in values:
            q, e2 = q * values["eps2"], 0
        moved: dict = {}
        for (v, m), e in gens:
            coord = (rename.get(v, v), m)
            moved[coord] = moved.get(coord, 0) + e
        _accumulate(acc, (tuple(sorted(moved.items())), tuple(kept), e1, e2), q)
    return _over_lcm(acc)


# -- flow pairs -------------------------------------------------------------


@dataclass(frozen=True)
class FlowPair:
    """An evolution right-hand side (one polynomial per curvature variable)."""

    p1: DiffPoly
    p2: DiffPoly
    variables: tuple[str, str] = ("k1", "k2")

    def __post_init__(self) -> None:
        allowed = set(self.variables)
        for comp in (self.p1, self.p2):
            stray = comp.variables() - allowed
            if stray:
                raise DiffAlgError(
                    "flow component uses variables %s outside %s"
                    % (sorted(stray), self.variables)
                )

    def components(self) -> tuple[DiffPoly, DiffPoly]:
        return (self.p1, self.p2)

    def is_zero(self) -> bool:
        return self.p1.is_zero() and self.p2.is_zero()

    def __str__(self) -> str:
        return "(%s, %s)" % (self.p1, self.p2)


# -- derivations ------------------------------------------------------------


def total_derivative(f: Polylike, n: int = 1) -> DiffPoly:
    """Apply the total derivative D (parameters are constants) n times."""
    out = _as_poly(f)
    for _ in range(n):
        out = _d_once(out)
    return out


def _d_once(f: DiffPoly) -> DiffPoly:
    # D moves one power of v^(m) at index i to v^(m+1).  In a canonical key
    # v^(m+1) can only sit at index i+1, so the new key is two splices.
    acc: dict[_TermKey, int] = {}
    for (gens, pows, e1, e2), q in f._terms.items():
        n = len(gens)
        for i, (coord, exp) in enumerate(gens):
            var, order = coord
            if order >= MAX_ORDER:
                raise OrderLimitError(
                    "total derivative would exceed MAX_ORDER=%d on %s"
                    % (MAX_ORDER, var)
                )
            up = (var, order + 1)
            j = i + 1
            if j < n and gens[j][0] == up:
                tail = ((up, gens[j][1] + 1),) + gens[j + 1:]
            else:
                tail = ((up, 1),) + gens[j:]
            if exp == 1:
                head, value = gens[:i], q
            else:
                head, value = gens[:i] + ((coord, exp - 1),), q * exp
            _accumulate(acc, (head + tail, pows, e1, e2), value)
    return _normalized(acc, f._den)


def partial_derivative(f: Polylike, target: tuple[str, int]) -> DiffPoly:
    """Partial derivative with respect to one (variable, order) jet coordinate."""
    # Lowering one exponent is injective on keys, so no two terms collide.
    f, out = _as_poly(f), {}
    for (gens, pows, e1, e2), q in f._terms.items():
        for i, (coord, exp) in enumerate(gens):
            if coord == target:
                if exp == 1:
                    lowered, value = gens[:i] + gens[i + 1:], q
                else:
                    lowered = gens[:i] + ((coord, exp - 1),) + gens[i + 1:]
                    value = q * exp
                out[(lowered, pows, e1, e2)] = value
                break
    return _normalized(out, f._den)


def euler_operator(f: Polylike, variable: str) -> DiffPoly:
    """Variational derivative: sum over m of (-D)^m applied to df/dv^(m).

    The result is zero exactly on (constants plus) total derivatives (Olver,
    Applications of Lie Groups to Differential Equations, Thm 4.7), which
    makes it the independent exactness oracle the tests hold
    anti_derivative to.  It takes D^m of df/dv^(m), so it needs f of order
    at most MAX_ORDER / 2.
    """
    f = _as_poly(f)
    acc, den = {}, 1
    for var, m in sorted(_coordinates(f)):
        if var == variable:
            part = total_derivative(partial_derivative(f, (var, m)), m)
            den = _add_into(acc, den, part._terms, part._den, -1 if m % 2 else 1)
    return _normalized(acc, den)


def order_of(f: Polylike) -> int:
    """Highest derivative order present; -1 for constants (and zero)."""
    return max(jet_orders(_as_poly(f)).values(), default=-1)


def _top_coordinate(f: DiffPoly) -> tuple[int, str]:
    # Lexicographic on (order, variable): the pivot for integration by parts.
    return max(((order, var) for var, order in _coordinates(f)), default=(-1, ""))


def _integrate_in(f: DiffPoly, var: str, order: int) -> DiffPoly:
    """Polynomial integration in the single jet coordinate (var, order)."""
    # Raising one exponent is injective on keys, so no two terms collide.
    target = (var, order)
    raised = [dict(gens).get(target, 0) + 1 for (gens, _, _, _) in f._terms]
    common, out = lcm(*raised), {}
    for ((gens, pows, e1, e2), q), up in zip(f._terms.items(), raised):
        out[(_merge_gens(gens, ((target, 1),)), pows, e1, e2)] = q * (common // up)
    return _normalized(out, f._den * common)


def anti_derivative(f: Polylike) -> DiffPoly:
    """The unique g with zero constant term and D(g) = f, if one exists.

    Raises NonZeroConstantTerm when f has a constant part and NotExact when
    f is not a total derivative.  Integration by parts alone decides
    exactness: each step integrates the coefficient of the lex-maximal jet
    coordinate and subtracts a total derivative, which strictly lowers that
    coordinate, so the loop either empties the residual or meets a term no
    D can produce.  No D taken exceeds the order of f, so OrderLimitError
    cannot arise here.
    """
    f = _as_poly(f)
    if f.is_zero():
        return zero()
    if not f.constant_part().is_zero():
        raise NonZeroConstantTerm("anti-derivative needs zero constant term")
    result, den = {}, 1
    work = DiffPoly(dict(f._terms), f._den)  # private: reduced in place below
    while not work.is_zero():
        m, var = _top_coordinate(work)
        if m <= 0:
            raise NotExact("residual of order zero after integration by parts")
        coeff = partial_derivative(work, (var, m))
        if _top_coordinate(coeff) > (m - 1, var):
            raise NotExact(
                "coefficient of %s^(%d) is not of lower order" % (var, m)
            )
        piece = _integrate_in(coeff, var, m - 1)
        den = _add_into(result, den, piece._terms, piece._den, 1)
        done = total_derivative(piece)
        work._den = _add_into(work._terms, work._den, done._terms, done._den, -1)
    return _normalized(result, den)


# -- flow calculus ----------------------------------------------------------


def jet_orders(*targets: DiffPoly) -> dict[str, int]:
    """Highest derivative order of each variable across the targets."""
    top: dict[str, int] = {}
    for target in targets:
        for (gens, _, _, _) in target._terms:
            for (var, order), _exp in gens:
                if order > top.get(var, -1):
                    top[var] = order
    return top


def prolong(
    flow: FlowPair, upto: dict[str, int], correction: DiffPoly | None = None
) -> dict[tuple[str, int], DiffPoly]:
    """Prolongation table of the evolutionary field with characteristic `flow`.

    Maps each jet coordinate (v, m), m <= upto[v], to the coefficient of
    d/dv^(m) in the prolonged field: D^m of v's flow component (Olver,
    Applications of Lie Groups to Differential Equations, sec. 5.1).  With
    a correction c the entries obey entry(m) = D(entry(m-1)) + c * v^(m)
    instead, which is how a flow that rescales arc length acts on v^(m).
    """
    table: dict[tuple[str, int], DiffPoly] = {}
    for var, top in upto.items():
        entry = flow.components()[flow.variables.index(var)]
        table[(var, 0)] = entry
        for m in range(1, top + 1):
            entry = total_derivative(entry)
            if correction is not None:
                entry = entry + correction * gen(var, m)
            table[(var, m)] = entry
    return table


def apply_prolongation(
    target: DiffPoly, table: dict[tuple[str, int], DiffPoly]
) -> DiffPoly:
    """The prolonged field applied to target: sum of dtarget/dv^(m) * table[v, m]."""
    # One common denominator up front, so every product adds into one dict.
    pairs = [(partial_derivative(target, c), table[c]) for c in sorted(_coordinates(target))]
    den, acc = lcm(*(p._den * t._den for p, t in pairs)), {}
    for p, t in pairs:
        _mul_into(acc, p._terms, t._terms, den // (p._den * t._den))
    return _normalized(acc, den)


def frechet(a: FlowPair, b: FlowPair) -> FlowPair:
    """Directional (Frechet) derivative of A along B: A'[B].

    Component j is the prolongation of B applied to A_j, the sum over jet
    coordinates (v_i, m) of dA_j/dv_i^(m) * D^m(B_i).
    """
    if a.variables != b.variables:
        raise DiffAlgError("flow pairs over different variables")
    table = prolong(b, jet_orders(*a.components()))
    return FlowPair(*(apply_prolongation(c, table) for c in a.components()), a.variables)


def lie_bracket_flows(a: FlowPair, b: FlowPair) -> FlowPair:
    """Lie bracket [A, B] of evolution flows: applying A to B minus B to A.

    Equal to frechet(B, A) - frechet(A, B); the flows commute when this
    vanishes identically.
    """
    left = frechet(b, a)
    right = frechet(a, b)
    return FlowPair(left.p1 - right.p1, left.p2 - right.p2, a.variables)
