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
one prolongation kernel _prolonged, which applies the prolonged
evolutionary field of a flow to a list of targets, and through it Frechet
derivatives of flow pairs and the Lie bracket of evolution flows.
The prolongation sums here, nullcurve's projections, transport, make_X
and d_v, and operators' Theta and J are each built by the one
accumulate-products kernel _sum_products: one lcm denominator, every
product added into one dict, one reduction to canonical form (omega_apply,
inner and LocalVectorField's arithmetic use DiffPoly's operators).

Canonical form.  A polynomial is a dict from term keys to nonzero int
numerators over one positive int denominator coprime to their content (the
zero polynomial has denominator 1).  A key is one int of byte fields.  Byte
0 holds the signs, eps1 at bit 0 and eps2 at bit 2, each with a carry bit
above it.  Every other byte is the exponent of one parameter or one jet
coordinate v^(m), handed out on its first use and never moved, so a key
stays valid (MAX_ORDER caps orders only); D moves one unit from the byte of
v^(m) to that of v^(m+1).  The power of a sits in byte 1 under a bias of 64
(the constant 1 has key _BIAS).  A byte's top bit is a guard that no stored
key sets: a product key is k1 + k2 - _BIAS with the sign carries masked off
(so the signs multiply by XOR), and a product, D or integration that sets a
guard raises ExponentLimitError, never wraps.  Only terms, the one decoder
(format_terms and every reader outside this module walk it), decodes keys;
values become Fractions only there, and const takes only ints and
Fractions.  One byte scan, _nonzero_fields, serves both readers of key
bytes: the decoder and _fields, which reads the OR of the keys.  specialize
rewrites packed keys and int numerators directly.  No cache outlives a call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterator, Union


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

#: Largest value an exponent field holds: a generator or parameter power
#: lies in 1..MAX_EXPONENT and a power of a in -64..63 (its field is biased
#: by 64).  Going past it raises ExponentLimitError.
MAX_EXPONENT = 127


class DiffAlgError(Exception):
    """Base class for errors raised by the exact algebra."""


class NotExact(DiffAlgError):
    """An anti-derivative was requested of something outside the image of D."""


class NonZeroConstantTerm(DiffAlgError):
    """The operation needs a polynomial with zero constant term."""


class OrderLimitError(DiffAlgError):
    """A derivative order would exceed MAX_ORDER."""


class ExponentLimitError(DiffAlgError):
    """An exponent would leave its key field (see MAX_EXPONENT)."""


_NAMED_PARAM_RANK = {"a": (0, 0), "b": (1, 0), "c": (2, 0), "G": (3, 0)}


def _param_rank(name: str) -> tuple[int, int]:
    """Sort rank of a parameter symbol; raises for unknown names."""
    rank = _NAMED_PARAM_RANK.get(name)
    if rank is not None:
        return rank
    if len(name) > 1 and name[0] == "c" and name[1] != "0" and name[1:].isdigit():
        return (4, int(name[1:]))
    raise DiffAlgError("unknown parameter symbol %r" % (name,))


# -- packed term keys (layout in the module docstring) ----------------------

_A_BIAS = 64
_BIAS = _A_BIAS << 8  # the key of the constant 1
_CARRY = 0b1010  # the two sign carry bits
_OUT_OF_FIELD = "an exponent leaves its field (1..%d; powers of a: -64..63)" % (MAX_EXPONENT,)
# Append-only registry: the owner of byte i of a key is _owners[i], a
# (name, order) pair with order None for a parameter (and for the sign
# byte), and _byte maps an owner back to its byte.  _guard holds every
# field's top bit and _var_bits every bit of a jet coordinate's field.
_owners: list[tuple[str, int | None]] = [("", None), ("a", None)]
_byte = {("a", None): 1}
_guard = 0x80 << 8
_var_bits = 0


def _byte_of(name: str, order: int | None = None) -> int:
    """Byte of a parameter (order None) or jet coordinate, handed out on first use."""
    global _guard, _var_bits
    byte = _byte.get((name, order))
    if byte is None:
        byte = _byte[name, order] = len(_owners)
        _owners.append((name, order))
        _guard |= 0x80 << 8 * byte
        if order is not None:
            _var_bits |= 0xFF << 8 * byte
    return byte


def _encode(gens, pows, e1: int, e2: int) -> int:
    """Key of a term from (coordinate, exponent) and (parameter, exponent) pairs."""
    key = _BIAS + e1 + 4 * e2
    for (var, order), exp in gens:
        if not 0 < exp <= MAX_EXPONENT:
            raise ExponentLimitError(_OUT_OF_FIELD)
        key += exp << 8 * _byte_of(var, order)
    for name, exp in pows:
        low, high = (-_A_BIAS, MAX_EXPONENT - _A_BIAS) if name == "a" else (1, MAX_EXPONENT)
        if not low <= exp <= high:
            raise ExponentLimitError(_OUT_OF_FIELD)
        key += exp << 8 * _byte_of(name)
    return key


_NONZERO = bytes(1) + b"\x01" * 255  # bytes.translate table: which bytes are set


def _nonzero_fields(bits: int) -> list[tuple[str, int | None, int]]:
    """(name, order, byte) of each nonzero byte of bits, in byte order: the one key scan."""
    marks = bits.to_bytes(len(_owners), "little").translate(_NONZERO)
    out, byte = [], marks.find(1)
    while byte >= 0:
        out.append((*_owners[byte], byte))
        byte = marks.find(1, byte + 1)
    return out


def _decode(key: int) -> tuple[tuple, tuple, int, int]:
    """(gens, powers, eps1, eps2) of a key: gens sorted, powers in rank order."""
    data = key.to_bytes(len(_owners), "little")
    gens, pows = [], [("a", data[1] - _A_BIAS)] if data[1] != _A_BIAS else []
    for name, order, byte in _nonzero_fields(key & ~0xFFFF):  # the sign and a bytes cleared
        if order is None:
            pows.append((name, data[byte]))
        else:
            gens.append(((name, order), data[byte]))
    pows.sort(key=lambda item: _param_rank(item[0]))
    return tuple(sorted(gens)), tuple(pows), data[0] & 1, data[0] >> 2 & 1


def _fields(*polys: "DiffPoly") -> list[tuple[str, int, int]]:
    """(variable, order, byte) of each jet coordinate present in the polys."""
    return _nonzero_fields(reduce(or_, (reduce(or_, f._terms, 0) for f in polys), 0) & _var_bits)


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
    scale, get = sign * (common // tden), acc.get
    for key, value in terms.items():
        value = get(key, 0) + value * scale
        if value:
            acc[key] = value
        else:
            del acc[key]
    return common


def _mul_into(acc: dict, left: dict, right: dict, scale: int = 1) -> None:
    """Add scale times the product of two numerator dicts into acc."""
    guard, keep, get = _guard, ~_CARRY, acc.get
    for k1, q1 in left.items():
        q1 *= scale
        k1 -= _BIAS
        for k2, q2 in right.items():
            key = (k1 + k2) & keep
            if key & guard:
                raise ExponentLimitError(_OUT_OF_FIELD)
            value = get(key, 0) + q1 * q2
            if value:
                acc[key] = value
            else:
                del acc[key]


class DiffPoly:
    """Immutable differential polynomial in canonical form.

    Terms live in a dict keyed by packed int keys (see the module
    docstring) with nonzero int numerators over the one positive
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
        self._terms: dict[int, int] = {} if terms is None else terms
        self._den = den

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when no generator appears (a pure parameter expression)."""
        return not _fields(self)

    def terms(self) -> Iterator[tuple[tuple, Fraction, tuple, int, int]]:
        """(gens, rational, powers, eps1, eps2) per term, in str's canonical order.

        gens are sorted ((variable, order), exponent) pairs, powers rank-ordered.
        """
        def sort_key(item):
            gens, pows, e1, e2 = item[0]
            degree = sum(exp for _, exp in gens)
            pow_rank = tuple((_param_rank(n), e) for n, e in pows)
            return (degree, gens, pow_rank, e1, e2)

        decoded = [(_decode(key), q) for key, q in self._terms.items()]
        for (gens, pows, e1, e2), q in sorted(decoded, key=sort_key):
            yield gens, Fraction(q, self._den), pows, e1, e2

    def generators(self) -> set[tuple[str, int]]:
        """The (variable, order) jet coordinates present."""
        return {(var, order) for var, order, _ in _fields(self)}

    def variables(self) -> set[str]:
        return {var for var, _, _ in _fields(self)}

    def parameters(self) -> set[str]:
        out = set()
        for _, _, pows, e1, e2 in self.terms():
            out.update([name for name, _ in pows], ["eps1"] * e1, ["eps2"] * e2)
        return out

    def constant_part(self) -> "DiffPoly":
        kept = {k: v for k, v in self._terms.items() if not k & _var_bits}
        return _normalized(kept, self._den)

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
        if type(n) is not int:
            raise DiffAlgError("a polynomial power must be an int, got %r" % (n,))
        if n < 0:
            raise DiffAlgError("negative polynomial power")
        out = one()
        for _ in range(n):
            out = out * self
        return out

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self, str, _plain_symbol, _plain_coordinate, "*")

    def __repr__(self) -> str:
        return "DiffPoly(%s)" % (self,)


Polylike = Union[DiffPoly, int, Fraction]
_ONE = DiffPoly({_BIAS: 1})


def _as_poly(value: Polylike) -> DiffPoly:
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    raise TypeError("cannot coerce %r to DiffPoly" % (value,))


def format_terms(
    poly: DiffPoly, number: Callable, symbol: Callable, coordinate: Callable, joiner: str
) -> str:
    """Lay out poly's terms; str and the LaTeX renderer differ only in the leaves.

    A term is number(|q|), left out when it is 1 and other factors follow,
    then symbol(name, exp) per parameter, the signs as (eps1, 1) and
    (eps2, 1), then coordinate(variable, order, exp) per jet coordinate,
    joined by joiner.  A leading negative term takes '-', later terms
    ' - ' or ' + ', and zero is "0".
    """
    chunks = []
    for gens, q, pows, e1, e2 in poly.terms():
        signs = (("eps1", 1),) * e1 + (("eps2", 1),) * e2
        factors = [symbol(name, exp) for name, exp in pows + signs]
        factors += [coordinate(var, order, exp) for (var, order), exp in gens]
        magnitude = abs(q)
        if magnitude != 1 or not factors:
            factors.insert(0, number(magnitude))
        body = joiner.join(factors)
        if chunks:
            chunks.append((" - " if q < 0 else " + ") + body)
        else:
            chunks.append(("-" if q < 0 else "") + body)
    return "".join(chunks) or "0"


def _plain_symbol(name: str, exp: int) -> str:
    return name if exp == 1 else "%s^%d" % (name, exp)


def _plain_coordinate(var: str, order: int, exp: int) -> str:
    base = var + "'" * order if order <= 3 else "%s^(%d)" % (var, order)
    return base if exp == 1 else "%s^%d" % (base, exp)


# -- public constructors ---------------------------------------------------


def const(value: Union[int, Fraction]) -> DiffPoly:
    """The constant polynomial with the given exact value, an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise DiffAlgError("a constant must be an int or a Fraction, got %r" % (value,))
    return DiffPoly({_BIAS: value.numerator}, value.denominator) if value else DiffPoly()


def zero() -> DiffPoly:
    return DiffPoly()


def one() -> DiffPoly:
    return const(1)


def gen(variable: str, order: int = 0) -> DiffPoly:
    """The polynomial consisting of a single generator."""
    if not variable or not variable.isidentifier():
        raise DiffAlgError("bad generator variable %r" % (variable,))
    if type(order) is not int:
        raise DiffAlgError("a derivative order must be an int, got %r" % (order,))
    if order < 0:
        raise DiffAlgError("negative derivative order")
    if order > MAX_ORDER:
        raise OrderLimitError(
            "derivative order %d exceeds MAX_ORDER=%d" % (order, MAX_ORDER)
        )
    return DiffPoly({_encode((((variable, order), 1),), (), 0, 0): 1})


def param(name: str, exp: int = 1) -> DiffPoly:
    """A parameter symbol (a, b, c, G, c1, c2, ..., eps1, eps2) to an int power."""
    if type(exp) is not int:
        raise DiffAlgError("an exponent must be an int, got %r" % (exp,))
    if name == "eps1":
        return DiffPoly({_encode((), (), exp % 2, 0): 1})
    if name == "eps2":
        return DiffPoly({_encode((), (), 0, exp % 2): 1})
    if exp == 0:
        return one()
    _param_rank(name)
    if exp < 0 and name != "a":
        raise DiffAlgError("negative power only allowed on 'a', got %r" % (name,))
    return DiffPoly({_encode((), ((name, exp),), 0, 0): 1})


def specialize(
    f: Polylike, values: dict[str, Union[int, Fraction]], rename: dict | None = None
) -> DiffPoly:
    """Substitute exact rationals for parameters and rename variables.

    values maps parameter names, eps1 and eps2 included, to ints or
    Fractions; a sign must become +-1 and a nonzero.  rename maps curvature
    variables to new names.
    """
    # One pass over the packed keys: keep clears each substituted byte and
    # sign bit and each renamed coordinate's byte, a substituted a gets its
    # bias back, and each renamed exponent is added into its new byte.
    powers, keep, flip = [], -1, 0
    for name, value in values.items():
        is_sign = name in ("eps1", "eps2")
        if not is_sign:
            _param_rank(name)
        if type(value) not in (int, Fraction) or (
            value not in (1, -1) if is_sign else name == "a" and value == 0
        ):
            raise DiffAlgError("cannot specialize %s to %r" % (name, value))
        if is_sign:
            bit = 1 if name == "eps1" else 4
            keep, flip = keep & ~bit, flip | (bit if value == -1 else 0)
        elif (name, None) in _byte:
            byte = _byte[name, None]
            powers.append((byte, _A_BIAS if name == "a" else 0, value.numerator, value.denominator))
            keep &= ~(0xFF << 8 * byte)
    rename = rename or {}
    for target in rename.values():
        gen(target)  # raises for a name that is no variable
    f = _as_poly(f)
    # A new byte may be handed out here, so _guard and the key size are read after.
    moves = [(byte, 8 * _byte_of(rename[var], order)) for var, order, byte in _fields(f)
             if var in rename]
    for byte, _ in moves:
        keep &= ~(0xFF << 8 * byte)
    bias, guard, size, acc = _BIAS if "a" in values else 0, _guard, len(_owners), {}
    for key, num in f._terms.items():
        data, den = key.to_bytes(size, "little"), f._den
        for byte, offset, up, down in powers:
            exp = data[byte] - offset
            if exp > 0:
                num, den = num * up ** exp, den * down ** exp
            elif exp:  # a^-n; a negative a leaves den negative, which lcm and // absorb
                num, den = num * down ** -exp, den * up ** -exp
        if (key & flip) in (1, 4):  # one substituted sign is -1
            num = -num
        key = (key & keep) + bias
        for byte, shift in moves:
            exp = data[byte]
            if exp:  # adds into a byte of at most 127: an overfill sets its guard, never carries
                key += exp << shift
                if key & guard:
                    raise ExponentLimitError(_OUT_OF_FIELD)
        prior, prior_den = acc.get(key, (0, den))
        same = prior_den == den
        acc[key] = (prior + num, den) if same else (prior * den + num * prior_den, prior_den * den)
    common = lcm(*(den for _, den in acc.values()))
    return _normalized({key: num * (common // den) for key, (num, den) in acc.items() if num},
                       common)


# -- flow pairs -------------------------------------------------------------


@dataclass(frozen=True)
class FlowPair:
    """An evolution right-hand side (one polynomial per curvature variable)."""

    p1: DiffPoly
    p2: DiffPoly
    variables: tuple[str, str] = ("k1", "k2")

    def __post_init__(self) -> None:
        allowed = set(self.variables)
        for name, comp in (("p1", self.p1), ("p2", self.p2)):
            if not isinstance(comp, DiffPoly):
                raise DiffAlgError("flow component %s must be a DiffPoly, got %r" % (name, comp))
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
    """Apply the total derivative D (parameters are constants) n >= 0 times."""
    if type(n) is not int or n < 0:
        raise DiffAlgError("a derivative count must be an int >= 0, got %r" % (n,))
    out = _as_poly(f)
    for _ in range(n):
        out = _d_once(out)
    return out


def _d_once(f: DiffPoly) -> DiffPoly:
    # D moves one unit from the byte of v^(m) to that of v^(m+1), times the
    # exponent the first held.  v^(m+1) may get its byte here, so _guard and
    # the key size are read after the steps.
    steps, acc = [], {}
    for var, order, byte in _fields(f):
        if order >= MAX_ORDER:
            message = "total derivative would exceed MAX_ORDER=%d on %s"
            raise OrderLimitError(message % (MAX_ORDER, var))
        steps.append((byte, (1 << 8 * _byte_of(var, order + 1)) - (1 << 8 * byte)))
    guard, size, get = _guard, len(_owners), acc.get
    for key, q in f._terms.items():
        data = key.to_bytes(size, "little")
        for byte, step in steps:
            exp = data[byte]
            if exp:
                moved = key + step
                if moved & guard:
                    raise ExponentLimitError(_OUT_OF_FIELD)
                value = get(moved, 0) + q * exp
                if value:
                    acc[moved] = value
                else:
                    del acc[moved]
    return _normalized(acc, f._den)


def partial_derivative(f: Polylike, target: tuple[str, int]) -> DiffPoly:
    """Partial derivative with respect to one (variable, order) jet coordinate."""
    # Lowering one exponent is injective on keys, so no two terms collide.
    f, out = _as_poly(f), {}
    var, order = target
    if order is not None and (var, order) in _byte:  # order None names a parameter
        shift = 8 * _byte[var, order]
        for key, q in f._terms.items():
            exp = key >> shift & 0xFF
            if exp:
                out[key - (1 << shift)] = q * exp
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
    for var, m in sorted(f.generators()):
        if var == variable:
            part = total_derivative(partial_derivative(f, (var, m)), m)
            den = _add_into(acc, den, part._terms, part._den, -1 if m % 2 else 1)
    return _normalized(acc, den)


def order_of(f: Polylike) -> int:
    """Highest derivative order present; -1 for constants (and zero)."""
    return max(jet_orders(_as_poly(f)).values(), default=-1)


def _top_coordinate(f: DiffPoly) -> tuple[int, str]:
    # Lexicographic on (order, variable): the pivot for integration by parts.
    return max(((order, var) for var, order, _ in _fields(f)), default=(-1, ""))


def _integrate_in(f: DiffPoly, var: str, order: int) -> DiffPoly:
    """Polynomial integration in the single jet coordinate (var, order)."""
    # Raising one exponent is injective on keys, so no two terms collide.
    shift = 8 * _byte_of(var, order)
    raised = [(key >> shift & 0xFF) + 1 for key in f._terms]
    if max(raised, default=0) > MAX_EXPONENT:
        raise ExponentLimitError(_OUT_OF_FIELD)
    common, out = lcm(*raised), {}
    for (key, q), up in zip(f._terms.items(), raised):
        out[key + (1 << shift)] = q * (common // up)
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
    # Sorted by (variable, order), so each variable's top order comes last and wins.
    return dict(sorted((var, order) for var, order, _ in _fields(*targets)))


def _sum_products(products: list) -> DiffPoly:
    """Sum of sign * p * q over (p, q, sign) triples, sign an int.

    The one accumulate-products kernel: every product adds into one dict
    over one lcm denominator, and only the sum is put in canonical form.
    """
    den, acc = lcm(*(p._den * q._den for p, q, _ in products)), {}
    for p, q, sign in products:
        _mul_into(acc, p._terms, q._terms, sign * (den // (p._den * q._den)))
    return _normalized(acc, den)


def _prolonged(flow: FlowPair, targets: tuple[DiffPoly, ...], sign: int = 1,
               correction: DiffPoly | None = None) -> list[list]:
    """The one prolongation kernel: flow's prolonged field on each target, as products.

    Its table holds the coefficient of d/dv^(m) for each jet coordinate
    (v, m) up to the targets' own jet_orders: D^m of v's flow component
    (Olver, Applications of Lie Groups to Differential Equations, sec.
    5.1).  A correction c makes entry(m) = D(entry(m-1)) + c * v^(m), how a
    flow that rescales arc length acts on v^(m).  Target T's list holds
    (dT/dv^(m), entry, sign) per coordinate of T, for _sum_products.
    """
    table: dict[tuple[str, int], DiffPoly] = {}
    for var, top in jet_orders(*targets).items():
        if var not in flow.variables:
            raise DiffAlgError("a target uses %r, not one of the flow's %s" % (var, flow.variables))
        entry = flow.components()[flow.variables.index(var)]
        table[(var, 0)] = entry
        for m in range(1, top + 1):
            entry = total_derivative(entry)
            if correction is not None:
                entry = _sum_products([(_ONE, entry, 1), (correction, gen(var, m), 1)])
            table[(var, m)] = entry
    return [[(partial_derivative(t, c), table[c], sign) for c in sorted(t.generators())]
            for t in targets]


def frechet(a: FlowPair, b: FlowPair) -> FlowPair:
    """Directional (Frechet) derivative of A along B: A'[B].

    Component j is the prolongation of B applied to A_j, the sum over jet
    coordinates (v_i, m) of dA_j/dv_i^(m) * D^m(B_i).
    """
    if a.variables != b.variables:
        raise DiffAlgError("flow pairs over different variables")
    return FlowPair(*map(_sum_products, _prolonged(b, a.components())), a.variables)


def lie_bracket_flows(a: FlowPair, b: FlowPair) -> FlowPair:
    """Lie bracket [A, B] of evolution flows: applying A to B minus B to A.

    Equal to frechet(B, A) - frechet(A, B), each component summed in one
    dict; the flows commute when this vanishes identically.
    """
    if a.variables != b.variables:
        raise DiffAlgError("flow pairs over different variables")
    along_a = _prolonged(a, b.components())
    along_b = _prolonged(b, a.components(), -1)
    return FlowPair(*(_sum_products(x + y) for x, y in zip(along_a, along_b)), a.variables)
