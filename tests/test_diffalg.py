"""Core algebra: canonical forms, derivations, exact anti-derivatives."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from nullflow import diffalg
from nullflow.diffalg import (
    MAX_EXPONENT,
    DiffAlgError,
    DiffPoly,
    ExponentLimitError,
    FlowPair,
    NonZeroConstantTerm,
    NotExact,
    OrderLimitError,
    anti_derivative,
    const,
    euler_operator,
    frechet,
    gen,
    lie_bracket_flows,
    one,
    order_of,
    param,
    partial_derivative,
    specialize,
    total_derivative,
    zero,
    _param_rank,
)

K1 = gen("k1")
K2 = gen("k2")


def _random_poly(rng: random.Random, *, variables=("k1", "k2"), max_order=2,
                 max_degree=2, terms=3, constant_free=False) -> DiffPoly:
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]
    out = zero()
    for _ in range(rng.randrange(1, terms + 1)):
        term = const(rng.choice(coeffs))
        if rng.random() < 0.3:
            term = term * param(rng.choice(["a", "b"]))
        degree = rng.randrange(0 if not constant_free else 1, max_degree + 1)
        for _ in range(degree):
            term = term * gen(rng.choice(variables), rng.randrange(max_order + 1))
        out = out + term
    if constant_free:
        out = out - out.constant_part()
    return out


def test_ring_identities():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_poly(rng)
        g = _random_poly(rng)
        h = _random_poly(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == zero()
        assert f * one() == f
        assert f * zero() == zero()


def test_eps_signs_square_to_one():
    assert param("eps1") * param("eps1") == one()
    e12 = param("eps1") * param("eps2")
    assert e12 * e12 == one()
    assert str(e12 * K1) == "eps1*eps2*k1"


def test_only_a_takes_negative_powers():
    assert param("a", -2) * param("a", 2) == one()
    with pytest.raises(DiffAlgError):
        param("b", -1)
    with pytest.raises(DiffAlgError):
        param("q")
    with pytest.raises(DiffAlgError, match="negative derivative order"):
        gen("k1", -1)
    with pytest.raises(DiffAlgError, match="negative polynomial power"):
        K1 ** -1


def test_const_takes_only_ints_and_fractions():
    # A float would enter as its binary fraction (0.1 as
    # 3602879701896397/36028797018963968) and a string would be parsed.
    for bad in (0.1, "1/3", None):
        with pytest.raises(DiffAlgError, match="a constant must be an int or a Fraction, got"):
            const(bad)
    with pytest.raises(TypeError, match="cannot coerce 1.5 to DiffPoly"):
        K1 + 1.5
    for value, numerators, den in ((0, [], 1), (-3, [-3], 1), (True, [1], 1),
                                   (Fraction(-6, 4), [-3], 2)):
        got = const(value)
        _assert_canonical(got)
        assert (list(got._terms.values()), got._den) == (numerators, den)


def test_canonical_text_is_ordered_and_stable():
    f = Fraction(3, 2) * K1 * K1 + Fraction(1, 2) * param("a", -1) * gen("k1", 2)
    assert str(f) == "1/2*a^-1*k1'' + 3/2*k1^2"
    assert str(zero()) == "0"
    assert str(-K1) == "-k1"
    assert str(gen("k1", 5) - gen("k2", 4)) == "k1^(5) - k2^(4)"
    g = K2 * gen("k1", 1) * gen("k1", 1)
    assert str(g) == "k1'^2*k2"


def test_total_derivative_basics():
    assert total_derivative(const(7)).is_zero()
    assert total_derivative(param("a") * param("c1")).is_zero()
    assert total_derivative(K1 * K1) == 2 * K1 * gen("k1", 1)
    assert total_derivative(K1, 3) == gen("k1", 3)
    assert total_derivative(K1, 0) == K1


@pytest.mark.parametrize("make, args", [
    (total_derivative, (K1, -1)),
    (total_derivative, (K1, 1.5)),
    (total_derivative, (K1, True)),
    (gen, ("k1", 1.5)),
    (gen, ("k1", True)),
    (param, ("b", 1.5)),
    (param, ("a", True)),
    (param, ("eps1", 1.5)),
    (pow, (K1, True)),
    (pow, (K1, 1.5)),
])
def test_orders_exponents_and_counts_are_exact_ints(make, args):
    # A bool, a float or a negative count is refused, never truncated or ignored.
    with pytest.raises(DiffAlgError, match="must be an int"):
        make(*args)


def test_total_derivative_is_a_derivation():
    rng = random.Random(23)
    for _ in range(15):
        f = _random_poly(rng)
        g = _random_poly(rng)
        lhs = total_derivative(f * g)
        rhs = total_derivative(f) * g + f * total_derivative(g)
        assert lhs == rhs


def test_partial_derivative():
    f = K1 * gen("k1", 2) ** 2
    assert partial_derivative(f, ("k1", 2)) == 2 * K1 * gen("k1", 2)
    assert partial_derivative(f, ("k2", 0)).is_zero()
    assert partial_derivative(f, ("k1", 0)) == gen("k1", 2) ** 2
    # A parameter, an order of None and a negative or unregistered order are no coordinate.
    g = f * param("b") * param("a", -1)
    for target in (("b", None), ("a", None), ("k1", None), ("k1", -1), ("k1", 999), ("b", 0)):
        assert partial_derivative(g, target).is_zero()


def test_euler_operator_known_value():
    # d/dk1 gives k1'', and (-D)^2 of the k1''-slot coefficient gives k1''.
    assert euler_operator(K1 * gen("k1", 2), "k1") == 2 * gen("k1", 2)
    assert euler_operator(K2 * K2, "k2") == 2 * K2


def test_euler_kills_total_derivatives():
    rng = random.Random(31)
    for _ in range(40):
        f = _random_poly(rng, constant_free=True)
        df = total_derivative(f)
        assert euler_operator(df, "k1").is_zero()
        assert euler_operator(df, "k2").is_zero()


def test_anti_derivative_round_trip():
    rng = random.Random(47)
    for _ in range(40):
        f = _random_poly(rng, constant_free=True)
        assert anti_derivative(total_derivative(f)) == f
    # D(Dinv(D g)) == D g up to order 6, with constants and sign parameters.
    rng = random.Random(61)
    signed = [param("eps1"), param("eps2"), param("a", -1), param("c1"), one()]
    for _ in range(60):
        g = _random_poly(rng, max_order=6, max_degree=3, terms=4) * rng.choice(signed)
        assert anti_derivative(total_derivative(g)) == g - g.constant_part()


def test_anti_derivative_by_parts_chain():
    # k1*k1''' needs two regroupings: the answer is k1*k1'' - k1'^2/2.
    f = K1 * gen("k1", 3)
    expected = K1 * gen("k1", 2) - Fraction(1, 2) * gen("k1", 1) ** 2
    assert anti_derivative(f) == expected
    assert total_derivative(expected) == f


def test_anti_derivative_rejections():
    with pytest.raises(NotExact, match=r"^coefficient of k1\^\(1\) is not of lower order$"):
        anti_derivative(K1 * gen("k1", 2))
    with pytest.raises(NotExact, match="^residual of order zero after integration by parts$"):
        anti_derivative(K2 * K2)
    with pytest.raises(NonZeroConstantTerm, match="^anti-derivative needs zero constant term$"):
        anti_derivative(param("b") + gen("k1", 1))
    # Zero integrates by the same loop, which ends at once: zero over denominator 1.
    for f in (0, zero()):
        assert anti_derivative(f) == zero() and anti_derivative(f)._den == 1


def test_euler_and_anti_derivative_equal_their_binary_operator_formulas():
    # Each sums its parts in one _sum_products; these are the same sums
    # taken one addition at a time, so the results must be bit-identical.
    rng = random.Random(79)
    scales = [param("eps1"), param("a", -1), const(Fraction(2, 3)), one()]
    for _ in range(40):
        f = _random_poly(rng, max_order=4, max_degree=3, terms=4) * rng.choice(scales)
        for variable in ("k1", "k2"):
            want = zero()
            for var, m in sorted(f.generators()):
                if var == variable:
                    part = total_derivative(partial_derivative(f, (var, m)), m)
                    want = want - part if m % 2 else want + part
            assert euler_operator(f, variable) == want
        df = work = total_derivative(f)
        want = zero()
        while not work.is_zero():
            m, var = diffalg._top_coordinate(work)
            piece = diffalg._integrate_in(partial_derivative(work, (var, m)), var, m - 1)
            want, work = want + piece, work - total_derivative(piece)
        assert anti_derivative(df) == want == f - f.constant_part()


def test_anti_derivative_above_half_the_order_cap():
    # The Euler operator takes D^m of df/dv^(m), so these exceed MAX_ORDER
    # there; integration by parts never goes above the order of f.
    g = gen("k1", 6) ** 2
    assert anti_derivative(total_derivative(g)) == g
    with pytest.raises(NotExact):
        anti_derivative(gen("k1", 7) ** 2)


def test_anti_derivative_agrees_with_the_euler_oracle():
    # Exact exactly when every Euler operator vanishes; the order bound
    # keeps the oracle's D^m within MAX_ORDER.
    rng = random.Random(67)
    top = diffalg.MAX_ORDER // 2
    exact = inexact = 0
    for _ in range(80):
        f = total_derivative(_random_poly(rng, max_order=top - 1, max_degree=3))
        if rng.random() < 0.5:
            f = f + _random_poly(rng, max_order=top, max_degree=2, constant_free=True)
        if f.is_zero():
            continue
        oracle = any(not euler_operator(f, v).is_zero() for v in ("k1", "k2"))
        try:
            g = anti_derivative(f)
        except NotExact:
            assert oracle, f
            inexact += 1
        else:
            assert not oracle and total_derivative(g) == f, f
            exact += 1
    assert exact >= 20 and inexact >= 20


def test_order_of():
    assert order_of(const(5)) == -1
    assert order_of(zero()) == -1
    assert order_of(param("a") + const(2)) == -1
    assert order_of(K1 + gen("k2", 3)) == 3


def test_order_limit_is_enforced():
    with pytest.raises(OrderLimitError):
        gen("k1", diffalg.MAX_ORDER + 1)
    top = gen("k1", diffalg.MAX_ORDER)
    with pytest.raises(OrderLimitError):
        total_derivative(top)


def test_order_limit_holds_wherever_the_top_order_sits():
    top = diffalg.MAX_ORDER
    below = gen("k1", top - 1) * gen("k2", 1)
    assert total_derivative(below) == (
        gen("k1", top) * gen("k2", 1) + gen("k1", top - 1) * gen("k2", 2)
    )
    for f in (
        K1 * gen("k2", top),
        gen("k1", top) ** 2 * K2 + K1,
        param("a", -1) * param("eps2") * K1 * gen("k1", top) * gen("k2", 3),
    ):
        with pytest.raises(OrderLimitError):
            total_derivative(f)
        with pytest.raises(OrderLimitError):
            frechet(FlowPair(f, zero()), FlowPair(gen("k1", 1), gen("k2", 1)))


def test_frechet_known_value():
    a = FlowPair(K1 * gen("k1", 1), zero())
    b = FlowPair(gen("k1", 1), zero())
    got = frechet(a, b)
    assert got.p1 == gen("k1", 1) ** 2 + K1 * gen("k1", 2)
    assert got.p2.is_zero()


def test_bracket_convention_and_antisymmetry():
    rng = random.Random(59)
    for _ in range(15):
        a = FlowPair(_random_poly(rng), _random_poly(rng))
        b = FlowPair(_random_poly(rng), _random_poly(rng))
        ab = lie_bracket_flows(a, b)
        ba = lie_bracket_flows(b, a)
        direct = frechet(b, a)
        swapped = frechet(a, b)
        assert ab.p1 == direct.p1 - swapped.p1
        assert ab.p2 == direct.p2 - swapped.p2
        assert (ab.p1 + ba.p1).is_zero()
        assert (ab.p2 + ba.p2).is_zero()


def test_bracket_jacobi():
    rng = random.Random(61)
    for _ in range(6):
        flows = [
            FlowPair(
                _random_poly(rng, max_order=1, max_degree=2, terms=2),
                _random_poly(rng, max_order=1, max_degree=2, terms=2),
            )
            for _ in range(3)
        ]
        a, b, c = flows
        total_1 = zero()
        total_2 = zero()
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            term = lie_bracket_flows(lie_bracket_flows(x, y), z)
            total_1 = total_1 + term.p1
            total_2 = total_2 + term.p2
        assert total_1.is_zero()
        assert total_2.is_zero()


def test_translation_is_central():
    translation = FlowPair(gen("k1", 1), gen("k2", 1))
    rng = random.Random(73)
    for _ in range(10):
        a = FlowPair(_random_poly(rng), _random_poly(rng))
        assert lie_bracket_flows(a, translation).is_zero()
    # In particular the curvature-scaling flow commutes with translation.
    assert lie_bracket_flows(translation, FlowPair(K1, zero())).is_zero()


def test_flow_pair_rejects_stray_variables():
    with pytest.raises(DiffAlgError):
        FlowPair(gen("u", 1), zero())
    uv = FlowPair(gen("u", 1), gen("v", 1), variables=("u", "v"))
    for route in (frechet, lie_bracket_flows):
        with pytest.raises(DiffAlgError, match="flow pairs over different variables"):
            route(FlowPair(K1, K2), uv)


def test_specialize_substitutes_and_renames():
    a, eps1, eps2 = param("a"), param("eps1"), param("eps2")
    f = a * eps1 * K1 + param("a", -1) * eps2 * K2 + param("b") * K1 * K2
    got = specialize(f, {"a": 2, "eps1": -1, "eps2": 1}, {"k1": "u", "k2": "v"})
    u, v = gen("u"), gen("v")
    assert got == -2 * u + Fraction(1, 2) * v + param("b") * u * v
    assert specialize(eps1 * K1 + K1, {"eps1": -1}).is_zero()
    assert specialize(eps1 * eps2 * K1 - eps2 * K2, {"eps1": -1, "eps2": -1}) == K1 + K2
    assert specialize(param("a", -3) * K1, {"a": Fraction(-2, 3)}) == Fraction(-27, 8) * K1
    assert specialize(K1 * K2 + K1 * K1, {}, {"k2": "k1"}) == 2 * K1 * K1
    assert specialize(param("G") * K1, {"G": 0}).is_zero()
    assert specialize(f, {}) == f


def test_specialize_rejections():
    for values in ({"eps1": 2}, {"eps2": 0}, {"a": 0}, {"a": 2.0}, {"zz": 1}):
        with pytest.raises(DiffAlgError):
            specialize(K1, values)
    with pytest.raises(DiffAlgError):
        specialize(K1, {}, {"k1": "not a name"})


def _key(key: int) -> tuple:
    """The (gens, powers, eps1, eps2) tuple a packed term key stands for."""
    return diffalg._decode(key)


def _assert_canonical(f: DiffPoly) -> None:
    assert type(f._den) is int and f._den > 0
    assert math.gcd(f._den, *f._terms.values()) == 1
    assert f._terms or f._den == 1
    for key, value in f._terms.items():
        gens, pows, e1, e2 = _key(key)
        assert type(key) is int and not key & diffalg._guard, key
        assert diffalg._encode(gens, pows, e1, e2) == key, key
        assert type(value) is int and value != 0
        coords = [coord for coord, _ in gens]
        assert all(x < y for x, y in zip(coords, coords[1:])), gens
        assert all(type(exp) is int and exp >= 1 for _, exp in gens), gens
        ranks = [_param_rank(name) for name, _ in pows]
        assert all(x < y for x, y in zip(ranks, ranks[1:])), pows
        assert all(type(exp) is int and exp != 0 for _, exp in pows), pows
        assert e1 in (0, 1) and e2 in (0, 1)


def test_stored_numerators_stay_nonzero_and_coprime():
    # The constructor trusts its callers: every builder must hand it
    # nonzero int numerators over a coprime positive denominator and
    # canonical keys, through cancellation, specialization and renaming; a
    # key out of order would split equal terms silently, and content left
    # undivided would make equal polynomials compare unequal.
    rng = random.Random(17)
    signed = [param("eps1"), param("eps2"), param("a", -1), param("c1"), one()]
    for _ in range(30):
        f = _random_poly(rng, constant_free=True) * rng.choice(signed)
        for _ in range(6):
            g = _random_poly(rng, constant_free=True) * rng.choice(signed)
            step = rng.randrange(9)
            if step == 0:
                f = f * g
            elif step == 1:
                f = f + g - f
            elif step == 2:
                f = -(f - f) - f
            elif step == 3:
                f = total_derivative(f) + f
            elif step == 4:
                f = anti_derivative(total_derivative(f))
            elif step == 5:
                f = f + specialize(
                    f, {"eps1": rng.choice([1, -1]), "a": rng.choice([1, -2])}
                )
            elif step == 6:
                f = specialize(f, {}, {"k2": "k1"}) - g
            elif step == 7:
                f = f + euler_operator(f * g, rng.choice(["k1", "k2"]))
            else:
                coords = sorted(f.generators()) or [("k1", 0)]
                f = f - g * partial_derivative(f, rng.choice(coords))
            _assert_canonical(f)


def test_cancellation_through_the_d_and_add_kernels():
    # Both kernels drop a cancelled term: no zero numerator is ever stored.
    f = Fraction(1, 3) * K1 * gen("k2", 1) - param("eps1") * K2 * K2
    diff = f - f
    _assert_canonical(diff)
    assert diff.is_zero() and diff._den == 1
    k1p, k2p = gen("k1", 1), gen("k2", 1)
    got = total_derivative(k1p * K2 - K1 * k2p)
    _assert_canonical(got)
    assert got == gen("k1", 2) * K2 - K1 * gen("k2", 2)


def test_packed_fields_overflow_raises_and_keys_outlive_registration():
    top = K1 ** MAX_EXPONENT
    k1p = gen("k1", 1)
    for overflow in (
        lambda: top * K1,  # a product
        lambda: total_derivative(K1 * k1p ** MAX_EXPONENT),  # D into a full field
        lambda: anti_derivative(top * k1p),  # integrating k1^127 raises it to 128
        lambda: specialize(top * K2, {}, {"k2": "k1"}),  # renaming merges fields
        lambda: param("b", MAX_EXPONENT + 1),
    ):
        with pytest.raises(ExponentLimitError):
            overflow()
    # The power of a sits under a bias of 64, so it ranges over -64..63.
    floor = param("a", -64)
    assert str(floor * param("a", 63)) == "a^-1"
    for overflow in (lambda: floor * param("a", -1), lambda: param("a", -65),
                     lambda: param("a", 63) * param("a")):
        with pytest.raises(ExponentLimitError):
            overflow()
    assert str(top * param("a", -64)) == "a^-64*k1^127"

    # Names get fields on first use; keys made before keep their meaning.
    def build():
        return [K1 * K2 ** 3 + param("a", -2) * param("eps1") * gen("k2", 4),
                total_derivative(param("c1") * K1 * gen("k1", 2))]

    before = build()
    text = [str(p) for p in before]
    taken = {name for name, _ in diffalg._byte}
    late = next(v for v in ("u", "u_late", "u_later") if v not in taken)
    w = gen(late, 2) * param("c97")
    assert before == build() and [str(p) for p in before] == text
    assert str(before[0] * w) == str(w * build()[0])
    assert specialize(before[0], {}, {"k1": late}) == specialize(build()[0], {}, {"k1": late})
    for f in before + [w, before[0] * w]:
        _assert_canonical(f)


def test_shared_content_is_divided_out():
    half, third = Fraction(1, 2), Fraction(1, 3)
    k1, k1_k1p = ((("k1", 0), 1),), ((("k1", 0), 1), (("k1", 1), 1))
    f = K1 * half + K2 * third
    cases = [
        (K1 * half + K1 * half, {(k1, (), 0, 0): 1}),
        ((K1 * third) * 3, {(k1, (), 0, 0): 1}),
        (total_derivative(K1 ** 2 * half), {(k1_k1p, (), 0, 0): 1}),
        (f - f, {}),
    ]
    for got, numerators in cases:
        assert got._den == 1 and {_key(k): q for k, q in got._terms.items()} == numerators
    assert f._den == 6 and {_key(k): q for k, q in f._terms.items()} == {
        (k1, (), 0, 0): 3, (((("k2", 0), 1),), (), 0, 0): 2
    }


# -- the merge-and-sort key construction the kernels replaced --------------
#
# Each reference rebuilds every key as a tuple through a dict of factor
# exponents, drops zero exponents and sorts again, on Fraction values; the
# kernels add packed int keys and must build exactly the same terms once
# decoded.


def _decoded(f: DiffPoly) -> dict:
    return {_key(key): Fraction(value, f._den) for key, value in f._terms.items()}


def _ref_merge(*factor_lists) -> dict:
    merged: dict = {}
    for factors in factor_lists:
        for key, exp in factors:
            merged[key] = merged.get(key, 0) + exp
    return {k: e for k, e in merged.items() if e != 0}


def _ref_accumulate(acc: dict, key, value: Fraction) -> None:
    total = acc.get(key, Fraction(0)) + value
    if total == 0:
        acc.pop(key, None)
    else:
        acc[key] = total


def _ref_d_once(f: DiffPoly) -> dict:
    acc: dict = {}
    for (gens, pows, e1, e2), q in _decoded(f).items():
        for (var, order), exp in gens:
            bumped = _ref_merge(gens, (((var, order), -1), ((var, order + 1), 1)))
            _ref_accumulate(acc, (tuple(sorted(bumped.items())), pows, e1, e2), q * exp)
    return acc


def _ref_partial(f: DiffPoly, target: tuple) -> dict:
    acc: dict = {}
    for (gens, pows, e1, e2), q in _decoded(f).items():
        for coord, exp in gens:
            if coord == target:
                reduced = _ref_merge(gens, ((coord, -1),))
                _ref_accumulate(acc, (tuple(sorted(reduced.items())), pows, e1, e2), q * exp)
    return acc


def _ref_mul(f: DiffPoly, g: DiffPoly) -> dict:
    acc: dict = {}
    for (g1, p1, a1, b1), q1 in _decoded(f).items():
        for (g2, p2, a2, b2), q2 in _decoded(g).items():
            pows = _ref_merge(p1, p2)
            key = (
                tuple(sorted(_ref_merge(g1, g2).items())),
                tuple(sorted(pows.items(), key=lambda it: _param_rank(it[0]))),
                (a1 + a2) % 2,
                (b1 + b2) % 2,
            )
            _ref_accumulate(acc, key, q1 * q2)
    return acc


_REF_PARAMS = ["a", "b", "c", "G", "c1", "c2", "c10"]


def _random_terms(rng: random.Random, size: int) -> DiffPoly:
    """Canonical terms drawn directly, without the kernel under test."""
    terms: dict = {}
    for _ in range(size):
        gens: dict = {}
        for _ in range(rng.randrange(4)):
            coord = (rng.choice(["k1", "k2", "u"]), rng.randrange(5))
            gens[coord] = gens.get(coord, 0) + 1
        pows = {}
        for name in rng.sample(_REF_PARAMS, rng.randrange(3)):
            pows[name] = rng.choice([-2, -1, 1, 2]) if name == "a" else rng.randrange(1, 3)
        key = diffalg._encode(
            tuple(sorted(gens.items())),
            tuple(sorted(pows.items(), key=lambda it: _param_rank(it[0]))),
            rng.randrange(2),
            rng.randrange(2),
        )
        terms[key] = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 5]))
    # Over the lcm of the denominators the numerators are coprime to it.
    den = math.lcm(*(q.denominator for q in terms.values()))
    return DiffPoly({key: int(q * den) for key, q in terms.items()}, den)


def test_kernels_match_the_merge_and_sort_reference():
    rng = random.Random(5)
    for _ in range(60):
        f = _random_terms(rng, rng.randrange(8))
        g = _random_terms(rng, rng.randrange(8))
        _assert_canonical(f)
        checks = [(total_derivative(f), _ref_d_once(f)), (f * g, _ref_mul(f, g))]
        # Cancelling products: opposite signs and inverse powers of a.
        h = f * param("a", -1) - g * param("a", 2)
        checks += [(h * (f + g), _ref_mul(h, f + g)), (h * h, _ref_mul(h, h))]
        for target in sorted(f.generators()) + [("k2", 5)]:
            checks.append((partial_derivative(f, target), _ref_partial(f, target)))
        # Canonical form makes the decoded terms determine the stored ones.
        for got, want in checks:
            _assert_canonical(got)
            assert _decoded(got) == want


def test_sum_products_equals_the_binary_operator_sum():
    # The kernel's oracle is the same sum built by DiffPoly *, + and -.
    rng = random.Random(71)
    for _ in range(40):
        products = [(_random_terms(rng, rng.randrange(6)), _random_terms(rng, rng.randrange(6)),
                     rng.choice([1, -1, 2, -3])) for _ in range(rng.randrange(1, 5))]
        got = diffalg._sum_products(products)
        want = zero()
        for p, q, sign in products:
            for _ in range(abs(sign)):
                want = want + p * q if sign > 0 else want - p * q
        _assert_canonical(got)
        assert got == want
    # Products that cancel exactly, over mixed denominators and a power of a.
    f = Fraction(1, 3) * K1 * gen("k2", 1) - param("eps1") * param("a", -1) * K2
    g = Fraction(5, 2) * param("c1") * K2 + gen("k1", 2)
    cancelled = diffalg._sum_products([(f, g, 2), (g, f, -1), (f * g, one(), -1)])
    _assert_canonical(cancelled)
    assert cancelled.is_zero() and cancelled._den == 1
    left = diffalg._sum_products([(f, g, 1), (param("a", -1) * K2, K1, 3), (f, g, -1)])
    _assert_canonical(left)
    assert left == 3 * param("a", -1) * K1 * K2
    assert diffalg._sum_products([]) == zero() and diffalg._sum_products([])._den == 1


# -- the decode-and-re-encode specialize the key-rewriting kernel replaced --


def _ref_specialize(f: DiffPoly, values: dict, rename: dict) -> DiffPoly:
    acc: dict = {}
    for key, q in f._terms.items():
        gens, pows, e1, e2 = _key(key)
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
        _ref_accumulate(acc, diffalg._encode(moved.items(), kept, e1, e2), q)
    den = math.lcm(*(q.denominator for q in acc.values()))
    return DiffPoly({key: q.numerator * (den // q.denominator) for key, q in acc.items()}, den)


def test_specialize_matches_the_decode_and_re_encode_reference():
    rng = random.Random(29)
    renames = [{}, {"k1": "u"}, {"k2": "k1"}, {"k1": "k2", "k2": "k1"}, {"k1": "u", "k2": "v"},
               {"u": "k2"}]
    draws = {"a": [2, -3, Fraction(-2, 3), Fraction(5, 7)], "eps1": [1, -1], "eps2": [1, -1],
             "b": [0, 3, -1, Fraction(-1, 2)], "c1": [0, Fraction(4, 9)], "G": [-2, Fraction(3, 5)],
             "c10": [7], "c": [Fraction(-7, 4)]}
    signs = [one(), param("eps1"), param("eps2"), param("eps1") * param("eps2")]
    for i in range(150):
        f = _random_terms(rng, rng.randrange(1, 9)) * rng.choice(signs)
        f = f * param("a", rng.choice([-5, -3, 0, 3, 4]))
        names = rng.sample(sorted(draws), rng.randrange(6))
        values = {name: rng.choice(draws[name]) for name in names}
        rename = rng.choice(renames) if i % 10 else {"k1": "w_spec%d" % i, "k2": "u"}
        got = specialize(f, values, rename)  # first, so a fresh name gets its bytes here
        want = _ref_specialize(f, values, rename)
        _assert_canonical(got)
        assert got == want and str(got) == str(want)
    # Cancellation to zero: through a sign, a value of a, and a merging rename.
    a, eps1, k1p, k2p = param("a"), param("eps1"), gen("k1", 1), gen("k2", 1)
    for f, values, rename in [
        (Fraction(2, 3) * eps1 * K1 * K2 + Fraction(2, 3) * K1 * K2, {"eps1": -1}, {}),
        (param("a", -2) * k1p - Fraction(1, 4) * k1p, {"a": -2}, {"k1": "u"}),
        (k1p * K2 - K1 * k2p + param("b") * K1, {"b": 0, "a": 3}, {"k2": "k1"}),
        (a * K1 * K2 - 2 * K2 * K1 * eps1, {"a": 2, "eps1": 1}, {"k1": "k2", "k2": "k1"}),
    ]:
        got = specialize(f, values, rename)
        _assert_canonical(got)
        assert got.is_zero() and got._den == 1 and got == _ref_specialize(f, values, rename)
    # Terms that meet over different denominators.
    assert specialize(a * K1 - param("a", 2) * K1, {"a": Fraction(5, 7)}) == Fraction(10, 49) * K1
    # A merge past the field while a parameter is substituted fails on both
    # routes, also when the value zeroes the term.
    f = param("a", 3) * param("b") * K1 ** 100 * K2 ** 28 + K1
    for b in (Fraction(1, 3), 0):
        for route in (specialize, _ref_specialize):
            with pytest.raises(ExponentLimitError):
                route(f, {"a": 2, "b": b}, {"k2": "k1"})
    assert specialize(f, {"a": 2}, {"k2": "k1", "k1": "k2"}) == _ref_specialize(
        f, {"a": 2}, {"k2": "k1", "k1": "k2"})


def test_specialize_decodes_no_key(monkeypatch):
    from nullflow.operators import hs_classic_sigma

    a, eps1, eps2 = param("a"), param("eps1"), param("eps2")
    f = a * eps1 * K1 + param("a", -1) * eps2 * K2 * gen("k1", 2) + param("c1") * K1 * K2
    values, rename = {"a": 2, "eps1": 1, "eps2": -1}, {"k1": "u", "k2": "v"}
    want, sigma = _ref_specialize(f, values, rename), hs_classic_sigma(3)

    def refuse(key):
        raise AssertionError("a key was decoded")

    monkeypatch.setattr(diffalg, "_decode", refuse)
    assert specialize(f, values, rename) == want
    assert hs_classic_sigma(3).components() == sigma.components()
