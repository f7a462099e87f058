"""Hierarchy generation, reference forms, and commutation."""

import hashlib

import pytest

from nullflow import diffalg
from nullflow.diffalg import const, gen, lie_bracket_flows, order_of, param
from nullflow.expr import parse_expr, render
from nullflow.hierarchy import (
    HierarchyEntry,
    commute_check,
    generate,
    recursion_step,
    seed,
    verify_reference_forms,
)
from nullflow.operators import hs_classic_sigma


def _minted_only(difference):
    """Every term of the difference carries a minted c-symbol."""
    for _gens, _rational, powers, _eps1, _eps2 in difference.terms():
        if not any(
            name[0] == "c" and name[1:].isdigit() for name, _ in powers
        ):
            return False
    return True


def test_seeds_and_recursion_match_reference_forms():
    report = verify_reference_forms()
    failed = [c for c in report["checks"] if not c["ok"]]
    assert report["ok"], failed
    names = {(c["index"], c["component"]) for c in report["checks"]}
    assert (2, "flow.k1") in names
    assert (3, "field.f") in names
    # Entries 0 and 1 alone are checked in full, each in component-name order.
    report = verify_reference_forms(generate(1))
    components = ["field.f", "field.g", "field.h", "field.l", "flow.k1", "flow.k2"]
    assert report["ok"]
    assert [(c["index"], c["component"], c["difference"]) for c in report["checks"]] == [
        (index, name, "0") for index in (0, 1) for name in components
    ]


def test_mint_order_is_c1_c2_then_c3_c4():
    entries = generate(3)
    assert entries[2].constants_used == ("b", "c1", "c2")
    assert entries[3].constants_used == ("c", "c3", "c4")


def test_verification_flags_a_perturbed_entry():
    entries = generate(3)
    bad_field = entries[2].field + type(entries[2].field)(
        param("b") * parse_expr("k1"), const(0), const(0), const(0)
    )
    entries[2] = HierarchyEntry(
        2, bad_field, entries[2].flow, entries[2].constants_used
    )
    report = verify_reference_forms(entries)
    assert not report["ok"]
    bad = [c for c in report["checks"] if not c["ok"]]
    assert len(bad) == 1
    assert bad[0]["component"] == "field.f"
    assert bad[0]["difference"] == "b*k1"


def test_zero_policy_matches_reference_forms_with_unminted_constants_at_zero():
    entries = generate(3, "zero")
    report = verify_reference_forms(entries)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert len(report["checks"]) == len(verify_reference_forms()["checks"])
    # Only the stored form is specialized: a c1 term in the entry still fails.
    field = entries[2].field
    entries[2] = HierarchyEntry(
        2, type(field)(field.f, field.h, field.g + param("c1"), field.l), entries[2].flow, ()
    )
    bad = [c for c in verify_reference_forms(entries)["checks"] if not c["ok"]]
    assert [(c["component"], c["difference"]) for c in bad] == [("field.g", "c1")]


def test_zero_policy_differs_only_by_constant_terms():
    fresh = generate(3)
    pinned = generate(3, policy="zero")
    for index in (2, 3):
        for comp_fresh, comp_zero in zip(
            fresh[index].field.components(), pinned[index].field.components()
        ):
            assert _minted_only(comp_fresh - comp_zero)
        assert _minted_only(fresh[index].flow.p1 - pinned[index].flow.p1)
        assert _minted_only(fresh[index].flow.p2 - pinned[index].flow.p2)


def test_step_names_constants_after_the_index_it_produces():
    entries = generate(5)
    for n in range(2, 6):
        assert recursion_step(entries[n - 2]) == entries[n]
    renamed = recursion_step(seed(0, "c3"))
    assert renamed.constants_used == ("c3", "c1", "c2")
    with pytest.raises(ValueError, match="c1"):
        recursion_step(seed(0, "c1"))


def test_policy_and_seed_validation():
    with pytest.raises(ValueError):
        seed(2)
    with pytest.raises(ValueError, match="a scale constant must be a str"):
        seed(0, 5)
    for policy in ("maybe", (param("c1"), param("c2"))):
        with pytest.raises(ValueError):
            recursion_step(seed(0), policy=policy)
    for upto in (0, 1):  # no recursion step runs, yet the policy is checked
        with pytest.raises(ValueError, match="constant policy"):
            generate(upto, "bogus")
    with pytest.raises(ValueError):
        generate(-1)


@pytest.mark.parametrize("make, index", [
    (seed, True),
    (seed, 1.0),
    (generate, True),
    (generate, 2.0),
    (hs_classic_sigma, True),
    (hs_classic_sigma, 2.0),
])
def test_hierarchy_indices_are_exact_ints(make, index):
    # A bool or a float index is refused, never read as the int it equals.
    with pytest.raises(ValueError, match="must be an int"):
        make(index)


def test_adjacent_flows_commute():
    entries = generate(3)
    assert commute_check(entries[0], entries[1])
    assert commute_check(entries[1], entries[2])
    bracket = lie_bracket_flows(entries[0].flow, entries[3].flow)
    assert bracket.is_zero()


# SHA-256 of the canonical text of generate(5): for each entry in index
# order, field f, h, g, l and then flow k1, k2, one component per line.
# Any refactor of the exact layer must reproduce these bytes.
GENERATE5_SHA256 = "1983af3baa18ed61783eeaaf6de59b221cd6e5aeb4b402ea291fea5d82b8a1be"


def test_extended_generation_reaches_index_five():
    entries = generate(5)
    assert [e.index for e in entries] == [0, 1, 2, 3, 4, 5]
    assert order_of(entries[4].flow.p1) == 9
    assert order_of(entries[5].flow.p1) == 11
    assert entries[4].constants_used == ("b", "c1", "c2", "c5", "c6")
    text = "\n".join(
        str(comp)
        for e in entries
        for comp in e.field.components() + e.flow.components()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE5_SHA256


# SHA-256 of render(comp, "latex") over the same components of generate(5),
# one per line: pins the LaTeX renderer as the digest above pins str.
GENERATE5_LATEX_SHA256 = "d74163963850f7f074785a8e542cfa4539c050f4a6ad032f998bd48dfbd8371e"


def test_generate_five_latex_matches_its_pinned_digest():
    text = "\n".join(
        render(comp, "latex")
        for e in generate(5)
        for comp in e.field.components() + e.flow.components()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE5_LATEX_SHA256


# The same canonical text for generate(7), whose flows need derivative
# orders past the default cap.  The cap is raised in process after k1 and
# k2 hold their bytes, so a key layout that still depended on the cap
# would give k1^(13) the byte of k2 and miss the digest.
GENERATE7_SHA256 = "64e28c699f9bec9e49ff577038dc2c2568a9f04c0c1cc2938fa16069492dfad3"


def test_generate_seven_matches_its_pinned_digest(monkeypatch):
    assert gen("k1") != gen("k2")  # both hold their bytes before the cap moves
    monkeypatch.setattr(diffalg, "MAX_ORDER", 24)
    assert gen("k1", 13) != gen("k2")
    text = "\n".join(
        str(comp) for e in generate(7) for comp in e.field.components() + e.flow.components()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE7_SHA256


def test_max_order_is_read_from_the_environment(monkeypatch):
    monkeypatch.delenv("NULLFLOW_MAX_ORDER", raising=False)
    assert diffalg._read_max_order() == 12
    for raw, cap in (("24", 24), ("0", 12), ("x", 12)):
        monkeypatch.setenv("NULLFLOW_MAX_ORDER", raw)
        assert diffalg._read_max_order() == cap
