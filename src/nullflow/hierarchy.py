"""The commuting hierarchy of curvature flows and its reference forms.

Entries pair a frame field with its induced curvature flow.  The two seeds
are the tangent field (index 0, curvature translation) and the third-order
field (index 1); the recursion step feeds half the flow back in as new
tangential data, raising the index by two.  Each step owns two integration
constants, named after the index n it produces: c(2n-3) and c(2n-2), so
index 2 carries c1, c2, index 3 carries c3, c4 and index 4 carries c5, c6,
whichever lineage or call path reaches it.  The "zero" policy pins both to
zero instead.

The ambient curvature G is pinned to zero throughout this module: the
hierarchy is a flat-space construction, and the G-terms of the general
variational formulas vanish with it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .diffalg import (
    FlowPair,
    const,
    lie_bracket_flows,
    param,
    specialize,
)
from .expr import parse_expr
from .nullcurve import FLAT, LocalVectorField, make_X, variational_flow, _EPS12, _HALF


@dataclass(frozen=True)
class HierarchyEntry:
    index: int
    field: LocalVectorField
    flow: FlowPair
    constants_used: tuple[str, ...]


def seed(index: int, constant: str | None = None) -> HierarchyEntry:
    """Seed entries: index 0 (translation, scale b) or 1 (third order, scale c)."""
    if type(index) is not int or index not in (0, 1):
        raise ValueError("seed index must be an int, 0 or 1, got %r" % (index,))
    if constant is not None and not isinstance(constant, str):
        raise ValueError("a scale constant must be a str, got %r" % (constant,))
    if constant in ("a", "G", "eps1", "eps2"):
        raise ValueError("%s is a metric symbol, not a scale constant" % (constant,))
    if index == 0:
        name = "b" if constant is None else constant
        field = make_X(const(0), const(0), 0, param(name))
    else:
        name = "c" if constant is None else constant
        c1 = -2 * param("eps1") * param("a", 2) * param(name)
        field = make_X(const(0), const(0), c1, 0)
    return HierarchyEntry(index, field, variational_flow(field, FLAT), (name,))


def recursion_step(
    entry: HierarchyEntry,
    policy: str = "fresh",
) -> HierarchyEntry:
    """Apply the recursion once: index n - 2 -> n.

    policy is "fresh" (the constants c(2n-3), c(2n-2) named after n; a
    ValueError when the entry already uses either name) or "zero".
    """
    n = entry.index + 2
    if policy == "fresh":
        minted = ("c%d" % (2 * n - 3,), "c%d" % (2 * n - 2,))
        clash = [name for name in minted if name in entry.constants_used]
        if clash:
            raise ValueError(
                "index %d mints %s, already used by the entry" % (n, ", ".join(clash))
            )
        c1, c2 = param(minted[0]), param(minted[1])
    elif policy == "zero":
        minted = ()
        c1 = c2 = const(0)
    else:
        raise ValueError("constant policy must be 'fresh' or 'zero'")
    h = _HALF * entry.flow.p1
    l = -_EPS12 * entry.flow.p2
    field = make_X(h, l, c1, c2)
    return HierarchyEntry(
        n,
        field,
        variational_flow(field, FLAT),
        entry.constants_used + minted,
    )


def generate(upto: int, policy: str = "fresh") -> list[HierarchyEntry]:
    """Entries 0..upto: the two seeds, then one recursion step per index."""
    if type(upto) is not int or upto < 0:
        raise ValueError("upto must be an int >= 0, got %r" % (upto,))
    if policy not in ("fresh", "zero"):
        raise ValueError("constant policy must be 'fresh' or 'zero'")
    entries = [seed(index) for index in range(min(upto, 1) + 1)]
    for index in range(2, upto + 1):
        entries.append(recursion_step(entries[index - 2], policy))
    return entries


def commute_check(e1: HierarchyEntry, e2: HierarchyEntry) -> bool:
    """True when the two entries' curvature flows commute exactly."""
    return lie_bracket_flows(e1.flow, e2.flow).is_zero()


# Closed forms of the first four entries, with the constants named as they
# come out of generate(3): the index-2 step mints c1, c2 and the index-3
# step mints c3, c4.  Texts are in canonical parser syntax.
_REFERENCE_FORMS: dict[int, dict[str, str]] = {
    0: {
        "field.f": "b",
        "field.h": "0",
        "field.g": "0",
        "field.l": "0",
        "flow.k1": "b*k1'",
        "flow.k2": "b*k2'",
    },
    1: {
        "field.f": "-a*c*k1",
        "field.h": "0",
        "field.g": "-2*eps1*a^2*c",
        "field.l": "0",
        "flow.k1": "c*(k1''' + 3*a*k1*k1' + 6*eps1*eps2*a*k2*k2')",
        "flow.k2": "-c*(2*k2''' + 3*a*k1*k2')",
    },
    2: {
        "field.f": "-b*k1''/(4*a) - b*k1^2/8 + eps1*eps2*b*k2^2/4"
        " + eps1*c1*k1/(2*a) + c2",
        "field.h": "b*k1'/2",
        "field.g": "c1 - eps1*a*b*k1/2",
        "field.l": "-eps1*eps2*b*k2'",
        "flow.k1": "(2*b*k1^(5) + (10*a*b*k1 - 4*eps1*c1)*k1'''"
        " + 20*eps1*eps2*a*b*k2*k2''' + 20*a*b*k1'*k1''"
        " + 20*eps1*eps2*a*b*k2'*k2''"
        " + (15*a^2*b*k1^2 + 10*eps1*eps2*a^2*b*k2^2 - 12*eps1*a*c1*k1"
        " + 8*a^2*c2)*k1'"
        " + (20*eps1*eps2*a^2*b*k1 - 24*eps2*a*c1)*k2*k2')/(8*a^2)",
        "flow.k2": "(-8*b*k2^(5) + (8*eps1*c1 - 20*a*b*k1)*k2'''"
        " - 10*a*b*k1''*k2' - 20*a*b*k1'*k2''"
        " + (10*eps1*eps2*a^2*b*k2^2 - 5*a^2*b*k1^2 + 12*eps1*a*c1*k1"
        " + 8*a^2*c2)*k2')/(8*a^2)",
    },
    3: {
        "field.f": "-c*k1^(4)/(4*a) - 3*c*k1*k1''/4 - 7*c*k1'^2/8"
        " - 5*eps1*eps2*c*k2*k2''/2 - eps1*eps2*c*k2'^2 - a*c*k1^3/8"
        " + eps1*c3*k1/(2*a) - 3*eps1*eps2*a*c*k1*k2^2/4 + c4",
        "field.h": "c*k1'''/2 + 3*a*c*k1*k1'/2 + 3*eps1*eps2*a*c*k2*k2'",
        "field.g": "-eps1*a*c*k1''/2 - 3*eps1*a^2*c*k1^2/4"
        " - 3*eps2*a^2*c*k2^2/2 + c3",
        "field.l": "2*eps1*eps2*c*k2''' + 3*eps1*eps2*a*c*k1*k2'",
    },
}


# The names of field.components() + flow.components(), in that order.
_COMPONENTS = ("field.f", "field.h", "field.g", "field.l", "flow.k1", "flow.k2")


def verify_reference_forms(entries: Sequence[HierarchyEntry] | None = None) -> dict:
    """Compare generated entries against the stored closed forms.

    Returns {"ok": bool, "checks": [...]} with one record per component:
    index, component name, pass flag, and the symbolic difference (canonical
    text, "0" on a pass).  Each step constant c<n> of a stored form that
    the entry did not mint is set to 0 before comparing.
    """
    if entries is None:
        entries = generate(3)
    by_index = {entry.index: entry for entry in entries}
    checks = []
    for index in sorted(_REFERENCE_FORMS):
        if index not in by_index:
            continue
        entry = by_index[index]
        components = dict(zip(_COMPONENTS, entry.field.components() + entry.flow.components()))
        for name, text in sorted(_REFERENCE_FORMS[index].items()):
            expected = parse_expr(text)
            unminted = {
                p: 0
                for p in expected.parameters()
                if re.fullmatch(r"c\d+", p) and p not in entry.constants_used
            }
            expected = specialize(expected, unminted)
            difference = components[name] - expected
            checks.append(
                {
                    "index": index,
                    "component": name,
                    "ok": difference.is_zero(),
                    "difference": str(difference),
                }
            )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}
