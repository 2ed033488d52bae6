"""Rule catalogue for the QA linter.

Every rule is a :class:`repro.qa.rules.base.Rule` subclass; the linter
instantiates :func:`default_rules` once per run. Order here is the
``repro lint --list-rules`` order; findings are reported sorted by
path, line, column and rule id.
"""

from repro.qa.rules.base import Rule
from repro.qa.rules.excepts import OverbroadExcept
from repro.qa.rules.exports import AllDrift
from repro.qa.rules.floatcmp import FloatEquality
from repro.qa.rules.mutation import ArgumentMutation
from repro.qa.rules.obs import ObsDiscipline
from repro.qa.rules.rng import RngDiscipline

ALL_RULE_CLASSES = (
    RngDiscipline,
    ArgumentMutation,
    FloatEquality,
    OverbroadExcept,
    AllDrift,
    ObsDiscipline,
)


def default_rules():
    """Fresh instances of every registered rule."""
    return [cls() for cls in ALL_RULE_CLASSES]


__all__ = [
    "Rule",
    "OverbroadExcept",
    "AllDrift",
    "FloatEquality",
    "ArgumentMutation",
    "RngDiscipline",
    "ObsDiscipline",
    "ALL_RULE_CLASSES",
    "default_rules",
]
