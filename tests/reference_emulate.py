"""Reference version of ``attnplan.emulate.check_equivalent_on``.

This is the earlier check, which renders every state: it runs the
attention update on the state and renders the result, runs the product
update on the state's rendition, and compares the two epistemic states.
The library compares attention states directly when the compiled action's
post maps are budget shifts; the differential tests check that both give
the same verdicts, details and distinguishing formulas included.  Nothing
in the package imports this module.
"""

from __future__ import annotations

from attnplan.actions import (
    AttentionAction,
    EpistemicAction,
    applicable,
    attention_update,
    product_update,
)
from attnplan.bisim import BisimWitness, distinguishing_formula, kripke_bisimilar
from attnplan.emulate import Verdict, resolve_actual
from attnplan.errors import NotApplicable
from attnplan.models import AttentionState, kripke_rendition


def check_equivalent_on(
    x: AttentionAction, y: EpistemicAction, states: list[AttentionState]
) -> list[Verdict]:
    verdicts: list[Verdict] = []
    for s in states:
        runs_x = applicable(s, x)
        try:
            resolved = resolve_actual(y, s)
            runs_y = True
        except NotApplicable:
            runs_y = False
        if runs_x != runs_y:
            verdicts.append(
                Verdict(
                    False,
                    f"applicability mismatch at {s.actual!r}: "
                    f"attention side {runs_x}, epistemic side {runs_y}",
                )
            )
            continue
        if not runs_x:
            verdicts.append(Verdict(True, "both inapplicable"))
            continue
        r1 = kripke_rendition(attention_update(s, x))
        r2 = product_update(kripke_rendition(s), resolved)
        outcome = kripke_bisimilar(r1, r2)
        if isinstance(outcome, BisimWitness):
            verdicts.append(Verdict(True, "results bisimilar"))
        else:
            verdicts.append(
                Verdict(
                    False,
                    f"results separated at refinement round {outcome.round}",
                    distinguishing_formula(r1, r2),
                )
            )
    return verdicts
