"""Command line front end.

Exit codes: 0 for success (including "true", "bisimilar", a found plan),
1 for honest negative answers (false, not bisimilar, no plan), 2 for
errors (unreadable documents, unknown names, invalid formulas, and any
unexpected exception, reported as a one-line message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .actions import EpistemicAction, apply_sequence
from .bisim import BisimWitness, bisimilar, contract, distinguishing_formula
from .emulate import from_nopost, to_post
from .errors import AttnPlanError
from .logic import format_formula, parse_formula
from .models import check, kripke_rendition
from .planner import NoneWithinBound, NoSolution, Solution, solve_bounded, solve_nfl
from .taskfile import (
    action_document,
    epistemic_action_dict,
    export_dot,
    load,
    state_document,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnplan",
        description="Work with attention-bounded epistemic models, actions, and plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a task document and report diagnostics")
    p.add_argument("--task", required=True, help="path to a task document")

    p = sub.add_parser("check", help="evaluate a formula in a named state")
    p.add_argument("--task", required=True)
    p.add_argument("--state", required=True, help="state name in the document")
    p.add_argument("--formula", required=True, help="formula in the surface syntax")
    p.add_argument("--world", help="evaluate here instead of the actual world")

    p = sub.add_parser("update", help="apply named actions to a state, in order")
    p.add_argument("--task", required=True)
    p.add_argument("--state", required=True)
    p.add_argument(
        "--actions",
        required=True,
        help="comma-separated action names, applied left to right",
    )
    p.add_argument("--emit", choices=("text", "dot"), default="text")
    p.add_argument(
        "--no-contract",
        action="store_true",
        help="emit the raw product instead of its contraction",
    )

    p = sub.add_parser("contract", help="quotient a state by its largest auto-bisimulation")
    p.add_argument("--task", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--emit", choices=("text", "dot"), default="text")

    p = sub.add_parser("bisim", help="compare two named states up to bisimilarity")
    p.add_argument("--task", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("emulate", help="translate an action between presentations")
    p.add_argument("--task", required=True)
    p.add_argument(
        "--direction", choices=("to-post", "from-nopost"), required=True
    )
    p.add_argument(
        "--action",
        help="attention action to compile into postcondition form (to-post)",
    )
    p.add_argument(
        "--model",
        help="model whose events/q/pre to lift from postcondition-free form (from-nopost)",
    )
    p.add_argument("--actual", help="actual event for from-nopost (default: first)")

    p = sub.add_parser("plan", help="search for a plan for a named task")
    p.add_argument("--task", required=True)
    p.add_argument("--name", required=True, help="task name in the document")
    p.add_argument(
        "--relaxed-nfl",
        action="store_true",
        help="accept actions whose q and qstar are only jointly total",
    )
    p.add_argument(
        "--max-depth",
        type=int,
        help="bounded search instead of the complete class-restricted search",
    )

    p = sub.add_parser("render", help="emit graphviz source for a named state")
    p.add_argument("--task", required=True)
    p.add_argument("--state", required=True)

    return parser


def _named(section, name: str, kind: str):
    if name not in section:
        raise AttnPlanError(f"no {kind} named {name!r} in the document")
    return section[name]


def _emit(state, emit: str) -> None:
    """Print a state as graphviz source or as a task document."""
    if emit == "dot":
        print(export_dot(state), end="")
    else:
        print(state_document(state))


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except AttnPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        # Exit 1 means an honest negative answer, so no failure may reach it.
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    doc = load(args.task)

    if args.command == "validate":
        for warning in doc.warnings:
            print(f"warning: {warning}")
        counts = (
            f"{len(doc.states)} state(s), {len(doc.models)} model(s), "
            f"{len(doc.actions)} action(s), {len(doc.tasks)} task(s)"
        )
        print(f"ok: {counts}")
        return 0

    if args.command == "check":
        state = _named(doc.states, args.state, "state")
        formula = parse_formula(doc.sig, args.formula)
        world = args.world
        if world is not None and world not in state.worlds:
            raise AttnPlanError(f"no world named {world!r} in state {args.state!r}")
        truth = check(state, formula, world)
        print("true" if truth else "false")
        return 0 if truth else 1

    if args.command == "update":
        state = _named(doc.states, args.state, "state")
        names = [n for n in args.actions.split(",") if n]
        actions = [_named(doc.actions, n, "action") for n in names]
        result = apply_sequence(state, actions)
        if not args.no_contract:
            result = contract(result)
        _emit(result, args.emit)
        return 0

    if args.command == "contract":
        state = _named(doc.states, args.state, "state")
        _emit(contract(state), args.emit)
        return 0

    if args.command == "bisim":
        left = _named(doc.states, args.left, "state")
        right = _named(doc.states, args.right, "state")
        outcome = bisimilar(left, right)
        if isinstance(outcome, BisimWitness):
            print(f"bisimilar ({len(outcome.pairs)} matched pair(s))")
            return 0
        print(f"not bisimilar (separated at refinement round {outcome.round})")
        evidence = distinguishing_formula(
            kripke_rendition(left), kripke_rendition(right), max_rounds=outcome.round
        )
        if evidence is not None:
            print(f"distinguishing formula: {format_formula(evidence)}")
        return 1

    if args.command == "emulate":
        if args.direction == "to-post":
            if not args.action:
                raise AttnPlanError("--direction to-post needs --action")
            action = _named(doc.actions, args.action, "action")
            compiled = to_post(action)
            print(json.dumps(epistemic_action_dict(compiled), indent=2))
            return 0
        if not args.model:
            raise AttnPlanError("--direction from-nopost needs --model")
        model = _named(doc.models, args.model, "model")
        plain = EpistemicAction(
            sig=model.sig,
            events=model.events,
            q=model.q,
            pre=model.pre,
            post={},
            actual=args.actual or "",
        )
        lifted = from_nopost(plain, name=f"{args.model}_lifted")
        print(action_document(lifted, model_name=f"{args.model}_lifted_model"))
        return 0

    if args.command == "plan":
        task = _named(doc.tasks, args.name, "task")
        if args.max_depth is not None:
            outcome = solve_bounded(task, args.max_depth)
        else:
            outcome = solve_nfl(task, relaxed=args.relaxed_nfl)
        if isinstance(outcome, Solution):
            for step in outcome.plan:
                print(step)
            return 0
        if isinstance(outcome, NoneWithinBound):
            print(f"none within depth {outcome.bound}")
            return 1
        assert isinstance(outcome, NoSolution)
        print("no solution")
        return 1

    if args.command == "render":
        _emit(_named(doc.states, args.state, "state"), "dot")
        return 0

    raise AttnPlanError(f"unknown command {args.command!r}")  # pragma: no cover


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pipe reader (head, less, ...) closed early, so the answer
        # was not delivered: an error, never exit 1.  Silence the
        # interpreter's shutdown-time flush of the dangling stdout as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
