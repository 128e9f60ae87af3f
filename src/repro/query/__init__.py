"""Conjunctive queries and UCQs: AST, parsing, evaluation, containment."""

from repro.query.ast import CQ, UCQ, Atom, Constant, Term, Variable
from repro.query.containment import (
    find_homomorphism,
    is_contained_in,
    is_equivalent,
    is_strictly_contained_in,
)
from repro.query.evaluator import evaluate, evaluate_cq, evaluate_ucq
from repro.query.join_graph import is_connected
from repro.query.minimize import minimize_cq
from repro.query.parser import parse_cq, parse_ucq

__all__ = [
    "Atom",
    "CQ",
    "Constant",
    "Term",
    "UCQ",
    "Variable",
    "evaluate",
    "evaluate_cq",
    "evaluate_ucq",
    "find_homomorphism",
    "is_connected",
    "is_contained_in",
    "is_equivalent",
    "is_strictly_contained_in",
    "minimize_cq",
    "parse_cq",
    "parse_ucq",
]
