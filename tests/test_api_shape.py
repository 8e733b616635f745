"""The parameters of every public function, the fields of the pencil's
``Verdict`` and the options of ``algebroid decide``, pinned so that a
setting removed because no caller set it does not come back unnoticed,
and a new one fails here until it is pinned."""

import argparse
import dataclasses
import inspect

import pytest

import algebroid
from algebroid import (GF, assert_preconditions, base_weights, buchberger,
                       choose_pivot, conductor, contains_monomial,
                       decide_irreducible, eliminate, free_basis, gcd_weights,
                       ideal_membership, in_w, initial_ideal,
                       intersection_number, krull_dimension, local_reduce,
                       membership, mult_matrix, ord_w, parametric_intersection,
                       parametric_test, parse_poly, prim_generators,
                       radical_membership, sagbi_check, sagbi_complete,
                       univariate_roots, value_semigroup, verify_certificate)
from algebroid.cli import _build_parser, main
from algebroid.localalg import (local_colength, local_lead_monomials,
                                standard_basis)
from algebroid.parametric import Verdict

SIGNATURES = {
    GF: ("p", "extension"),
    assert_preconditions: ("ideal",),
    base_weights: ("ideal",),
    buchberger: ("gens", "order", "reduced"),
    choose_pivot: ("ideal",),
    conductor: ("w",),
    contains_monomial: ("ideal",),
    decide_irreducible: ("ideal",),
    eliminate: ("ideal", "front"),
    free_basis: ("ideal",),
    gcd_weights: ("w",),
    ideal_membership: ("f", "ideal"),
    in_w: ("f", "w"),
    initial_ideal: ("ideal", "w"),
    intersection_number: ("f", "ideal"),
    krull_dimension: ("ideal",),
    local_reduce: ("eta", "xi"),
    membership: ("N", "w"),
    mult_matrix: ("g", "basis", "N"),
    ord_w: ("f", "w"),
    parametric_intersection: ("f", "g", "ideal"),
    parametric_test: ("f", "g", "ideal"),
    parse_poly: ("text", "ctx"),
    prim_generators: ("w", "ctx"),
    radical_membership: ("f", "ideal"),
    sagbi_check: ("xi",),
    sagbi_complete: ("xi",),
    univariate_roots: ("coeffs", "field"),
    value_semigroup: ("ideal",),
    verify_certificate: ("cert",),
    local_colength: ("ideal",),
    standard_basis: ("ideal", "w"),
    local_lead_monomials: ("ideal", "w"),
}


def test_every_public_function_is_pinned():
    public = {getattr(algebroid, name) for name in algebroid.__all__}
    assert {f for f in public if inspect.isfunction(f)} <= set(SIGNATURES)


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda f: f.__name__)
def test_entry_points_take_only_their_pinned_parameters(func):
    assert tuple(inspect.signature(func).parameters) == SIGNATURES[func]


def test_the_verdict_has_only_its_pinned_fields():
    """A false verdict returns its attachment and the ring it lives in;
    the ring that adjoins it is built by the decide."""
    assert tuple(f.name for f in dataclasses.fields(Verdict)) == (
        "result", "ideal", "beta", "case", "attachment", "value", "pencil")


@pytest.mark.parametrize(
    "flag", [("--trunc-cap", "8"), ("--verify",), ("--char-override", "2"),
             ("--iter-cap", "8")],
    ids=["trunc-cap", "verify", "char-override", "iter-cap"])
def test_decide_refuses_removed_flags(tmp_path, capsys, flag):
    path = tmp_path / "curve.ideal"
    path.write_text("char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^7\n")
    with pytest.raises(SystemExit) as exc:
        main(["decide", *flag, str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_decide_takes_only_its_pinned_options():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: tuple(a.option_strings)
               for a in sub.choices["decide"]._actions}
    assert options == {"help": ("-h", "--help"), "path": (),
                       "json": ("--json",)}
