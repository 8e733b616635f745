"""The parameters of the library's entry points, the fields of the
pencil's ``Verdict`` and the options of ``algebroid decide``, pinned so
that a setting removed because no caller set it does not come back
unnoticed."""

import dataclasses
import inspect

import pytest

from algebroid.cli import main
from algebroid.decide import decide_irreducible, value_semigroup
from algebroid.groebner import krull_dimension
from algebroid.localalg import intersection_number, local_colength
from algebroid.parametric import (Verdict, free_basis, mult_matrix,
                                  parametric_intersection, parametric_test)
from algebroid.sagbi import sagbi_complete
from algebroid.scalars import univariate_roots

SIGNATURES = {
    decide_irreducible: ("ideal", "iter_cap"),
    value_semigroup: ("ideal", "iter_cap"),
    parametric_test: ("f", "g", "ideal"),
    parametric_intersection: ("f", "g", "ideal"),
    intersection_number: ("f", "ideal"),
    local_colength: ("ideal",),
    free_basis: ("ideal",),
    mult_matrix: ("g", "basis", "N"),
    univariate_roots: ("coeffs", "field"),
    krull_dimension: ("ideal",),
    sagbi_complete: ("xi",),
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda f: f.__name__)
def test_entry_points_take_only_their_pinned_parameters(func):
    assert tuple(inspect.signature(func).parameters) == SIGNATURES[func]


def test_the_verdict_has_only_its_pinned_fields():
    """A false verdict returns its attachment and the ring it lives in;
    the ring that adjoins it is built by the decide."""
    assert tuple(f.name for f in dataclasses.fields(Verdict)) == (
        "result", "ideal", "beta", "case", "attachment", "value", "pencil")


@pytest.mark.parametrize(
    "flag", [("--trunc-cap", "8"), ("--verify",), ("--char-override", "2")],
    ids=["trunc-cap", "verify", "char-override"])
def test_decide_refuses_removed_flags(tmp_path, capsys, flag):
    path = tmp_path / "curve.ideal"
    path.write_text("char 0\nvars x y\nideal:\n(y^2 - x^3)^2 - x^7\n")
    with pytest.raises(SystemExit) as exc:
        main(["decide", *flag, str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
