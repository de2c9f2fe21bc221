"""What the public data classes store, and what their old stored values
are now derived from.

One table names the settable fields of every data class that
``perisurf.__all__`` exports, so a stored field added or removed shows up
here.  ``ActionClass`` stores its label, ``FillabilityVerdict`` its
certificate, and ``RealizationReport`` derives whether its data set lies
outside the theorem; the last test holds each derived value equal to the
stored one it replaced (``tests/reference.py``).
"""

from dataclasses import fields, is_dataclass

import pytest

import perisurf
from perisurf.census import enumerate_irreducible
from perisurf.core import ActionClass
from perisurf.fillability import CERTIFICATES, FillabilityVerdict
from perisurf.realization import polygon_realization, verify_realization
from reference import (
    _CLASSES_BY_KIND,
    _VERDICT_BESIDE_CERTIFICATE,
    _outside_theorem_of_presentation,
)

FIELDS = {
    "ActionClass": ("label",),
    "Assembly": ("pieces", "edges", "self_edges"),
    "AssemblyResult": ("data_set", "word", "ledger"),
    "BoundaryOrbit": ("mark", "orbit_size", "full_period_slope"),
    "CensusQuery": ("genus", "max_genus", "degrees", "action_class"),
    "CensusRecord": ("data_set", "genus", "action_class", "polygon_verified"),
    "ConditionReport": ("contact_ok", "symplectic_ok", "first_violation",
                        "inconclusive"),
    "ConePair": ("c", "order"),
    "DataSet": ("degree", "quotient_genus", "rotation", "cone_pairs"),
    "Ext": ("piece", "sign"),
    "FillabilityVerdict": ("certificate", "hypotheses", "notes"),
    "GluingEdge": ("left", "right"),
    "MarkedDataSet": ("base", "sign", "marks"),
    "MonodromyWord": ("tokens",),
    "OpenBookDescriptor": ("page_genus", "boundary_orbits", "monodromy"),
    "PolygonPresentation": ("pairing", "rotation_step", "degree"),
    "ProfilePair": ("grid", "f0", "g0", "p", "q", "K", "H"),
    "RealizationReport": ("euler_genus", "rh_genus", "involution_ok",
                          "equivariance_ok"),
    "Rot": ("orbit", "slope"),
    "SurgeryDescription": ("entries",),
    "Twist": ("curve", "power", "orbit"),
    "ValidationReport": ("violations",),
}

DATA_CLASSES = [name for name in perisurf.__all__
                if is_dataclass(getattr(perisurf, name))]


@pytest.mark.parametrize("name", DATA_CLASSES)
def test_settable_fields_of_each_public_data_class(name):
    assert tuple(f.name for f in fields(getattr(perisurf, name))) \
        == FIELDS[name]


def test_the_table_names_every_public_data_class():
    assert sorted(FIELDS) == DATA_CLASSES


def test_derived_values_equal_the_stored_ones_they_replace():
    for old in _CLASSES_BY_KIND:
        new = ActionClass(old.label)
        assert (new.label, new.kind, new.irreducible) == \
            (old.label, old.kind, old.irreducible)
    assert tuple(CERTIFICATES) == tuple(c for _, c in
                                        _VERDICT_BESIDE_CERTIFICATE)
    for verdict, certificate in _VERDICT_BESIDE_CERTIFICATE:
        assert FillabilityVerdict(certificate).verdict == verdict
    # criterion 2's irreducible sets
    flags = []
    for n in range(2, 31):
        for d in enumerate_irreducible(n):
            report = verify_realization(polygon_realization(d), d)
            flags.append(report.outside_theorem)
            assert flags[-1] == _outside_theorem_of_presentation(d), d
    assert len(flags) == 1288 and set(flags) == {False, True}
