"""Combinatorial calculus of periodic surface homeomorphisms via data sets.

Each submodule is imported the first time one of its names is read from the
package (PEP 562), so ``import perisurf`` loads none of them.
"""

import sys
import types
from importlib import import_module

_EXPORTS = {
    "census": """CensusQuery CensusRecord census cyclic_degree_cap degree_cap
        enumerate_data_sets enumerate_irreducible enumerate_oracle read_census
        write_census""",
    "core": """ActionClass ConePair DataSet MarkedDataSet ParseError
        ValidationReport canonicalize canonicalize_marked classify
        data_set_from_json data_set_to_json format_data_set genus mod_inverse
        parse_data_set validate""",
    "fillability": """FillabilityVerdict classify_assembly
        classify_irreducible classify_marked classify_positive_word""",
    "gluing": """Assembly AssemblyResult Ext GluingEdge MonodromyWord Rot Twist
        assemble boundary_slope compatible_pairs glue self_glue""",
    "openbook": """BoundaryOrbit OpenBookDescriptor SurgeryDescription
        UnsupportedResolution Veering fractional_dehn_twist
        integral_resolution page_descriptor surgery_description veering""",
    "profiles": """ConditionReport ProfilePair build_profile search_profiles
        verify_profile""",
    "realization": """PolygonPresentation RealizationReport draw_polygon_svg
        polygon_realization verify_realization""",
}
# exported name -> submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        # a submodule, reachable as ``perisurf.gluing`` as before
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    # Loading a submodule binds it onto this package by attribute
    # assignment.  ``census`` names both a submodule and the function
    # exported from it, so without this guard ``perisurf.census`` would be
    # the module whenever the submodule loads before the name is first read
    # (``from perisurf.census import CensusQuery``, say), and
    # ``perisurf.census(query)`` would raise TypeError.
    def __setattr__(self, name, value):
        if name == "census" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
