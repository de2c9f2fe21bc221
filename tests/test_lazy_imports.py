"""The package and the CLI import a submodule only when it is used.

Every check of what is loaded runs in a fresh interpreter: in this process
the other tests have loaded every module already.  The last test calls the
package's attribute hook in this process, for its answers alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# perisurf.__all__ as it stood when every submodule was imported eagerly
PUBLIC_NAMES = [
    "ActionClass", "Assembly", "AssemblyResult", "BoundaryOrbit",
    "CensusQuery", "CensusRecord", "ConditionReport", "ConePair", "DataSet",
    "Ext", "FillabilityVerdict", "GluingEdge", "MarkedDataSet",
    "MonodromyWord", "OpenBookDescriptor", "ParseError",
    "PolygonPresentation", "ProfilePair", "RealizationReport", "Rot",
    "SurgeryDescription", "Twist", "UnsupportedResolution",
    "ValidationReport", "Veering", "assemble", "boundary_slope",
    "build_profile", "canonicalize", "canonicalize_marked", "census",
    "classify", "classify_assembly", "classify_irreducible",
    "classify_marked", "classify_positive_word", "compatible_pairs",
    "cyclic_degree_cap", "data_set_from_json", "data_set_to_json",
    "degree_cap", "draw_polygon_svg", "enumerate_data_sets",
    "enumerate_irreducible", "enumerate_oracle", "format_data_set",
    "fractional_dehn_twist", "genus", "glue", "integral_resolution",
    "mod_inverse", "page_descriptor", "parse_data_set",
    "polygon_realization", "read_census", "search_profiles", "self_glue",
    "surgery_description", "validate", "veering", "verify_profile",
    "verify_realization", "write_census",
]

LOADED = ('sorted(m for m in __import__("sys").modules '
          'if m.startswith("perisurf."))')


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return what it printed, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PERISURF_FORMAT", None)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_core():
    assert fresh(f"import json, perisurf.cli; print(json.dumps({LOADED}))") \
        == ["perisurf.cli", "perisurf.core"]


def test_plain_package_import_loads_no_submodule():
    assert fresh(f"import json, perisurf; print(json.dumps({LOADED}))") == []


GLUING = ["perisurf.gluing"]
OPEN_BOOK = ["perisurf.gluing", "perisurf.openbook"]
MARKED = "(6_-,0;(1,2),(2,3),(5,6),[3])"


# every subcommand, each with what it loads besides cli and core
@pytest.mark.parametrize("argv,loaded", [
    (["genus", "(2,0;(1,2)×4)"], []),
    (["validate", "(6,0;(1,2),(1,3),(1,6))"], []),
    (["classify", "(5,0;(1,5),(3,5),(1,5))"], []),
    (["polygon", "(6,0;(1,2),(1,3),(1,6))"], ["perisurf.realization"]),
    # the check sees a load when one happens
    (["enumerate", "6", "1"], ["perisurf.census", "perisurf.realization"]),
    (["census", "--genus", "2"], ["perisurf.census", "perisurf.realization"]),
    (["glue", "(6,0;(1,2),(1,3),(5,6))", "(6,0;(1,2),(2,3),(1,6))"], GLUING),
    (["self-glue", "(3,0;(1,3),(1,3),(2,3),(2,3))", "--at", "2:3"], GLUING),
    (["assemble", "(6_+,0;(1,2),(1,3),(1,6),[3])",
      "(6_+,0;(1,3),(5,6),(5,6),[2,3])", "--edge", "(3:1)~(3:2)"], GLUING),
    # gluing and the open book layer need no polygon model
    (["page", "(6_+,0;(1,2),(1,3),(1,6),[3])"], OPEN_BOOK),
    (["veering", MARKED], OPEN_BOOK),
    (["surgery", "(5_+,0;(1,5),(3,5),(1,5),[1,3])"], OPEN_BOOK),
    (["resolve", MARKED], OPEN_BOOK),
    # the verdict rules load no profile numerics, and the profiles no rule
    (["fill", "(6_+,0;(1,2),(1,3),(1,6),[3])"],
     ["perisurf.fillability", *OPEN_BOOK]),
    (["profile", "5", "1"], ["perisurf.profiles"]),
])
def test_command_loads_only_what_it_uses(argv, loaded):
    code = ("import contextlib, io, json, sys\n"
            "from perisurf.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(json.dumps([code, {LOADED}]))")
    assert fresh(code, *argv) == [0, sorted(["perisurf.cli", "perisurf.core",
                                             *loaded])]


@pytest.mark.parametrize("module,loaded", [
    ("gluing", ["core", "gluing"]),
    ("openbook", ["core", "gluing", "openbook"]),
    ("fillability", ["core", "fillability", "gluing", "openbook"]),
    ("profiles", ["profiles"]),
])
def test_library_module_loads_only_its_imports(module, loaded):
    code = f"import json, perisurf.{module}; print(json.dumps({LOADED}))"
    assert fresh(code) == [f"perisurf.{m}" for m in loaded]


@pytest.mark.parametrize("first", [
    "import perisurf",
    "from perisurf.census import CensusQuery",
    "import perisurf.cli",
    "import perisurf.census",
])
def test_census_stays_the_function(first):
    code = (f"{first}\n"
            "import json, types, perisurf\n"
            "before = isinstance(perisurf.census, types.FunctionType)\n"
            "import perisurf.census, perisurf.cli\n"
            "from perisurf import CensusQuery, census\n"
            "records = perisurf.census(CensusQuery(genus=2, degrees=(5,)),\n"
            "                          workers=1)\n"
            "print(json.dumps([before, census is perisurf.census,\n"
            "                  len(records)]))")
    assert fresh(code) == [True, True, 4]


def test_loading_a_submodule_binds_it_on_the_package():
    # only the census module is kept off the package; any other submodule is
    # bound when it loads, before its name is first read from the package
    code = ("import json, sys\n"
            "import perisurf.gluing\n"
            "import perisurf\n"
            "print(json.dumps(vars(perisurf).get('gluing')\n"
            "                 is sys.modules['perisurf.gluing']))")
    assert fresh(code) is True


def test_star_import_binds_the_public_names():
    code = ("import json, sys, perisurf\n"
            "names = {}\n"
            "exec('from perisurf import *', names)\n"
            "del names['__builtins__']\n"
            "home = all(getattr(sys.modules[obj.__module__], name) is obj\n"
            "           for name, obj in names.items())\n"
            "print(json.dumps([perisurf.__all__, sorted(names), home,\n"
            "                  set(perisurf.__all__) <= set(dir(perisurf))]))")
    assert fresh(code) == [PUBLIC_NAMES, PUBLIC_NAMES, True, True]


def test_unknown_attribute_raises_and_submodules_stay_reachable():
    code = ("import json, perisurf\n"
            "try:\n"
            "    perisurf.no_such_name\n"
            "    missing = None\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            f"loaded = {LOADED}\n"
            "edge = perisurf.gluing.build_edge.__name__\n"
            "print(json.dumps([missing, loaded, edge]))")
    assert fresh(code) == [
        "module 'perisurf' has no attribute 'no_such_name'", [], "build_edge"]


def test_package_hook_answers_in_process():
    # called directly: here the names it binds may be bound already, and
    # reading them from the package would not reach the hook
    import perisurf
    from perisurf.census import census

    assert perisurf.__getattr__("census") is census
    assert perisurf.__getattr__("gluing") is sys.modules["perisurf.gluing"]
    with pytest.raises(AttributeError,
                       match="module 'perisurf' has no attribute 'nothing'"):
        perisurf.__getattr__("nothing")
    assert set(dir(perisurf)) >= set(PUBLIC_NAMES) | {"__getattr__"}
