import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import channellab

MODULES = [name for name in channellab.__all__ if not name.startswith("__")]


def test_package_exports_resolve():
    missing = [name for name in channellab.__all__ if not hasattr(channellab, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"channellab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


SOURCES = sorted(Path(channellab.__file__).parent.glob("*.py"))
SIBLINGS = {path.stem for path in SOURCES}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_accesses(tree):
    """``(line, text)`` of each read of a sibling module's private name:
    ``from .mod import _name`` or ``alias._name`` with ``alias`` bound to a
    sibling module.  Dunders and the import of a module such as ``_fem``
    itself are allowed."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            source = ".".join(filter(None, [
                "channellab" if node.level else None, node.module]))
            package = source == "channellab"
            sibling = source.partition("channellab.")[2] in SIBLINGS
            for a in node.names:
                if package and a.name in SIBLINGS:
                    modules.add(a.asname or a.name)
                elif (package or sibling) and _private(a.name):
                    found.append((node.lineno, f"from {source} import {a.name}"))
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if a.asname and parts[0] == "channellab" and parts[-1] in SIBLINGS:
                    modules.add(a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_of_a_sibling_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_accesses(tree) == []


@pytest.mark.parametrize("source, found", [
    ("from . import ns_solver as ns\nns._picard(1)\n", [(2, "ns._picard")]),
    ("from . import geometry\ngeometry._FACTORIES\n",
     [(2, "geometry._FACTORIES")]),
    ("from .geometry import _GL8_NODES, weight_integral\n",
     [(1, "from channellab.geometry import _GL8_NODES")]),
    ("from channellab.ns_solver import _Workspace\n",
     [(1, "from channellab.ns_solver import _Workspace")]),
    ("import channellab.geometry as geo\ngeo._h_window(1)\n",
     [(2, "geo._h_window")]),
    ("from . import _fem\nfrom ._fem import assemble_q1\n_fem.assemble_q1\n", []),
    ("from . import __version__\nfrom . import geometry as geo\ngeo.__name__\n",
     []),
    ("import numpy as np\nnp._NoValue\n", []),
], ids=["attribute", "unaliased", "from_import", "absolute", "import_as",
        "private_module", "dunders", "not_a_sibling"])
def test_private_access_guard(source, found):
    assert private_accesses(ast.parse(source)) == found


def code_from_text(tree):
    """``(line, name)`` of each call of ``eval``, ``exec`` or ``compile``,
    bare or through ``builtins``."""
    found = []
    for node in ast.walk(tree):
        match node:
            case (ast.Call(ast.Name(name)) | ast.Call(ast.Attribute(
                    ast.Name("builtins"), name))) if name in ("eval", "exec", "compile"):
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_runs_code_from_text(path):
    # a custom wall is evaluated by walking its syntax graph, never compiled
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert code_from_text(tree) == []


def test_code_from_text_guard():
    source = ("eval(c, g)\nbuiltins.exec(c)\nx = compile(t, '<w>', 'eval')\n"
              "re.compile('a')\nast.parse(t, mode='eval')\n")
    assert code_from_text(ast.parse(source)) == [
        (1, "eval"), (2, "exec"), (3, "compile")]


def public_names(tree):
    """A module's ``__all__``, or without one its top-level functions and
    classes whose names have no leading underscore."""
    for node in tree.body:
        match node:
            case ast.Assign([ast.Name("__all__")], ast.List(names)):
                return [name.value for name in names]
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def uncalled_names(sources, elsewhere):
    """The public names of the module texts ``sources`` that appear as a
    word neither in a source, outside their own top-level ``def`` or
    ``class`` line and every ``__all__``, nor in the text ``elsewhere``."""
    names, kept = [], []
    for text in sources:
        tree = ast.parse(text)
        names += public_names(tree)
        lines = text.splitlines()
        for node in tree.body:
            match node:
                case ast.Assign([ast.Name("__all__")]):
                    del lines[node.lineno - 1:node.end_lineno]
        kept.append("\n".join(lines))
    text = "\n".join(kept)
    missing = []
    for name in names:
        own = re.compile(rf"^(?:def|class) {name}\b.*$", re.M)
        word = re.compile(rf"\b{name}\b")
        if not (word.search(own.sub("", text)) or word.search(elsewhere)):
            missing.append(name)
    return missing


def test_every_public_name_has_a_caller():
    # a name that nothing in the package calls must be a patch point of the
    # benchmark, where names are strings, or be kept by an acceptance test
    here = Path(__file__).resolve().parent
    elsewhere = [*sorted((here.parent / "bench").glob("*.py")),
                 here / "test_acceptance.py"]
    assert uncalled_names(
        [path.read_text(encoding="utf-8") for path in SOURCES],
        "\n".join(path.read_text(encoding="utf-8") for path in elsewhere)) == []


def test_caller_guard():
    listed = ("__all__ = [\n    'f',\n    'g',\n    'h',\n]\n"
              "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n")
    unlisted = "class K:\n    pass\ndef m():\n    pass\ndef _p():\n    return K\n"
    assert uncalled_names([listed, unlisted], "patch('mod.f')") == ["h", "m"]
    assert uncalled_names([listed, unlisted], "") == ["f", "h", "m"]


# each desk-scale bound is compared in one place, by the one record that
# judges it; the acceptance tests keep their own literal thresholds
BOUNDS = ("GROWTH_RATIO_BOUND", "GROWTH_LOWER_BOUND", "DECAY_RATIO_BOUND",
          "PLATEAU_FRACTION")


def bound_reads(tree):
    """How often each of ``BOUNDS`` is read, by name or as an attribute."""
    reads = dict.fromkeys(BOUNDS, 0)
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in reads:
                reads[name] += 1
    return reads


def test_each_bound_is_read_once():
    reads = dict.fromkeys(BOUNDS, 0)
    for path in SOURCES:
        for name, n in bound_reads(ast.parse(path.read_text(encoding="utf-8"))).items():
            reads[name] += n
    assert reads == dict.fromkeys(BOUNDS, 1)


def test_bound_guard_counts_reads_not_assignments():
    source = ("PLATEAU_FRACTION = 0.1\nx = PLATEAU_FRACTION * 2\n"
              "eh.DECAY_RATIO_BOUND\nDECAY_RATIO_BOUND\neh.GROWTH_LOWER_BOUND = 1\n")
    assert bound_reads(ast.parse(source)) == {
        "GROWTH_RATIO_BOUND": 0, "GROWTH_LOWER_BOUND": 0,
        "DECAY_RATIO_BOUND": 2, "PLATEAU_FRACTION": 1}


def test_acceptance_tests_do_not_read_the_bounds():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(
        encoding="utf-8"))
    assert bound_reads(tree) == dict.fromkeys(BOUNDS, 0)


def test_import_leaves_scipy_interpolate_unloaded():
    # the comparison interpolant is numpy, so the package's import time and
    # memory include no scipy.interpolate
    src = str(Path(channellab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, channellab; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
