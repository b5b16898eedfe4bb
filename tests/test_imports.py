"""Start-up cost: the package loads no submodule on import, and each CLI
command loads only the layers it runs.

Each start-up case runs in a fresh interpreter, so no module that an
earlier test imported can hide a load.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import classalg

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = (
    "import json, sys\n"
    "{code}\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'classalg')))\n"
)


def loaded_after(code):
    """The classalg modules loaded after running code in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_cli(*argv):
    code = (
        "import contextlib, io\n"
        "from classalg.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert run({list(argv)!r}) == 0"
    )
    return loaded_after(code)


def test_loading_a_group_loads_only_the_cli_and_its_group_layers():
    code = "import classalg.cli\nclassalg.cli.load_group('cyclic2')"
    assert loaded_after(code) == {
        "classalg", "classalg.cli", "classalg.groups", "classalg.scalars",
    }


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import classalg") == {"classalg"}


def test_stable_verify_loads_neither_winf_nor_series():
    loaded = after_cli("stable", "verify", "--group", "trivial", "--cap", "1")
    assert "classalg.stable" in loaded
    assert not loaded & {"classalg.winf", "classalg.series"}


def test_group_info_loads_no_operator_layer():
    loaded = after_cli("group", "info", "--group", "trivial")
    assert not loaded & {
        "classalg.algebra", "classalg.fock", "classalg.stable", "classalg.winf",
    }


# -- lazy exports -----------------------------------------------------------


@pytest.mark.parametrize("name", classalg.__all__)
def test_export_is_the_object_its_home_module_binds(name):
    obj = getattr(classalg, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("classalg.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from classalg import *", namespace)
    assert set(classalg.__all__) <= set(namespace)
    for name in classalg.__all__:
        assert namespace[name] is getattr(classalg, name)


def test_dir_lists_all_and_every_export():
    names = dir(classalg)
    assert "__all__" in names
    assert set(classalg.__all__) <= set(names)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        classalg.no_such_name
