"""The command line runs without scipy, and without jsonschema where it
loads no scenario.

scipy is a reference for the tests only; the package integrates with its
own numeric core.  jsonschema validates scenarios, so the commands that
load none never import it.  Each command below runs in a fresh
interpreter whose import system refuses a package (a meta-path finder
installed by a ``sitecustomize`` on ``PYTHONPATH``), so an import of it
anywhere on the command's path fails the run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

BLOCKER = """\
import sys


class _Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == {package!r} or name.startswith({package!r} + "."):
            raise ImportError(f"{{name}} is blocked for this run")
        return None


sys.meta_path.insert(0, _Refuse())
"""


def _env(*paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in paths] + [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _refusing(tmp_path, package):
    """An environment whose interpreters cannot import ``package``."""
    site = tmp_path / f"site-{package}"
    site.mkdir()
    (site / "sitecustomize.py").write_text(BLOCKER.format(package=package))
    return _env(site)


@pytest.fixture
def no_scipy(tmp_path):
    return _refusing(tmp_path, "scipy")


@pytest.fixture
def no_jsonschema(tmp_path):
    return _refusing(tmp_path, "jsonschema")


def _python(env, *args, cwd):
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_blocker_refuses_scipy(no_scipy, tmp_path):
    proc = _python(no_scipy, "-c", "import scipy.integrate", cwd=tmp_path)
    assert proc.returncode != 0 and "blocked" in proc.stderr


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    code = "import sys, schrodsep.cli; sys.exit('scipy' in sys.modules)"
    assert _python(_env(), "-c", code, cwd=tmp_path).returncode == 0


@pytest.mark.parametrize(
    "commands",
    [
        [["separate", "--scenario", SCENARIOS / "magnetic_spherical_rotating.json"],
         ["verify", "--scenario", SCENARIOS / "magnetic_spherical_rotating.json",
          "--samples", "10"]],
        [["hj", "--scenario", SCENARIOS / "hj_coulomb_spherical.json", "--samples", "10"]],
        [["coulomb-demo", "--samples", "8"]],
    ],
    ids=["separate-verify", "hj", "coulomb-demo"],
)
def test_commands_run_without_scipy(no_scipy, tmp_path, commands):
    for argv in commands:
        proc = _python(no_scipy, "-m", "schrodsep", *argv, "--out", tmp_path / "out",
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_blocker_refuses_jsonschema(no_jsonschema, tmp_path):
    proc = _python(no_jsonschema, "-c", "import jsonschema.exceptions", cwd=tmp_path)
    assert proc.returncode != 0 and "blocked" in proc.stderr


@pytest.mark.parametrize(
    "argv", [["list-systems"], ["coulomb-demo", "--samples", "8"]], ids=["list-systems", "coulomb-demo"])
def test_commands_without_a_scenario_run_without_jsonschema(no_jsonschema, tmp_path, argv):
    out = [] if argv == ["list-systems"] else ["--out", tmp_path / "out"]
    proc = _python(no_jsonschema, "-m", "schrodsep", *argv, *out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr

