"""Import behaviour: the package and the CLI's tick path load no scipy.

The analytic layers resolve on first access (``rangevol.__getattr__``).  Each
test runs in a fresh interpreter, because this test session has long since
imported every module.
"""

import os
import subprocess
import sys

import rangevol

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rangevol.__file__)))
PRINT_SCIPY = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def run_fresh(code, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_and_cli_import_no_scipy():
    assert run_fresh("import rangevol, rangevol.cli" + PRINT_SCIPY) == "[]"


def test_tick_round_trip_imports_no_scipy(tmp_path):
    code = (
        "from rangevol import cli\n"
        "assert cli.main(['simulate', '--paths', '64', '--steps', '20', '--skip-theory',\n"
        "                 '--emit-ticks', 't.csv', '--out', 's.csv']) == 0\n"
        "assert cli.main(['estimate', 't.csv', '--window', '1', '--out', 'e.csv']) == 0\n"
    )
    assert run_fresh(code + PRINT_SCIPY, cwd=tmp_path) == "[]"
    assert len((tmp_path / "e.csv").read_text().splitlines()) == 2 + 64


def test_every_public_name_is_its_defining_module_object():
    code = (
        "import rangevol\n"
        "names = [n for n in rangevol.__all__ if n != '__version__']\n"
        "resolved = {n: getattr(rangevol, n) for n in names}\n"
        "from rangevol import analytics, densities, estimators, montecarlo, paths\n"
        "modules = (paths, estimators, densities, analytics, montecarlo)\n"
        "for name, obj in resolved.items():\n"
        "    owners = [m for m in modules if name in m.__all__]\n"
        "    assert owners, name\n"
        "    assert all(obj is getattr(m, name) for m in owners), name\n"
        "print(len(resolved))"
        + PRINT_SCIPY
    )
    count, loaded = run_fresh(code).splitlines()
    assert int(count) == len(rangevol.__all__) - 1
    assert "scipy.special" in loaded  # the probe sees scipy once the analytic names load


def test_star_import_submodules_and_unknown_names():
    code = (
        "import rangevol\n"
        "assert rangevol.analytics.__name__ == 'rangevol.analytics'\n"
        "namespace = {}\n"
        "exec('from rangevol import *', namespace)\n"
        "assert set(rangevol.__all__) <= set(namespace)\n"
        "from rangevol import montecarlo\n"
        "assert rangevol.montecarlo is montecarlo\n"
        "assert {'run_experiment', 'densities', 'paths'} <= set(dir(rangevol))\n"
        "assert not hasattr(rangevol, 'no_such_name')\n"
        "try:\n"
        "    rangevol.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert run_fresh(code) == "module 'rangevol' has no attribute 'no_such_name'"
