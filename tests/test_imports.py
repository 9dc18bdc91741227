"""Import behaviour: the package and the CLI's tick path load no scipy, and
the analytic layers load only ``scipy.special``.

The analytic layers resolve on first access (``rangevol.__getattr__``), and
``analytics.integrate`` is a lazy attribute that only the benchmark's tracer
reads (``analytics.__getattr__``).  Each test runs in a fresh interpreter,
because this test session has long since imported every module.
"""

import os
import subprocess
import sys

import rangevol

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rangevol.__file__)))
PRINT_SCIPY = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
# what scipy.integrate pulls in (about 26 MB resident); the analytic layer needs none of it
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
               "scipy.spatial", "scipy.stats")
PRINT_HEAVY = f"\nimport sys\nprint([m for m in {HEAVY_SCIPY!r} if m in sys.modules])\n"


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
    assert "scipy.integrate" not in loaded


def test_analytic_entry_points_load_only_scipy_special(tmp_path):
    code = (
        "from rangevol import analytics, cli, montecarlo\n"
        "from rangevol.estimators import EstimatorKind, GarmanKlassVariant\n"
        "for kind in EstimatorKind:\n"
        "    analytics.theoretical_moments(kind, 1.0)\n"
        "    analytics.interval_probability(kind, 1.0, 2.0)\n"
        "    analytics.coverage_probability(kind, 1.0)\n"
        "for variant in GarmanKlassVariant:\n"
        "    analytics.garman_klass_mean(1.0, variant=variant)\n"
        "analytics.rogers_satchell_mean(1.0)\n"
        "cfg = montecarlo.ExperimentConfig(n_steps=50, n_paths=512, gamma_grid=(1.0,),\n"
        "                                  estimators=(EstimatorKind.PARKINSON,))\n"
        "summary = montecarlo.run_experiment(cfg)\n"
        "montecarlo.goodness_of_fit(summary, 'parkinson', 1.0)\n"
        "montecarlo.histogram_vs_pdf(summary, 'parkinson', 1.0)\n"
        "assert cli.main(['tables', '--table', 'mean', '--gammas', '1', '--out', 't.csv']) == 0\n"
        "assert cli.main(['density', 'park-estimator-pdf', '--gamma', '1', '--points', '50',\n"
        "                 '--out', 'd.csv']) == 0\n"
        "print('scipy.special' in sys.modules)\n"
    )
    special, heavy = run_fresh("import sys\n" + code + PRINT_HEAVY, cwd=tmp_path).splitlines()
    assert (special, heavy) == ("True", "[]")
    assert len((tmp_path / "d.csv").read_text().splitlines()) == 2 + 50


def test_analytics_integrate_is_a_lazy_settable_attribute():
    # the tracer's contract (perfbench/spans.py): read analytics.integrate,
    # set a proxy in its place, and restore the module
    code = (
        "import sys, types\n"
        "from rangevol import analytics\n"
        "names, public = dir(analytics), list(analytics.__all__)\n"
        "assert 'integrate' in names and 'scipy.integrate' not in sys.modules\n"
        "real = analytics.integrate\n"
        "assert real is sys.modules['scipy.integrate'] and real.__name__ == 'scipy.integrate'\n"
        "proxy = types.ModuleType(real.__name__)\n"
        "proxy.__dict__.update(real.__dict__)\n"
        "analytics.integrate = proxy\n"
        "assert analytics.integrate is proxy\n"
        "analytics.integrate = real\n"
        "assert analytics.integrate is real\n"
        "assert dir(analytics) == names and analytics.__all__ == public\n"
        "assert not hasattr(analytics, 'no_such_name')\n"
        "try:\n"
        "    analytics.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(public)\n"
    )
    message, public = run_fresh(code).splitlines()
    assert message == "module 'rangevol.analytics' has no attribute 'no_such_name'"
    assert public == str([name for name, module in rangevol._LAZY.items() if module == "analytics"])


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
