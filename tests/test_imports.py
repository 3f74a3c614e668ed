import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_package_import_leaves_scipy_linalg_out():
    # the Python-side Thomas solve exists so that the package never pays
    # for importing scipy.linalg (about 6 MB of resident memory), and
    # scipy.special is imported only by the closed-form interval softmin
    # (about 20 MB and 0.3 s at start-up)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, exitflow, exitflow.cli; "
            "print('scipy.linalg' in sys.modules, "
            "'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
