"""The benchmark tracer still finds every attribute it wraps.

``perfbench/tracer.py`` replaces module attributes of ``nswrank`` by name, so
renaming or removing one of them breaks ``perfbench/run.py --trace 1``.  This
installs the wrappers in a fresh interpreter, which keeps them out of the
modules the other tests use.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import tracer
tracer.install()
from nswrank import bvn, cli, core
for fn in (core.renormalize_doubly_stochastic,
           bvn.renormalize_doubly_stochastic, cli.bvn_decompose):
    assert hasattr(fn, "__wrapped__"), fn
"""


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
