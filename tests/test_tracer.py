"""The benchmark tracer still finds every attribute it wraps.

``perfbench/tracer.py`` replaces module attributes of ``nswrank`` by name, so
renaming or removing one of them breaks ``perfbench/run.py --trace 1``.  Its
callbacks also read the wrapped calls' results (the decomposition's terms,
``fw_solve``'s tuple, the written file), so changing one of those breaks it
too.  Each test runs the tracer in a fresh interpreter, which keeps the
wrappers out of the modules the other tests use.
"""

import glob
import json
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
           bvn.renormalize_doubly_stochastic, cli.bvn_decompose,
           cli.reconstruct):
    assert hasattr(fn, "__wrapped__"), fn
"""


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_runs_a_pipeline_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    prefix = str(tmp_path / "spans")
    true, pred = tmp_path / "true.csv", tmp_path / "pred.csv"
    pol, dec = tmp_path / "nsw.json", tmp_path / "dec.json"
    for argv in (
            ["generate", "--users", "6", "--items", "5", "--seed", "0",
             "--out-true", true, "--out-pred", pred],
            ["solve", "--policy", "nsw", "--relevance", pred, "--cutoff", "2",
             "--out", pol],
            ["decompose", "--policy", pol, "--out", dec],
            ["sample", "--decomposition", dec, "--user", "0", "--seed", "1"]):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "tracer.py"), prefix,
             *map(str, argv)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.stderr)
    attrs = {}
    for path in glob.glob(prefix + ".*.jsonl"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                attrs[span["name"]] = span["attrs"]
    assert set(attrs["bvn.decompose"]) == {"users", "terms", "terms_max"}
    assert attrs["bvn.decompose"]["users"] == 6
    assert set(attrs["kernels.fw_solve"]) == {"passes", "rel_gap"}
    assert attrs["kernels.fw_solve"]["passes"] >= 1
    assert attrs["io.save_policy"]["bytes"] == os.path.getsize(pol)
