"""The benchmark tracer still finds the library functions it wraps.

``bench/tracer.py`` wraps library functions by name from outside and reads
some of their arguments by position (``enumerate_atoms``'s budget is its
fifth).  A rename, deletion or signature change in the library would stop
a span from being recorded or zero a count, with no error.  One query of
each kind goes through the benchmark worker's runners with the tracer
installed, in a fresh process, and every span and the atom-node count must
be recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from zslen import atoms, factorize, groups, lsystem
import tracer, worker

t = tracer.Tracer()
t.install(atoms, factorize, groups, lsystem)
queries = [
    {"kind": "decide", "group": "C2xC4", "set": "2,3", "symmetry": False},
    {"kind": "closed", "group": "C3", "bound": 12},
    {"kind": "atoms", "group": "C3xC3", "symmetry": False},
    {"kind": "catenary", "group": "C2xC2", "seq": "(1,0)^2 (0,1)^2 (1,1)^2"},
]
outs = [worker.RUNNERS[q["kind"]](q) for q in queries]
totals = t.totals()
print(json.dumps({
    "outs": outs,
    "calls": dict(zip(tracer.SPAN_NAMES, totals["calls"])),
    "counts": totals["counts"],
}))
"""


def test_tracer_records_every_span_through_the_worker_runners():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    missing = [name for name, calls in got["calls"].items() if calls < 1]
    assert missing == []
    assert got["counts"]["atoms_nodes"] > 0
    decide, closed, atom_out, catenary = got["outs"]
    assert (decide["verdict"], decide["witness"]) == ("realizable", "(0,1)^2 (1,0)^2 (1,1)^6")
    assert closed["verdict"] == "CLOSED-AT-BOUND"
    assert (atom_out["count"], atom_out["davenport"], atom_out["nodes"]) == (69, 5, 184)
    assert catenary["num_factorizations"] == 2
