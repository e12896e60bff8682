"""The benchmark's tracer can still find, wrap and restore every layer it times.

``perfbench/trace.py`` patches program functions and methods by name from
outside ``src/``.  A rename in the program that drops one of those names
breaks ``perfbench/run.py --trace 1`` without failing any other test; this
one installs the tracer and checks that every patched attribute was wrapped
and then restored.  It runs in a subprocess so that no wrapper or fork hook
leaks into the test session.
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = """
import inspect
import sys
import tempfile

sys.path[:0] = [ROOT, SRC]

import repro.service.service  # noqa: F401  (imports every traced layer)
from perfbench.trace import Tracer, install


def owners():
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            yield module
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__.startswith("repro"):
                    yield value


before = {id(owner): dict(vars(owner)) for owner in owners()}
with tempfile.TemporaryDirectory() as out_dir:
    tracer = Tracer(out_dir)
    install(tracer)
    patched = [(owner, attr) for owner, attr, _original, _wrapper in tracer._patches]
    assert all(vars(owner).get(attr) is not before[id(owner)].get(attr) for owner, attr in patched)
    tracer.uninstall()
restored = [vars(owner).get(attr) is before[id(owner)].get(attr) for owner, attr in patched]
names = {f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}" for owner, attr in patched}
print(len(patched), all(restored), " ".join(sorted(names)))
"""


def test_tracer_installs_on_every_named_layer_and_uninstalls_cleanly():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = SCRIPT.replace("ROOT", repr(root)).replace("SRC", repr(os.path.join(root, "src")))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    count, restored, *names = done.stdout.split()
    assert int(count) > 30
    assert restored == "True"
    # The names the tracer reaches through compatibility shims.
    for name in (
        "RoundKernel.advance",
        "RoundKernel.refresh_bounds",
        "PersistentShardExecutor.run",
        "repro.parallel.worker.run_shard",
        "repro.parallel.pool.run_shard",
        "repro.parallel.resilience.run_shard",
    ):
        assert name in names, name
