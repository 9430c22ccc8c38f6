"""Set-up probe: import horicert and load the K1..K4 fixtures, then exit.

``run.py`` times whole runs of this script in fresh interpreters; the
script itself prints how the time split between the import and the
fixture loading.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import horicert  # noqa: E402,F401
from horicert import fixtures  # noqa: E402

t1 = perf_counter()
for name in ("K1", "K2", "K3", "K4"):
    fixtures.load_certificate(name)
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
