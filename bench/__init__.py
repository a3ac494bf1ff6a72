"""End-to-end performance harness for the PMV reproduction.

``python -m bench.perf`` (from the repository root) drives the real read
and write paths and reports end-to-end metrics with a per-layer budget;
see ``bench/README.md``.  The harness lives outside ``src/`` on purpose:
it imports only the library's public modules, never ``repro.bench``.
"""

import os
import sys

# `python -m bench.perf` is started from the repository root without
# PYTHONPATH (BENCHMARK.json's command cannot set one), so the library
# under test is put on the path here.  A checkout without src/ makes the
# first `import repro` fail, which is the wanted non-zero exit.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
