"""End-to-end + per-layer benchmark of ``repro.connect(...).sql(text).run()``,
edits and stores.  Run ``python3 -m bench``; see ``bench/README.md``."""

import sys
from pathlib import Path

# The driver runs ``python3 -m bench`` from a bare checkout: make the engine
# under ``src/`` importable without installing it or setting PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
