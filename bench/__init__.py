"""The repo's benchmark: four workloads over the whole stack, measured from outside.

Everything here times calls into ``repro``'s public functions; nothing in
``src/`` knows this package exists.  Entry point: ``python -m bench.run``
(see ``bench/README.md``).

The benchmark is run from a bare checkout with no ``PYTHONPATH``, so the
package puts the checkout's ``src/`` on ``sys.path`` itself.  A checkout
without ``src/`` is left alone: ``import repro`` then fails and the
command exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
