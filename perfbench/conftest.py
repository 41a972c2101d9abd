"""Put the program (``src/``) and this directory on the import path, as
``run.py`` does, for ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]
