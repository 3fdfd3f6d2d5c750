"""Print the seconds a fresh interpreter needs to import acdii.cli and parse a config.

Usage: python3 perfbench/probe_setup.py CONFIG.json
Every CLI invocation pays this cost before its command starts.
"""

import sys
import time

t0 = time.perf_counter()
import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import acdii.cli  # noqa: E402

acdii.cli.parse_config(json.loads(Path(sys.argv[1]).read_text()))
print(repr(time.perf_counter() - t0))
