"""Run ``repro.tools`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/child.py SPOOL_DIR <repro.tools arguments>``.
Traced study-fleet runs start ``svc serve`` and ``svc worker`` through
this file instead of ``python -m repro.tools``: the argv and the main
function are the same, and the spans of this process and of every unit
process it forks are appended to SPOOL_DIR.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import install          # noqa: E402
from spans import Recorder          # noqa: E402


def main() -> int:
    recorder = Recorder(Path(sys.argv[1]))
    install(recorder)
    recorder.enabled = True
    from repro import tools
    try:
        return tools.main(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
