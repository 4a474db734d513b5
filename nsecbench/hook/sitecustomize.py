"""Trace every Python process of a traced benchmark run.

``nsecbench/run.py --trace 1`` puts this directory first on
``PYTHONPATH`` and names a trace directory in ``NSECBENCH_TRACE_DIR``.
Python imports ``sitecustomize`` at start-up, so the program's main
process and every worker it spawns install the span wrappers of
``nsecbench/tracing.py`` and write their summary there when they exit.
Untraced runs leave this directory off the path.
"""

import os

if os.environ.get("NSECBENCH_TRACE_DIR"):
    import importlib.util
    import sys

    _path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tracing.py"
    )
    _spec = importlib.util.spec_from_file_location("nsecbench_tracing", _path)
    _tracing = sys.modules["nsecbench_tracing"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_tracing)
    _tracing.install_from_env()
