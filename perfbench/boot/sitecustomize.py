"""Start-up hook that traces a serving process launched by the benchmark.

The traced run puts this directory first on ``PYTHONPATH``, so every Python
process it launches -- ``repro serve`` and, through inheritance, each
cluster worker -- imports this module before its own code.  With
``PERFBENCH_TRACE_DIR`` set it installs the benchmark's wrappers
(``perfbench/tracer.py``) and listens for two signals from the benchmark:

* ``SIGUSR1`` opens the timed window;
* ``SIGUSR2`` writes the trace under ``PERFBENCH_TRACE_DIR``.

A process that never got ``SIGUSR2`` writes its trace at interpreter exit.
Without the variable the hook does nothing.
"""

import atexit
import os
import signal
import sys

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer as _tracer_module

    if _tracer_module.install():
        _tracer = _tracer_module.tracer

        _dumped = []

        def _open_window(signum, frame):
            _tracer.open_window()

        def _dump(signum, frame):
            _tracer.dump(_TRACE_DIR, "proc")
            _dumped.append(True)

        def _dump_at_exit():
            if not _dumped:  # the benchmark may already hold the window dump
                _tracer.dump(_TRACE_DIR, "proc")

        signal.signal(signal.SIGUSR1, _open_window)
        signal.signal(signal.SIGUSR2, _dump)
        atexit.register(_dump_at_exit)
