"""Run one stabscope CLI invocation under the span tracer.

    python3 bench/launch.py DUMP.json ARGS...

Behaves like ``python -m stabscope.cli ARGS...`` (same stdout, stderr
and exit code) and writes the tracer's aggregates, its spans, the
import time of ``stabscope.cli`` and the time of ``run`` to DUMP.json.
``src`` must be on PYTHONPATH.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import stabscope.cli as cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    code = cli.run(argv)
    t3 = time.perf_counter()
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(dump, import_ms=(t1 - t0) * 1e3, run_ms=(t3 - t2) * 1e3)
    return code


if __name__ == "__main__":
    sys.exit(main())
