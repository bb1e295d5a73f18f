"""Fresh-interpreter set-up probe, spawned by ``run.py``.

Default mode pays what every ``repro`` command pays before its first
job: import the CLI and the figure registry, then resolve the engine
tier (which loads the already-built kernel). ``--compile`` instead
builds the kernel into the empty ``$REPRO_KERNEL_CACHE_DIR``. Either way
the probe prints one JSON line of its timings.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    if sys.argv[1:] == ["--compile"]:
        from repro.perf._kernel import kernel_available, kernel_provenance

        started = time.perf_counter()
        available = kernel_available()
        print(json.dumps({
            "kernel_compile_s": time.perf_counter() - started,
            "available": available,
            "kernel": kernel_provenance(),
        }))
        return 0
    started = time.perf_counter()
    import repro.cli  # noqa: F401
    import repro.runner.registry  # noqa: F401
    from repro.perf.engine import resolve_engine

    imported = time.perf_counter()
    engine = resolve_engine("auto")
    print(json.dumps({
        "import_s": imported - started,
        "kernel_load_s": time.perf_counter() - imported,
        "engine": engine,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
