"""One traced cli invocation: ``cli_child.py TRACE_OUT VERB ARGS...``.

Runs ``nevkit.cli.main`` like ``python -m nevkit.cli`` does, with the layer
tracer installed, and writes the layer totals and the time spent in
``main`` to TRACE_OUT as JSON.  Import times come from running this file
under ``python -X importtime``; the parent reads them from standard error.
"""

import json
import sys
import time

import nevkit.cli

from layers import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin()
    t0 = time.perf_counter()
    try:
        code = nevkit.cli.main(argv)
    finally:
        main_ms = (time.perf_counter() - t0) * 1e3
        tracer.end()
        with open(out, "w") as fh:
            json.dump({"totals": tracer.totals.to_dict(), "main_ms": main_ms},
                      fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
