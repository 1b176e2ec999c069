"""`python -m relplanck ARGS...` with the tracer installed; for the traced CLI loop.

    python bench/cli_child.py ROOT SPANS_JSON ARGS...

Runs ``relplanck.cli.main(ARGS)`` exactly as ``python -m relplanck`` does and
writes the spans and counters to SPANS_JSON when it returns.
"""

import json
import os
import sys

ROOT, SPANS_JSON = sys.argv[1:3]
sys.path.insert(0, os.path.join(ROOT, "src"))

import relplanck.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer()
with tracer.installed():
    code = relplanck.cli.main(sys.argv[3:])
with open(SPANS_JSON, "w") as fh:
    json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
sys.exit(code)
