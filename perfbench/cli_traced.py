"""The plate-homog CLI with spans around its layers.

Traced ``cli-fixtures`` rounds start this in place of
``python -m plate_homog``, with the same arguments.  It installs the
tracer, runs ``plate_homog.app.main`` and, however that ends, writes the
spans and their metrics to the file named by ``PERFBENCH_TRACE_FILE``.
"""

import os
import sys

from tracer import Tracer


def main() -> int:
    from plate_homog import app

    tracer = Tracer()
    tracer.install()
    try:
        return app.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_TRACE_FILE"])


if __name__ == "__main__":
    raise SystemExit(main())
