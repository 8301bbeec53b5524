"""Run one quadmap CLI command with the layer tracer installed.

    python3 perfbench/bootstrap.py STATS_JSON COMMAND [ARG...]

Behaves like ``python -m quadmap.cli COMMAND [ARG...]`` (same output, same
exit code) and writes the tracer's snapshot to STATS_JSON on the way out.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quadmap.cli  # noqa: E402
from layertrace import Tracer  # noqa: E402


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return quadmap.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(stats_path).write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
