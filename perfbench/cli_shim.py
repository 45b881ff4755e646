"""Run one longrate CLI command with layer spans, for the traced run.

    python3 perfbench/cli_shim.py SPANS.json ARG...

Behaves like ``python -m longrate ARG...`` (same stdout, stderr and exit
code) and writes the spans of the call to SPANS.json: ``longrate.import``
around the package import and ``cli.main`` around ``longrate.cli.main``,
with the layer spans of ``spans.install`` below it.
"""

import json
import sys

from spans import Recorder, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.begin("longrate.import")
    import longrate.cli

    rec.end()
    install(rec)
    rec.begin("cli.main")
    try:
        return longrate.cli.main(argv)
    finally:
        rec.end()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
