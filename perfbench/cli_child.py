"""Run one ``opn`` command with spans around orbitpn's public functions.

Usage: python3 perfbench/cli_child.py SPANS_JSON OPN_ARGS...

Behaves like ``python -m orbitpn.cli OPN_ARGS...`` (same output, same exit
code) and writes the spans of the call to SPANS_JSON.  ``src`` must be on
``PYTHONPATH``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import orbitpn.cli  # noqa: E402
from tracer import Tracer, dump  # noqa: E402


def main() -> int:
    spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.query"):
            return orbitpn.cli.main(argv)
    finally:
        tracer.uninstall()
        dump(tracer.spans(), spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
