"""Run one bellforge command with the span tracer installed, then write its spans.

    python3 perfbench/cli_child.py SPANS.json verify all --seed 1

Stdout and the exit code are the command's own.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import bellforge.cli

    try:
        return bellforge.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
