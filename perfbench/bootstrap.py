"""Run ``lidarfog.cli.main`` with span recording.

Usage: python bootstrap.py SPANS_JSON OP_ID CLI_ARG...

Installs the wrappers from `spans`, runs the CLI as ``python -m lidarfog.cli``
would, and writes the recorded spans to SPANS_JSON at exit.
"""

import sys

import lidarfog.cli  # first, so -X importtime charges every shared import to lidarfog

import spans


def main():
    out_path, op = sys.argv[1], int(sys.argv[2])
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin(op)
    try:
        code = lidarfog.cli.main(sys.argv[3:])
    finally:
        tracer.end()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
