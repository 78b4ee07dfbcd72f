"""Run one cuoco command with the span recorder installed, then dump the spans.

    python3 -X importtime bench/child.py <dump.json> <cuoco arguments...>

The traced `cold_start` run starts this instead of `python -m cuoco.cli`.
`cuoco.cli` is imported before anything of the benchmark's own, so the
`-X importtime` lines for the package match a plain start.
"""

import sys

import cuoco.cli

import json  # noqa: E402  (after the package, see above)

import spans  # noqa: E402


def main() -> int:
    recorder = spans.Recorder()
    recorder.install()
    try:
        return cuoco.cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
