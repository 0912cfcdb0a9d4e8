"""Run one cyclepow CLI request with every layer's public callables traced.

Usage: python benchmark/traced_cli.py SPANS_JSON -- CLI_ARG...

The request runs through the click entry point in this fresh process, so
every cache starts cold.  The request span (layer ``cli``) encloses the click
call; layer spans nest inside it.  When the request ends, the spans and the
lru-cache counters are written to SPANS_JSON and the process exits with the
CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]

    import cyclepow.cli

    recorder = tracing.Recorder()
    originals = tracing.instrument(recorder)
    request = recorder.open("cli.request")
    code = 0
    try:
        cyclepow.cli.main.main(args=cli_args, prog_name="cyclepow")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        recorder.close(request)
        names = sorted({span[0] for span in recorder.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [
                [index[span[0]], *span[1:]]
                for span in recorder.spans
            ],
            "caches": tracing.cache_counts(originals),
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
