"""Child processes of the benchmark.

    child.py setup SPEC_JSON
        A fresh process's set-up: import shiftrank, parse the listed
        expressions, enumerate the listed families.  Prints the perf_counter
        stamps after the import and at the end as one JSON line.

    child.py cli QUERY_ID RANK_ARGS...
        ``shiftrank rank RANK_ARGS...`` with spans around the library calls.
        The CLI output goes to stdout unchanged; the spans go to stderr as a
        last line ``SPANS {json}``.

Both need shiftrank on PYTHONPATH.
"""

import json
import sys
import time

import shiftrank

READY = time.perf_counter()


def setup(spec: dict) -> None:
    config = shiftrank.parse_system(spec["system"], spec["marker"])
    for expr, field in spec["parse"]:
        shiftrank.parse_expr(expr, config, shiftrank.field_from_spec(field))
    for level, kmax in spec["families"]:
        shiftrank.get_family(config, level, kmax)
    print(json.dumps({"ready": READY, "done": time.perf_counter()}))


def cli(query: str, argv: list[str]) -> int:
    import shiftrank.cli
    from spans import Recorder, install

    recorder = Recorder()
    recorder.query = query
    install(recorder)
    try:
        return shiftrank.cli.main(["rank", *argv])
    finally:
        sys.stdout.flush()
        print("SPANS " + json.dumps({"ready": READY, "spans": recorder.spans}),
              file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(json.loads(sys.argv[2]))
    else:
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
