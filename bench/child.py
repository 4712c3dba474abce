"""Run one efn command in a fresh interpreter and record its timings.

Usage: python3 child.py RESULT_JSON TRACE [efn arguments ...]

Writes ``{"ready": t, "cli": path, "run_s": s, "rc": code, "spans": [...]}``
to RESULT_JSON.  ``ready`` is ``time.monotonic()`` as soon as ``efnlab.cli``
is imported; the parent subtracts its own clock reading taken before the
spawn, which gives the set-up time a user pays on every ``efn`` call.
``run_s`` is ``efnlab.cli.main(argv)`` from entry to return.  With TRACE=1
the package's public functions are wrapped first (see spans.py) and the
spans are written too.  Without efn arguments the process only imports,
which is how set-up time is probed.
"""

import sys
import time


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import efnlab.cli

    ready = time.monotonic()
    import json

    record = {"ready": ready, "cli": efnlab.cli.__file__}
    if argv:
        recorder = None
        run = efnlab.cli.main
        if trace:
            from spans import Recorder, install

            recorder = Recorder()
            record["missing"] = install(recorder)
            run = recorder.wrap("cli.main", run)
        t0 = time.perf_counter()
        record["rc"] = run(argv)
        record["run_s"] = time.perf_counter() - t0
        if recorder is not None:
            record["spans"] = recorder.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
