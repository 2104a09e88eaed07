"""One benchmark child process: an import probe or a CLI call.

The parent (``run.py``) starts this script in a fresh interpreter for every
sample, so each sample pays the same interpreter start and import that a
user's ``proxyot`` invocation pays. The child writes one JSON document to
the path given as its first argument::

    python3 child.py RESULT.json probe
    python3 child.py RESULT.json cli ARG...          # proxyot.cli.main([ARG...])

``imported_at`` is ``time.monotonic()`` right after ``proxyot.cli`` is
imported; the parent subtracts its own monotonic clock at spawn to get the
set-up time (CLOCK_MONOTONIC is shared by all processes on the machine).
"""

import json
import sys
import time


def main(argv):
    result_path, mode, rest = argv[0], argv[1], argv[2:]
    import proxyot.cli

    imported_at = time.monotonic()
    doc = {"imported_at": imported_at, "proxyot_file": proxyot.cli.__file__}
    code = 0
    if mode == "probe":
        import numpy

        doc["python"] = sys.version.split()[0]
        doc["numpy"] = numpy.__version__
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            doc["blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):  # numpy before 1.26 has no dict form
            doc["blas"] = "unknown"
    elif mode == "cli":
        code = proxyot.cli.main(rest)
        doc["run_s"] = time.monotonic() - imported_at
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    doc["code"] = code
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
