"""The measured process: one fresh interpreter running one pass of jobs.

    python3 perfbench/worker.py TRACE_FILE|-  < jobs

Imports toriccode.cli (from PYTHONPATH), then reads one JSON argv list per
line from stdin, runs `toriccode.cli.main(argv)` with stdout and stderr
captured, and answers with one JSON line per job.  With a trace file, every
layer is wrapped first (see tracing.py) and each answer carries the job's
per-layer totals; the spans are written to the file at the end.  The last
line reports the peak RSS of this process.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    trace_path = sys.argv[1] if len(sys.argv) > 1 and sys.argv[1] != "-" else None
    proto = sys.stdout
    t0 = time.perf_counter()
    from toriccode import cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    proto.write(json.dumps({"import_s": import_s, "cli": os.path.abspath(cli.__file__)}) + "\n")
    proto.flush()
    for index, line in enumerate(sys.stdin):
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = tracer.call(tracing.CLI_SPAN, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
        reply = {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                 "stderr": err.getvalue()}
        if tracer:
            reply["layers"] = tracer.totals(first)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    if tracer:
        tracer.dump(trace_path)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({"peak_rss_mib": rss_kib / 1024}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
