"""Run one qcc-lab command in this fresh process and report what it cost.

    python3 perfbench/child.py START ROOT SPANS [qcc-lab arguments...]

START is the monotonic clock reading taken just before this process was
started; set-up time runs from there until `qcc_lab.cli` is imported from
ROOT/src.  SPANS is "-" for an untraced run, "trace" to trace without
keeping the spans, or a path to write them to.  With no qcc-lab arguments
the process only measures set-up.  The command's report is captured, not
printed; the last stdout line is one JSON object with the exit code, the
report, set-up and command seconds, peak RSS and, when traced, the layer
summary.
"""

import sys
import time


def main() -> None:
    start, root, spans = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, root + "/src")
    from qcc_lab import cli
    setup_s = time.monotonic() - start

    import contextlib
    import io
    import json
    import resource

    result = {"setup_s": setup_s, "cli_file": cli.__file__}
    if argv:
        tracer = None
        if spans != "-":
            import layertrace
            tracer = layertrace.install()
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            begin = time.perf_counter()
            code = cli.main(argv)
            main_s = time.perf_counter() - begin
        result.update(code=code, stdout=report.getvalue(), main_s=main_s)
        if tracer is not None:
            result["layers"] = tracer.summary()
            if spans != "trace":
                tracer.write_spans(spans, " ".join(argv))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
