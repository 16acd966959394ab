"""One benchmark operation, run in a fresh interpreter.

    python3 child.py SRC RESULT_JSON MODE [CLI ARGS...]

MODE is `import` (time the import only), `run` (import, then time
`flatbundle.cli.main(CLI ARGS)`) or `trace` (as `run`, with every layer
wrapped by `tracer`).  SRC is the absolute path of the package source;
the child refuses to run a `flatbundle` imported from anywhere else.
The measurements go to RESULT_JSON; the CLI keeps its own stdout.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    src, result_path, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import flatbundle.cli as cli
    rec = {"setup_s": time.perf_counter() - t0}
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"flatbundle imported from {origin}, not from {src}",
              file=sys.stderr)
        return 2
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            rec["missing_targets"] = tracing.install(tracer)
        c0 = time.process_time()
        t1 = time.perf_counter()
        rec["rc"] = cli.main(cli_args)
        rec["wall_s"] = time.perf_counter() - t1
        rec["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            rec["trace"] = tracer.report()
    rec["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
