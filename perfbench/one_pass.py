"""One pass of one workload in a fresh interpreter, so every library cache
(``_compose_diagrams``, ``_tensor_diagrams``, ``_diagram_matrix``,
``_ENUM_CACHE``) starts cold, as it does for each CLI call.

Usage (run by ``run.py``, with ``src`` on PYTHONPATH):
    python3 perfbench/one_pass.py WORKLOAD SEED {probe,run,check} | trace SPANS_PATH

Prints one JSON line.  ``setup_end`` is a CLOCK_MONOTONIC reading taken after
``import brauer`` and the workload's group specs, for the parent to subtract
its spawn time from.  ``probe`` stops there; ``check`` adds the workload's
out-of-band checks after the timed region.
"""

import json
import resource
import sys
import time

import brauer
import workloads


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = workloads.build(name, seed)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "brauer_file": brauer.__file__,
              "backend": brauer.ops.BACKEND,
              "verify_internal_seed": workloads.VERIFY_INTERNAL_SEED}
    if mode == "probe":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    outcome = workload.run()
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer, name)
        tracer.write(argv[3])
    post_errors = workload.post_check() if mode == "check" else []
    result.update(wall_s=wall, peak_rss_mb=peak_kb / 1024.0,
                  attempted=outcome.attempted,
                  failed=outcome.failed + len(post_errors),
                  errors=outcome.errors + post_errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
