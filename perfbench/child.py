"""Programs the benchmark runs in a fresh interpreter, one per sample.

    python perfbench/child.py [--rss FILE] [--trace FILE RUN_ID] cli ARG...
    python perfbench/child.py [--rss FILE] [--trace FILE RUN_ID] api M...
    python perfbench/child.py fact M

`cli` calls `feyncount.cli.main(ARGS)` and exits with its code, as the
installed `feyncount` command does.  `api` prints "m distinct_connected(m)"
for each query in the order given; with no queries it only imports the
package, which is its set-up cost.  `fact` prints the seconds a first
`total_diagrams(M)` takes after import.

`--rss` writes the peak resident set in KiB to FILE when the workload is
done.  It is read here because the `ru_maxrss` that `wait4` reports to the
spawner also holds the spawner's own peak: Linux folds the old address
space's peak into it at exec.  `--trace` records spans and counts (see
tracer.py) and writes them to FILE as JSON.
"""

import resource
import sys
from time import perf_counter

import feyncount


def api_loop(orders) -> int:
    for m in orders:
        # Looked up per call, so a traced run reaches the rebound wrapper.
        print(m, feyncount.distinct_connected(m))
    return 0


def peak_rss_kib() -> int:
    """Peak RSS of this process, or of a child it waited for if larger."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    rss_file = trace = None
    if argv[0] == "--rss":
        rss_file, argv = argv[1], argv[2:]
    if argv[0] == "--trace":
        trace, argv = argv[1:3], argv[3:]
    mode, *args = argv
    if mode == "fact":
        start = perf_counter()
        feyncount.total_diagrams(int(args[0]))
        print(perf_counter() - start)
        return 0

    if trace is not None:
        from feyncount import cli, compositions, counting, oracle
        from tracer import Tracer

        tracer = Tracer(trace[1])
        layers = [cli, counting, compositions, oracle]
        tracer.install(layers, [feyncount, *layers])
        tracer.count_checks(counting.VerificationReport)
    if mode == "cli":
        from feyncount import cli

        code = cli.main(args)
    elif mode == "api":
        code = api_loop(int(m) for m in args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if trace is not None:
        tracer.dump(trace[0])
    if rss_file is not None:
        with open(rss_file, "w") as out:
            out.write(str(peak_rss_kib()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
