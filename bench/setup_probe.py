"""Set-up time of a fresh interpreter: import resdiv.cli and parse graph files.

    python3 bench/setup_probe.py <src dir> <graph file>...

Prints the seconds taken.  Only ``sys`` and ``time`` are imported before
the clock starts, so every module resdiv needs is paid for in the sample.
"""

import sys
import time


def main(src, paths):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import resdiv.cli
    from resdiv.graphfile import parse_graph_file

    for path in paths:
        parse_graph_file(path)
    elapsed = time.perf_counter() - start
    if not resdiv.cli.__file__.startswith(src):
        sys.exit("resdiv imported from %s, not %s" % (resdiv.cli.__file__, src))
    print(elapsed)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
