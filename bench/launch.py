"""Run one womble command in a fresh interpreter, as the `womble` script does.

    python3 bench/launch.py REPORT.json <womble arguments...>

Calls `womble.cli.main` with the arguments and nothing else. When the
command has returned, it writes REPORT.json with the exit code and the
largest peak RSS of this process and of the children it has reaped (the
process-pool workers), then exits with the command's code.
"""

import json
import resource
import sys


def main():
    report, argv = sys.argv[1], sys.argv[2:]
    from womble import cli
    code = cli.main(argv)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(report, "w") as fh:
        json.dump({"code": code, "maxrss_kb": rss_kb}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
