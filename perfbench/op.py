"""Run one lcqnn CLI invocation as a user would, and report on it.

    python3 perfbench/op.py REPORT [--trace | --setup-only] -- ARGV...

ARGV is passed to ``lcqnn.cli.main`` unchanged; stdout, stderr and the exit
code are the program's own (an uncaught exception prints its traceback and
exits 1, as the installed ``lcqnn`` script would).  REPORT receives a JSON
object with the monotonic time at which set-up ended (arguments parsed, and
for ``mnist`` the data set loaded), the peak resident memory of this process,
and with ``--trace`` the spans recorded at lcqnn's module boundaries.
``--setup-only`` stops at the end of set-up.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SetupDone(Exception):
    """Raised at the end of set-up when only set-up is measured."""


def main() -> int:
    report_path, *flags = sys.argv[1 : sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    trace = "--trace" in flags
    setup_only = "--setup-only" in flags
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lcqnn import cli

    report = {"setup_end": None}

    def end_setup():
        report["setup_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if setup_only:
            raise SetupDone

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    build_parser = cli.build_parser

    def marked_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def parse_and_mark(*args, **kwargs):
            namespace = parse_args(*args, **kwargs)
            if namespace.command != "mnist":
                end_setup()
            return namespace

        parser.parse_args = parse_and_mark
        return parser

    load_dataset = cli.load_dataset

    def marked_load(*args, **kwargs):
        result = load_dataset(*args, **kwargs)
        end_setup()
        return result

    cli.build_parser = marked_parser
    cli.load_dataset = marked_load
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["trace"] = tracer.dump()
        with open(report_path, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
