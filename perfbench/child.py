"""Run one platelab CLI operation in this (fresh) process and record it.

    python3 child.py ROOT RECORD OP_ID {plain,traced,setup} -- CLI ARGS...

setup_s is the time to import platelab and parse the arguments; wall_s is
the time of `platelab.cli.main`. Neither includes interpreter start. With
`traced`, spans around every platelab layer are written into RECORD as
well. With `setup`, the operation itself is not run.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    root, record_path, op_id, mode = sys.argv[1:5]
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import platelab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"platelab imported from {cli.__file__}, not {src}")
    # argument parsing is part of what every command pays before it works;
    # `_parser` is private, so a CLI without it is timed by import alone
    parser = getattr(cli, "_parser", None)
    if parser is not None:
        parser().parse_args(argv)
    setup_s = time.perf_counter() - T_START
    record = {"op": int(op_id), "setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer(int(op_id))
            spans.install(tracer)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        record["wall_s"] = time.perf_counter() - t0
        record["rc"] = rc
        if tracer is not None:
            trace_path = record_path + ".spans"
            tracer.dump(trace_path)
            record["trace"] = trace_path
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
