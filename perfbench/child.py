"""One robustprec CLI run inside a fresh process, as the benchmark child.

    python3 perfbench/child.py STAMP.json [--trace SPANS.json] -- CLI ARGS...

Runs `robustprec.cli.main(CLI ARGS)` in this process and writes STAMP.json:
`setup_done` (the `time.monotonic()` at which the config was first parsed,
which the parent compares with its own launch time; CLOCK_MONOTONIC is
system-wide on Linux), `main_s` (time inside `cli.main`) and the exit code.
With --trace every public robustprec function is wrapped first (see
tracer.py); the per-function summary goes into STAMP.json and every span
into SPANS.json.  The child exits with the CLI's exit code.
"""
import json
import sys
import time


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stamp_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    import robustprec.cli as cli

    recorder = None
    if spans_path is not None:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    stamp = {}
    parse_config = cli.parse_config

    def timed_parse_config(path):
        out = parse_config(path)
        stamp.setdefault("setup_done", time.monotonic())
        return out

    cli.parse_config = timed_parse_config
    start = time.perf_counter()
    code = cli.main(cli_args)
    stamp["main_s"] = time.perf_counter() - start
    stamp["exit_code"] = code
    if recorder is not None:
        stamp["trace"] = recorder.summary()
        recorder.dump(spans_path)
    with open(stamp_path, "w") as f:
        json.dump(stamp, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
