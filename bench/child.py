"""One benchmark process: run one ``spectral-moduli`` command under wrappers.

    python3 bench/child.py --stamp FILE [--trace FILE] [--setup-only] -- ARGS

The entry stamp (always on) writes to FILE the ``time.monotonic()`` of the
first call into the command's main loop.  ``--trace`` also records spans at
the package's public boundaries and writes them to its FILE at exit.
``--setup-only`` exits with code 0 at the stamp, so only set-up runs.
The parent sets the thread-cap variables before this process starts, so
numpy loads with them.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else \
        opts.cli_args

    from spectral_moduli import cli

    import layers
    from tracing import Tracer

    stamp = layers.EntryStamp(opts.stamp, exit_after=opts.setup_only)
    tracer = Tracer() if opts.trace else None
    layers.install(stamp, tracer)
    try:
        return cli.main(cli_args)
    finally:
        stamp.write()
        if tracer is not None:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
