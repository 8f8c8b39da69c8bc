"""Process entry point of ``python -m cpfsim`` and the ``cpfsim`` console script.

``run`` calls ``gc.freeze()`` once, after the imports, and then
:func:`cpfsim.cli.main`. Freezing moves every object the imports made
(NumPy's and the package's modules, functions and types) into a permanent
generation that the cyclic garbage collector neither walks nor frees: not in
the full collections of the run, and not in the collections the interpreter
makes while it shuts down, which otherwise take a fixed share of every
launch for objects that live until the process ends anyway. The operating
system reclaims their memory. Normal shutdown still runs: atexit handlers,
warnings and the flushing of stdout and stderr. ``cli.main`` leaves the
collector alone, so in-process callers such as the tests and the
benchmark's trace mode keep it as it was.
"""
import gc
import sys

from . import cli


def run() -> int:
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(run())
