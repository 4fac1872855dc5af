"""Import gtcrystal.cli from this checkout's src/ and time it.

Run as a script, it measures one set-up in a fresh interpreter, as a user
of the CLI pays it: importing ``gtcrystal.cli`` and building its parser.  It
prints the seconds taken, then the seconds of a calibration round run right
after, once warm (see ``calibration.py``).  Only the standard modules every
interpreter loads at start-up are imported before the timed import.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_REFUSED = 3


def import_cli():
    """Return (gtcrystal.cli, set-up seconds); exit if gtcrystal is not this checkout's."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        import gtcrystal.cli as cli
    except ImportError as exc:
        print(f"refusing to run: cannot import gtcrystal from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_REFUSED)
    cli.build_parser()
    setup_s = time.perf_counter() - start
    src = os.path.realpath(SRC) + os.sep
    for module in (sys.modules["gtcrystal"], cli):
        if not os.path.realpath(module.__file__).startswith(src):
            print(f"refusing to run: {module.__name__} resolves to {module.__file__}, outside {src}", file=sys.stderr)
            raise SystemExit(EXIT_REFUSED)
    return cli, setup_s


if __name__ == "__main__":
    setup_s = import_cli()[1]
    import calibration

    calibration.calibrate()
    print(setup_s, calibration.calibrate())
