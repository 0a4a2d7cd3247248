"""Wall-clock discipline: one clock for the whole codebase.

Every wall-clock reading in ``src/repro`` must go through
``repro.obs.tracer.clock`` so traces and reported wall seconds share
one monotonic time base (and tests can fake it in one place).  This scan bans direct ``time.perf_counter`` /
``time.monotonic`` / ``time.time`` use anywhere outside the tracer
module that defines the alias.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# The single module allowed to touch the stdlib clocks: it defines the
# `clock` alias everything else imports.
ALLOWED = {SRC / "obs" / "tracer.py"}

BANNED = ("time.perf_counter", "time.monotonic", "time.time(")


def test_no_direct_wall_clock_outside_obs():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        text = path.read_text()
        for needle in BANNED:
            if needle in text:
                line = next(
                    i
                    for i, row in enumerate(text.splitlines(), 1)
                    if needle in row
                )
                offenders.append(f"{path.relative_to(SRC)}:{line} uses {needle}")
    assert not offenders, (
        "direct wall-clock calls outside repro.obs.tracer (import `clock` "
        "from repro.obs instead):\n  " + "\n  ".join(offenders)
    )


def test_the_alias_itself_exists():
    import time

    from repro.obs import clock

    assert clock is time.perf_counter
