"""The speed probe samples the kernel and keeps its own time out of clock()."""

import time

import speed


def test_probe_time_is_kept_out_of_the_clock():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        wall, clock = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall < 0.6:
            pass
        probe.mark()
        while time.perf_counter() - wall < 1.2:
            pass
        wall, clock = time.perf_counter() - wall, probe.clock() - clock
    finally:
        probe.stop()
    assert len(probe.samples) >= 2 * speed.MIN_SAMPLES
    assert probe.stolen > 0
    assert abs(clock - (wall - probe.stolen)) < 1e-3
    factors = probe.factors()
    assert len(factors) == 2 and all(f > 0 for f in factors)


def test_short_span_uses_the_whole_execution():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_S] * 20 + [speed.REFERENCE_S / 2] * 3
    probe.marks = [0, 20]
    setup, run = probe.factors()
    assert setup == 1.0
    assert run == (20 + 3 * 2) / 23
