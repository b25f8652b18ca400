#!/usr/bin/env python3
"""Regenerate tests/data/office_temperature.csv.

A 5,000 point synthetic indoor-temperature trace at one-minute cadence,
shaped like a few working days in a small office: a daily cycle, an
occupancy step with ramps, a slow multi-day drift, AR(1) jitter, and two
tiers of plateau-shaped excursions (ventilation events and door swings).
Excursions last several minutes on purpose: a one-minute spike would be
transmitted and then held forever, because its return value sits inside the
band around the barely moved window average.  Plateaus refill the window,
so both edges of each excursion escape the band and the hold recovers.

Everything is driven by the package's pinned generator, so the file is
reproducible bit for bit.  Values are rounded to millidegrees the way a
real logger would report them.
"""

from __future__ import annotations

import math
import sys
from datetime import datetime, timedelta
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mistsim.reference import SplitMix64

COUNT = 5000
SEED = 20240101
START = datetime(2024, 1, 1, 0, 0, 0)
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "office_temperature.csv"


def occupancy(minute_of_day: int) -> float:
    """2.2 degrees during office hours, 8 minute ramps on either side."""
    on, off, ramp, amount = 8 * 60, 18 * 60, 8.0, 2.2
    if minute_of_day < on or minute_of_day >= off + ramp:
        return 0.0
    if minute_of_day < on + ramp:
        return amount * (minute_of_day - on) / ramp
    if minute_of_day < off:
        return amount
    return amount * (1.0 - (minute_of_day - off) / ramp)


def draw_events(rng: SplitMix64) -> list[tuple[float, float, float]]:
    """(onset_minute, amplitude, plateau_minutes) tuples, two tiers."""
    events = []
    t = 0.0
    while True:  # long excursions: ventilation cycles, meetings
        t += 300.0 + 200.0 * rng.next_unit()
        if t >= COUNT:
            break
        amplitude = (2.4 + 1.2 * rng.next_unit()) * (1.0 if rng.next_unit() < 0.65 else -1.0)
        events.append((t, amplitude, 12.0 + 33.0 * rng.next_unit()))
    t = 40.0
    while True:  # short excursions: door swings, drafts
        t += 200.0 + 180.0 * rng.next_unit()
        if t >= COUNT:
            break
        amplitude = (2.4 + 0.8 * rng.next_unit()) * (1.0 if rng.next_unit() < 0.5 else -1.0)
        events.append((t, amplitude, 5.0 + 4.0 * rng.next_unit()))
    return events


def main() -> None:
    rng = SplitMix64(SEED)
    events = draw_events(rng)

    def excursion(k: int) -> float:
        total = 0.0
        for onset, amplitude, plateau in events:
            dt = k - onset
            if dt < 0 or dt >= plateau + 2.0:
                continue
            if dt < plateau:
                total += amplitude
            else:
                total += amplitude * (1.0 - (dt - plateau) / 2.0)
        return total

    lines = ["timestamp,temp_c"]
    ar = 0.0
    for k in range(COUNT):
        minute_of_day = k % 1440
        diurnal = 0.45 * math.sin(2.0 * math.pi * (minute_of_day / 1440.0 - 0.3))
        drift = 0.25 * math.sin(2.0 * math.pi * k / (1440.0 * 5.0))
        ar = 0.9 * ar + 0.09 * rng.next_normal()
        value = 22.5 + diurnal + drift + occupancy(minute_of_day) + ar + excursion(k)
        stamp = (START + timedelta(minutes=k)).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(f"{stamp},{value:.3f}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({COUNT} rows)")


if __name__ == "__main__":
    main()
