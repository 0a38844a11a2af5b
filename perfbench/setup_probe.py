"""Time a fresh interpreter's set-up: ``import lidarfog`` plus one table per alpha.

Usage: python setup_probe.py [ALPHA...]   (prints seconds on stdout)
"""

import sys
import time


def main():
    alphas = [float(a) for a in sys.argv[1:]]
    t0 = time.perf_counter()
    import lidarfog

    sensor = lidarfog.SensorModel()
    for alpha in alphas:
        lidarfog.build_table(lidarfog.fog_from_alpha(alpha), sensor)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
