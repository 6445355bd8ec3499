"""How fast this host runs plain Python right now.

The benchmark shares its host with other work, and the speed of the same
Python code drifts by 10 to 30 percent over tens of seconds.  ``work`` is a
fixed load of the kinds of operations diacat spends its time on (dict
lookups and updates, small-int modular arithmetic, tuple building, calls);
it imports nothing from diacat, so no change to the program moves it.  The
runner times it between jobs and scales every reported time by
``REFERENCE_S`` over the mean ``work`` time of the same pass, which takes
out most of the host's drift.

Run as a script, it prints the seconds one ``work`` call took.
"""

import time

# seconds of work() on a quiet 2-CPU Intel Xeon VM with Python 3.11
REFERENCE_S = 0.075


def _step(acc, key, i):
    return (acc.get(key, 0) + i * i) % 1000003


def work():
    t0 = time.perf_counter()
    acc = {}
    for i in range(100000):
        key = (i * 7919) % 211
        acc[key] = _step(acc, key, i)
        if (key, i & 3) in acc:
            acc.pop((key, i & 3))
        else:
            acc[(key, i & 3)] = i % 5
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(work())
