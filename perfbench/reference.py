"""A fixed reference kernel that measures the host's current speed.

On a shared VM the same code runs at speeds up to 1.7 times apart, changing
within minutes, which no statistic over one run's passes removes.  The workers
therefore time this kernel next to every timed pass and report each pass in
units of it: a pass that took 1.2 s while the kernel took 0.18 s reads
1.2 / 0.18 * REFERENCE_UNIT_S = 0.8 s.  The kernel does what the workloads do
(Python-level loops over 2x2 and 4x4 numpy arrays: matrix products, ``eigh``,
``cross``, scalar arithmetic), so a host slow-down scales both alike.  It
imports nothing from ``fluxqubit``: a change to the program cannot change it.

A long pass can span several host speeds, so the kernel is also timed from
inside passes (``Sampler``), about once per INTERVAL_S of workload time.
"""

import time

import numpy as np

# About the median time of one unit on the host the benchmark was tuned on
# (2-vCPU Xeon VM at 2.1 GHz), where single units took 0.09-0.15 s.  It only
# fixes the scale of the reported times; it must never change, or results
# from before and after the change stop being comparable.
REFERENCE_UNIT_S = 0.12
ITERATIONS = 1500
INTERVAL_S = 1.0


def unit():
    """Run the kernel once; returns (wall seconds, CPU seconds)."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    u = np.eye(2, dtype=complex)
    v = np.array([0.0, 0.0, 1.0])
    axis = np.array([0.6, 0.8, 0.0])
    acc = 0.0
    counts = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i in range(ITERATIONS):
        w, vec = np.linalg.eigh(h)
        h = (vec * np.clip(w, 0.0, None)) @ vec.conj().T + 0.01 * np.eye(4)
        u = u @ np.array([[1.0, 0.01j * (i % 3)], [0.01j, 1.0]]) / 1.0001
        v = v + 0.01 * np.cross(axis, v)
        v /= np.linalg.norm(v)
        acc += float(w[0]) * 1e-9 + (i % 7) * 0.5
        counts[i % 13] = counts.get(i % 13, 0) + 1
    return time.perf_counter() - wall0, time.process_time() - cpu0


def units(count):
    """Time `count` units; returns their (wall, CPU) seconds."""
    return [unit() for _ in range(count)]


class Sampler:
    """Times units from inside a pass, at most once per INTERVAL_S.

    ``wrap(fn)`` puts a check in front of fn: while sampling is on and
    INTERVAL_S has passed since the last unit, the call first times a unit.
    Install the wrapper where the workloads' callers look fn up.
    """

    def __init__(self):
        self.on = False
        self.units = []
        self._next = 0.0

    def start(self):
        self.on, self.units = True, []
        self._next = time.perf_counter() + INTERVAL_S

    def stop(self):
        """Stop sampling; returns the (wall, CPU) seconds of the units timed."""
        self.on = False
        units, self.units = self.units, []
        return units

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.on and time.perf_counter() >= self._next:
                self.units.append(unit())
                self._next = time.perf_counter() + INTERVAL_S
            return fn(*args, **kwargs)

        return wrapper
