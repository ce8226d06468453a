"""Timestamps and spans around calls into ``dnmpc``, installed from outside.

Every hook replaces a name at the place where ``dnmpc`` looks it up (a module
global or a class attribute) and restores it on exit. Nothing in ``src/`` is
edited. If a later refactor renames a hooked name, installing fails; if it
rebinds the name somewhere else, the hook stops being called and its counter
reads 0, which the benchmark's self-check reports.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from dnmpc import constraints, coordination, dynamics, ocp

perf_counter = time.perf_counter


@contextmanager
def installed(patches):
    """Apply ``(owner, attribute, make_wrapper)`` patches for the block's duration."""
    originals = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            originals.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


class SpeedProbe:
    """Times a fixed numpy kernel, independent of ``dnmpc``, to track the speed
    the machine runs at while the benchmark measures.

    The CPU speed of a shared machine drifts: on a 2-vCPU virtual machine the
    same batch of rollouts took anywhere from 0.35 s to 0.59 s from one
    half-second to the next, and identical benchmark runs differed by 25%.
    The probe runs before and after every timed sample. A sample is scaled by
    ``NOMINAL_S`` over the probe time around it, taken as a running median
    over a few probes on either side, which follows the drift without passing
    on one probe's jitter. That reports it in seconds at the machine's typical
    speed; the raw seconds are printed beside the scaled ones.
    """

    # typical kernel time between solves on that virtual machine
    # (Python 3.11.7, numpy 2.4.6). A shorter kernel (50 steps, 0.6 ms)
    # jittered so much that same-input reruns differed by up to 19% in p90
    # latency after scaling; at 250 steps they agreed within 5%.
    NOMINAL_S = 3.0e-3
    WINDOW = 4   # probes on either side in the running median

    def __init__(self):
        self._state = np.linspace(0.0, 1.0, 75).reshape(25, 3)
        self._inputs = np.full((25, 2), 0.5)
        self.history = []   # seconds of every probe run, in order

    def run(self):
        """Run the kernel once: explicit Euler steps of a unicycle batch, the
        same mix of small numpy calls as a rollout. Returns its index in
        ``history``."""
        start = perf_counter()
        z, u = self._state, self._inputs
        for _ in range(250):
            dz = np.stack([u[:, 0] * np.cos(z[:, 2]), u[:, 0] * np.sin(z[:, 2]), u[:, 1]],
                          axis=-1)
            z = z + 0.01 * dz
        self.history.append(perf_counter() - start)
        return len(self.history) - 1

    @contextmanager
    def timed(self, samples):
        """Time the block between two probe runs; append (raw seconds, first
        probe, last probe) to ``samples`` for :meth:`scale`."""
        first = self.run()
        start = perf_counter()
        yield
        raw = perf_counter() - start
        samples.append((raw, first, self.run()))

    def run_factor(self):
        """Scale factor from the median of every probe run so far."""
        return self.NOMINAL_S / float(np.median(self.history))

    def scale(self, samples):
        """(raw, scaled) seconds for each (raw, first probe, last probe)."""
        p = np.asarray(self.history)
        w = self.WINDOW
        smooth = [float(np.median(p[max(0, i - w):i + w + 1])) for i in range(len(p))]
        return [(raw, raw * 2.0 * self.NOMINAL_S / (smooth[first] + smooth[last]))
                for raw, first, last in samples]


class SolveClock:
    """The only hooks of an untraced run: timestamps and speed probes at
    ``Simulation.step`` and ``coordination.integrate``.

    The engine calls ``integrate`` once per agent-solve, right after the
    solve. An agent-solve's latency runs from the step's entry, or from the
    return of the previous agent's ``integrate``, to the entry of its own.
    The probe runs at step entry and exit and at each ``integrate`` entry,
    outside the timed spans; the loop time is the time between probes.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.segments = []     # (raw seconds, probe before, probe after)
        self.solves = []       # (raw latency, probe before, probe after)
        self._mark = None
        self._last = None      # (end time, index) of the previous probe

    def restart(self):
        """Forget the previous probe, so time between loops is not counted."""
        self._last = None

    def _sample(self):
        start = perf_counter()
        index = self.probe.run()
        if self._last is not None:
            end, before = self._last
            self.segments.append((start - end, before, index))
        self._last = (perf_counter(), index)

    def _wrap_step(self, step):
        def timed_step(sim, k):
            self._sample()
            self._mark = perf_counter()
            try:
                return step(sim, k)
            finally:
                self._sample()
        return timed_step

    def _wrap_integrate(self, integrate):
        def timed_integrate(*args, **kwargs):
            latency = perf_counter() - self._mark
            self._sample()
            self.solves.append((latency,) + self.segments[-1][1:])
            try:
                return integrate(*args, **kwargs)
            finally:
                self._mark = perf_counter()
        return timed_integrate

    def patches(self):
        return [(coordination.Simulation, "step", self._wrap_step),
                (coordination, "integrate", self._wrap_integrate)]

    def scaled(self):
        """(raw, scaled) seconds of the loop and of each solve's latency."""
        segments = self.probe.scale(self.segments)
        loop = (sum(raw for raw, _ in segments), sum(scaled for _, scaled in segments))
        return loop, self.probe.scale(self.solves)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self):
        return self.total_s - self.child_s


class Tracer:
    """Spans around the public functions each ``dnmpc`` module calls in the others.

    A span's self time is its duration minus the time of the hooked calls it
    made. Counts taken from arguments and results (rollout batch rows, SLSQP
    iterations) are recorded at the same boundaries. Must be installed inside
    a :class:`SolveClock`, whose latencies it reads to time ladder solves, so
    that the clock's probes stay outside the spans.
    """

    def __init__(self, clock: SolveClock):
        self.clock = clock
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self.ladder_s = 0.0
        self._stack = []
        self._attempts = 0

    def _span(self, name, on_return=None):
        def make(fn):
            def traced(*args, **kwargs):
                frame = [0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][0] += elapsed
                    span = self.spans[name]
                    span.calls += 1
                    span.total_s += elapsed
                    span.child_s += frame[0]
                if on_return is not None:
                    on_return(args, result)
                return result
            return traced
        return make

    def _rollout_rows(self, args, result):
        self.counts["rollout_rows"] += int(np.prod(np.shape(args[1])[:-1], dtype=int))

    def _slsqp(self, args, result):
        self.counts["slsqp_iterations"] += int(result.nit)
        self.counts["slsqp_nfev"] += int(result.nfev)

    def _attempt(self, args, result):
        self._attempts += 1

    def _solve_done(self, args, result):
        if self._attempts > 1:
            self.ladder_s += self.clock.solves[-1][0]
        self._attempts = 0

    def patches(self):
        return [
            (ocp, "rollout_zoh", self._span("rollout", self._rollout_rows)),
            # Simulation._starts imports rollout_zoh from dynamics at call time
            (dynamics, "rollout_zoh", self._span("rollout", self._rollout_rows)),
            (ocp, "minimize", self._span("slsqp", self._slsqp)),
            (coordination, "solve_fhocp", self._span("solve_fhocp", self._attempt)),
            (coordination, "restore_feasibility",
             self._span("restore_feasibility", self._attempt)),
            (coordination, "integrate", self._span("integrate", self._solve_done)),
            (coordination, "tube_profile_radii", self._span("tube_profile_radii")),
            (constraints, "tube_radius", self._span("tube_radius")),
            (constraints.StageGeometry, "margins", self._span("margins")),
            (coordination.Simulation, "step", self._span("step")),
        ]
