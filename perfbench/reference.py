"""A fixed numpy computation that gauges how fast the host runs during a run.

The vCPUs of a shared host lend their cores to other tenants, and the speed
they give numpy-heavy code changes by up to 2x in phases that last from
seconds to minutes.  No statistic taken over one run's jobs removes a phase
that covers the whole run.  So the worker runs this reference between the
parts of its jobs, and run.py reports job time in multiples of the
reference's time measured in the same run: a slow phase slows both.

The reference uses numpy alone and fixed inputs; it calls no qhekit code, so
no change to qhekit can move it.  Each workload names the kind that matches
what dominates its jobs:

- ``small``: small dense linear algebra and Python bookkeeping, as in the
  catalog pipelines and the sweep's tiny localisation problems (about 2 ms);
- ``dense``: one 512x512 complex matrix product on every BLAS thread, as in
  qotp2's full-space operators (about 10 ms on 2 threads).

`Reference.job_in_refs()` turns a run's part times into one job's time in
reference runs.  Each part's time is divided by the median of the SIDE
reference runs just before the part started and the SIDE just after; the
median of that ratio over the run's jobs is kept for each part; the parts
are summed.  A phase of the host that slows a part also slows the
reference runs next to it, so the ratio follows the code, not the phase.
Statistics of a whole run do not: on a 2-vCPU shared host, in a set of 10
seeds where the host was noisy, this ratio spread 0.04 on sweep (quartile
distance over median), against 0.16 for the sum of each part's fastest
time over the run's fastest reference run, and 0.27 for that sum in
seconds.  On qotp2, over 11 seeds, it spread 0.04 against 0.07 in seconds.
qotp2 has few part boundaries (about 4 a job), so the dense reference runs
8 times at each, where the small one runs once.
"""

import time
from statistics import median

import numpy as np

KINDS = {"small": 1, "dense": 8}  # kind -> runs each time the reference is due
SIDE = 16  # reference runs on each side of a part that gauge it
EVERY_S = 0.05  # run the reference when this long has passed since its last run


def _complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class Reference:
    """Runs one kind of reference computation and keeps its timings."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown reference {kind!r}; known: {', '.join(KINDS)}")
        rng = np.random.default_rng(0)
        if kind == "small":
            self._a = _complex(rng, 24)
            self._h = self._a + self._a.conj().T
            self._kernel = self._small
        else:
            self._a = _complex(rng, 512)
            self._kernel = self._dense
        self.kind = kind
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.spent = (0.0, 0.0)  # wall and CPU time spent here since reset_spent()
        self._kernel()  # warm-up: BLAS threads start and caches fill before timing
        self._last = time.perf_counter()

    def _small(self) -> None:
        a, h = self._a, self._h
        psi = a[:, 0]
        for _ in range(8):
            np.linalg.eigh(h)
            np.linalg.qr(a)
            a @ a
            np.kron(a[:4, :4], a[:4, :4])
            rho = np.outer(psi, psi.conj())
            np.trace(rho.reshape(4, 6, 4, 6), axis1=1, axis2=3)
            sorted({(i, j): i * j for i in range(4) for j in range(6)})

    def _dense(self) -> None:
        self._a @ self._a

    def reset_spent(self) -> None:
        self.spent = (0.0, 0.0)

    def maybe_run(self) -> None:
        """Run the reference, as often as its kind says, if EVERY_S has passed since its last run."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.run_batch()

    def run_batch(self) -> None:
        """Run the reference as often as its kind says."""
        for _ in range(KINDS[self.kind]):
            self.run()

    def run(self) -> None:
        """Run and time the reference once."""
        cpu, start = time.process_time(), time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        wall, cpu = end - start, time.process_time() - cpu
        self.wall_s.append(wall)
        self.cpu_s.append(cpu)
        self.spent = (self.spent[0] + wall, self.spent[1] + cpu)
        self._last = end

    def gauge(self, index: int | None = None) -> tuple[float, float]:
        """Median wall and CPU time of one reference run.

        With index, the number of reference runs made before a part started,
        only the runs that gauge that part count.
        """
        window = slice(None) if index is None else slice(max(0, index - SIDE), index + SIDE)
        return median(self.wall_s[window]), median(self.cpu_s[window])

    def job_in_refs(self, job_parts: list[dict], jobs) -> tuple[float, float]:
        """Wall and CPU time of one job in reference runs, from the parts of jobs.

        job_parts[j] maps each part key to (wall s, CPU s, reference runs made
        before the part started).
        """
        ratios: dict = {}  # part key -> wall ratios, CPU ratios
        for j in jobs:
            for key, (wall, cpu, index) in job_parts[j].items():
                ref_wall, ref_cpu = self.gauge(index)
                walls, cpus = ratios.setdefault(key, ([], []))
                walls.append(wall / ref_wall)
                cpus.append(cpu / ref_cpu)
        return (
            sum(median(walls) for walls, _ in ratios.values()),
            sum(median(cpus) for _, cpus in ratios.values()),
        )
