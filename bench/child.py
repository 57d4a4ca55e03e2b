"""One measured process: set-up probe, plain workload run or traced run.

Usage: child.py RESULT_JSON SPAWN_TIME MODE [CLI ARGS ...]

MODE is ``setup``, ``run`` or ``trace``. The child puts ``src/`` of the
current directory first on the import path and imports ``argyris.cli``.
``setup`` stops there; ``run`` and ``trace`` then call
``argyris.cli.main(CLI ARGS)``, ``run`` with the speed probe sampling and
``trace`` with the span recorder installed.
One JSON object goes to RESULT_JSON:

- ``setup_s``: from SPAWN_TIME (``time.monotonic()`` in the parent just
  before it started this process) to the end of the import;
- ``wall_s``: from the call of ``cli.main`` to its return;
- ``setup_probe_s`` (not in ``trace`` mode): the speed probe's median
  kernel time right after the import;
- ``probe_mean_s``, ``probe_total_s``, ``probe_samples`` (``run`` mode
  only): the speed probe's mean kernel time, summed kernel time and sample
  count while ``cli.main`` ran. ``probe_total_s`` is the part of
  ``wall_s`` the probe itself took;
- ``peak_rss_mb``: ``ru_maxrss`` of this process;
- ``rc``: the return value of ``cli.main``, or null if it raised;
- ``versions``: numpy, scipy and their BLAS (``setup`` mode only);
- ``trace``: the recorder summary (``trace`` mode only).

The CLI's own output goes to this process's stdout and stderr unchanged. If
``argyris`` cannot be imported no result file is written and the exit code
is 3, which the parent treats as a broken checkout rather than a failed run.
"""

import json
import os
import platform
import resource
import signal
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.2
PROBE_OBJECTS = 2000
SETUP_SAMPLES = 5  # probe samples taken right after the import


def _versions():
    import numpy
    import scipy

    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for name, mod in (("numpy_blas", numpy), ("scipy_blas", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, AttributeError):
            out[name] = "unknown"
    return out


class SpeedProbe:
    """Samples how fast this CPU runs Python code, at the moments that count.

    The host lends its cores to other machines, and while it does, Python
    code runs up to twice as slow, for stretches of seconds to minutes. The
    probe times a fixed kernel right after the import and, while the
    workload runs, from a SIGALRM handler every ``PROBE_INTERVAL_S``
    seconds: on the same CPU and at the same moments as the work it is
    compared with. The kernel walks ``PROBE_OBJECTS`` small dicts and numpy
    arrays, about 1 MB; a kernel that fits in the L1 cache does not slow
    down with the workload.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.objs = [{"k": i, "v": rng.standard_normal(16)} for i in range(PROBE_OBJECTS)]
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        s = 0.0
        for o in self.objs:
            s += float(o["v"] @ o["v"]) + len({o["k"], o["k"] + 1} & {3, 4})
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main():
    result_path, spawn, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[4:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        import argyris.cli as cli
    except ImportError:
        traceback.print_exc()
        return 3
    recorder = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    t0 = time.monotonic()
    out = {"setup_s": t0 - spawn}
    probe = None
    if mode != "trace":
        probe = SpeedProbe()
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        out["setup_probe_s"] = sorted(probe.samples)[SETUP_SAMPLES // 2]
    if mode == "setup":
        out["versions"] = _versions()
    else:
        if probe is not None:
            probe.start()
        p0 = time.perf_counter()
        try:
            out["rc"] = cli.main(cli_args)
        except Exception:  # a crash is a failed run, reported to the parent
            traceback.print_exc()
            out["rc"] = None
        p1 = time.perf_counter()
        out["wall_s"] = p1 - p0
        if probe is not None:
            probe.stop()
            during = probe.samples[SETUP_SAMPLES:]
            out["probe_total_s"] = sum(during)
            # the samples after the import stand in for a call too short to be sampled
            out["probe_mean_s"] = sum(during or probe.samples) / len(during or probe.samples)
            out["probe_samples"] = len(during)
        if recorder is not None:
            out["trace"] = recorder.summary(p0, p1)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
