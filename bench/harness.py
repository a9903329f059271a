"""Loading ``wickops`` from the checkout, running jobs, recording the environment."""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


# Host speed.  A shared host can switch between a fast and a slow state every
# few seconds; on the 2-vCPU host the benchmark was built on, the slow state
# made interpreter-bound work ~1.8x slower and work on large arrays ~1.5x
# slower.  So every job is bracketed by a fixed kernel of its workload's own
# kind of work, and its time is rescaled to the reference speed: the speed at
# which the kernel takes ``reference_s``, about that host's fast state.  A
# change to wickops moves the job and not the kernel, so it shows in full; a
# change of host speed moves both.

@dataclass(frozen=True)
class Calibration:
    """A fixed kernel that never touches wickops, and its time at the
    reference host speed."""

    kernel: Callable[[], object]
    reference_s: float

    def speed_factor(self) -> float:
        """reference_s / the kernel's time now: how much faster the host
        would be at the reference speed."""
        t0 = time.perf_counter()
        self.kernel()
        return self.reference_s / (time.perf_counter() - t0)


_POINT_TERMS = {((a,), (b,)): complex(1.0 / (1 + a + b), 0.5 * (a - b))
                for a in range(3) for b in range(3)}
_POINT_REPORT = {str(k): [0.5 * k, 0.25 * k, k] for k in range(200)}


def pointwise_kernel() -> complex:
    """Per-point small-array numpy arithmetic over a dict of terms, JSON
    encoding and a small eigen-solve: interpreter-bound work."""
    total = 0j
    for k in range(24):
        z = np.array([complex(0.1 * k, 0.05 * k)])
        for (a, b), c in _POINT_TERMS.items():
            total += c * np.prod(z ** np.array(a)) * np.prod(np.conj(z) ** np.array(b))
    json.dumps(_POINT_REPORT, indent=1)
    m = np.add.outer(np.arange(24.0), np.arange(24.0)) / 24.0
    return total + np.linalg.eigvalsh(m + m.T)[0]


_ARRAY_GRID = np.linspace(-8.0, 8.0, 20000)


def array_kernel() -> float:
    """A Hermite-function recurrence on a 20000-point grid and Golub-Welsch
    eigen-solves: sampling and quadrature on large arrays."""
    x = _ARRAY_GRID
    h0 = np.exp(-x * x / 2)
    h1 = np.sqrt(2.0) * x * h0
    acc = h0 * h0
    for n in range(2, 25):
        h0, h1 = h1, np.sqrt(2.0 / n) * x * h1 - np.sqrt((n - 1) / n) * h0
        acc = acc + h1 * h1
    for order in (60, 44, 30):
        off = np.sqrt(np.arange(1, order) / 2.0)
        np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return float(acc[0])


POINTWISE = Calibration(pointwise_kernel, 3.0e-3)
ARRAY = Calibration(array_kernel, 2.5e-3)


class SetupError(Exception):
    """The checkout cannot run the benchmark (e.g. no ``src/wickops``)."""


def import_wickops():
    """Import ``wickops`` from this checkout's ``src``, never from elsewhere."""
    package = SRC / "wickops"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no wickops package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wickops
    import wickops.cli  # noqa: F401 - binds every submodule

    if Path(wickops.__file__).resolve().parent != package.resolve():
        raise SetupError(f"wickops was imported from {wickops.__file__}, not {package}")
    return wickops


def fresh_import():
    """Import numpy and the wickops CLI in a new interpreter, as a user's
    first command does; the caller times it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-s", "-c", "import numpy, wickops.cli"],
                   env=env, cwd=ROOT, check=True, timeout=120)


def clear_caches(package):
    """Empty every lru cache in the package, so the next job starts cold."""
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class JobResult:
    seconds: float
    problems: list = field(default_factory=list)
    output_bytes: int = 0
    # Calibration.speed_factor around the job; None if not measured
    speed_factor: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_seconds(self) -> float:
        """Job time at the reference host speed."""
        return self.seconds * self.speed_factor


def run_job(cli, job) -> JobResult:
    """Run a job's CLI calls, timing only the ``cli.main`` calls, then check it.

    A job fails on a non-zero exit code, on an exception escaping ``main``
    or on a failed output check.
    """
    result = JobResult(0.0)
    for step in job.steps:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(step.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the job fails; the run goes on
                code = f"{type(exc).__name__}: {exc}"
            result.seconds += time.perf_counter() - t0
        if code != 0:
            result.problems.append(f"{step.argv[0]}: exit {code} {err.getvalue().strip()}")
            return result
        result.output_bytes += step.output.stat().st_size
        if step.result_to is not None:
            with open(step.output) as fh:
                step.result_to.write_text(json.dumps(json.load(fh)["result"]))
    result.problems.extend(job.check())
    return result


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }
