"""The system under test as its own processes, and what /proc says about them.

Every system process is started in a fresh session
(``start_new_session=True``), so the system is exactly the set of
processes whose session id is the launched pid: the gateway and the
replica workers it spawns, or one ``repro serve`` process, or the
perplexity worker. CPU and peak RSS are summed over that set only; the
load generator (this process) is measured on its own.

CPU seconds come from ``utime + stime`` in ``/proc/<pid>/stat``, which
the kernel's paravirt accounting reports without steal. Steal over an
interval comes from the ``cpu`` line of ``/proc/stat``.
"""

from __future__ import annotations

import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Knobs stripped from the system's environment (and this process's):
#: every ``REPRO_*`` switch and anything that re-routes the interpreter
#: or the BLAS thread pools, so a developer's shell cannot change the
#: measured program.
_STRIP_PREFIXES = ("REPRO_",)
_STRIP_KEYS = ("PYTHONPATH", "PYTHONOPTIMIZE", "PYTHONDEVMODE",
               "PYTHONWARNINGS", "PYTHONMALLOC", "PYTHONHASHSEED",
               "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
#: Keys whose values go into the run record (never the whole shell env).
_RECORD_PREFIXES = ("REPRO_", "PYTHON", "TMPDIR") + _STRIP_KEYS


def _stripped(key: str) -> bool:
    return key.startswith(_STRIP_PREFIXES) or key in _STRIP_KEYS


def scrub_own_env() -> list[str]:
    """Remove stripped knobs from this process; returns their names."""
    gone = sorted(k for k in os.environ if _stripped(k))
    for key in gone:
        del os.environ[key]
    return gone


def system_env(root: str, outdir: str, extra: dict | None = None) -> dict:
    """The environment every system process starts with."""
    env = {k: v for k, v in os.environ.items() if not _stripped(k)}
    tmp = os.path.join(outdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(PYTHONPATH=os.path.join(root, "src"), TMPDIR=tmp,
               PYTHONUNBUFFERED="1")
    env.update(extra or {})
    return env


def recorded_env(env: dict) -> dict:
    return {k: v for k, v in sorted(env.items())
            if k.startswith(_RECORD_PREFIXES)}


def host_stamp() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_model": model,
            "kernel": platform.release()}


def steal_s() -> float:
    """Cumulative steal seconds of the whole machine."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


#: The CPU-speed reference: a fixed pure-Python loop, run in chunks
#: pinned in turn to each CPU this process may use and timed in thread
#: CPU time. Its nominal chunk time is about what one chunk takes on an
#: uncontended core of the 2-vCPU Xeon host the bounds were tuned on;
#: only the ratio matters when two runs are compared.
REF_CHUNK_ITERS = 200_000
REF_CHUNKS = 5
REF_NOMINAL_S = 0.010


def cpu_slowness() -> float:
    """How much CPU time a fixed piece of work costs right now, over its
    nominal cost (1.0 nominal, 1.3 = 30% more): the median chunk CPU
    time of the reference loop per CPU, averaged over CPUs.

    Neighbours that share a core (a busy sibling hyperthread) make every
    instruction cost more CPU time, so CPU seconds per request rise with
    their load even though steal is kept out of CPU time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            chunks = []
            for _ in range(REF_CHUNKS):
                t0 = time.thread_time()
                x = 0
                for i in range(REF_CHUNK_ITERS):
                    x += i
                chunks.append(time.thread_time() - t0)
            per_cpu.append(statistics.median(chunks))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu) / REF_NOMINAL_S


def unstolen_share(cpu_s: float, steal: float) -> float:
    """The share of a wall-clock interval its work was not stolen from:
    CPU seconds used over CPU seconds used plus steal seconds suffered.

    Steal accrues only while a vCPU has work, so counting it as CPU
    time the work wanted models the wall-clock time the interval would
    have taken without it: ``wall * cpu_s / (cpu_s + steal)``.
    """
    return cpu_s / (cpu_s + steal) if cpu_s > 0 else 1.0


def own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


class System:
    """One launched system: a process tree in its own session."""

    def __init__(self, name: str, argv: list[str], *, root: str,
                 outdir: str, env: dict, stdin=None) -> None:
        self.name = name
        self.argv = argv
        self.root = root
        self.env = env
        self.out_path = os.path.join(outdir, f"{name}.out")
        self.err_path = os.path.join(outdir, f"{name}.err")
        self._stdin = stdin
        self.proc: subprocess.Popen | None = None
        self.t_launch = 0.0

    def start(self) -> "System":
        out = open(self.out_path, "wb")
        err = open(self.err_path, "wb")
        try:
            self.t_launch = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=self.env,
                stdin=self._stdin or subprocess.DEVNULL,
                stdout=subprocess.PIPE if self._stdin else out,
                stderr=err, start_new_session=True)
        finally:
            out.close()
            err.close()
        return self

    def wait_ready(self, pattern: str, timeout_s: float = 120.0) -> re.Match:
        """Poll the system's stdout file until ``pattern`` appears."""
        rx = re.compile(pattern)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.out_path, "rb") as f:
                match = rx.search(f.read().decode("utf-8", "replace"))
            if match:
                return match
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"{self.name} never became ready "
                           f"(exit {self.proc.poll()}); see {self.err_path}")

    # -- accounting ----------------------------------------------------
    def pids(self) -> list[int]:
        """Live processes of this system's session, leader first."""
        leader = self.proc.pid
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            fields = _stat_fields(int(entry))
            if fields and int(fields[3]) == leader and fields[0] != "Z":
                found.append(int(entry))
        return sorted(found, key=lambda p: (p != leader, p))

    def cpu_s(self, pids: list[int] | None = None) -> dict[int, float]:
        """CPU seconds (user + system) per live process."""
        out = {}
        for pid in self.pids() if pids is None else pids:
            fields = _stat_fields(pid)
            if fields:
                out[pid] = (int(fields[11]) + int(fields[12])) / CLK_TCK
        return out

    def hwm_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the system's processes, MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                pass
        return total_kb / 1024.0

    # -- lifecycle -----------------------------------------------------
    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM the leader (graceful drain), SIGKILL whatever of the
        session is left after ``timeout_s``, and wait until all is gone."""
        if self.proc is None:
            return
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + timeout_s
        while (rest := self.pids()) or self.proc.poll() is None:
            if time.monotonic() > deadline:
                for pid in rest + [self.proc.pid]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if time.monotonic() > deadline + timeout_s:
                    raise RuntimeError(f"{self.name}: processes {rest} "
                                       f"survived SIGKILL")
            time.sleep(0.01)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]
