"""Run one command; report its wall time, its own peak RSS and the machine
speed on its CPU while it ran.

    python3 perfbench/launch.py LOG -- PROGRAM ARGS...

Linux charges a process with the peak RSS of the image it replaced at exec,
that is, of the process that spawned it.  run.py has numpy and railplan
imported, so a command it spawned directly would report the RSS of run.py
whenever that is the larger.  This launcher imports only the standard
library, so the command it spawns reports its own peak.

The VM the benchmark was written on changes speed by up to 1.8x every few
seconds, on each vCPU separately.  So the launcher pins itself, and with it
the command, to the CPU it starts on, drops to the lowest priority and runs
the reference work of calibrate.py while the command runs.  At nice 19 it
gets about 1.5 % of that CPU, in short slices spread over the whole run, and
slows down exactly when the command does.  Its mean CPU seconds per unit is
the speed the command saw.

The command's output goes to LOG; one JSON line (exit code, wall seconds from
spawn to exit, peak RSS in MB, mean seconds per reference unit, units run)
goes to standard output.
"""

import json
import os
import sys
import time

import calibrate

# reference units run at least, topped up after the command exits if it
# was too short to leave the launcher this many slices
MIN_UNITS = 20


def current_cpu() -> int:
    """The CPU this process is running on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def main(argv: list[str]) -> int:
    log, sep, command = argv[0], argv[1], argv[2:]
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {current_cpu()})
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    started = time.perf_counter()
    pid = os.posix_spawnp(
        command[0],
        command,
        os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
    )
    os.nice(19)
    units: list[float] = []
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        units.append(calibrate.unit())
    wall = time.perf_counter() - started
    os.close(fd)
    while len(units) < MIN_UNITS:
        units.append(calibrate.unit())
    print(
        json.dumps(
            {
                "exit": os.waitstatus_to_exitcode(status),
                "run_s": wall,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "unit_s": sum(units) / len(units),
                "units": len(units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
