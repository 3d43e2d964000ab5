"""One measurement round, in a fresh interpreter.

Usage: python3 -m bench.child JOB.json

The job names warm-up scripts, timed scripts and an output file.  Each
script goes through the path `zkit script.zk --json` takes: dsl.parse,
interp.run_script and the JSON report.  The timed window is exactly
that, i.e. cli.main minus reading the file and printing.  Warm-up
scripts come from a different seed, so no zkit cache they fill is hit
by the timed scripts.  The host-speed probe (bench/calib.py) is timed
before the first timed script and after every one.

`import zkit.cli` (the package and everything the `zkit` command loads)
comes first.  The child reports, on the system-wide monotonic clock,
when its own code started and when the import began and finished, so
the parent can tell how long a fresh interpreter took to get there.
A small probe on builtins only, so that it loads no module zkit might
load, is timed just before and just after the import; the parent
scales the set-up time by it for host speed.
"""
from __future__ import annotations

import time


def startup_probe():
    """Fixed dict, tuple and string work on builtins, in seconds."""
    t0 = time.perf_counter()
    for _ in range(3):
        d = {}
        for i in range(3000):
            key = (i % 17, i % 5)
            d[key] = d.get(key, 0) + i * 3
        "".join(sorted(str(v) for v in d.values())).split("1")
    return time.perf_counter() - t0


STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)
PROBE_BEFORE = startup_probe()
IMPORT_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import zkit.cli  # noqa: E402  (timed: what a CLI call pays)

ZKIT_READY = time.clock_gettime(time.CLOCK_MONOTONIC)
PROBE_AFTER = startup_probe()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from bench.calib import probe  # noqa: E402


def _run(dsl, interp, path):
    source = path.read_text()
    t0 = perf_counter()
    report = interp.run_script(dsl.parse(source),
                               interp.Options(base_dir=path.parent))
    text = json.dumps(report.to_json(), indent=2, default=str)
    return perf_counter() - t0, text


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    dsl, interp = zkit.dsl, zkit.interp
    tracer = None
    if job["trace"]:
        from bench.trace import Tracer
        tracer = Tracer()
        tracer.install()
    for path in job["warm"]:
        _run(dsl, interp, Path(path))
    if tracer is not None:
        tracer.reset()
    out = []
    before = probe()
    for path in job["scripts"]:
        rec = {"script": path}
        try:
            window, text = _run(dsl, interp, Path(path))
        except Exception as exc:  # a traceback escaping run_script
            rec["crash"] = "".join(traceback.format_exception_only(exc)).strip()
            print(f"{path}: {rec['crash']}", file=sys.stderr)
            out.append(rec)
            continue
        after = probe()
        rec["probe_s"] = (before + after) / 2
        before = after
        report = json.loads(text)
        results = report["results"]
        rec["window_s"] = window
        rec["ms"] = [r["ms"] for r in results]
        rec["status"] = [r["status"] for r in results]
        rec["digest"] = [hashlib.sha1(json.dumps(
            [r["cmd"], r["status"], r["result"], r["certificate"]],
            sort_keys=True, default=str).encode()).hexdigest()[:16]
            for r in results]
        if job["full"]:
            rec["results"] = results
        out.append(rec)
    summary = {"scripts": out, "started": STARTED,
               "import_start": IMPORT_START, "zkit_ready": ZKIT_READY,
               "startup_probe_s": (PROBE_BEFORE + PROBE_AFTER) / 2,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        summary["self_times"] = tracer.self_times()
        summary["counts"] = {"poly.basis_len_max": tracer.basis_len_max,
                             "rings.homs_enumerated": tracer.homs_enumerated,
                             "groebner_hits": tracer.groebner_hits,
                             "groebner_misses": tracer.groebner_misses}
        summary["spans"] = len(tracer.start)
        if job.get("spans"):
            tracer.dump(job["spans"])
    Path(job["out"]).write_text(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1])
