"""zkit benchmark: seeded workloads driven through the `zkit --json` path.

Usage:
    python3 bench/run.py --workload ideal-decide --seed 1 --seconds 20 --trace 0

Workloads: ideal-decide, points-glue, cert-replay (see bench/README.md).
One client sends one statement at a time (a closed loop); statements go
through dsl.parse -> interp.run_script -> Report.to_json, script by
script, as separate CLI calls would.

A run generates its scripts from the seed, then repeats identical rounds
of them for --seconds, each round in a fresh interpreter that first
warms up on scripts of a different seed.  Rounds never overlap.  Every
time is scaled by a host-speed probe timed around it in the same
process (bench/calib.py); a script's window is then its median over
the rounds, and the statement percentiles are taken over the scaled
statement times of all rounds.  This absorbs the host-speed swings of
a shared machine.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1).  Lines before it say where the
numbers come from: sample counts, failures, Python version, CPU, nproc.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import calib, check, gen  # noqa: E402

WORKLOADS = ("ideal-decide", "points-glue", "cert-replay")
MIN_ROUNDS = 3        # timed rounds per run, even when --seconds is short
MAX_ROUNDS = 40
WARM_SCRIPTS = 3      # warm-up scripts per round, from another seed
VERIFY_PER_SCRIPT = 20
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 10    # children per run that only start and import zkit
SETUP_REF_S = 0.004   # startup-probe time that setup_s is scaled to

E2E = [("verdicts_per_s", "statements/s"), ("stmt_ms_p50", "ms"),
       ("stmt_ms_p95", "ms"), ("certs_verified_per_s", "certs/s"),
       ("cert_kb", "KiB"), ("ok_frac", "ratio"), ("setup_s", "s"),
       ("peak_rss_mb", "MiB")]

LAYER = [
    "poly.buchberger_calls", "poly.buchberger_tracked_ms",
    "poly.buchberger_untracked_ms", "poly.buchberger_total_ms",
    "poly.basis_len_max",
    "poly.p_divmod_calls", "poly.p_divmod_ms", "poly.normal_form_calls",
    "poly.normal_form_ms",
    "ideals.groebner_hit_ratio", "ideals.groebner_miss_ms",
    "ideals.radical_member_ms", "ideals.radical_witness_ms",
    "ideals.ideal_member_ms", "ideals.unimodular_certificate_ms",
    "ideals.power_certificate_calls", "ideals.power_certificate_ms",
    "ideals.saturates_ms",
    "lattice.zar_leq_calls", "lattice.zar_leq_ms", "lattice.zar_eq_top_ms",
    "localization.frac_eq_calls", "localization.frac_eq_ms",
    "gluing.make_cover_ms", "gluing.glue_element_ms",
    "rings.enumerate_homs_ms", "rings.homs_enumerated",
    "rings.make_hom_calls", "rings.make_hom_ms",
    "schemes.points_over_ms", "schemes.point_membership_ms",
    "schemes.qcqs_certificate_ms", "schemes.affine_cover_ms",
    "serialize.verify_certificate_calls", "serialize.verify_certificate_ms",
    "serialize.verify_certificate_total_ms", "serialize.element_from_str_ms",
    "dsl.parse_calls", "dsl.parse_ms", "interp.run_script_self_ms",
    "interp.report_json_ms",
    "trace.overhead_ratio", "failed_frac",
]
# span names whose self time a metric reports, where the names differ
_SPAN_OF = {"ideals.groebner_miss_ms": "ideals.groebner_miss",
            "interp.run_script_self_ms": "interp.run_script"}


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# child processes

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work, tag, scripts, warm=(), trace=False, full=False,
              spans=None):
    out = work / f"{tag}.out.json"
    job = work / f"{tag}.job.json"
    job.write_text(json.dumps({
        "scripts": [str(p) for p in scripts], "warm": [str(p) for p in warm],
        "trace": trace, "full": full, "out": str(out),
        "spans": str(spans) if spans else None}))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", str(job)], cwd=ROOT,
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {tag} took over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"round {tag} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    result = json.loads(out.read_text())
    # fresh interpreter to `import zkit.cli` finished, less the probe
    # before the import, normalized for host speed
    raw = ((result["started"] - spawned)
           + (result["zkit_ready"] - result["import_start"]))
    result["setup_s"] = raw * SETUP_REF_S / result["startup_probe_s"]
    out.unlink()
    job.unlink()
    return result


def compile_once():
    """Import zkit.cli once so that every timed import finds its bytecode;
    a CLI user pays the compilation only on first use."""
    subprocess.run([sys.executable, "-c", "import zkit.cli"], cwd=ROOT,
                   env=_env(), check=True, timeout=CHILD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# workloads

def write_scripts(scripts, where):
    where.mkdir(parents=True, exist_ok=True)
    paths = []
    for sc in scripts:
        path = where / f"{sc.name}.zk"
        path.write_text(sc.source())
        paths.append(path)
    return paths


class Plan:
    """The timed scripts of one run and how to judge their output."""

    def __init__(self, paths, warm, judge):
        self.paths = paths
        self.warm = warm
        self.judge = judge          # round-0 output -> Verdicts


class Verdicts:
    def __init__(self):
        self.attempted = 0
        self.failures = []          # (where, text, reason, known defect)
        self.certs_ok = 0
        self.cert_bytes = 0

    def fail(self, where, text, reason, known=False):
        self.failures.append((where, text[:110], reason, known))


def _decision_plan(work, workload, seed):
    make = gen.ideal_decide if workload == "ideal-decide" else gen.points_glue
    scripts = make(seed)
    warm = make(f"warm-{seed}")[:WARM_SCRIPTS]
    paths = write_scripts(scripts, work / "scripts")
    warm_paths = write_scripts(warm, work / "warm")

    def judge(round0):
        v = Verdicts()
        for sc, rec in zip(scripts, round0["scripts"]):
            v.attempted += len(sc.stmts)
            results = rec.get("results")
            if results is None or len(results) != len(sc.stmts):
                for j, st in enumerate(sc.stmts):
                    v.fail(f"{sc.name}:{j}", st.src,
                           rec.get("crash", "report length differs"))
                continue
            for j, (st, entry) in enumerate(zip(sc.stmts, results)):
                reason = check.check_statement(st.expect, entry)
                cert = entry["certificate"]
                if cert is not None:
                    v.cert_bytes += len(json.dumps(cert))
                    why = check.check_certificate(cert)
                    if why is None:
                        v.certs_ok += 1
                    elif reason is None:
                        reason = f"certificate: {why}"
                elif st.expect.get("cert") and reason is None:
                    reason = "no certificate"
                if reason is not None:
                    v.fail(f"{sc.name}:{j}", st.src, reason)
        return v

    return Plan(paths, warm_paths, judge)


def _replay_set(work, name, records, seed):
    """Write the verify scripts and report files for one seed."""
    certs = []
    for rec in records:
        for entry in rec.get("results") or ():
            cert = entry["certificate"]
            if cert is not None:
                certs.append((cert, check.check_certificate(cert) is None))
    files, expected, kinds = gen.cert_replay(seed, certs)
    reports = work / name / "reports"
    reports.mkdir(parents=True)
    lines, nbytes = [], 0
    for k, group in enumerate(files):
        results = [{"cmd": cid, "status": "ok", "result": None,
                    "certificate": cert, "ms": 0.0} for cid, cert in group]
        nbytes += sum(len(json.dumps(cert)) for _, cert in group)
        (reports / f"r{k:04d}.json").write_text(
            json.dumps({"version": 1, "results": results}))
        lines.append(f'verify "reports/r{k:04d}.json"')
    scripts = [gen.Script(f"verify-{i // VERIFY_PER_SCRIPT:02d}",
                          [gen.Stmt(t) for t in
                           lines[i:i + VERIFY_PER_SCRIPT]])
               for i in range(0, len(lines), VERIFY_PER_SCRIPT)]
    paths = write_scripts(scripts, work / name)
    groups = [[cid for cid, _ in g] for g in files]
    return paths, groups, expected, kinds, nbytes


def _replay_plan(work, seed):
    """Set-up (untimed): run this seed's decision scripts once, keep
    their certificates, add tampered copies and write verify scripts."""
    timed = gen.ideal_decide(seed) + gen.points_glue(seed)
    warm = (gen.ideal_decide(f"warm-{seed}")[:2]
            + gen.points_glue(f"warm-{seed}")[:2])
    paths = write_scripts(timed + warm, work / "setup")
    out = run_child(work, "setup", paths, full=True)["scripts"]
    paths, groups, expected, kinds, nbytes = _replay_set(
        work, "replay", out[:len(timed)], seed)
    warm_paths = _replay_set(work, "replay-warm", out[len(timed):],
                             f"warm-{seed}")[0]

    def judge(round0):
        v = Verdicts()
        v.attempted = len(expected)
        v.cert_bytes = nbytes
        k = 0
        for rec in round0["scripts"]:
            results = rec.get("results") or []
            for entry in results:
                files = groups[k]
                for cid, reason in check.check_verify(files, entry, expected):
                    v.fail(cid, kinds[cid], reason,
                           known=kinds[cid] in gen.KNOWN_UNSOUND
                           and reason == "accepted")
                v.certs_ok += entry["result"].get("checked", 0) \
                    if isinstance(entry["result"], dict) else 0
                k += 1
            if not results:
                for files in groups[k:k + VERIFY_PER_SCRIPT]:
                    for cid in files:
                        v.fail(cid, kinds[cid], rec.get("crash", "no report"))
                k += VERIFY_PER_SCRIPT
        return v

    return Plan(paths, warm_paths, judge)


# ---------------------------------------------------------------------------
# measurement

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def timings(rounds, nscripts, normalize=True):
    """Per script, the median over rounds of its window; the ms of every
    statement in every round; and the number of statements per round.
    With normalize, each time is first scaled by REF_S / probe, the
    host-speed probe timed around that script in the same process."""
    windows, stmt_ms, count = [], [], 0
    for i in range(nscripts):
        recs = [r["scripts"][i] for r in rounds
                if "window_s" in r["scripts"][i]]
        if not recs:
            continue
        scale = [calib.REF_S / r["probe_s"] if normalize else 1.0
                 for r in recs]
        count += len(recs[0]["ms"])
        windows.append(statistics.median(
            r["window_s"] * k for r, k in zip(recs, scale)))
        for r, k in zip(recs, scale):
            stmt_ms.extend(m * k for m in r["ms"])
    return windows, stmt_ms, count


def check_repeats(rounds, verdicts):
    """Every round must give the same answers as round 0."""
    first = rounds[0]["scripts"]
    for r in rounds[1:]:
        for a, b in zip(first, r["scripts"]):
            for j, (x, y) in enumerate(zip(a.get("digest", []),
                                           b.get("digest", []))):
                if x != y:
                    verdicts.fail(f"{Path(a['script']).stem}:{j}", "",
                                  "result differs between rounds")


def measure(plan, work, seconds, trace):
    """SETUP_SAMPLES set-up-only children, then rounds until --seconds
    have passed; with trace, traced and untraced rounds alternate."""
    setups = [run_child(work, f"s{n}", ()) for n in range(SETUP_SAMPLES)]
    rounds, traced = [], []
    deadline = time.perf_counter() + seconds
    need = MIN_ROUNDS + (MIN_ROUNDS - 1 if trace else 0)
    while len(rounds) + len(traced) < MAX_ROUNDS + (MAX_ROUNDS if trace else 0):
        n = len(rounds) + len(traced)
        if n >= need and time.perf_counter() >= deadline:
            break
        if trace and n % 2 == 1:
            traced.append(run_child(work, f"t{n}", plan.paths, plan.warm,
                                    trace=True, spans=work / "spans.json"))
        else:
            rounds.append(run_child(work, f"r{n}", plan.paths, plan.warm,
                                    full=not rounds))
    return rounds, traced, setups


def end_to_end(plan, rounds, traced, setups, verdicts):
    windows, stmt_ms, count = timings(rounds, len(plan.paths))
    busy = sum(windows)
    rss = statistics.median(r["maxrss_kb"] for r in rounds) / 1024
    values = {
        "verdicts_per_s": count / busy,
        "stmt_ms_p50": percentile(stmt_ms, 0.50),
        "stmt_ms_p95": percentile(stmt_ms, 0.95),
        "certs_verified_per_s": verdicts.certs_ok / busy,
        "cert_kb": verdicts.cert_bytes / 1024,
        "ok_frac": 1 - len(verdicts.failures) / verdicts.attempted,
        "setup_s": statistics.median(
            r["setup_s"] for r in setups + rounds + traced),
        "peak_rss_mb": rss,
    }
    return values, stmt_ms, count


def per_layer(plan, rounds, traced, verdicts):
    """Self times and counts (equal in every traced round) of the spans
    the tracer records.  A span's time is the median over traced rounds
    of its time in that round, scaled by REF_S / that round's mean
    host-speed probe."""
    counts = traced[0]["counts"]
    for t in traced[1:]:
        if t["counts"] != counts or any(
                t["self_times"].get(k, [0])[0] != v[0]
                for k, v in traced[0]["self_times"].items()):
            verdicts.fail("trace", "", "counts differ between traced rounds")

    def ms(span, column=1):
        return statistics.median(
            t["self_times"].get(span, [0, 0.0, 0.0])[column] * scale
            for t, scale in zip(traced, scales)) * 1000

    def calls(span):
        return traced[0]["self_times"].get(span, [0])[0]

    scales = [calib.REF_S / statistics.mean(
        r["probe_s"] for r in t["scripts"] if "probe_s" in r)
        for t in traced]
    untraced = sum(timings(rounds, len(plan.paths))[0])
    traced_busy = sum(timings(traced, len(plan.paths))[0])
    hits, misses = counts["groebner_hits"], counts["groebner_misses"]
    values = {}
    for name in LAYER:
        if name == "poly.buchberger_calls":
            v = calls("poly.buchberger_tracked") \
                + calls("poly.buchberger_untracked")
        elif name in counts:
            v = counts[name]
        elif name == "ideals.groebner_hit_ratio":
            v = hits / (hits + misses) if hits + misses else 0.0
        elif name == "trace.overhead_ratio":
            v = untraced / traced_busy
        elif name == "failed_frac":
            v = len(verdicts.failures) / verdicts.attempted
        elif name == "poly.buchberger_total_ms":
            v = ms("poly.buchberger_tracked", 2) \
                + ms("poly.buchberger_untracked", 2)
        elif name.endswith("_total_ms"):
            v = ms(name[:-len("_total_ms")], 2)
        elif name.endswith("_ms"):
            v = ms(_SPAN_OF.get(name, name[:-3]))
        else:
            v = calls(name[:-len("_calls")])
        values[name] = v
    return values


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"python {platform.python_version()} | cpu {cpu} | "
            f"nproc {os.cpu_count()}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zkit" / "__init__.py").is_file():
        raise BenchError(f"no zkit sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    log(f"# {args.workload} seed {args.seed} | {machine()}")
    if args.workload == "cert-replay":
        plan = _replay_plan(work, args.seed)
    else:
        plan = _decision_plan(work, args.workload, args.seed)
    compile_once()
    rounds, traced, setups = measure(plan, work, args.seconds,
                                     bool(args.trace))

    verdicts = plan.judge(rounds[0])
    check_repeats(rounds + traced, verdicts)
    values, stmt_ms, count = end_to_end(plan, rounds, traced, setups,
                                        verdicts)
    raw = timings(rounds, len(plan.paths), normalize=False)[0]
    log(f"# {count / sum(raw):.2f} statements/s before host-speed "
        "normalization")
    log(f"# {len(plan.paths)} scripts, {count} statements timed in each "
        f"of {len(rounds)} untraced and {len(traced)} traced rounds; "
        f"percentiles over all {len(stmt_ms)} untraced statement times "
        f"({len(stmt_ms) - math.ceil(0.95 * len(stmt_ms))} beyond it)")
    for where, text, reason, known in verdicts.failures:
        tag = "known defect" if known else "FAILED"
        log(f"# {tag}: {where} {text} -> {reason}")
    log(f"# failed_frac {len(verdicts.failures) / verdicts.attempted:.4f} "
        f"({len(verdicts.failures)} of {verdicts.attempted} attempted)")
    if args.trace:
        metrics = per_layer(plan, rounds, traced, verdicts)
        units = {name: layer_unit(name) for name in LAYER}
        log(f"# spans in the last traced round: {traced[-1]['spans']} "
            f"(written to {work / 'spans.json'})")
    else:
        metrics = values
        units = dict(E2E)
    for name in metrics:
        log(f"# {name} = {metrics[name]:.6g} {units[name]}")
    failed = sum(1 for *_, known in verdicts.failures if not known)
    print(json.dumps({
        "correct": failed == 0, "attempted": verdicts.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
