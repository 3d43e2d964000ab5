"""Run the CLI over a fixed set of scripts, and compare two such runs.

    python tools/same_output.py run SRC OUT
    python tools/same_output.py diff OLD NEW

`run` writes, for each script, the exit code and the `--json --seed 11`
report of `python -m zkit.cli` with the zkit sources under SRC, minus
each result's `ms`, to OUT/<name>.json.  The scripts are the corpus
(tests/scripts/*.zk) and the bench.gen `ideal-decide` and `points-glue`
scripts of seeds 1-3, generated by importing bench.gen from this
checkout, so two runs read the same scripts.  The verify path runs too:
for each workload and seed, one script verifies the report of each of
its decision scripts (OUT/verify-ideal_decide-1.json and so on), and one
verifies the report files that bench.gen.cert_replay makes of the
seed-1 certificates, tampered copies included (OUT/cert-replay-1.json).

`diff` prints each script whose output differs between two runs, or is
in one of them only, and exits 1 when there is any.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def scripts(out: Path) -> list:
    """(name, path, group) of every script a run reads; generated ones
    are written under out/scripts, and group names the workload and seed
    of a decision script (None for the corpus)."""
    sys.path.insert(0, str(ROOT))
    from bench import gen

    found = [(f"corpus-{p.stem}", p, None)
             for p in sorted((ROOT / "tests" / "scripts").glob("*.zk"))]
    where = out / "scripts"
    where.mkdir(parents=True, exist_ok=True)
    for seed in SEEDS:
        for make in (gen.ideal_decide, gen.points_glue):
            for sc in make(seed):
                path = where / f"{make.__name__}-{seed}-{sc.name}.zk"
                path.write_text(sc.source())
                found.append((path.stem, path, f"{make.__name__}-{seed}"))
    return found


def cli(env: dict, path: Path) -> tuple:
    """The exit code and report minus `ms` of the CLI on one script, and
    the report as printed."""
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", "--json", "--seed", "11",
         path.name], cwd=path.parent, env=env, capture_output=True,
        text=True, timeout=600)
    try:
        report = json.loads(proc.stdout)
        for r in report.get("results", ()):
            r.pop("ms", None)
    except ValueError:
        report = {"stdout": proc.stdout, "stderr": proc.stderr}
    return {"exit": proc.returncode, "report": report}, proc.stdout


def verify_script(where: Path, name: str, reports: dict) -> Path:
    """A script of one verify statement per report text in reports (by
    file stem), written with the reports under where/name; each report is
    named relative to the script, so the echo is the same for every
    run."""
    where = where / name
    where.mkdir(parents=True, exist_ok=True)
    for stem, text in reports.items():
        (where / f"{stem}.json").write_text(text)
    path = where / "verify.zk"
    path.write_text("".join(f'verify "{stem}.json";\n' for stem in reports))
    return path


def replay_reports(outputs: dict) -> dict:
    """The report texts bench.gen.cert_replay makes of the certificates
    of the seed-1 decision scripts' outputs, by file stem."""
    from bench import gen

    certs = [(r["certificate"], True) for name, output in outputs.items()
             if name.startswith(("ideal_decide-1-", "points_glue-1-"))
             for r in output["report"].get("results", ())
             if r.get("certificate") is not None]
    files = gen.cert_replay(1, certs)[0]
    return {f"r{k:04d}": json.dumps({"version": 1, "results": [
        {"cmd": cid, "status": "ok", "result": None, "certificate": cert,
         "ms": 0.0} for cid, cert in group]})
        for k, group in enumerate(files)}


def run(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    outputs, printed = {}, {}
    for name, path, group in scripts(out):
        outputs[name], text = cli(env, path)
        if group is not None:
            printed.setdefault(f"verify-{group}", {})[name] = text
    where = out / "verify"
    for name, reports in printed.items():
        outputs[name] = cli(env, verify_script(where, name, reports))[0]
    outputs["cert-replay-1"] = cli(env, verify_script(
        where, "cert-replay-1", replay_reports(outputs)))[0]
    for name, output in outputs.items():
        (out / f"{name}.json").write_text(json.dumps(output, indent=1))


def diff(old: Path, new: Path) -> int:
    a = {p.name for p in old.glob("*.json")}
    b = {p.name for p in new.glob("*.json")}
    bad = sorted(a ^ b) + sorted(
        n for n in a & b
        if (old / n).read_bytes() != (new / n).read_bytes())
    for n in bad:
        print(f"differs: {n[:-5]}")
    print(f"{len(bad)} of {len(a | b)} script outputs differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("src", type=Path)
    r.add_argument("out", type=Path)
    d = sub.add_parser("diff")
    d.add_argument("old", type=Path)
    d.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        args.out.mkdir(parents=True, exist_ok=True)
        run(args.src, args.out)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
