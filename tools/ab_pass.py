"""Time two zkit source trees against each other in one interpreter.

    python tools/ab_pass.py OLD_SRC NEW_SRC [--workload points-glue]
                            [--seed 1] [--rounds 20]
    python tools/ab_pass.py OLD_SRC NEW_SRC --workload cert-replay

Each tree's `zkit` package is copied under its own name (`zkit_a` for
OLD_SRC, `zkit_b` for NEW_SRC) into a temporary directory, without its
`__pycache__`, and both are imported here; zkit imports itself only
relatively, so the two copies share no module.  The bench.gen scripts
of one decision workload and seed, generated as tools/same_output.py
generates them, go through the path the benchmark times: dsl.parse,
interp.run_script and the JSON text of Report.to_json.  The trees
alternate script by script, and the one that goes first alternates
from round to round; each script keeps its best time over the rounds,
so a slow spell of a shared host costs both trees alike and drops out.

`--workload cert-replay` times the verify path instead.  Each tree runs
the seed-1 scripts of both decision workloads once; its certificates,
tampered copies included, become the report files that
tools/same_output.replay_reports makes, written to a directory of that
tree's own.  The timed scripts are verify statements over those files,
VERIFY_PER_SCRIPT to a script as bench/run.py groups them, run with
Options(base_dir=...) so that each tree verifies the certificates it
writes, as bench/run.py does: after a change to a certificate format,
the other tree's certificates would be refused at the first unknown
key, and the ratio would time the refusal.

The two trees' reports, minus each result's `ms`, must be equal.  A
table follows with one row per statement kind (the first word of each
result's `cmd`): the sum over its statements of each tree's best `ms`
over the rounds, and their ratio, which shows where a saving sits.  The
line after it gives each tree's median statement `ms` (the lower median
of every statement's best `ms`, the nearest-rank median that
bench/run.py reports as `stmt_ms_p50`) and their ratio.  The last line
gives the sum of the best times of each tree and their ratio OLD / NEW
(above 1 when NEW is faster); the exit code is 1 when the outputs
differ.

Best-of-rounds in one interpreter credits a module-level cache with hits
across rounds, and bench/run.py, whose every round starts a fresh
process, never gets them.  The change that made `check` decide through
the witness route's unit test read 0.994 here on `ideal-decide`, while
bench/run.py read 1378 -> 1305 statements/s (-5.3%): each decision left
a localization in a module-level LRU, which later rounds hit.  So a
change to caching is judged by alternating pairs of bench/run.py runs,
not by this ratio.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ideal-decide", "points-glue", "cert-replay")
VERIFY_PER_SCRIPT = 20


def scripts(workload: str, seed: int) -> list:
    """(name, source) of the workload's bench.gen scripts for seed."""
    sys.path.insert(0, str(ROOT))
    from bench import gen

    make = {"ideal-decide": gen.ideal_decide,
            "points-glue": gen.points_glue}[workload]
    return [(sc.name, sc.source()) for sc in make(seed)]


def replay_scripts(tree, where: Path) -> list:
    """(name, source) of verify scripts over the seed-1 replay report
    files, built from tree's decision outputs and written under where."""
    sys.path.insert(0, str(ROOT / "tools"))
    from same_output import replay_reports

    outputs = {f"{w.replace('-', '_')}-1-{name}":
               {"report": run(tree, src)[1]}
               for w in ("ideal-decide", "points-glue")
               for name, src in scripts(w, 1)}
    where.mkdir()
    lines = []
    for stem, text in replay_reports(outputs).items():
        (where / f"{stem}.json").write_text(text)
        lines.append(f'verify "{stem}.json";\n')
    return [(f"verify-{i // VERIFY_PER_SCRIPT:02d}",
             "".join(lines[i:i + VERIFY_PER_SCRIPT]))
            for i in range(0, len(lines), VERIFY_PER_SCRIPT)]


def load(src: Path, name: str, where: Path):
    """The dsl and interp modules of src's zkit, imported as `name`."""
    shutil.copytree(src / "zkit", where / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.dsl"),
            importlib.import_module(f"{name}.interp"))


def run(tree, source: str, base_dir: Path = None):
    """(seconds, report without ms, (kind, ms) of each statement) of one
    script under one tree, with relative verify paths read under
    base_dir; a statement's kind is the first word of its cmd."""
    dsl, interp = tree
    t0 = perf_counter()
    report = interp.run_script(dsl.parse(source),
                               interp.Options(base_dir=base_dir))
    data = report.to_json()
    json.dumps(data, indent=2, default=str)
    elapsed = perf_counter() - t0
    stmts = [(r["cmd"].split()[0], r.pop("ms"))
             for r in data.get("results", ())]
    return elapsed, data, stmts


def ratio(old: float, new: float) -> str:
    return f"{old / new:8.3f}" if new else f"{'-':>8}"


def kind_table(stmt_best) -> list:
    """Lines of the per-kind table: for each statement kind, each tree's
    sum of its statements' best ms and the ratio old / new, the kind
    with the most old time first."""
    sums = {}
    for t, scripts in enumerate(stmt_best):
        for stmts in scripts:
            for kind, ms in stmts:
                sums.setdefault(kind, [0.0, 0.0])[t] += ms
    lines = [f"{'kind':<16} {'old ms':>10} {'new ms':>10} {'old/new':>8}"]
    for kind, (old, new) in sorted(sums.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{kind:<16} {old:10.2f} {new:10.2f} {ratio(old, new)}")
    return lines


def median_line(stmt_best) -> str:
    """Each tree's median statement ms, and their ratio old / new."""
    old, new = (statistics.median_low([ms for stmts in scripts
                                       for _, ms in stmts])
                for scripts in stmt_best)
    return (f"median statement ms: old {old:.4f}  new {new:.4f}  "
            f"old/new {ratio(old, new).strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="src directory of tree A")
    ap.add_argument("new", type=Path, help="src directory of tree B")
    ap.add_argument("--workload", choices=WORKLOADS, default="points-glue")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    replay = args.workload == "cert-replay"
    if replay and args.seed != 1:
        ap.error("cert-replay has seed-1 report files only")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = [load(args.old, "zkit_a", Path(tmp)),
                 load(args.new, "zkit_b", Path(tmp))]
        if replay:
            dirs = [Path(tmp) / f"reports_{t}" for t in "ab"]
            works = [replay_scripts(tree, d) for tree, d in zip(trees, dirs)]
            if [n for n, _ in works[0]] != [n for n, _ in works[1]]:
                print("the trees write different numbers of certificates")
                return 1
        else:
            dirs, works = [None, None], [scripts(args.workload, args.seed)] * 2
        work = works[0]
        best = [[float("inf")] * len(work) for _ in trees]
        outputs = [[None] * len(work) for _ in trees]
        stmt_best = [[None] * len(work) for _ in trees]
        for rnd in range(args.rounds):
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            for k in range(len(work)):
                for t in order:
                    elapsed, data, stmts = run(trees[t], works[t][k][1],
                                               dirs[t])
                    best[t][k] = min(best[t][k], elapsed)
                    outputs[t][k] = data
                    kept = stmt_best[t][k] or stmts
                    stmt_best[t][k] = [(kind, min(ms, was)) for (kind, ms),
                                       (_, was) in zip(stmts, kept)]
    differ = [name for (name, _), a, b in zip(work, *outputs) if a != b]
    for name in differ:
        print(f"output differs: {name}")
    old, new = (sum(b) * 1e3 for b in best)
    print(f"{args.workload} seed {args.seed}: {len(work)} scripts, "
          f"best of {args.rounds} rounds each")
    print("\n".join(kind_table(stmt_best)))
    print(median_line(stmt_best))
    print(f"old {old:.2f} ms  new {new:.2f} ms  old/new {old / new:.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
