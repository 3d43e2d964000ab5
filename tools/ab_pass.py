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

`--workload cert-replay` times the verify path instead.  Tree A runs the
seed-1 scripts of both decision workloads once; their certificates,
tampered copies included, become the report files that
tools/same_output.replay_reports makes, written to the temporary
directory.  The timed scripts are verify statements over those files,
VERIFY_PER_SCRIPT to a script as bench/run.py groups them, run with
Options(base_dir=...) so that both trees read the same files.

The two trees' reports, minus each result's `ms`, must be equal.  The
last lines give the sum of the best times of each tree and their ratio
OLD / NEW (above 1 when NEW is faster); the exit code is 1 when the
outputs differ.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
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
    """(seconds, report without ms) of one script under one tree, with
    relative verify paths read under base_dir."""
    dsl, interp = tree
    t0 = perf_counter()
    report = interp.run_script(dsl.parse(source),
                               interp.Options(base_dir=base_dir))
    data = report.to_json()
    json.dumps(data, indent=2, default=str)
    elapsed = perf_counter() - t0
    for r in data.get("results", ()):
        r.pop("ms", None)
    return elapsed, data


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
        base_dir = Path(tmp) / "reports" if replay else None
        work = (replay_scripts(trees[0], base_dir) if replay
                else scripts(args.workload, args.seed))
        best = [[float("inf")] * len(work) for _ in trees]
        outputs = [[None] * len(work) for _ in trees]
        for rnd in range(args.rounds):
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            for k, (_, source) in enumerate(work):
                for t in order:
                    elapsed, data = run(trees[t], source, base_dir)
                    best[t][k] = min(best[t][k], elapsed)
                    outputs[t][k] = data
    differ = [name for (name, _), a, b in zip(work, *outputs) if a != b]
    for name in differ:
        print(f"output differs: {name}")
    old, new = (sum(b) * 1e3 for b in best)
    print(f"{args.workload} seed {args.seed}: {len(work)} scripts, "
          f"best of {args.rounds} rounds each")
    print(f"old {old:.2f} ms  new {new:.2f} ms  old/new {old / new:.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
