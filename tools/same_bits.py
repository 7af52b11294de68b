"""Check that two checkouts give the same bits on the README harness.

    python3 tools/same_bits.py PARENT CHANGE          # seed-14 harness, k=16, n=8
    python3 tools/same_bits.py PARENT CHANGE --small  # a 4-class task, k=4, n=3

In each checkout, with its own ``src`` on the import path, runs ``gen``,
``fit`` and then ``adapt`` in the modes none, ted, ted at ``--k 3 --lambda
7`` (21 normals a generation, so that a spare carries from one generation
into the next), qted-v1, qted-v1 with ``--binary-feedback --alpha 0.5``
(the snapped points are the candidates ``tell`` ranks), fixed 8b4, fixed
16b8, fixed 4b2 (the format that saturates most, so its saturating sums are
replayed most often) and fixed 8b0 (no integer bits: 1.0 saturates, so the
search starts from a covariance register below the identity), each in a
fresh temporary directory. Exits 0 only when every ``gen`` file and
``model.lama`` are byte-identical and every report and its summary match by
``tools/compare_reports.py`` (all but the wall-clock column and line);
exits 1 and prints the first difference otherwise; exits 2 when a command
fails in either checkout. Standard library only, so it runs against any
checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_reports import Unreadable, first_difference

HARNESS = {"gen": ["--classes", "10", "--dim", "64", "--per-class", "200",
                   "--target-per-class", "20", "--severity", "1.0", "--seed", "14"],
           "fit": ["--k", "16"], "adapt": ["--n", "8", "--seed", "14"]}
SMALL = {"gen": ["--classes", "4", "--dim", "16", "--per-class", "40",
                 "--target-per-class", "10", "--severity", "1.0", "--seed", "14"],
         "fit": ["--k", "4"], "adapt": ["--n", "3", "--seed", "14"]}
MODES = {"none": ["none"], "ted": ["ted"], "ted-odd": ["ted", "--k", "3", "--lambda", "7"],
         "qted-v1": ["qted-v1"],
         "qted-v1-feedback": ["qted-v1", "--binary-feedback", "--alpha", "0.5"],
         "fixed-8b4": ["fixed", "--fmt", "8b4"], "fixed-16b8": ["fixed", "--fmt", "16b8"],
         "fixed-4b2": ["fixed", "--fmt", "4b2"], "fixed-8b0": ["fixed", "--fmt", "8b0"]}

# runs the CLI of the checkout whose src is argv[1], refusing any other copy
_RUN = """import sys
from pathlib import Path
import latentadapt
src = Path(sys.argv[1]).resolve()
if src not in Path(latentadapt.__file__).resolve().parents:
    sys.exit(f"latentadapt imported from {latentadapt.__file__}, not {src}")
from latentadapt.cli import main
sys.exit(main(sys.argv[2:]))
"""


class CommandFailed(Exception):
    """A command that exited non-zero; the message names it and its output."""


def run_checkout(checkout: Path, out: Path, task: dict) -> None:
    """Run gen, fit and every mode's adapt of ``checkout`` into ``out``."""
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    data, model = out / "data", out / "model.lama"
    commands = [["gen", "--out", str(data), *task["gen"]],
                ["fit", str(data / "source_train.latf"), "--out", str(model), *task["fit"]]]
    for name, mode in MODES.items():
        commands.append(["adapt", str(model), str(data / "target_combined.latf"),
                         "--mode", *mode, "--out", str(out / f"{name}.csv"), *task["adapt"]])
    for argv in commands:
        done = subprocess.run([sys.executable, "-c", _RUN, str(src), *argv], env=env,
                              cwd=out, capture_output=True, text=True)
        if done.returncode != 0:
            raise CommandFailed(f"{checkout}: {argv[0]} exited {done.returncode}:\n"
                                f"{done.stderr.strip()}")


def difference(a: Path, b: Path) -> str | None:
    """The first difference between two runs' outputs, or None."""
    a_gen = sorted(p.name for p in (a / "data").iterdir())
    b_gen = sorted(p.name for p in (b / "data").iterdir())
    if a_gen != b_gen:
        return f"gen wrote different files: {a_gen} and {b_gen}"
    for path in [Path("data", name) for name in a_gen] + [Path("model.lama")]:
        if (a / path).read_bytes() != (b / path).read_bytes():
            return f"files differ: {a / path} {b / path}"
    for name in MODES:
        for side in (a, b):
            if not (side / f"{name}.txt").is_file():
                return f"no summary beside {side / f'{name}.csv'}"
        found = first_difference(str(a / f"{name}.csv"), str(b / f"{name}.csv"))
        if found:
            return found
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--small", action="store_true",
                        help="a 4-class task at k=4, n=3 instead of the harness")
    args = parser.parse_args(argv)
    task = SMALL if args.small else HARNESS
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        outs = [Path(tmp, "parent"), Path(tmp, "change")]
        try:
            for checkout, out in zip((args.parent, args.change), outs):
                out.mkdir()
                run_checkout(checkout.resolve(), out, task)
            found = difference(*outs)
        except (CommandFailed, Unreadable) as exc:
            print(exc, file=sys.stderr)
            return 2
    if found:
        print(found)
        return 1
    print(f"same bits: gen files, model.lama and {len(MODES)} reports with their summaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
