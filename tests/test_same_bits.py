import csv
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bits.py"


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))  # it imports compare_reports beside it
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_has_the_same_bits_as_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--small"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("same bits:") and "and 9 reports" in done.stdout


def test_a_changed_output_is_a_difference(monkeypatch, tmp_path):
    same_bits = _tool(monkeypatch)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    same_bits.run_checkout(ROOT, a, same_bits.SMALL)
    assert sorted(p.stem for p in a.glob("*.csv")) == sorted(same_bits.MODES)
    # ted-odd draws 3 x 7 = 21 normals a generation: n * 7 + 1 evaluations a row
    with open(a / "ted-odd.csv", newline="") as fh:
        assert {row["evaluations"] for row in csv.DictReader(fh)} == {"22"}
    shutil.copytree(a, b)
    assert same_bits.difference(a, b) is None

    model = bytearray((b / "model.lama").read_bytes())
    model[-1] ^= 1
    (b / "model.lama").write_bytes(bytes(model))
    assert same_bits.difference(a, b).startswith("files differ")
    shutil.copy(a / "model.lama", b / "model.lama")

    summary = b / "fixed-16b8.txt"
    summary.write_text(summary.read_text().replace("eigenvalue clamps: ", "eigenvalue clamps: 1"))
    assert same_bits.difference(a, b).startswith("summaries differ")
    (b / "fixed-16b8.txt").unlink()
    assert same_bits.difference(a, b).startswith("no summary beside")
