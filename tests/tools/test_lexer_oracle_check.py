"""``tools/lexer_oracle_check.py`` runs without the package's imports
and fails on a lexer that parts from the oracle."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = Path("tools") / "lexer_oracle_check.py"
FILES = (TOOL, Path("src/repro/common/errors.py"),
         Path("src/repro/sqlengine/lexer.py"),
         Path("tests/sqlengine/lexer_oracle.py"))


def run(root):
    return subprocess.run(
        [sys.executable, "-S", str(root / TOOL)],
        capture_output=True, text=True, timeout=120,
    )


def copy(tmp_path):
    for path in FILES:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / path, tmp_path / path)
    return tmp_path


def test_agrees_on_the_corpus_without_site_packages(tmp_path):
    done = run(copy(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "lexer == oracle" in done.stdout


def test_a_seeded_divergence_fails(tmp_path):
    root = copy(tmp_path)
    lexer = root / "src/repro/sqlengine/lexer.py"
    text = lexer.read_text()
    assert "(-?[0-9]+" in text
    lexer.write_text(text.replace("(-?[0-9]+", r"(-?\d+", 1))
    done = run(root)
    assert done.returncode == 1
    assert "DIVERGES" in done.stdout
