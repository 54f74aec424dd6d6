"""Compare the SQL lexer with its character-loop oracle, stdlib only.

    python3.9 tools/lexer_oracle_check.py

``tests/sqlengine/test_lexer.py`` makes this comparison under pytest
and hypothesis.  This script makes it on any interpreter the package
supports (``requires-python >= 3.9``), even one without numpy, pytest
or hypothesis: it loads ``src/repro/common/errors.py``,
``src/repro/sqlengine/lexer.py`` and ``tests/sqlengine/lexer_oracle.py``
by file path, under empty stand-ins for their packages, so neither
``repro/__init__.py`` nor its third-party imports run.  Compiling the
lexer's pattern is itself the first check: Python 3.9's ``re`` rejects
syntax that later versions accept (possessive ``*+``, atomic ``(?>``).

The corpus is the oracle's ``PINNED`` examples plus seeded random
strings over the characters where the two lexers could part.  Exit
status 1 on the first divergence, with the text and both outcomes.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Characters of the random corpus: quote and bracket runs, signs,
#: dots, digits (ASCII, superscript, Arabic-Indic), letters that
#: change under ``upper()``, NBSP and control whitespace.
ALPHABET = "'[]-.05a_Sx =<>!();,*\n²٣ßſ\xa0\x1c"
RANDOM_TEXTS = 20_000


def _load(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def main() -> int:
    for package in ("repro", "repro.common", "repro.sqlengine"):
        stand_in = types.ModuleType(package)
        stand_in.__path__ = []  # a package, so submodules may load
        sys.modules[package] = stand_in
    _load("repro.common.errors", ROOT / "src/repro/common/errors.py")
    lexer = _load("repro.sqlengine.lexer", ROOT / "src/repro/sqlengine/lexer.py")
    oracle = _load("lexer_oracle", ROOT / "tests/sqlengine/lexer_oracle.py")

    rng = random.Random(0)
    texts = list(oracle.PINNED) + [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(12)))
        for _ in range(RANDOM_TEXTS)
    ]
    errors = 0
    for text in texts:
        got = oracle.outcome(lexer.tokenize, text)
        want = oracle.outcome(oracle.tokenize, text)
        if got != want:
            print(f"DIVERGES on {text!r}:\n  lexer  {got}\n  oracle {want}")
            return 1
        errors += isinstance(want, tuple)
    print(f"python {sys.version.split()[0]}: lexer == oracle on "
          f"{len(texts)} texts ({len(oracle.PINNED)} pinned, "
          f"{errors} syntax errors)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
