"""The SQL tokenizer as a character loop: the oracle for ``lexer.tokenize``.

One branch per token kind, chosen by the current character, reading
with ``str`` predicates (``isspace``, ``isalpha``, ``isalnum``) rather
than regular expressions.  ``tokenize`` must give the same
``(kind, value, position)`` list on every input, or raise
:class:`SQLSyntaxError` with the same message and offset
(``test_lexer.py``'s ``TestRegexLexerMatchesTheOracle``).

Imports only the lexer's token class and kinds and the error class, so
``tools/lexer_oracle_check.py`` can load it by file path on an
interpreter without the package's third-party dependencies.
"""

from __future__ import annotations

from typing import Union

from repro.common.errors import SQLSyntaxError
from repro.sqlengine.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    OP,
    PUNCT,
    STRING,
    Token,
)

_PUNCT_CHARS = "(),*;."
_OP_START = "=<>!"

#: Inputs where a regular expression and the character loop are
#: easiest to tell apart: Unicode digits and letters, control
#: whitespace, quote and bracket runs, comments at the end of input,
#: and signs next to digits.
PINNED = (
    "²", "x²", "٣", "a٣", "ß", "SELECT ßeta FROM t", " ", "a b",
    "\x1c", "a\x1cb", "'a''", "'a'''", "'a''b'", "''", "'", "'''", "--",
    "a --", "a --\nb", "5.", "5.5.5", ".5", "a-5", "a - 5", "-", "--5",
    "!=", "!", "! =", "<>=", "[a]]b]", "[a]]", "[a]]]", "[]]", "[]", "[", "]",
    "ſelect", "ǅ", "_", "_٣", "SELECT * FROM t WHERE a = 'x' -- c",
)


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``; returns a list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch, start = text[i], i
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            # Line comment.
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token(STRING, value, start))
            continue
        if _is_ascii_digit(ch) or (
            ch == "-" and i + 1 < n and _is_ascii_digit(text[i + 1])
        ):
            number, i = _read_number(text, i)
            tokens.append(Token(NUMBER, number, start))
            continue
        if ch == "[":
            value, i = _read_identifier(text, i)
            tokens.append(Token(IDENT, value, start))
            continue
        if ch.isalpha() or ch == "_":
            value, i = _read_identifier(text, i)
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, start))
            else:
                tokens.append(Token(IDENT, value, start))
            continue
        if ch in _OP_START:
            value, i = _read_operator(text, i)
            tokens.append(Token(OP, value, start))
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token(PUNCT, ch, start))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(EOF, None, n))
    return tokens


def _is_ascii_digit(ch: str) -> bool:
    """ASCII digits only: ``str.isdigit`` accepts characters like '²'
    that ``int()`` rejects."""
    return "0" <= ch <= "9"


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``start``."""
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", start)


def _read_number(text: str, start: int) -> tuple[Union[int, float], int]:
    """Read an integer or float (optionally negative)."""
    i = start
    if text[i] == "-":
        i += 1
    n = len(text)
    while i < n and _is_ascii_digit(text[i]):
        i += 1
    is_float = False
    if (i < n and text[i] == "." and i + 1 < n
            and _is_ascii_digit(text[i + 1])):
        is_float = True
        i += 1
        while i < n and _is_ascii_digit(text[i]):
            i += 1
    raw = text[start:i]
    return (float(raw) if is_float else int(raw)), i


def _read_identifier(text: str, start: int) -> tuple[str, int]:
    """Read an identifier, including the ``[bracketed]`` T-SQL form,
    in which ``]]`` stands for one ``]``."""
    n = len(text)
    if text[start] == "[":
        i = start + 1
        parts: list[str] = []
        while i < n:
            ch = text[i]
            if ch == "]":
                if i + 1 < n and text[i + 1] == "]":
                    parts.append("]")
                    i += 2
                    continue
                return "".join(parts), i + 1
            parts.append(ch)
            i += 1
        raise SQLSyntaxError("unterminated [identifier]", start)
    i = start
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return text[start:i], i


def _read_operator(text: str, start: int) -> tuple[str, int]:
    """Read one of = <> < <= > >= != (normalising != to <>)."""
    two = text[start : start + 2]
    if two in ("<>", "<=", ">=", "!="):
        return ("<>" if two == "!=" else two), start + 2
    one = text[start]
    if one in "=<>":
        return one, start + 1
    raise SQLSyntaxError(f"unexpected operator start {one!r}", start)


def outcome(tokenize_fn, text: str) -> object:
    """What ``tokenize_fn`` makes of ``text``: its ``(kind, value,
    position)`` triples, or the ``SQLSyntaxError``'s message and
    offset.  A value's type is part of it (5 is not 5.0)."""
    try:
        tokens = tokenize_fn(text)
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)
    return [
        (t.kind, type(t.value).__name__, t.value, t.position) for t in tokens
    ]
