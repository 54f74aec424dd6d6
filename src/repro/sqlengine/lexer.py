"""Tokenizer for the SQL subset.

Produces a flat list of :class:`Token`.  Keywords are recognised
case-insensitively; identifiers keep their original spelling, and a
``[bracketed]`` identifier is always an identifier — the way to name a
column ``group``.  String literals use single quotes with ``''``
escaping, as in T-SQL.
"""

from __future__ import annotations

from typing import Union

from ..common.errors import SQLSyntaxError

#: Payload of one token: keyword/identifier/operator text, a numeric
#: literal, or None for EOF.
TokenValue = Union[str, int, float, None]

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "UNION", "ALL",
        "AS", "AND", "OR", "NOT", "IN", "COUNT", "SUM", "MIN", "MAX",
        "AVG", "CREATE", "TABLE", "INDEX", "ON", "INSERT", "INTO",
        "VALUES", "NULL", "DROP", "DISTINCT", "ASC", "DESC", "LIMIT",
        "JOIN", "INNER", "DELETE", "EXPLAIN", "USING",
    }
)

# Token kinds
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
EOF = "EOF"

_PUNCT_CHARS = "(),*;."
_OP_START = "=<>!"


def _is_ascii_digit(ch: str) -> bool:
    """ASCII digits only: ``str.isdigit`` accepts characters like '²'
    that ``int()`` rejects."""
    return "0" <= ch <= "9"


class Token:
    """One lexical token with its source offset (for error messages)."""

    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: TokenValue,
                 position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position

    def matches(self, kind: str, value: TokenValue = None) -> bool:
        """True if this token has ``kind`` (and ``value``, if given)."""
        if self.kind != kind:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}@{self.position})"


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
            value, i = _read_number(text, i)
            tokens.append(Token(NUMBER, value, start))
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
    begin = i
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
    if i == begin:
        raise SQLSyntaxError("malformed number", start)
    raw = text[start:i]
    return (float(raw) if is_float else int(raw)), i


def _read_identifier(text: str, start: int) -> tuple[str, int]:
    """Read an identifier, including the ``[bracketed]`` T-SQL form."""
    n = len(text)
    if text[start] == "[":
        end = text.find("]", start)
        if end == -1:
            raise SQLSyntaxError("unterminated [identifier]", start)
        return text[start + 1 : end], end + 1
    i = start
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return text[start:i], i


def _is_bare_identifier(name: str) -> bool:
    """True when :func:`tokenize` reads ``name`` back as one IDENT."""
    return (
        name != ""
        and (name[0].isalpha() or name[0] == "_")
        and all(ch.isalnum() or ch == "_" for ch in name)
        and name.upper() not in KEYWORDS
    )


def quote_identifier(name: str) -> str:
    """Render an identifier so that it lexes back to ``name``.

    Each dot-separated part of a qualified name (``alias.column``)
    that is a keyword — a column called ``group`` — or is not a bare
    identifier is written in the ``[bracketed]`` form; everything else
    is left as it is.
    """
    return ".".join(
        part if _is_bare_identifier(part) else f"[{part}]"
        for part in name.split(".")
    )


def _read_operator(text: str, start: int) -> tuple[str, int]:
    """Read one of = <> < <= > >= != (normalising != to <>)."""
    two = text[start : start + 2]
    if two in ("<>", "<=", ">=", "!="):
        return ("<>" if two == "!=" else two), start + 2
    one = text[start]
    if one in "=<>":
        return one, start + 1
    raise SQLSyntaxError(f"unexpected operator start {one!r}", start)
