"""Tokenizer for the SQL subset.

:func:`tokenize` produces a flat list of :class:`Token`; :func:`scan`
the same tokens as ``(kind, value)`` pairs with their offsets apart,
the form the parser reads.  Keywords are recognised
case-insensitively; identifiers keep their original spelling, and a
``[bracketed]`` identifier is always an identifier — the way to name a
column ``group``.  String literals use single quotes with ``''``
escaping and bracketed identifiers ``]]``, as in T-SQL.

The whole statement is read by one compiled pattern; its alternatives
are told apart by their first character.  Character classes follow
:mod:`re`'s Unicode rules, which coincide with ``str``'s: ``\\s`` is
``isspace``, ``\\w`` is ``isalnum`` or ``_``.  Numbers are ASCII digits
only (``\\d`` would admit '٣', which ``int()`` reads but SQL does not),
and an identifier starts with a letter or ``_``.
"""

from __future__ import annotations

import re
from functools import lru_cache
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

# Each match is one token and the whitespace and comments before it;
# the last alternative matches the end of the text, so the prefix is
# never backtracked into.  A quoted token's closing quote must end its
# run of quotes: without the lookahead, backtracking would close
# "'a''" after the 'a'.  (No possessive or atomic groups: Python 3.9
# has neither.)
_TOKEN = re.compile(
    r"\s*(?:--[^\n]*\s*)*(?:"
    r"([A-Za-z_]\w*)"                         # 1 ASCII-led word
    r"|([(),*;.])"                            # 2 punctuation
    r"|(<>|<=|>=|!=|[=<>])"                   # 3 operator
    r"|(-?[0-9]+(?:\.[0-9]+)?)"               # 4 number
    r"|('[^']*(?:''[^']*)*'(?!'))"            # 5 string
    r"|(\[[^\]]*(?:\]\][^\]]*)*\](?!\]))"      # 6 [identifier]
    r"|([^\W\d]\w*)"                          # 7 other word
    r"|(.)"                                   # 8 anything else
    r"|\Z)",
    re.DOTALL,
)


#: One token as the parser reads it: ``(kind, value)``, with its offset
#: kept apart so that equal tokens compare equal.  Keyword, punctuation
#: and operator pairs are shared constants.
Lexeme = tuple[str, TokenValue]

_KEYWORD_PAIRS = {word: (KEYWORD, word) for word in KEYWORDS}
_PUNCT_PAIRS = {ch: (PUNCT, ch) for ch in "(),*;."}
_OP_PAIRS = {op: (OP, op) for op in ("=", "<>", "<", "<=", ">", ">=")}
_OP_PAIRS["!="] = _OP_PAIRS["<>"]
_EOF_PAIR: Lexeme = (EOF, None)


class Token:
    """One lexical token with its source offset (for error messages)."""

    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: TokenValue,
                 position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}@{self.position})"


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text``; returns a list ending with an EOF token."""
    lexemes, positions = scan(text)
    return [
        Token(kind, value, position)
        for (kind, value), position in zip(lexemes, positions)
    ]


def scan(text: str) -> tuple[list[Lexeme], list[int]]:
    """Tokenise ``text`` into :data:`Lexeme` s and their offsets, both
    ending with EOF's (the parser's form of :func:`tokenize`)."""
    lexemes: list[Lexeme] = []
    positions: list[int] = []
    lexeme = lexemes.append
    position = positions.append
    keyword = _KEYWORD_PAIRS.get
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 1:
            word = match[1]
            lexeme(keyword(word.upper()) or (IDENT, word))
        elif group == 2:
            lexeme(_PUNCT_PAIRS[match[2]])
        elif group == 3:
            lexeme(_OP_PAIRS[match[3]])
        elif group == 4:
            raw = match[4]
            lexeme((NUMBER, float(raw) if "." in raw else int(raw)))
        elif group == 5:
            lexeme((STRING, match[5][1:-1].replace("''", "'")))
        elif group == 6:
            lexeme((IDENT, match[6][1:-1].replace("]]", "]")))
        elif group == 7:
            word = match[7]
            if not word[0].isalpha():  # '²' and '½' are \w, not letters
                raise SQLSyntaxError(
                    f"unexpected character {word[0]!r}", match.start(7)
                )
            lexeme(keyword(word.upper()) or (IDENT, word))
        elif group == 8:
            raise _stray(match[8], match.start(8))
        else:
            break  # the end of the text
        position(match.start(group))
    lexemes.append(_EOF_PAIR)
    positions.append(len(text))
    return lexemes, positions


def _stray(ch: str, position: int) -> SQLSyntaxError:
    """The error for a character no token can start with here."""
    if ch == "'":
        return SQLSyntaxError("unterminated string literal", position)
    if ch == "[":
        return SQLSyntaxError("unterminated [identifier]", position)
    if ch == "!":
        return SQLSyntaxError("unexpected operator start '!'", position)
    return SQLSyntaxError(f"unexpected character {ch!r}", position)


@lru_cache(maxsize=4096)
def quote_identifier(name: str) -> str:
    """Render an identifier so that it lexes back to ``name``.

    Each dot-separated part of a qualified name (``alias.column``)
    that is a keyword — a column called ``group`` — or is not a bare
    identifier is written in the ``[bracketed]`` form, a ``]`` in it
    doubled; everything else is left as it is.
    """
    return ".".join(
        part if _is_bare_identifier(part)
        else "[" + part.replace("]", "]]") + "]"
        for part in name.split(".")
    )


def _is_bare_identifier(name: str) -> bool:
    """True when :func:`tokenize` reads ``name`` back as one IDENT."""
    return (
        name != ""
        and (name[0].isalpha() or name[0] == "_")
        and all(ch.isalnum() or ch == "_" for ch in name)
        and name.upper() not in KEYWORDS
    )
