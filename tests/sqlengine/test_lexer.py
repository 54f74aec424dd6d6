"""Unit tests for the SQL tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SQLSyntaxError
from repro.sqlengine import lexer

from . import lexer_oracle
from .test_parser_robustness import token_salad


def kinds_and_values(sql):
    return [(t.kind, t.value) for t in lexer.tokenize(sql)]


class TestTokenize:
    def test_simple_select(self):
        tokens = kinds_and_values("SELECT a FROM t")
        assert tokens == [
            (lexer.KEYWORD, "SELECT"),
            (lexer.IDENT, "a"),
            (lexer.KEYWORD, "FROM"),
            (lexer.IDENT, "t"),
            (lexer.EOF, None),
        ]

    def test_keywords_case_insensitive(self):
        tokens = kinds_and_values("select From WHERE")
        assert [v for _, v in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        tokens = kinds_and_values("SELECT MyCol FROM T1")
        assert (lexer.IDENT, "MyCol") in tokens

    def test_numbers(self):
        tokens = kinds_and_values("1 -2 3.5")
        values = [v for k, v in tokens if k == lexer.NUMBER]
        assert values == [1, -2, 3.5]

    def test_string_literal_with_escape(self):
        tokens = kinds_and_values("'it''s'")
        assert tokens[0] == (lexer.STRING, "it's")

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            lexer.tokenize("'oops")

    def test_operators(self):
        tokens = kinds_and_values("= <> < <= > >= !=")
        ops = [v for k, v in tokens if k == lexer.OP]
        assert ops == ["=", "<>", "<", "<=", ">", ">=", "<>"]

    def test_punctuation(self):
        tokens = kinds_and_values("( ) , * ;")
        puncts = [v for k, v in tokens if k == lexer.PUNCT]
        assert puncts == ["(", ")", ",", "*", ";"]

    def test_line_comment_skipped(self):
        tokens = kinds_and_values("SELECT -- comment here\n a")
        assert (lexer.IDENT, "a") in tokens
        assert all("comment" not in str(v) for _, v in tokens)

    def test_bracketed_identifier(self):
        tokens = kinds_and_values("[weird name]")
        assert tokens[0] == (lexer.IDENT, "weird name")

    def test_bracketed_keyword_is_an_identifier(self):
        tokens = kinds_and_values("SELECT [group], [Order]")
        assert tokens[1] == (lexer.IDENT, "group")
        assert tokens[3] == (lexer.IDENT, "Order")

    @pytest.mark.parametrize("name, rendered", [
        ("salary", "salary"),
        ("_x9", "_x9"),
        ("group", "[group]"),
        ("Group", "[Group]"),
        ("weird name", "[weird name]"),
        ("9lives", "[9lives]"),
        ("a.order", "a.[order]"),
        ("from.x", "[from].x"),
        ("a]b", "[a]]b]"),
    ])
    def test_quote_identifier_lexes_back(self, name, rendered):
        assert lexer.quote_identifier(name) == rendered
        idents = [
            value for kind, value in kinds_and_values(rendered)
            if kind == lexer.IDENT
        ]
        assert ".".join(idents) == name

    def test_bracket_escape_reads_one_bracket(self):
        assert kinds_and_values("[a]]b] [x]]]")[:2] == [
            (lexer.IDENT, "a]b"), (lexer.IDENT, "x]"),
        ]

    def test_unterminated_bracket_raises(self):
        with pytest.raises(SQLSyntaxError):
            lexer.tokenize("[oops")

    def test_unexpected_character_raises_with_offset(self):
        with pytest.raises(SQLSyntaxError) as info:
            lexer.tokenize("SELECT ?")
        assert "offset" in str(info.value)

    def test_underscore_identifiers(self):
        tokens = kinds_and_values("attr_name _x")
        idents = [v for k, v in tokens if k == lexer.IDENT]
        assert idents == ["attr_name", "_x"]

    @pytest.mark.parametrize("sql", [
        "SELECT FROM t",
        "select a, COUNT(*) FROM [group] WHERE b <> 'it''s' AND c != -1.5",
        "SELECT x.y FROM t -- note\nWHERE z >= 10;",
    ])
    def test_every_token_position_indexes_its_own_text(self, sql):
        spelled = {"'it''s'": "it's", "!=": "<>", "[group]": "group"}
        for token in lexer.tokenize(sql)[:-1]:
            rest = sql[token.position:]
            text = next((raw for raw, value in spelled.items()
                         if value == token.value and rest.startswith(raw)),
                        str(token.value))
            assert rest.upper().startswith(text.upper()), (token, rest)
        assert lexer.tokenize(sql)[-1].position == len(sql)

    def test_syntax_error_names_the_offending_tokens_start(self):
        from repro.sqlengine.parser import parse

        with pytest.raises(SQLSyntaxError, match="'FROM' \\(at offset 7\\)"):
            parse("SELECT FROM t")


#: Pieces of text where the regex and the character loop could part:
#: quote and bracket runs, signs, dots, Unicode digits and letters,
#: NBSP and control whitespace.
_TRICKY = st.lists(
    st.sampled_from([
        "'", "''", "[", "]", "]]", "-", "--", ".", "5", "a", "_", " ",
        "\n", "=", "<", ">", "!", "²", "٣", "ß", "ſ", "\xa0", "\x1c",
    ]),
    max_size=12,
).map("".join)


class TestRegexLexerMatchesTheOracle:
    """``lexer.tokenize`` against the character loop it replaced."""

    @pytest.mark.parametrize("text", lexer_oracle.PINNED)
    def test_pinned(self, text):
        assert lexer_oracle.outcome(lexer.tokenize, text) == \
            lexer_oracle.outcome(lexer_oracle.tokenize, text)

    @given(st.one_of(st.text(max_size=60), _TRICKY, token_salad))
    @settings(max_examples=600, deadline=None)
    def test_every_text_lexes_alike(self, text):
        assert lexer_oracle.outcome(lexer.tokenize, text) == \
            lexer_oracle.outcome(lexer_oracle.tokenize, text)
