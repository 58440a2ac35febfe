"""C++ tokenizer with source positions.

Produces a flat token stream (identifiers, numbers, punctuation, string
literals) with file/line/column, plus side tables for comments (the
allow/expect markers live there) and preprocessor directives. Comments and
directives are not part of the token stream the parser walks, so a banned
name inside a comment never fires a check. A `//` comment trailing a
directive goes to the comment table, so markers work on `#include` lines.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'num' | 'str' | 'char' | 'punct'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact for debugging
        return f"{self.text!r}@{self.line}"


@dataclasses.dataclass(frozen=True)
class Comment:
    text: str  # without // or /* */ fences
    line: int  # line the comment starts on


PUNCT_3 = {"<<=", ">>=", "...", "->*"}
PUNCT_2 = {
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
}

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")


class LexedFile:
    def __init__(self, path: str, tokens: list[Token], comments: list[Comment],
                 directives: list[tuple[int, str]]):
        self.path = path
        self.tokens = tokens
        self.comments = comments
        self.directives = directives  # (line, directive text)
        # line -> concatenated comment text on that line (marker lookup)
        self.comment_by_line: dict[int, str] = {}
        for c in comments:
            self.comment_by_line.setdefault(c.line, "")
            self.comment_by_line[c.line] += " " + c.text


def _trailing_comment(directive: str) -> Optional[int]:
    """Offset of a `//` comment in a directive, outside string literals."""
    quoted = False
    for k, ch in enumerate(directive):
        if ch == '"':
            quoted = not quoted
        elif not quoted and directive.startswith("//", k):
            return k
    return None


def lex(path: str, text: Optional[str] = None) -> LexedFile:
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    tokens: list[Token] = []
    comments: list[Comment] = []
    directives: list[tuple[int, str]] = []
    i, n = 0, len(text)
    line, col = 1, 1
    at_line_start = True

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r":
            advance(1)
            continue
        if ch == "\n":
            advance(1)
            at_line_start = True
            continue
        if ch == "\\" and i + 1 < n and text[i + 1] == "\n":  # line splice
            advance(2)
            continue
        # Preprocessor directive: consume through (spliced) end of line.
        if ch == "#" and at_line_start:
            start, start_line = i, line
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    advance(2)
                    continue
                advance(1)
            directive = text[start:i]
            cut = _trailing_comment(directive)
            if cut is not None:
                comments.append(Comment(
                    directive[cut + 2:].strip(),
                    start_line + directive.count("\n", 0, cut)))
                directive = directive[:cut].rstrip()
            directives.append((start_line, directive))
            continue
        at_line_start = False
        # Comments.
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            start, start_line = i + 2, line
            while i < n and text[i] != "\n":
                advance(1)
            comments.append(Comment(text[start:i].strip(), start_line))
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start, start_line = i + 2, line
            advance(2)
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                advance(1)
            end = i
            advance(min(2, n - i))
            comments.append(Comment(text[start:end].strip(), start_line))
            continue
        # Raw strings: R"delim( ... )delim".
        if ch == "R" and i + 1 < n and text[i + 1] == '"':
            j = i + 2
            while j < n and text[j] not in "(\n":
                j += 1
            if j < n and text[j] == "(":
                delim = text[i + 2:j]
                closer = ")" + delim + '"'
                end = text.find(closer, j + 1)
                if end == -1:
                    end = n - len(closer)
                tok_line, tok_col = line, col
                advance(end + len(closer) - i)
                tokens.append(Token("str", "<raw-string>", tok_line, tok_col))
                continue
        # String / char literals (with common prefixes).
        if ch in "\"'" or (
            ch in "uUL" and i + 1 < n and text[i + 1] in "\"'"
        ) or (text[i:i + 2] == "u8" and i + 2 < n and text[i + 2] in "\"'"):
            tok_line, tok_col = line, col
            while i < n and text[i] not in "\"'":
                advance(1)
            quote = text[i]
            advance(1)
            start = i
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    advance(2)
                else:
                    advance(1)
            literal = text[start:i]
            if i < n:
                advance(1)
            kind = "str" if quote == '"' else "char"
            tokens.append(Token(kind, literal, tok_line, tok_col))
            continue
        # Identifiers / keywords.
        if ch in _ID_START:
            start, tok_line, tok_col = i, line, col
            while i < n and text[i] in _ID_CONT:
                advance(1)
            tokens.append(Token("ident", text[start:i], tok_line, tok_col))
            continue
        # Numbers (incl. hex, digit separators, suffixes, 1.0e-3).
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start, tok_line, tok_col = i, line, col
            while i < n and (text[i].isalnum() or text[i] in "._'"
                             or (text[i] in "+-" and text[i - 1] in "eEpP")):
                advance(1)
            tokens.append(Token("num", text[start:i], tok_line, tok_col))
            continue
        # Punctuation, longest match first.
        tok_line, tok_col = line, col
        for size in (3, 2):
            chunk = text[i:i + size]
            if (size == 3 and chunk in PUNCT_3) or (
                    size == 2 and chunk in PUNCT_2):
                advance(size)
                tokens.append(Token("punct", chunk, tok_line, tok_col))
                break
        else:
            advance(1)
            tokens.append(Token("punct", ch, tok_line, tok_col))
    return LexedFile(path, tokens, comments, directives)
