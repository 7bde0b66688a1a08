"""A lenient HTML tokenizer.

Produces a flat stream of tokens (start tags, end tags, text, comments,
doctypes) from raw HTML text. It is deliberately forgiving — real
deep-web pages of the paper's era were full of unclosed tags, stray
``<`` characters, and unquoted attributes — and never raises on
malformed markup; recovery follows what browsers of that period did:

- A ``<`` that does not begin a plausible tag is treated as text.
- Attribute values may be double-quoted, single-quoted, or bare.
- ``<script>`` and ``<style>`` switch to raw-text mode until the
  matching close tag.
- ``<!-- ... -->`` comments, ``<!DOCTYPE ...>`` and ``<![CDATA[ ... ]]>``
  are recognized; bogus declarations (``<!foo>``) become comments.

Tag and attribute names are lower-cased at tokenization time, which is
half of what HTML Tidy did for the paper's preprocessing (the other
half — implicit closing — lives in the parser and :mod:`repro.html.tidy`).

The scanners are compiled :mod:`re` patterns; ``tests/oracles.py``
keeps the character-at-a-time scanner they must agree with token for
token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.html.entities import decode_entities

#: Elements whose content is raw text (no nested markup).
RAWTEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title"})



@dataclass(frozen=True)
class StartTag:
    """A start tag, e.g. ``<td colspan="2">``."""

    name: str
    attrs: tuple[tuple[str, str], ...] = ()
    self_closing: bool = False

    def get(self, attr: str, default: str | None = None) -> str | None:
        """Return the first value for ``attr`` (case-insensitive)."""
        wanted = attr.lower()
        for key, value in self.attrs:
            if key == wanted:
                return value
        return default


@dataclass(frozen=True)
class EndTag:
    """An end tag, e.g. ``</td>``."""

    name: str


@dataclass(frozen=True)
class Text:
    """A run of character data between tags (entity-decoded)."""

    data: str


@dataclass(frozen=True)
class Comment:
    """An HTML comment or a bogus declaration downgraded to a comment."""

    data: str


@dataclass(frozen=True)
class Doctype:
    """A ``<!DOCTYPE ...>`` declaration (content kept verbatim)."""

    data: str


Token = Union[StartTag, EndTag, Text, Comment, Doctype]


# Whitespace is spelled out as ``[ \t\n\r\f]`` throughout, never
# ``\s``, which would also match ``\v`` and the Unicode spaces. Names
# are ASCII: a letter, then letters, digits and ``_:.-``.

#: A ``<`` that opens markup; any other ``<`` is text. Group 1 is a
#: start tag's name and group 2 its ``>`` when no attribute follows;
#: group 3 is an end tag's name (possibly empty), the match running
#: through its ``>`` (or to EOF); group 4 is the ``!`` of a comment or
#: declaration, or the ``?`` of a processing instruction.
_MARKUP = re.compile(
    r"<(?:([A-Za-z][A-Za-z0-9_:.\-]*)(>)?|/([A-Za-z0-9_:.\-]*)[^>]*>?|([!?]))"
)
#: One step through a start tag's attributes. An unterminated quoted
#: value runs to the end of the document. The match fails only when
#: nothing but whitespace is left.
_ATTRIBUTE_STEP = re.compile(
    r"""
    [ \t\n\r\f]*
    (?:
        (>)                                         # 1: end of tag
      | (/) [ \t\n\r\f]* (>)?                       # 2: slash; 3: self-closing end
      | ([A-Za-z][A-Za-z0-9_:.\-]*) [ \t\n\r\f]*    # 4: attribute name
        (?: = [ \t\n\r\f]*
            (?: "([^"]*)"?                          # 5: double-quoted value
              | '([^']*)'?                          # 6: single-quoted value
              | ([^ \t\n\r\f>/]*) ) )?              # 7: bare value
      | [^ \t\n\r\f]                                # junk between attributes
    )
    """,
    re.VERBOSE,
)
#: ``</element`` in any ASCII case, for each raw-text element.
_RAWTEXT_CLOSE = {
    name: re.compile("</" + name, re.IGNORECASE | re.ASCII)
    for name in RAWTEXT_ELEMENTS
}


def _scan_attributes(
    html: str, pos: int
) -> tuple[tuple[tuple[str, str], ...], bool, int]:
    """Scan attributes from ``pos`` up to (and past) the closing ``>``.

    Returns the attribute pairs, whether the tag was self-closing, and
    the position after the tag.
    """
    attrs: list[tuple[str, str]] = []
    for step in _ATTRIBUTE_STEP.finditer(html, pos):
        close, slash, self_close, name, double, single, bare = step.groups()
        if close or self_close:
            return tuple(attrs), slash is not None, step.end()
        if name is not None:
            # At most one value group matched; a missing value is "".
            value = double or single or bare or ""
            attrs.append((name.lower(), decode_entities(value)))
    return tuple(attrs), False, len(html)


def _scan_declaration(html: str, pos: int) -> tuple[Token, int]:
    """Scan a ``<!`` construct; ``pos`` is just after the ``<!``.

    Returns the token and the position after it.
    """
    if html.startswith("--", pos):
        end = html.find("-->", pos + 2)
        if end == -1:
            return Comment(html[pos + 2 :]), len(html)
        return Comment(html[pos + 2 : end]), end + 3
    if html[pos : pos + 7].lower() == "doctype":
        end = html.find(">", pos)
        if end == -1:
            end = len(html)
        return Doctype(html[pos + 7 : end].strip()), min(end + 1, len(html))
    if html.startswith("[CDATA[", pos):
        end = html.find("]]>", pos + 7)
        if end == -1:
            return Text(html[pos + 7 :]), len(html)
        return Text(html[pos + 7 : end]), end + 3
    # Bogus declaration: consume to ">" and emit as comment.
    end = html.find(">", pos)
    if end == -1:
        end = len(html)
    return Comment(html[pos:end]), min(end + 1, len(html))


def tokenize(html: str) -> Iterator[Token]:
    """Yield tokens for ``html``.

    Never raises on malformed markup. Text tokens are entity-decoded;
    adjacent text is coalesced into a single token.

    >>> [t for t in tokenize('<b>hi</b>')]
    [StartTag(name='b', attrs=(), self_closing=False), Text(data='hi'), EndTag(name='b')]
    """
    length = len(html)
    pos = 0
    text_start = 0
    while True:
        markup = _MARKUP.search(html, pos)
        if markup is None:
            break
        lt = markup.start()
        if lt > text_start:
            yield Text(decode_entities(html[text_start:lt]))
        name, bare_close, end_name, bang = markup.groups()
        if name is not None:
            tag = name.lower()
            if bare_close:
                attrs, self_closing, pos = (), False, markup.end()
            else:
                attrs, self_closing, pos = _scan_attributes(html, markup.end())
            yield StartTag(tag, attrs, self_closing)
            if tag in RAWTEXT_ELEMENTS and not self_closing:
                close = _RAWTEXT_CLOSE[tag].search(html, pos)
                raw_end = length if close is None else close.start()
                if raw_end > pos:
                    yield Text(html[pos:raw_end])
                pos = raw_end
                if close is not None:
                    end = html.find(">", close.end())
                    pos = length if end == -1 else end + 1
                    yield EndTag(tag)
        elif end_name is not None:
            pos = markup.end()
            if end_name:
                yield EndTag(end_name.lower())
        elif bang == "!":
            token, pos = _scan_declaration(html, lt + 2)
            yield token
        else:
            # Processing instruction (e.g. <?xml ...?>): skip as comment.
            end = html.find(">", lt + 2)
            yield Comment(html[lt + 2 : length if end == -1 else end])
            pos = length if end == -1 else end + 1
        text_start = pos
    if length > text_start:
        yield Text(decode_entities(html[text_start:]))
