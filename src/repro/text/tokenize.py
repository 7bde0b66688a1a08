"""Word tokenization for content text.

A term is a maximal run of Unicode letters/digits, with internal
apostrophes and hyphens allowed (``o'brien``, ``blu-ray``, ``café``,
``東京``). Pure numbers are kept — prices and years are exactly the
kind of query-dependent content that distinguishes QA-Pagelets from
boilerplate.
"""

from __future__ import annotations

import re

#: ``[^\W_]`` is "a word character other than the underscore": every
#: Unicode letter and digit.
_WORD_RE = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*")


def tokenize_words(text: str, lowercase: bool = True) -> list[str]:
    """Split ``text`` into word tokens.

    >>> tokenize_words("The Blu-Ray, $19.99 -- O'Brien's pick!")
    ['the', 'blu-ray', '19', '99', "o'brien's", 'pick']
    >>> tokenize_words("Naïve café, 東京")
    ['naïve', 'café', '東京']
    """
    words = _WORD_RE.findall(text)
    if lowercase:
        return [w.lower() for w in words]
    return words
