"""Porter's suffix-stripping algorithm (Porter, *Program* 14(3), 1980).

A faithful implementation of the five-step algorithm the paper applies
to content terms before building term vectors. Follows the original
paper's rules (not the later "Porter2/English" revision), including the
m-measure condition system and the *S/*v*/*d/*o conditions.

:func:`porter_stem` is memoized: a page corpus draws its words from a
small vocabulary (under 1% of the stemmer's calls on the benchmark
sites see a new word), so nearly every call is a dictionary lookup.
The memo is a bounded LRU of :data:`STEM_MEMO_ENTRIES` words and
reports its hits, misses, size and cap through
``porter_stem.cache_info()``.
"""

from __future__ import annotations

from functools import lru_cache

#: Entry cap of the :func:`porter_stem` memo (least recently used
#: words are evicted past it).
STEM_MEMO_ENTRIES = 1 << 14

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, index: int) -> bool:
    """True when ``word[index]`` acts as a consonant (Porter's defn)."""
    ch = word[index]
    if ch in _VOWELS:
        return False
    if ch == "y":
        if index == 0:
            return True
        return not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's *m*: the number of VC sequences in the stem."""
    m = 0
    index = 0
    length = len(stem)
    # Skip the initial consonant run.
    while index < length and _is_consonant(stem, index):
        index += 1
    while index < length:
        # Vowel run.
        while index < length and not _is_consonant(stem, index):
            index += 1
        if index >= length:
            break
        # Consonant run completes one VC.
        while index < length and _is_consonant(stem, index):
            index += 1
        m += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    if len(word) < 2:
        return False
    return word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, last not w/x/y."""
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        flag = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al",
    "ance",
    "ence",
    "er",
    "ic",
    "able",
    "ible",
    "ant",
    "ement",
    "ment",
    "ent",
    "ou",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
)


def _apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure - 1:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and stem and stem[-1] not in "st":
                return word
            if _measure(stem) > 1:
                return stem
            return word
    # "ion" needs its own check because the preceding letter matters.
    if word.endswith("ion"):
        stem = word[:-3]
        if stem and stem[-1] in "st" and _measure(stem) > 1:
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1:
            return stem
        if m == 1 and not _ends_cvc(stem):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=STEM_MEMO_ENTRIES)
def porter_stem(word: str) -> str:
    """Stem a single lower-case word.

    >>> porter_stem("caresses")
    'caress'
    >>> porter_stem("ponies")
    'poni'
    >>> porter_stem("relational")
    'relat'
    >>> porter_stem("generalization")
    'gener'

    Porter's rules are defined over English letters only, so a word
    containing any non-ASCII character is returned unchanged:

    >>> porter_stem("résumés")
    'résumés'
    """
    if len(word) <= 2 or not word.isascii():
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES, 1)
    word = _apply_rules(word, _STEP3_RULES, 1)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
