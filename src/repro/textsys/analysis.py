"""Text analysis: tokenization and term normalization.

Boolean text retrieval systems of the paper's era index *words*: text is
split on non-alphanumeric characters and lowercased.  The same analyzer
must be applied to indexed field text and to query terms so that matching
is consistent — both the inverted index and the brute-force reference
evaluator go through these functions.
"""

from __future__ import annotations

import re
from typing import List, Tuple

__all__ = ["tokenize", "tokenize_with_positions", "normalize_term"]

_TOKEN_PATTERN = re.compile(r"[0-9a-z]+(?:'[0-9a-z]+)*")


def tokenize(text: str) -> List[str]:
    """Split text into normalized word tokens.

    Tokens are maximal runs of alphanumerics (with internal apostrophes,
    so ``O'Brien`` stays one token), lowercased.
    """
    return _TOKEN_PATTERN.findall(text.lower())


def tokenize_with_positions(text: str) -> List[Tuple[str, int]]:
    """Tokenize and return ``(token, position)`` pairs.

    Positions are word offsets (0, 1, 2, ...), the granularity used for
    phrase and proximity matching.
    """
    return [(token, position) for position, token in enumerate(tokenize(text))]


def normalize_term(term: str) -> str:
    """Normalize a single query term the same way indexing does."""
    tokens = tokenize(term)
    return tokens[0] if tokens else ""
