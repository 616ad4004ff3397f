"""Predicate selectivity and fanout, sampled or exact (Sections 4.2 and 8).

"To estimate these statistics, we employ sampling techniques.  We sample
terms from column *i*, access the text retrieval system to check if they
appear in field *i* of some document, and obtain the frequencies if so."

One loop turns a column's values into ``(s_i, f_i)``: the distinct
non-NULL strings, the values chosen among them, one match count each,
then

- ``s_i`` = fraction of chosen values that matched at least one document;
- ``f_i`` = mean match count over *all* chosen values (zero matches
  included), so that ``n`` searches over random tuples are expected to
  return ``n * f_i`` documents — the role ``f_i`` plays in the Section
  4.3 formulas.

:func:`sample_predicate_statistics` chooses a random sample and counts
each value with one *metered* search (sampling is a real cost — the
paper amortizes it across queries on the same predicate).
:func:`exact_predicate_statistics` chooses every value and asks the
published directory first (Section 8), charging nothing.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import StatisticsError
from repro.gateway.client import TextClient
from repro.gateway.statistics import PredicateStatistics
from repro.textsys.analysis import tokenize
from repro.textsys.query import data_term

__all__ = [
    "sample_predicate_statistics",
    "exact_predicate_statistics",
    "observed_predicate_statistics",
]


def _distinct_strings(values: Iterable[object]) -> List[str]:
    seen = set()
    out: List[str] = []
    for value in values:
        if value is None or value in seen:
            continue
        seen.add(value)
        out.append(str(value))
    return out


def _predicate_statistics(
    column: str,
    field: str,
    values: Iterable[object],
    choose: Callable[[List[str]], List[str]],
    count_matches: Callable[[List[Tuple[str, List[str]]]], List[int]],
) -> PredicateStatistics:
    """The one ``(s_i, f_i)`` loop.

    Values are tokenized as every join method instantiates them
    (``data_term``: a trailing ``?`` is punctuation, not truncation).
    ``count_matches`` maps the chosen ``(value, words)`` pairs that have
    an indexable word to one match count each; a value without one never
    matches, so it is a miss the source is not asked about.
    """
    distinct = _distinct_strings(values)
    if not distinct:
        raise StatisticsError(f"column {column!r} has no non-NULL values")
    chosen = choose(distinct)
    tokenized = ((text, tokenize(text)) for text in chosen)
    counts = count_matches([pair for pair in tokenized if pair[1]])
    return PredicateStatistics(
        column=column,
        field=field,
        selectivity=sum(1 for count in counts if count) / len(chosen),
        fanout=sum(counts) / len(chosen),
        sample_size=len(chosen),
    )


def sample_predicate_statistics(
    client: TextClient,
    column: str,
    field: str,
    values: Sequence[object],
    sample_size: int = 20,
    rng: Optional[random.Random] = None,
) -> PredicateStatistics:
    """Estimate ``(s_i, f_i)`` for ``column in field`` by metered sampling."""
    if sample_size < 1:
        raise StatisticsError("sample size must be at least 1")
    rng = rng or random.Random(0)

    def sample(distinct: List[str]) -> List[str]:
        if len(distinct) <= sample_size:
            return distinct
        return rng.sample(distinct, sample_size)

    return _predicate_statistics(
        column,
        field,
        values,
        sample,
        lambda pairs: [len(client.search(data_term(field, text))) for text, _ in pairs],
    )


def observed_predicate_statistics(
    column: str,
    field: str,
    searches: int,
    matched: int,
    documents: float,
) -> PredicateStatistics:
    """``(s_i, f_i)`` from searches the runtime already paid for.

    Execution-time observations are free statistics: ``searches``
    instantiated probes/searches on distinct column values, of which
    ``matched`` returned at least one document and ``documents`` results
    came back in total.  The counts are clamped into the valid domain so
    a truncated observation (an aborted method counted only part of its
    probes) still yields well-formed statistics.
    """
    if searches < 1:
        raise StatisticsError(
            f"observation for {column!r} needs at least one search"
        )
    matched = min(max(matched, 0), searches)
    documents = max(float(documents), 0.0)
    return PredicateStatistics(
        column=column,
        field=field,
        selectivity=matched / searches,
        fanout=documents / searches,
        sample_size=searches,
    )


def exact_predicate_statistics(
    client: TextClient,
    column: str,
    field: str,
    values: Sequence[object],
) -> PredicateStatistics:
    """Compute ``(s_i, f_i)`` exactly over every distinct column value.

    Nothing is charged.  All one-word values are answered by a single
    directory read (:meth:`TextClient.document_frequencies` — for such a
    value the frequency *is* its search's result size); each multi-word
    value costs one :meth:`TextClient.statistics_search` of its phrase.
    """

    def directory_first(pairs: List[Tuple[str, List[str]]]) -> List[int]:
        frequencies = client.document_frequencies(
            field, [words[0] for _, words in pairs if len(words) == 1]
        )
        return frequencies + [
            len(client.statistics_search(data_term(field, text)))
            for text, words in pairs
            if len(words) > 1
        ]

    return _predicate_statistics(column, field, values, list, directory_first)
