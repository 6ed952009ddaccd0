"""Character-level string similarity functions.

These are the building blocks for the edit-based and combination predicates of
the paper (chapter 3.4 and 3.5):

* :func:`levenshtein` -- classic unit-cost edit distance.
* :func:`levenshtein_within` -- the distance if it is within a budget, for
  thresholded selection.
* :func:`edit_similarity` -- the paper's normalized edit similarity
  ``1 - tc(Q, D) / max(|Q|, |D|)`` (equation 3.13).
* :func:`jaro` and :func:`jaro_winkler` -- the census-style name matching
  similarities used as the word-level matcher inside SoftTFIDF.

The kernels return exactly what the textbook definitions give; only the way
they compute it is fast:

* :func:`levenshtein` is Myers' bit-parallel algorithm (JACM 1999) in
  Hyyrö's formulation for global edit distance.  The shorter string is the
  pattern; Python ints serve as bit-vectors of any length, one bit per
  pattern character, holding the vertical +1/-1 deltas of one column of the
  dynamic-programming table.  Each character of the longer string advances a
  column in a fixed number of integer operations instead of ``m`` cell
  updates.
* :func:`jaro` finds each character's match with ``str.find`` over its match
  window.  Ties follow the classic rule: a character takes the first equal
  character in its window that no earlier character took.  Transpositions are
  counted over the two matched sequences, each read in string order.

All functions are pure Python with no third-party dependencies so that they
can also be registered as UDFs on the SQL backends.
"""

from __future__ import annotations

from operator import ne

__all__ = [
    "levenshtein",
    "levenshtein_within",
    "edit_similarity",
    "jaro",
    "jaro_winkler",
    "ngram_overlap",
]


def levenshtein(a: str, b: str) -> int:
    """Return the unit-cost Levenshtein edit distance between two strings.

    Insertions, deletions and substitutions each cost 1; copies cost 0.

    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein("", "abc")
    3
    """
    if a == b:
        return 0
    # The shorter string is the pattern: one bit per pattern character.
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return len(b)
    # peq[ch] has bit i set where a[i] == ch.
    peq: dict = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    # pv / mv: rows whose vertical delta in the current column is +1 / -1;
    # score: the bottom cell of that column.  Column 0 is 0, 1, ..., m.
    pv = mask
    mv = 0
    score = m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = mask & (mh | ~(xv | ph))
        mv = ph & xv
    return score


def levenshtein_within(a: str, b: str, max_distance: int) -> int | None:
    """Return ``levenshtein(a, b)`` if it is ``<= max_distance``, else ``None``.

    Used by the verification step of the edit-distance predicate's
    thresholded selection: the length difference is a lower bound on the
    distance, so pairs it already rules out never reach the kernel.
    """
    if max_distance < 0 or abs(len(a) - len(b)) > max_distance:
        return None
    distance = levenshtein(a, b)
    return distance if distance <= max_distance else None


def edit_similarity(a: str, b: str) -> float:
    """Normalized edit similarity, equation 3.13 of the paper.

    ``sim_edit(Q, D) = 1 - tc(Q, D) / max(|Q|, |D|)`` where ``tc`` is the
    unit-cost Levenshtein distance.  Two empty strings are defined to have
    similarity 1.0.

    >>> edit_similarity("stanley", "stanley")
    1.0
    >>> round(edit_similarity("stanley", "stanle"), 3)
    0.857
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity between two strings.

    The Jaro similarity counts matching characters within a sliding window of
    half the longer string's length and penalizes transpositions.  Returns a
    value in ``[0, 1]``; identical strings score 1.0 and strings with no
    matching characters score 0.0.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = (la if la > lb else lb) // 2 - 1
    if window < 0:
        window = 0
    b_taken = [False] * lb
    a_chars = []
    find = b.find
    # a[i] may match b[lo:hi] with lo = i - window and hi = i + window + 1;
    # it takes the first equal character there that no earlier a[i] took.
    # str.find counts a negative start from the end, hence the clamp at 0.
    lo, hi = -window, window
    for ca in a:
        hi += 1
        j = find(ca, lo if lo > 0 else 0, hi)
        lo += 1
        while j >= 0 and b_taken[j]:
            j = find(ca, j + 1, hi)
        if j >= 0:
            b_taken[j] = True
            a_chars.append(ca)
    matches = len(a_chars)
    if matches == 0:
        return 0.0
    # Half the positions where the matched characters, read in order in
    # each string, differ.
    b_chars = [cb for cb, taken in zip(b, b_taken) if taken]
    transpositions = sum(map(ne, a_chars, b_chars)) // 2

    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a common-prefix bonus.

    ``jw = jaro + prefix_len * prefix_scale * (1 - jaro)`` where
    ``prefix_len`` is the length of the common prefix capped at
    ``max_prefix``.  The standard scaling factor is 0.1.

    >>> jaro_winkler("martha", "marhta") > jaro("martha", "marhta")
    True
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be in [0, 0.25] to keep the score <= 1")
    base = jaro(a, b)
    prefix_len = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix_len >= max_prefix:
            break
        prefix_len += 1
    return base + prefix_len * prefix_scale * (1.0 - base)


def ngram_overlap(a: str, b: str, n: int = 2) -> float:
    """Dice-style character n-gram overlap, used only as a sanity baseline.

    Returns ``2 * |common n-grams| / (|ngrams(a)| + |ngrams(b)|)``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if a == b:
        return 1.0
    grams_a = [a[i : i + n] for i in range(max(0, len(a) - n + 1))]
    grams_b = [b[i : i + n] for i in range(max(0, len(b) - n + 1))]
    if not grams_a or not grams_b:
        return 0.0
    from collections import Counter

    common = sum((Counter(grams_a) & Counter(grams_b)).values())
    return 2.0 * common / (len(grams_a) + len(grams_b))
