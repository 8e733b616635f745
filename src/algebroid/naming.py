"""Fresh names for adjoined variables, one at a time: the first free stem,
else the first stem numbered 1, 2, ... that is free.  The default stems
give z, u, v, ..., then z1, z2, ...."""

from __future__ import annotations

from typing import Sequence

_SINGLE_STEMS = ("z", "u", "v", "w", "s", "q", "r")


def next_single(existing: Sequence[str],
                stems: Sequence[str] = _SINGLE_STEMS) -> str:
    taken = set(existing)
    for stem in stems:
        if stem not in taken:
            return stem
    i = 1
    while f"{stems[0]}{i}" in taken:
        i += 1
    return f"{stems[0]}{i}"
