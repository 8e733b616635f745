"""Names for variables adjoined during completion, descent and the pencil
test, one new function at a time: single letters z, u, v, ..., then
numbered z1, z2, ..., always skipping anything already taken."""

from __future__ import annotations

from typing import Sequence

_SINGLE_STEMS = ("z", "u", "v", "w", "s", "q", "r")


def next_single(existing: Sequence[str]) -> str:
    taken = set(existing)
    for stem in _SINGLE_STEMS:
        if stem not in taken:
            return stem
    i = 1
    while f"z{i}" in taken:
        i += 1
    return f"z{i}"
