"""Reference oracle: the alpha memory whose index keeps a dict per key.

Every key of every index holds an insertion-ordered dict of its members,
however many there are. It spends a bucket on each lone WME, but it is
obviously right, so the differential in ``test_alphaindex`` holds
:class:`repro.match.alphaindex.IndexedMemory` to it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.wm.wme import WME

__all__ = ["DictBucketMemory"]


class DictBucketMemory:
    """Insertion-ordered WME set with lazily built dict-bucket indexes."""

    def __init__(self) -> None:
        self.wmes: Dict[WME, None] = {}
        self._indexes: Dict[Tuple[str, ...], Dict[Tuple, Dict[WME, None]]] = {}

    def add(self, wme: WME) -> None:
        self.wmes[wme] = None
        for attrs, index in self._indexes.items():
            index.setdefault(tuple(wme.get(a) for a in attrs), {})[wme] = None

    def remove(self, wme: WME) -> bool:
        if wme not in self.wmes:
            return False
        del self.wmes[wme]
        for attrs, index in self._indexes.items():
            key = tuple(wme.get(a) for a in attrs)
            bucket = index[key]
            del bucket[wme]
            if not bucket:
                del index[key]
        return True

    def _index_for(self, attrs: Tuple[str, ...]) -> Dict[Tuple, Dict[WME, None]]:
        index = self._indexes.get(attrs)
        if index is None:
            index = self._indexes[attrs] = {}
            for wme in self.wmes:
                index.setdefault(tuple(wme.get(a) for a in attrs), {})[wme] = None
        return index

    def probe(self, attrs: Tuple[str, ...], values: Tuple) -> Sequence[WME]:
        return tuple(self._index_for(attrs).get(values, ()))

    def probe_exists(self, attrs: Tuple[str, ...], values: Tuple) -> bool:
        return bool(self._index_for(attrs).get(values))

    def __len__(self) -> int:
        return len(self.wmes)

    def __iter__(self) -> Iterator[WME]:
        return iter(self.wmes)
