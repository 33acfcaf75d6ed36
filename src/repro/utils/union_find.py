"""Disjoint-set (union-find) data structure.

Union-find is the workhorse of every connectivity check in this library:
possible-world connectivity, frontier-component maintenance inside the
S2BDD, sampling completions of intermediate graphs, and the preprocessing
phases all reduce to merging sets of vertices and asking whether two
vertices share a representative.

The implementation uses union by size and iterative path halving, giving
the usual near-constant amortised cost per operation in a single pass per
find.  Elements may be any hashable objects; they are registered lazily on
first use.

For hot loops that can intern their elements to ``0..n-1`` up front, a
flat ``parent`` list with inline path-halving finds (as in
:mod:`repro.graph.compiled` and the S²BDD's stratum completions) is the
faster choice; this class remains the general structure for
hashable-element callers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over arbitrary hashable elements.

    Parameters
    ----------
    elements:
        Optional iterable of elements to pre-register, each in its own
        singleton set.  Elements not registered up front are added lazily by
        :meth:`add`, :meth:`find`, or :meth:`union`.
    """

    __slots__ = ("_parent", "_size", "_components")

    def __init__(self, elements: Optional[Iterable[Hashable]] = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._components = 0
        if elements is not None:
            for element in elements:
                self.add(element)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Return the number of registered elements."""
        return len(self._parent)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"UnionFind(elements={len(self._parent)}, "
            f"components={self._components})"
        )

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, element: Hashable) -> None:
        """Register ``element`` as a singleton set if it is not yet known."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1
            self._components += 1

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of ``element``'s set.

        Unknown elements are registered as singletons first, so ``find``
        never raises for hashable input.  Uses iterative path halving —
        every visited element is pointed at its grandparent on the way up —
        which compresses in the same single pass that locates the root
        (the old implementation walked the path twice).
        """
        parent = self._parent
        if element not in parent:
            self.add(element)
            return element
        while parent[element] != element:
            parent[element] = parent[parent[element]]
            element = parent[element]
        return element

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns ``True`` if a merge happened and ``False`` if the two
        elements were already in the same set.
        """
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._components -= 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Return ``True`` if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    @property
    def component_count(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._components

    def component_size(self, element: Hashable) -> int:
        """Return the size of the set containing ``element``."""
        return self._size[self.find(element)]

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Return a mapping from each representative to its members."""
        result: Dict[Hashable, List[Hashable]] = {}
        for element in self._parent:
            result.setdefault(self.find(element), []).append(element)
        return result

    def same_component(self, elements: Iterable[Hashable]) -> bool:
        """Return ``True`` if every element of ``elements`` shares one set.

        An empty iterable and a single element are both trivially in the
        same component.
        """
        iterator = iter(elements)
        try:
            first = next(iterator)
        except StopIteration:
            return True
        root = self.find(first)
        return all(self.find(element) == root for element in iterator)

    def copy(self) -> "UnionFind":
        """Return an independent copy of the structure."""
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._size = dict(self._size)
        clone._components = self._components
        return clone
