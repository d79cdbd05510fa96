"""A B+-tree keyed by arbitrary comparable keys (we use Dewey ID tuples).

Section III of the paper relies on "B+-trees to skip over similar answers":
posting lists must support jumping to the smallest entry >= some Dewey ID
(and, for the bidirectional probing algorithm, the largest entry <= some
Dewey ID).  This module provides that substrate: a classic main-memory
B+-tree with doubly linked leaves, ``ceiling``/``floor`` search, range scans
and bulk loading.

The tree maps keys to values; posting lists store ``key = Dewey ID`` and
``value = rid`` (plus an optional score payload at higher layers).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional, Tuple

DEFAULT_ORDER = 32


class _Node:
    __slots__ = ("keys",)

    def __init__(self):
        self.keys: list = []


class _Leaf(_Node):
    __slots__ = ("values", "next", "prev")

    def __init__(self):
        super().__init__()
        self.values: list = []
        self.next: Optional[_Leaf] = None
        self.prev: Optional[_Leaf] = None


class _Internal(_Node):
    """Internal node: ``children[i]`` holds keys < ``keys[i]``; the last child
    holds keys >= ``keys[-1]``.  (Standard right-biased separators.)"""

    __slots__ = ("children",)

    def __init__(self):
        super().__init__()
        self.children: list[_Node] = []


class BPlusTree:
    """Sorted key/value map with B+-tree complexity guarantees.

    ``order`` is the maximum number of keys in a node; nodes split at
    ``order`` keys and (on delete) merge below ``order // 2``.
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 3:
            raise ValueError("B+-tree order must be at least 3")
        self._order = order
        self._root: _Node = _Leaf()
        self._size = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls, pairs: list[Tuple[Any, Any]], order: int = DEFAULT_ORDER
    ) -> "BPlusTree":
        """Bulk-load from key-sorted, duplicate-free ``(key, value)`` pairs.

        Builds packed leaves bottom-up; much faster than repeated inserts for
        offline index generation (the paper's index build, Section V-A).
        """
        tree = cls(order=order)
        if not pairs:
            return tree
        for i in range(1, len(pairs)):
            if not pairs[i - 1][0] < pairs[i][0]:
                raise ValueError("from_sorted requires strictly increasing keys")
        fill = max(2, (order * 2) // 3)
        leaves: list[_Leaf] = []
        for start in range(0, len(pairs), fill):
            leaf = _Leaf()
            chunk = pairs[start : start + fill]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
                leaf.prev = leaves[-1]
            leaves.append(leaf)
        # Avoid an under-full final leaf (steal from its left sibling).
        if len(leaves) > 1 and len(leaves[-1].keys) < 2:
            prev, last = leaves[-2], leaves[-1]
            move = 1
            last.keys[:0] = prev.keys[-move:]
            last.values[:0] = prev.values[-move:]
            del prev.keys[-move:], prev.values[-move:]
        level: list[_Node] = list(leaves)
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start : start + fill]
                if len(group) == 1 and parents:
                    # Fold a lone trailing child into the previous parent.
                    parent = parents[-1]
                    parent.keys.append(_smallest_key(group[0]))
                    parent.children.append(group[0])
                    continue
                parent = _Internal()
                parent.children = group
                parent.keys = [_smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        tree._root = level[0]
        tree._size = len(pairs)
        return tree

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __repr__(self) -> str:
        return f"BPlusTree(order={self._order}, size={self._size})"

    def height(self) -> int:
        """Number of levels (1 for a lone leaf)."""
        node, levels = self._root, 1
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels

    def memory_bytes(self) -> int:
        """Resident bytes of the tree structure and its key objects.

        Counts every node object, its key/value/children lists, and the key
        payloads (value payloads are shared or ``None`` in posting-list use,
        so only a pointer slot is charged for them).
        """
        import sys

        total = sys.getsizeof(self)
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            total += sys.getsizeof(node) + sys.getsizeof(node.keys)
            total += sum(sys.getsizeof(key) for key in node.keys)
            if isinstance(node, _Internal):
                total += sys.getsizeof(node.children)
                stack.extend(node.children)
            else:
                total += sys.getsizeof(node.values)
        return total

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            root = _Internal()
            root.keys = [separator]
            root.children = [self._root, right]
            self._root = root

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if it was absent.

        Uses lazy deletion structure-wise: entries are removed from leaves
        and under-full nodes are rebalanced with borrow/merge.
        """
        removed = self._delete(self._root, key)
        if removed:
            self._size -= 1
            if isinstance(self._root, _Internal) and len(self._root.children) == 1:
                self._root = self._root.children[0]
        return removed

    # ------------------------------------------------------------------
    # Navigation (the operations the paper's algorithms rely on)
    # ------------------------------------------------------------------
    def ceiling(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Smallest ``(key', value)`` with ``key' >= key``, else ``None``."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index == len(leaf.keys):
            leaf = leaf.next
            index = 0
        if leaf is None or index >= len(leaf.keys):
            return None
        return leaf.keys[index], leaf.values[index]

    def floor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Largest ``(key', value)`` with ``key' <= key``, else ``None``."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_right(leaf.keys, key) - 1
        if index < 0:
            leaf = leaf.prev
            if leaf is None:
                return None
            index = len(leaf.keys) - 1
        return leaf.keys[index], leaf.values[index]

    def first(self) -> Optional[Tuple[Any, Any]]:
        """Smallest entry, or ``None`` when empty."""
        if not self._size:
            return None
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0], node.values[0]

    def last(self) -> Optional[Tuple[Any, Any]]:
        """Largest entry, or ``None`` when empty."""
        if not self._size:
            return None
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1], node.values[-1]

    def items(
        self, low: Any = None, high: Any = None, reverse: bool = False
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high``."""
        if not self._size:
            return
        if not reverse:
            if low is None:
                node = self._root
                while isinstance(node, _Internal):
                    node = node.children[0]
                leaf, index = node, 0
            else:
                leaf = self._find_leaf(low)
                index = bisect.bisect_left(leaf.keys, low)
            while leaf is not None:
                while index < len(leaf.keys):
                    key = leaf.keys[index]
                    if high is not None and key > high:
                        return
                    yield key, leaf.values[index]
                    index += 1
                leaf, index = leaf.next, 0
        else:
            if high is None:
                node = self._root
                while isinstance(node, _Internal):
                    node = node.children[-1]
                leaf, index = node, len(node.keys) - 1
            else:
                leaf = self._find_leaf(high)
                index = bisect.bisect_right(leaf.keys, high) - 1
                if index < 0:
                    leaf = leaf.prev
                    index = len(leaf.keys) - 1 if leaf is not None else -1
            while leaf is not None:
                while index >= 0:
                    key = leaf.keys[index]
                    if low is not None and key < low:
                        return
                    yield key, leaf.values[index]
                    index -= 1
                leaf = leaf.prev
                index = len(leaf.keys) - 1 if leaf is not None else -1

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def _insert(self, node: _Node, key: Any, value: Any):
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf):
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        del leaf.keys[middle:], leaf.values[middle:]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        del node.keys[middle:], node.children[middle + 1 :]
        return separator, right

    def _delete(self, node: _Node, key: Any) -> bool:
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            del node.keys[index], node.values[index]
            return True
        index = bisect.bisect_right(node.keys, key)
        child = node.children[index]
        removed = self._delete(child, key)
        if removed:
            self._rebalance(node, index)
        return removed

    def _rebalance(self, parent: _Internal, index: int) -> None:
        child = parent.children[index]
        minimum = max(1, self._order // 2)
        if len(child.keys) >= minimum:
            return
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if isinstance(child, _Leaf):
            if left is not None and len(left.keys) > minimum:
                child.keys.insert(0, left.keys.pop())
                child.values.insert(0, left.values.pop())
                parent.keys[index - 1] = child.keys[0]
            elif right is not None and len(right.keys) > minimum:
                child.keys.append(right.keys.pop(0))
                child.values.append(right.values.pop(0))
                parent.keys[index] = right.keys[0]
            elif left is not None:
                left.keys.extend(child.keys)
                left.values.extend(child.values)
                left.next = child.next
                if child.next is not None:
                    child.next.prev = left
                del parent.children[index], parent.keys[index - 1]
            elif right is not None:
                child.keys.extend(right.keys)
                child.values.extend(right.values)
                child.next = right.next
                if right.next is not None:
                    right.next.prev = child
                del parent.children[index + 1], parent.keys[index]
        else:
            if left is not None and len(left.keys) > minimum:
                child.keys.insert(0, parent.keys[index - 1])
                parent.keys[index - 1] = left.keys.pop()
                child.children.insert(0, left.children.pop())
            elif right is not None and len(right.keys) > minimum:
                child.keys.append(parent.keys[index])
                parent.keys[index] = right.keys.pop(0)
                child.children.append(right.children.pop(0))
            elif left is not None:
                left.keys.append(parent.keys[index - 1])
                left.keys.extend(child.keys)
                left.children.extend(child.children)
                del parent.children[index], parent.keys[index - 1]
            elif right is not None:
                child.keys.append(parent.keys[index])
                child.keys.extend(right.keys)
                child.children.extend(right.children)
                del parent.children[index + 1], parent.keys[index]


def _smallest_key(node: _Node) -> Any:
    while isinstance(node, _Internal):
        node = node.children[0]
    return node.keys[0]


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()
