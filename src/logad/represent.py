"""Log representations: word tokens, character trigrams, template event ids.

The template miner is a fixed-depth prefix tree: messages route first by
token count, then by a bounded number of leading tokens, and are matched
at the leaf against existing template groups by positional similarity.
Variable positions in a template are replaced by the wildcard ``<*>``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

WILDCARD = "<*>"
UNSEEN_EVENT = "e_unseen"
# Children per routing node; a full node routes new tokens to its wildcard.
_MAX_CHILDREN = 100


@dataclass(slots=True)
class TokenSeq:
    """Ordered terms of one document; ``len(terms)`` is its token count,
    which the count matrices keep after out-of-vocabulary terms drop out."""

    terms: list[str]


def tokenize_words(msg: str) -> TokenSeq:
    """Split on whitespace runs; never yields empty terms."""
    return TokenSeq(msg.split())


def tokenize_trigrams(msg: str) -> TokenSeq:
    """All character windows of length 3, in order.

    Messages shorter than three characters yield the whole message as a
    single term, so no document ever tokenizes to nothing.
    """
    if len(msg) < 3:
        return TokenSeq([msg])
    return TokenSeq([msg[i : i + 3] for i in range(len(msg) - 2)])


@dataclass
class TemplateGroup:
    event_id: str
    template: list[str]
    count: int = 0


class _Node:
    """Tree node; the template groups of a leaf live on the leaf itself."""

    __slots__ = ("children", "groups")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.groups: list[TemplateGroup] = []


class DrainParser:
    """Fixed-depth-tree log template miner.

    ``fit_line`` learns templates from the training stream (order matters);
    ``parse_line`` is a read-only lookup that returns a reserved unseen
    event id for messages matching no learned group, so test-time parsing
    never mutates the model.
    """

    def __init__(self, depth: int = 4, sim_threshold: float = 0.4):
        if depth < 3:
            raise ValueError(f"depth must be >= 3, got {depth}")
        if not 0.0 < sim_threshold < 1.0:
            raise ValueError(f"sim_threshold must be in (0, 1), got {sim_threshold}")
        self.depth = depth
        self.sim_threshold = sim_threshold
        # Leaf depth counts the root, the token-count level and the leaf
        # group list, leaving depth - 3 levels of leading-token routing
        # (depth 4 routes by token count plus one leading token).
        self._route_len = depth - 3
        self._length_roots: dict[int, _Node] = {}
        self._groups: list[TemplateGroup] = []

    # -- tree walking ------------------------------------------------------

    def _descend(self, tokens: list[str]) -> list[TemplateGroup] | None:
        """Read-only walk to the leaf group list, or None on a missing path."""
        node = self._length_roots.get(len(tokens))
        if node is None:
            return None
        for tok in tokens[: self._route_len]:
            child = node.children.get(tok)
            if child is None:
                child = node.children.get(WILDCARD)
            if child is None:
                return None
            node = child
        return node.groups

    def _descend_create(self, tokens: list[str]) -> list[TemplateGroup]:
        node = self._length_roots.setdefault(len(tokens), _Node())
        for tok in tokens[: self._route_len]:
            # Normalization rewrites every number to '0', so a token
            # containing '0' is treated as a variable and routed through
            # the wildcard child, as is a new token once the node has no
            # room left beside a wildcard child.
            children = node.children
            child = children.get(tok)
            if child is None:
                if "0" not in tok and len(children) + (WILDCARD not in children) < _MAX_CHILDREN:
                    child = children[tok] = _Node()
                elif (child := children.get(WILDCARD)) is None:
                    child = children[WILDCARD] = _Node()
            node = child
        return node.groups

    # -- leaf matching -----------------------------------------------------

    @staticmethod
    def _similarity(template: list[str], tokens: list[str]) -> tuple[float, int]:
        """Fraction of positions with equal tokens, plus the wildcard count."""
        if not template:
            return 1.0, 0
        same = wild = 0
        for a, b in zip(template, tokens):
            if a == WILDCARD:
                wild += 1
            elif a == b:
                same += 1
        return same / len(template), wild

    def _best_match(self, groups: list[TemplateGroup], tokens: list[str]) -> TemplateGroup | None:
        best = None
        best_key = (-1.0, -1)
        for g in groups:
            key = self._similarity(g.template, tokens)
            if key > best_key:
                best_key = key
                best = g
        if best is not None and best_key[0] >= self.sim_threshold:
            return best
        return None

    # -- public API --------------------------------------------------------

    def fit_line(self, msg: str) -> str:
        """Learn from one training message and return its event id."""
        tokens = msg.split()
        groups = self._descend_create(tokens)
        group = self._best_match(groups, tokens)
        if group is None:
            group = TemplateGroup(f"e{len(self._groups) + 1}", list(tokens))
            self._groups.append(group)
            groups.append(group)
        else:
            # Positions that disagree become wildcards; once wildcarded a
            # position never reverts.
            group.template = [
                a if a == b else WILDCARD for a, b in zip(group.template, tokens)
            ]
        group.count += 1
        return group.event_id

    def parse_line(self, msg: str) -> str:
        """Look up one message without mutating the tree."""
        tokens = msg.split()
        groups = self._descend(tokens)
        if not groups:
            return UNSEEN_EVENT
        group = self._best_match(groups, tokens)
        return group.event_id if group is not None else UNSEEN_EVENT

    def groups(self) -> list[TemplateGroup]:
        return list(self._groups)

    def dump_templates(self, path: str | Path) -> None:
        """Write (event id, template, match count) rows as CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["event_id", "template", "count"])
            for g in self._groups:
                writer.writerow([g.event_id, " ".join(g.template), g.count])

