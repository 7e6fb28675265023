"""Synchronization labels for hybrid automata (paper Section II-A, item 8).

A synchronization label consists of a *root* (the event name) and a
*prefix* describing the role of the automaton for that event:

* ``!root``  -- the automaton **sends** (broadcasts) the event;
* ``?root``  -- the automaton **receives** the event over a reliable link;
* ``??root`` -- the automaton **receives** the event over an unreliable
  (e.g. wireless) link, i.e. the event may be lost;
* ``root``   -- an internal label with no receiver.

Labels with different prefixes or roots are regarded as different labels,
exactly as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Prefix(enum.Enum):
    """Role of an automaton with respect to an event."""

    INTERNAL = ""
    SEND = "!"
    RECEIVE = "?"
    RECEIVE_LOSSY = "??"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class SyncLabel:
    """A synchronization label ``prefix + root``.

    Attributes:
        prefix: The :class:`Prefix` of the label.
        root: The event name shared by sender and receiver(s).
    """

    prefix: Prefix
    root: str

    def __post_init__(self) -> None:
        if not self.root:
            raise ValueError("synchronization label root must be non-empty")
        if any(ch.isspace() for ch in self.root):
            raise ValueError(f"label root may not contain whitespace: {self.root!r}")

    # -- classification ----------------------------------------------------
    @property
    def is_send(self) -> bool:
        """True if this automaton broadcasts the event."""
        return self.prefix is Prefix.SEND

    @property
    def is_receive(self) -> bool:
        """True if this automaton receives the event (reliably or not)."""
        return self.prefix in (Prefix.RECEIVE, Prefix.RECEIVE_LOSSY)

    @property
    def is_lossy(self) -> bool:
        """True if the event reception is over an unreliable channel."""
        return self.prefix is Prefix.RECEIVE_LOSSY

    def __str__(self) -> str:
        return f"{self.prefix.value}{self.root}"


def send(root: str) -> SyncLabel:
    """Build a ``!root`` (sender) label."""
    return SyncLabel(Prefix.SEND, root)


def receive(root: str) -> SyncLabel:
    """Build a ``?root`` (reliable receiver) label."""
    return SyncLabel(Prefix.RECEIVE, root)


def receive_lossy(root: str) -> SyncLabel:
    """Build a ``??root`` (unreliable receiver) label."""
    return SyncLabel(Prefix.RECEIVE_LOSSY, root)


def internal(root: str) -> SyncLabel:
    """Build an internal label with no prefix."""
    return SyncLabel(Prefix.INTERNAL, root)


def parse_label(text: str) -> SyncLabel:
    """Parse a textual label such as ``"??evtVPumpIn"`` into a :class:`SyncLabel`.

    The longest matching prefix wins, so ``"??x"`` parses as a lossy receive
    of ``x`` rather than a reliable receive of ``?x``.
    """
    text = text.strip()
    if text.startswith("??"):
        return SyncLabel(Prefix.RECEIVE_LOSSY, text[2:])
    if text.startswith("?"):
        return SyncLabel(Prefix.RECEIVE, text[1:])
    if text.startswith("!"):
        return SyncLabel(Prefix.SEND, text[1:])
    return SyncLabel(Prefix.INTERNAL, text)
