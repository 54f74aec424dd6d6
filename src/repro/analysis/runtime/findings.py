"""Runtime findings: what the sanitizer reports and how it renders.

A runtime finding differs from a static :class:`repro.analysis.findings.Finding`
in one essential way: it is anchored to *stacks observed at runtime*,
not to a single source line.  A lock-order cycle names every edge of
the cycle with the stack that acquired each lock; a guarded-by
violation carries the writing thread's stack plus the declaration
site; a resource leak carries the creation stack of the object that
was never closed.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field
from types import FrameType
from typing import Optional

#: Frames whose file lives under this directory are sanitizer
#: plumbing and are trimmed from reported stacks.
_RUNTIME_DIR = os.path.dirname(os.path.abspath(__file__))


def capture_frame(skip: int = 1) -> Optional[FrameType]:
    """The caller's live frame, ``skip`` levels up (cheap: no formatting).

    Formatting is deferred to :func:`format_frame_stack`, which is only
    called for the *first* occurrence of an edge/violation — steady-state
    lock traffic never pays for stack rendering.
    """
    try:
        return sys._getframe(skip + 1)
    except ValueError:  # stack shallower than requested
        return None


def format_frame_stack(frame: Optional[FrameType]) -> str:
    """Render ``frame``'s stack, trimming sanitizer-internal frames."""
    if frame is None:
        return "  <stack unavailable>\n"
    summary = traceback.extract_stack(frame)
    kept = [
        entry for entry in summary
        if not os.path.abspath(entry.filename).startswith(_RUNTIME_DIR)
    ]
    text = "".join(traceback.format_list(kept or list(summary)))
    return text or "  <stack unavailable>\n"


def capture_stack(skip: int = 1) -> str:
    """Format the current stack immediately (creation-site tracking)."""
    return format_frame_stack(capture_frame(skip + 1))


@dataclass(frozen=True)
class RuntimeFinding:
    """One sanitizer finding with its supporting stacks."""

    #: Which checker fired: ``lock-order-cycle``, ``guarded-by`` or
    #: ``resource-leak``.
    rule: str
    #: One-line description of the violation.
    message: str
    #: Labelled stacks: ``(what this stack shows, formatted stack)``.
    sites: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def render(self) -> str:
        """Multi-line human report: message plus every labelled stack."""
        lines = [f"[{self.rule}] {self.message}"]
        for label, stack in self.sites:
            lines.append(f"  * {label}:")
            for row in stack.rstrip("\n").splitlines():
                lines.append(f"    {row}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (report artifact)."""
        return {
            "rule": self.rule,
            "message": self.message,
            "sites": [
                {"label": label, "stack": stack} for label, stack in self.sites
            ],
        }
