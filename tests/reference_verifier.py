"""The character-walk extract_boxed that the reverse box scan replaced.

Kept verbatim as the oracle for the differential test in test_verifier.py:
the extraction rule is frozen under RULESET_VERSION, so the fast version
must return exactly what this one returns on every input.
"""

from __future__ import annotations

import re

_BOXED = re.compile(r"\\boxed\s*\{")


def extract_boxed(text: str) -> str | None:
    """Contents of the last well-formed \\boxed{...} in text, or None.

    Brace matching is balanced, so nested groups like \\boxed{\\dfrac{1}{2}}
    come back whole. Missing or never-closed boxes yield None; this never
    raises, whatever the input.
    """
    starts = {m.start(): m.end() for m in _BOXED.finditer(text)}
    if not starts:
        return None
    best: tuple[int, str] | None = None
    depth = 0
    pending: list[tuple[int, int]] = []  # (content start, depth at open)
    i = 0
    n = len(text)
    while i < n:
        content_start = starts.get(i)
        if content_start is not None:
            pending.append((content_start, depth))
            depth += 1
            i = content_start
            continue
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if pending and pending[-1][1] == depth:
                start, _ = pending.pop()
                if best is None or start > best[0]:
                    best = (start, text[start:i])
        i += 1
    return best[1] if best is not None else None
