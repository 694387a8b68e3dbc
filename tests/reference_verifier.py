"""The character-walk extract_boxed that the reverse box scan replaced, and
the normalize that ran every rewrite on every answer.

Kept verbatim as the oracles for the differential tests in test_verifier.py:
the extraction and normalization rules are frozen under RULESET_VERSION, so
the fast versions must return exactly what these return on every input.
"""

from __future__ import annotations

import re

_BOXED = re.compile(r"\\boxed\s*\{")
_LEFT_RIGHT = re.compile(r"\\left\b|\\right\b")
_DFRAC = re.compile(r"\\dfrac\b")
_FRAC = re.compile(r"\\frac\{([^{}]+)\}\{([^{}]+)\}")
_DIGIT_COMMA = re.compile(r"(?<=\d),(?=\d)")
_TRAILING_ZEROS = re.compile(r"(?<=\d)\.0+$")
_PERCENT = re.compile(r"^([+-]?\d+(?:\.\d+)?)%$")


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


def normalize(answer: str) -> str:
    """Canonicalize an answer string under the frozen rule set.

    In order: strip \\left/\\right, strip $, normalize whitespace (trim and
    collapse runs), rewrite \\dfrac to \\frac, rewrite \\frac{a}{b} to a/b
    (innermost first, to a fixed point), drop thousands commas inside digit
    runs, drop a trailing .0...0, and rewrite a trailing % on a number into
    /100 form. Idempotent; case is preserved.
    """
    s = _LEFT_RIGHT.sub("", answer)
    s = s.replace("$", "")
    s = " ".join(s.split())
    s = _DFRAC.sub(r"\\frac", s)
    while True:
        rewritten = _FRAC.sub(r"\1/\2", s)
        if rewritten == s:
            break
        s = rewritten
    s = _DIGIT_COMMA.sub("", s)
    s = _TRAILING_ZEROS.sub("", s)
    m = _PERCENT.match(s)
    if m:
        s = m.group(1) + "/100"
    return s
