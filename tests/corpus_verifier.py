"""Hand-written verifier corpus shared by the unit tests and the acceptance gate.

Each case is a plain tuple so failures read well in pytest output. The corpus
also pins the subset's documented boundaries (e.g. "x + 1" vs "x+1" stay
distinct because whitespace runs are collapsed, not removed).
"""

# (completion text, expected boxed contents or None)
EXTRACTION_CASES = [
    ("The speed is 2 m/s. Time required is 54/2 = 27 seconds. \\boxed{27}", "27"),
    ("... so I just need to write that in a box. \\boxed{\\dfrac{1}{20}}", "\\dfrac{1}{20}"),
    ("the answer is \\boxed{27}.", "27"),
    ("no box here", None),
    ("", None),
    ("\\boxed{a{b}c} then \\boxed{x}", "x"),
    ("\\boxed{x} then \\boxed{a{b}c}", "a{b}c"),
    ("\\boxed{unclosed", None),
    ("\\boxed{}", ""),
    ("\\boxed{ 42 }", " 42 "),
    ("\\boxed {7}", "7"),
    ("prefix \\boxed{\\frac{1}{2}} suffix", "\\frac{1}{2}"),
    ("\\boxed{a} \\boxed{b} \\boxed{c}", "c"),
    ("}{}{}} junk \\boxed{5} }}{", "5"),
    ("\\boxed{x_{1}+y^{2}}", "x_{1}+y^{2}"),
    ("\\boxed{first} and \\boxed{second never closes", "first"),
]

# (raw answer, normalized form)
NORMALIZATION_CASES = [
    ("\\dfrac{1}{20}", "1/20"),
    (" 1,000 ", "1000"),
    ("27", "27"),
    ("27.000", "27"),
    ("50%", "50/100"),
    ("  spaced   out  ", "spaced out"),
    ("$42$", "42"),
    ("\\left(\\frac{1}{2}\\right)", "(1/2)"),
    ("1,234,567", "1234567"),
    ("3.50", "3.50"),
    ("-5", "-5"),
    ("\\frac{22}{7}", "22/7"),
    ("Two", "Two"),
]

# (a, b, equal?)
EQUALITY_CASES = [
    ("0.5", "1/2", True),
    ("1/20", "\\dfrac{1}{20}", True),
    ("27", "28", False),
    ("27", "27.0", True),
    ("50%", "0.5", True),
    ("1,000", "1000", True),
    ("2/4", "0.5", True),
    ("\\frac{3}{4}", "0.75", True),
    ("1/3", "0.333", False),
    ("100", "100%", False),
    ("0.50", "1/2", True),
    ("+5", "5", True),
    ("1e2", "100", True),
    ("1/2/3", "3/2", False),  # a chained slash is no number
    ("\\frac{1/2}{3}", "3/2", False),
    ("x", "x", True),
    ("x + 1", "x+1", False),  # whitespace runs collapse, they are not removed
    ("abc", "abd", False),
]
