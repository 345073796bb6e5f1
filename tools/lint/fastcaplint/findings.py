"""Finding type, rule catalog and waiver-tag tables."""

import json

RULES = {
    "R1": ("order-insensitive",
           "unordered container in result-affecting code"),
    "R2": ("entropy | wall-clock",
           "ambient randomness or wall clock outside util/tools"),
    "R3": ("format-checked",
           "unchecked snprintf return / banned sprintf"),
    "R4": ("float-ok",
           "float in double-only solver/model/merge path"),
    "R5": ("raw-assert",
           "raw assert; use FASTCAP_ASSERT or fatal()"),
    "R6": ("entropy | wall-clock | order-insensitive",
           "result-path call chain reaches a determinism-taint "
           "source"),
    "R7": ("lock-order",
           "lock acquisition order forms a cycle (potential "
           "deadlock)"),
    "R8": ("telemetry-sink",
           "telemetry value read back into result-affecting code "
           "(src/telemetry is write-only from result zones)"),
    "R9": ("parse-checked",
           "raw strto*/ato*/sto* numeric conversion outside "
           "util/strings.hpp"),
    "W0": (None, "malformed fastcap-lint waiver"),
    "W1": (None, "stale fastcap-lint waiver (suppresses nothing)"),
}

# Waiver tag -> rule it can silence. R6 accepts the tag matching the
# taint kind it reports (entropy / wall-clock / order-insensitive),
# enforced in waivers.tags_for_finding rather than here.
WAIVER_TAGS = {
    "order-insensitive": "R1",
    "entropy": "R2",
    "wall-clock": "R2",
    "format-checked": "R3",
    "float-ok": "R4",
    "raw-assert": "R5",
    "lock-order": "R7",
    "telemetry-sink": "R8",
    "parse-checked": "R9",
}

WAIVER_TAGS_BY_RULE = {}
for _tag, _rule in WAIVER_TAGS.items():
    WAIVER_TAGS_BY_RULE.setdefault(_rule, _tag)


class Finding:
    def __init__(self, path, line, col, rule, message, span=None,
                 tag=None):
        self.path = path
        self.line = line          # 1-based line of the trigger token
        self.col = col            # 1-based column
        self.rule = rule
        self.message = message
        # Lines a waiver may sit on (the statement's extent).
        self.span = span if span is not None else {line}
        self.tag = tag            # preferred waiver tag, if not default

    def waive_tag(self):
        return self.tag or WAIVER_TAGS_BY_RULE.get(self.rule)

    def render(self):
        tag = self.waive_tag()
        hint = ""
        if tag:
            hint = " [waive: // fastcap-lint: %s(reason)]" % tag
        return "%s:%d:%d: [%s] %s%s" % (
            self.path, self.line, self.col, self.rule, self.message,
            hint)

    def render_jsonl(self):
        return json.dumps({
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "waive_tag": self.waive_tag(),
        }, sort_keys=True)


def sort_key(finding):
    return (finding.path, finding.line, finding.col, finding.rule)
