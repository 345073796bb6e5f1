"""Per-file rules R1–R5 and R9 (+ W0 via waiver parsing) and source
facts.

The FileLinter walks one token stream. Besides emitting the zone-
scoped per-line findings, it records *source facts* — entropy /
wall-clock uses and unordered-container iteration — in every zone
including ``src/util``, because the cross-file taint pass (R6) needs
to know that a helper reads the clock even where that is perfectly
legal per-line.
"""

import os
import re

from .findings import Finding
from .waivers import (ZONE_PRAGMA_RE, collect_waivers, is_waived,
                      tags_for_finding)

# Directories (relative to repo root, forward slashes) whose code can
# feed experiment results: hash order, float rounding, or ambient
# entropy here can break the bit-identity contract. src/scenario and
# src/workload feed budget schedules and app swaps straight into
# experiment results, so they are result-affecting too.
RESULT_DIRS = ("src/core", "src/sim", "src/harness", "src/trace",
               "src/policies", "src/cluster", "src/scenario",
               "src/workload")

UNORDERED_TYPES = frozenset({
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
})

# R2: banned qualified names (token sequences joined with '::').
BANNED_QUALIFIED = {
    "std::random_device": "entropy",
    "std::mt19937": "entropy",
    "std::mt19937_64": "entropy",
    "std::default_random_engine": "entropy",
    "std::minstd_rand": "entropy",
    "std::minstd_rand0": "entropy",
    "std::knuth_b": "entropy",
    "std::chrono::steady_clock": "wall-clock",
    "std::chrono::system_clock": "wall-clock",
    "std::chrono::high_resolution_clock": "wall-clock",
}
# Unqualified spellings (after `using namespace std`, or C calls).
BANNED_BARE_TYPES = {
    "random_device": "entropy",
    "mt19937": "entropy",
    "mt19937_64": "entropy",
    "steady_clock": "wall-clock",
    "system_clock": "wall-clock",
    "high_resolution_clock": "wall-clock",
}
# Bare identifiers that are banned only as *calls* (`name(`), and only
# when not a member/qualified access (`x.time()` is fine).
BANNED_CALLS = {
    "rand": "entropy",
    "srand": "entropy",
    "random": "entropy",
    "drand48": "entropy",
    "time": "wall-clock",
    "clock": "wall-clock",
    "gettimeofday": "wall-clock",
    "clock_gettime": "wall-clock",
    "timespec_get": "wall-clock",
}

# R9: raw parsing. util/strings.hpp is the one strict numeric parse
# layer (full-string, range-checked, finite-only) and util/spec.cpp
# the one place that reads spec text line by line; every other src/
# file goes through them, so no lax copy can come back.
PARSE_BANNED = frozenset({
    "strtod", "strtof", "strtold", "strtol", "strtoll", "strtoul",
    "strtoull", "atoi", "atol", "atoll", "atof", "stoi", "stol",
    "stoll", "stoul", "stoull", "stod", "stof", "stold", "getline",
})
PARSE_LAYER = frozenset({"src/util/strings.hpp", "src/util/spec.cpp"})

FORMAT_BANNED = frozenset({"sprintf", "vsprintf"})
FORMAT_CHECKED = frozenset({"snprintf", "vsnprintf"})

# Matches a floating literal with an f/F suffix. Hex integers like
# 0x1F must not match: a hex *float* requires a p-exponent.
FLOAT_LITERAL = re.compile(
    r"^(?:"
    r"(?:\d[\d']*\.[\d']*|\.\d[\d']*|\d[\d']*)(?:[eE][+-]?\d+)?"
    r"|0[xX][0-9a-fA-F']*(?:\.[0-9a-fA-F']*)?[pP][+-]?\d+"
    r")[fF]$")


def zone_of(relpath):
    """'tools' (exempt), 'util', 'result', 'src', or None (unlinted)."""
    p = relpath.replace(os.sep, "/")
    if p.startswith("tools/"):
        return "tools"
    if p.startswith("src/util/"):
        return "util"
    if p.startswith("src/telemetry/"):
        return "telemetry"
    for d in RESULT_DIRS:
        if p.startswith(d + "/"):
            return "result"
    if p.startswith("src/"):
        return "src"
    return None


def statement_span(tokens, idx):
    """Lines of the statement containing tokens[idx].

    Bounded walk out to the enclosing ';' / '{' / '}' in both
    directions so waivers anywhere on a multi-line statement apply.
    """
    lines = {tokens[idx].line}
    j = idx - 1
    while j >= 0 and tokens[j].text not in (";", "{", "}"):
        lines.add(tokens[j].line)
        j -= 1
    j = idx + 1
    while j < len(tokens) and tokens[j].text not in (";", "{", "}"):
        lines.add(tokens[j].line)
        j += 1
    if j < len(tokens):
        lines.add(tokens[j].line)
    return lines


def qualified_name_at(tokens, i):
    """(dotted name, next index) for the `a::b::c` starting at i."""
    parts = [tokens[i].text]
    j = i + 1
    while (j + 1 < len(tokens) and tokens[j].text == "::" and
           tokens[j + 1].kind == "id"):
        parts.append(tokens[j + 1].text)
        j += 2
    return "::".join(parts), j


def prev_sig(tokens, i):
    return tokens[i - 1] if i > 0 else None


def skip_template_args(tokens, i):
    """Given tokens[i].text == '<', index just past the matching '>'."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j].text
        if t == "<" or t == "<<":
            depth += 2 if t == "<<" else 1
        elif t == ">" or t == ">>":
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j + 1
        elif t in (";", "{"):
            return j  # malformed / not a template after all
        j += 1
    return j


class SourceFact:
    """One determinism-taint source use inside a file.

    kind: 'entropy' | 'wall-clock' | 'order'. ``active`` is False
    when a waiver covers the use in a zone where the per-line rule
    applies — the waiver's claim ("results unaffected") extends to
    callers, so an inactive fact does not taint the function.
    """

    __slots__ = ("line", "col", "kind", "span", "active", "detail")

    def __init__(self, line, col, kind, span, detail):
        self.line = line
        self.col = col
        self.kind = kind
        self.span = span
        self.active = True
        self.detail = detail


class FileLinter:
    def __init__(self, path, relpath, text, tokens=None,
                 comments=None):
        self.path = path
        self.relpath = relpath
        self.findings = []
        if tokens is None:
            from .tokens import tokenize
            tokens, comments = tokenize(text)
        self.tokens = tokens
        self.comments = comments
        self.source_facts = []
        # In-file zone override, for the self-test corpus.
        self.logical_path = relpath.replace(os.sep, "/")
        for c in self.comments:
            zm = ZONE_PRAGMA_RE.search(c.text)
            if zm:
                self.logical_path = zm.group(1)
                break
        self.zone = zone_of(self.logical_path)
        self.waivers = collect_waivers(self.comments, self.tokens,
                                       self.findings, relpath)
        # Scope-aware table of names with unordered container type.
        self.scopes = [set()]
        self.unordered_aliases = set()

    # -- helpers ------------------------------------------------------

    def add(self, tok, rule, msg, span=None, tag=None):
        self.findings.append(Finding(self.relpath, tok.line, tok.col,
                                     rule, msg, span, tag))

    def fact(self, tok, kind, span, detail):
        self.source_facts.append(SourceFact(tok.line, tok.col, kind,
                                            span, detail))

    def is_unordered_name(self, name):
        if name in self.unordered_aliases:
            return True
        return any(name in s for s in self.scopes)

    def declare(self, name):
        self.scopes[-1].add(name)

    # -- main walk ----------------------------------------------------

    def run(self):
        """Per-file findings (waiver-filtered) and source facts."""
        if self.zone in (None, "tools"):
            # tools/ is operator-facing: wall clock and ad-hoc format
            # are fine there; only the corpus pragma routes here.
            return self.findings
        toks = self.tokens
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "pp":
                self.check_pp(t)
                i += 1
                continue
            if t.kind == "punct":
                if t.text == "{":
                    self.scopes.append(set())
                elif t.text == "}" and len(self.scopes) > 1:
                    self.scopes.pop()
                i += 1
                continue
            if t.kind == "num":
                self.check_float_literal(i)
                i += 1
                continue
            # Identifiers ---------------------------------------------
            prev = prev_sig(toks, i)
            name, after = qualified_name_at(toks, i)
            base = name.split("::")[-1]

            if t.text == "using" or t.text == "typedef":
                i = self.check_alias(i)
                continue
            if base in UNORDERED_TYPES:
                i = self.check_unordered_decl(i, after)
                continue
            if t.text == "for":
                self.check_range_for(i)
                i += 1
                continue
            if base in FORMAT_BANNED or base in FORMAT_CHECKED:
                self.check_format_call(i, after, name, base)
                i = after
                continue
            if t.text == "float" and self.zone == "result":
                self.add(t, "R4",
                         "float in a double-only result path",
                         statement_span(toks, i))
                i += 1
                continue
            if t.text == "assert":
                self.check_assert(i)
                i += 1
                continue
            if self.check_raw_parse(i, after, name, prev):
                i = after
                continue
            if self.check_banned_entropy(i, after, name, prev):
                i = after
                continue
            # begin()/end() handoff from a tracked unordered name.
            if (self.is_unordered_name(t.text) and
                    after < len(toks) and toks[after].text in
                    (".", "->") and after + 1 < len(toks) and
                    toks[after + 1].text in
                    ("begin", "end", "cbegin", "cend", "rbegin",
                     "rend")):
                span = statement_span(toks, i)
                self.fact(t, "order", span,
                          "iterator handoff from '%s'" % t.text)
                if self.zone == "result":
                    self.add(t, "R1",
                             "iterator handoff from unordered "
                             "container '%s' (iteration order is "
                             "implementation-defined)" % t.text,
                             span)
                i = after + 2
                continue
            i = max(i + 1, after) if name != t.text else i + 1
        kept = [f for f in self.findings
                if not is_waived(f, self.waivers)]
        self._deactivate_waived_facts()
        self.findings = kept
        return kept

    def _deactivate_waived_facts(self):
        """A waived use in a zone where the rule applies is inert.

        In exempt zones (src/util for R1/R2) a waiver comment would
        be meaningless, so the fact stays active there no matter
        what: sources in util always taint, and callers must waive
        the calling edge instead.
        """
        for fact in self.source_facts:
            if fact.kind == "order":
                applies = self.zone == "result"
                tags = frozenset(("order-insensitive",))
            else:
                applies = self.zone in ("result", "src", "telemetry")
                tags = frozenset(("entropy", "wall-clock"))
            if applies and self.waivers.find(fact.span, tags):
                fact.active = False

    # -- individual rules ---------------------------------------------

    def check_pp(self, tok):
        m = re.match(r"#\s*include\s*[<\"]([^>\"]+)[>\"]", tok.text)
        if not m:
            return
        header = m.group(1)
        if header in ("cassert", "assert.h"):
            self.add(tok, "R5",
                     "include of %s; use FASTCAP_ASSERT from "
                     "util/logging.hpp" % header)
        if (self.zone in ("result", "src", "telemetry") and
                header in ("random",)):
            self.add(tok, "R2",
                     "include of <random>; draw from util/rng "
                     "SplitMix64 streams instead")

    def check_float_literal(self, i):
        tok = self.tokens[i]
        if self.zone == "result" and FLOAT_LITERAL.match(tok.text):
            self.add(tok, "R4",
                     "float literal '%s' in a double-only result "
                     "path" % tok.text,
                     statement_span(self.tokens, i))

    def check_alias(self, i):
        """`using X = unordered_…` / `typedef unordered_… X`."""
        toks = self.tokens
        j = i + 1
        alias = None
        saw_unordered = False
        if toks[i].text == "using" and j + 1 < len(toks) and \
                toks[j].kind == "id" and toks[j + 1].text == "=":
            alias = toks[j].text
            j += 2
        last_id = None
        while j < len(toks) and toks[j].text != ";":
            if toks[j].kind == "id":
                if toks[j].text in UNORDERED_TYPES:
                    saw_unordered = True
                elif self.is_unordered_name(toks[j].text):
                    saw_unordered = True
                last_id = toks[j]
            j += 1
        if toks[i].text == "typedef" and last_id is not None:
            alias = last_id.text
        if alias and saw_unordered:
            self.unordered_aliases.add(alias)
            if self.zone == "result":
                self.add(toks[i], "R1",
                         "alias '%s' of an unordered container in "
                         "result-affecting code" % alias,
                         statement_span(toks, i))
        return j + 1

    def check_unordered_decl(self, i, after):
        """A direct unordered_xxx<...> mention; tracked in all zones
        (the taint pass needs util-zone iteration too), flagged only
        in result code."""
        toks = self.tokens
        j = after
        if j < len(toks) and toks[j].text == "<":
            j = skip_template_args(toks, j)
        # Declarator: skip refs/pointers/cv.
        while j < len(toks) and (toks[j].text in ("&", "*", "const") or
                                 toks[j].text == "::"):
            j += 1
        declared = None
        if j < len(toks) and toks[j].kind == "id":
            declared = toks[j].text
            self.declare(declared)
        if self.zone == "result":
            what = ("declaration of '%s' as" % declared) if declared \
                else "use of"
            self.add(toks[i], "R1",
                     "%s an unordered container in result-affecting "
                     "code" % what, statement_span(toks, i))
        return j if j > i else i + 1

    def check_range_for(self, i):
        """`for (decl : expr)` where expr involves an unordered name."""
        toks = self.tokens
        j = i + 1
        if j >= len(toks) or toks[j].text != "(":
            return
        depth = 0
        colon = None
        k = j
        while k < len(toks):
            t = toks[k].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    break
            elif t == ":" and depth == 1:
                colon = k
            elif t == ";" and depth == 1:
                return  # classic for loop
            k += 1
        if colon is None or k >= len(toks):
            return
        for m in range(colon + 1, k):
            t = toks[m]
            if t.kind != "id":
                continue
            if (t.text in UNORDERED_TYPES or
                    self.is_unordered_name(t.text)):
                span = set(tk.line for tk in toks[i:k + 1])
                self.fact(toks[i], "order", span,
                          "range-for over '%s'" % t.text)
                if self.zone == "result":
                    self.add(toks[i], "R1",
                             "range-for over unordered container "
                             "'%s': iteration order is "
                             "implementation-defined" % t.text,
                             span)
                return

    def check_format_call(self, i, after, name, base):
        toks = self.tokens
        if after >= len(toks) or toks[after].text != "(":
            return  # mention, not a call (e.g. a function pointer table)
        span = statement_span(toks, i)
        if base in FORMAT_BANNED:
            self.add(toks[i], "R3",
                     "%s is banned (no bounds): use snprintf and "
                     "check the result" % base, span)
            return
        # Walk back past `std ::` to the token before the call.
        j = i - 1
        while j >= 0 and toks[j].text == "::":
            j -= 2
        before = toks[j] if j >= 0 else None
        discarded = before is None or before.text in (";", "{", "}")
        # Labels: `case X:` / `default:` — treat ':' like a boundary.
        if before is not None and before.text == ":":
            discarded = True
        # `(void)` cast is an explicit discard: still unchecked.
        if (before is not None and before.text == ")" and j >= 2 and
                toks[j - 1].text == "void" and toks[j - 2].text == "("):
            discarded = True
        if discarded:
            self.add(toks[i], "R3",
                     "%s return value unchecked: truncation must be "
                     "detected (checkedSnprintf() or compare against "
                     "the buffer size)" % base, span)

    def check_assert(self, i):
        toks = self.tokens
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        prev = prev_sig(toks, i)
        if nxt is None or nxt.text != "(":
            return
        if prev is not None and prev.text in (".", "->", "::", "#"):
            return
        self.add(toks[i], "R5",
                 "raw assert(): compiled out in release; use "
                 "FASTCAP_ASSERT (panics) or fatal()",
                 statement_span(toks, i))

    def check_raw_parse(self, i, after, name, prev):
        """R9: a bare or std:: strto*/ato*/sto*/getline outside the
        parse layer. Any mention counts, so a function pointer to
        strtod cannot smuggle one in; member accesses do not fire."""
        if prev is not None and prev.text in (".", "->", "::"):
            return False
        parts = name.split("::")
        if len(parts) == 2 and parts[0] == "std":
            parts = parts[1:]
        if len(parts) != 1 or parts[0] not in PARSE_BANNED:
            return False
        if self.logical_path in PARSE_LAYER:
            return True
        if parts[0] == "getline":
            fix = ("use splitFields/cutFields/LineReader from "
                   "util/spec.hpp (trimmed, no empty fields)")
        else:
            fix = ("use parseInt/parseDouble/parseOrFatal from "
                   "util/strings.hpp (full-string, range-checked, "
                   "finite-only)")
        self.add(self.tokens[i], "R9",
                 "raw %s outside the parse layer: %s" % (parts[0], fix),
                 statement_span(self.tokens, i))
        return True

    def check_banned_entropy(self, i, after, name, prev):
        toks = self.tokens
        if prev is not None and prev.text in (".", "->", "::"):
            return False
        span = statement_span(toks, i)
        emit = self.zone in ("result", "src", "telemetry")
        # Qualified names match as prefixes so member accesses like
        # std::chrono::steady_clock::now are caught at the head.
        for banned, kind in BANNED_QUALIFIED.items():
            if name == banned or name.startswith(banned + "::"):
                self.fact(toks[i], kind, span, banned)
                if emit:
                    self.add(toks[i], "R2",
                             "%s: %s" % (banned, _r2_msg(kind)), span,
                             tag=kind)
                return True
        parts = name.split("::")
        if parts[0] in BANNED_BARE_TYPES:
            kind = BANNED_BARE_TYPES[parts[0]]
            self.fact(toks[i], kind, span, parts[0])
            if emit:
                self.add(toks[i], "R2",
                         "%s: %s" % (parts[0], _r2_msg(kind)), span,
                         tag=kind)
            return True
        # Banned C calls: bare `time(...)` or `std::time(...)`, but
        # never member calls (`sim.time()`) or other namespaces'.
        callee = None
        if len(parts) == 1:
            callee = parts[0]
        elif len(parts) == 2 and parts[0] == "std":
            callee = parts[1]
        if (callee in BANNED_CALLS and after < len(toks) and
                toks[after].text == "("):
            kind = BANNED_CALLS[callee]
            self.fact(toks[i], kind, span, "%s()" % callee)
            if emit:
                self.add(toks[i], "R2",
                         "%s(): %s" % (callee, _r2_msg(kind)), span,
                         tag=kind)
            return True
        return False


def _r2_msg(kind):
    if kind == "entropy":
        return ("ambient randomness breaks seeded reproducibility; "
                "derive a util/rng SplitMix64 stream instead")
    return ("wall clock in simulation code breaks bit-identity; "
            "use the sim clock (or waive for operator-only timing)")
