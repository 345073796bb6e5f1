"""CLI driver: file collection, analysis passes, self-test harness.

Analysis order per invocation:

  1. per-file rules R1–R5 and R9 (+ W0) over every target file;
  2. symbol index + call graph over the same token streams;
  3. R6 determinism taint, R7 lock-order, and R8 telemetry-sink
     over the index;
  4. W1 stale-waiver harvest — only in whole-tree and self-test
     modes, where the file set is complete; linting an explicit file
     list must not call a waiver stale just because its matching
     caller was not on the command line.
"""

import argparse
import os
import re
import sys

from . import locks, sink, taint
from .filerules import FileLinter
from .findings import RULES, sort_key
from .index import SymbolIndex
from .tokens import TokenCache
from .waivers import stale_waiver_findings

EXPECT_RE = re.compile(r"EXPECT:\s*((?:[RW]\d+\s*)+)")
# `// EXPECT-MEMBER: name type words` pins the symbol index itself:
# some class of the unit must record member `name` with that type.
EXPECT_MEMBER_RE = re.compile(r"EXPECT-MEMBER:\s*(\w+)\s+(\w+(?: \w+)*)")


def analyze(targets, cache, enable_w1):
    """(all findings over ``targets`` ([(path, relpath)]), sorted;
    the symbol index built over them)."""
    findings = []
    entries = []
    waiver_map = {}
    zone_map = {}
    for path, rel in targets:
        try:
            text, tokens, comments = cache.load(path)
        except OSError as e:
            print("fastcap_lint: cannot read %s: %s" % (path, e),
                  file=sys.stderr)
            sys.exit(2)
        linter = FileLinter(path, rel, text, tokens, comments)
        findings.extend(linter.run())
        waiver_map[rel] = linter.waivers
        zone_map[rel] = linter.zone
        entries.append((rel, linter.zone, tokens,
                        linter.source_facts))
    index = SymbolIndex()
    index.build(entries)
    findings.extend(taint.run(index, waiver_map, zone_map))
    findings.extend(locks.run(index, waiver_map))
    findings.extend(sink.run(index, waiver_map, zone_map))
    if enable_w1:
        for rel, ws in sorted(waiver_map.items()):
            if zone_map[rel] in ("result", "src", "util",
                                 "telemetry"):
                findings.extend(stale_waiver_findings(ws))
    findings.sort(key=sort_key)
    return findings, index


def tree_files(root):
    out = []
    src = os.path.join(root, "src")
    for base, _dirs, names in os.walk(src):
        for nm in sorted(names):
            if nm.endswith((".cpp", ".hpp", ".h")):
                p = os.path.join(base, nm)
                out.append((p, os.path.relpath(p, root)))
    return sorted(out, key=lambda x: x[1])


def _corpus_units(d):
    """Corpus units under bad/ or good/: each loose .cpp/.hpp file is
    a unit of one; each subdirectory is a multi-file unit analyzed
    together (cross-file rules see the whole unit)."""
    units = []
    for nm in sorted(os.listdir(d)):
        p = os.path.join(d, nm)
        if os.path.isdir(p):
            files = [os.path.join(p, f) for f in sorted(os.listdir(p))
                     if f.endswith((".cpp", ".hpp"))]
            if files:
                units.append(files)
        elif nm.endswith((".cpp", ".hpp")):
            units.append([p])
    return units


def run_self_test(corpus_dir, root, cache):
    """Check the linter against the seeded violation corpus.

    bad/ units carry `// EXPECT: R1 [R6 ...]` markers on each line
    that must fire exactly those rules; good/ units must be clean.
    `// EXPECT-MEMBER:` markers, in either, check the symbol index.
    W1 runs here, so every waiver in the corpus must earn its keep.
    """
    failures = []
    checked = 0
    for sub, expect_findings in (("bad", True), ("good", False)):
        d = os.path.join(corpus_dir, sub)
        if not os.path.isdir(d):
            failures.append("missing corpus directory: %s" % d)
            continue
        for files in _corpus_units(d):
            targets = [(p, os.path.relpath(p, root)) for p in files]
            checked += len(files)
            findings, index = analyze(targets, cache, enable_w1=True)
            got = {}
            for fd in findings:
                got.setdefault((fd.path, fd.line),
                               []).append(fd.rule)
            want = {}
            for path, rel in targets:
                text = cache.load(path)[0]
                for lineno, line in enumerate(text.splitlines(), 1):
                    m = EXPECT_RE.search(line)
                    if m:
                        want[(rel, lineno)] = \
                            sorted(m.group(1).split())
                    m = EXPECT_MEMBER_RE.search(line)
                    if m and not any(
                            members.get(m.group(1)) == m.group(2)
                            for members in index.classes.values()):
                        failures.append(
                            "%s:%d: no class member %s of type %s" %
                            (rel, lineno, m.group(1), m.group(2)))
            unit_rel = os.path.relpath(files[0], root)
            if not expect_findings and want:
                failures.append("%s: good/ unit has EXPECT markers"
                                % unit_rel)
            if expect_findings and not want:
                failures.append("%s: bad/ unit has no EXPECT markers"
                                % unit_rel)
            for key in sorted(set(got) | set(want)):
                g = sorted(got.get(key, []))
                w = want.get(key, [])
                if g != w:
                    failures.append(
                        "%s:%d: expected %s, got %s" %
                        (key[0], key[1], w or "none", g or "none"))
    if checked == 0:
        failures.append("corpus %s contains no snippets" % corpus_dir)
    if failures:
        for msg in failures:
            print("self-test FAIL: %s" % msg)
        return 1
    print("fastcap_lint self-test: %d corpus files OK" % checked)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="fastcap_lint",
        description="FastCap determinism & concurrency lint "
                    "(rules R1-R9, W0/W1).")
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: src/ tree)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: the tree "
                         "containing this script)")
    ap.add_argument("--self-test", metavar="DIR",
                    help="run the violation-corpus self-test against "
                         "DIR (with bad/ and good/ subdirectories)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--format", choices=("text", "jsonl"),
                    default="text",
                    help="finding output format (jsonl: one JSON "
                         "object per finding, no summary line)")
    ap.add_argument("--cache", metavar="DIR", default=None,
                    help="persist token streams here, keyed by file "
                         "mtime/size; safe to share across runs")
    args = ap.parse_args(argv)

    # This file lives in tools/lint/fastcaplint/: three levels up.
    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", "..", ".."))
    cache = TokenCache(args.cache)

    if args.list_rules:
        for rule in sorted(RULES):
            tag, desc = RULES[rule]
            waive = (" (waiver tag: %s)" % tag) if tag else ""
            print("%s  %s%s" % (rule, desc, waive))
        return 0

    if args.self_test:
        return run_self_test(args.self_test, root, cache)

    if args.files:
        targets = [(f, os.path.relpath(os.path.abspath(f), root))
                   for f in args.files]
        enable_w1 = False  # partial view: callers may be off-list
    else:
        targets = tree_files(root)
        enable_w1 = True

    all_findings, _index = analyze(targets, cache, enable_w1)
    for f in all_findings:
        print(f.render_jsonl() if args.format == "jsonl"
              else f.render())
    if all_findings:
        if args.format == "text":
            print("fastcap_lint: %d finding(s) in %d file(s)" %
                  (len(all_findings),
                   len({f.path for f in all_findings})))
        return 1
    if args.format == "text":
        print("fastcap_lint: clean (%d files)" % len(targets))
    return 0
