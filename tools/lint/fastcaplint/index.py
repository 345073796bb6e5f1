"""Lightweight symbol index and call graph over the token streams.

This is deliberately *not* a C++ front end (the container has no
clang): a heuristic, token-level scan that recovers the structure the
cross-file rules need — function definitions with qualified names,
class member types, call sites, and lock acquisitions with the set of
locks held at each point. Known approximations (documented in
docs/STATIC_ANALYSIS.md):

  * over-approx: a call to an ambiguous unqualified name links to
    every plausible definition; lambdas are attributed to their
    enclosing function; taint flows through any linked edge.
  * under-approx: calls through function pointers, virtual dispatch
    on unresolved object types, and mutexes we cannot resolve to a
    declared ``Mutex`` are invisible.

Structure pass (A) classifies every brace by inspecting the tokens
since the last statement boundary; body pass (B) walks each function
with a scope-aware lock/hold simulation.
"""

from .filerules import qualified_name_at, skip_template_args, \
    statement_span

CONTROL_HEAD = frozenset({
    "if", "for", "while", "switch", "catch", "do", "else", "try",
    "case", "default",
})
NOT_CALLEE = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "catch", "new", "delete", "throw", "noexcept",
    "static_assert", "typeid", "using", "template", "operator",
    "alignas", "defined", "co_await", "co_yield", "co_return",
    "this", "typename",
})
# Identifier tokens that may legitimately precede a call (so an id
# before `name(` does not always mean `Type name(...)` declaration).
CALL_PREV_KEYWORDS = frozenset({
    "return", "throw", "else", "do", "case", "goto", "new", "delete",
    "co_return", "co_await", "co_yield", "and", "or", "not", "in",
})
DECL_QUALIFIERS = frozenset({
    "public", "private", "protected", "mutable", "static", "const",
    "constexpr", "inline", "volatile", "friend", "explicit",
    "virtual", "extern", "thread_local", "register", "typename",
})
# Builtin type words that combine into one type (`unsigned long`,
# `long long`, `long double`, `signed char`).
BUILTIN_TYPE_WORDS = frozenset({
    "unsigned", "signed", "short", "long", "int", "char", "double",
})
GUARD_TYPES = frozenset({"LockGuard", "UniqueLock"})
MUTEX_TYPE = "Mutex"


class CallSite:
    __slots__ = ("name", "member", "obj", "line", "col", "span",
                 "holds")

    def __init__(self, name, member, obj, line, col, span, holds):
        self.name = name      # 'f' or 'a::b::f'
        self.member = member  # True for x.f() / x->f()
        self.obj = obj        # base variable of the object expr
        self.line = line
        self.col = col
        self.span = span
        self.holds = holds    # [(mutex expr parts, Site)] at the call


class Acquisition:
    __slots__ = ("expr", "line", "col", "span", "holds")

    def __init__(self, expr, line, col, span, holds):
        self.expr = expr      # mutex expression as a parts list
        self.line = line
        self.col = col
        self.span = span
        self.holds = holds    # [(mutex expr parts, Site)] held before


class FunctionDef:
    __slots__ = ("qname", "name", "cls", "relpath", "zone", "line",
                 "start_line", "end_line", "body_range", "params",
                 "locals", "local_mutexes", "calls", "acquisitions",
                 "facts")

    def __init__(self, qname, name, cls, relpath, zone, line):
        self.qname = qname
        self.name = name
        self.cls = cls                  # enclosing class qname or None
        self.relpath = relpath
        self.zone = zone
        self.line = line
        self.start_line = line
        self.end_line = line
        self.body_range = (0, 0)        # token index range of the body
        self.params = []                # [(type last, name)]
        self.locals = {}                # var -> type (last component)
        self.local_mutexes = set()      # vars declared `Mutex x` here
        self.calls = []
        self.acquisitions = []
        self.facts = []                 # SourceFacts inside the body


class FileIndex:
    def __init__(self, relpath, zone, tokens):
        self.relpath = relpath
        self.zone = zone
        self.tokens = tokens
        self.functions = []
        self.classes = {}       # class qname -> {member: type last}
        self.file_mutexes = set()  # namespace-scope `Mutex x` in file


def _qname_join(parts):
    return "::".join(p for p in parts if p)


def _head_after_template(head):
    if head and head[0].text == "template" and len(head) > 1 and \
            head[1].text == "<":
        depth = 0
        for k, t in enumerate(head[1:], 1):
            if t.text in ("<", "<<"):
                depth += 2 if t.text == "<<" else 1
            elif t.text in (">", ">>"):
                depth -= 2 if t.text == ">>" else 1
                if depth <= 0:
                    return head[k + 1:]
        return []
    return head


def _class_head_name(head):
    """Name of the class/struct/union a brace-opening head declares.

    Returns None when the head is not a class definition. Skips
    attribute-style macros (``class FASTCAP_CAPABILITY("x") Mutex``)
    by taking the last paren-depth-0 identifier before any base
    clause.
    """
    head = _head_after_template(head)
    kw = None
    for k, t in enumerate(head):
        if t.text in ("class", "struct", "union") and \
                _paren_depth_at(head, k) == 0:
            kw = k
    if kw is None:
        return None
    name = None
    depth = 0
    for t in head[kw + 1:]:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif depth == 0:
            if t.text == ":":
                break
            if t.kind == "id" and t.text not in ("final",):
                name = t.text
    return name or ""


def _paren_depth_at(head, idx):
    depth = 0
    for t in head[:idx]:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
    return depth


def _strip_access(head):
    """``head`` without its leading access specifiers (``public:``)."""
    pos = 0
    while pos + 1 < len(head) and head[pos].kind == "id" and \
            head[pos].text in ("public", "private", "protected") and \
            head[pos + 1].text == ":":
        pos += 2
    return head[pos:]


def _function_head_name(head):
    """(name, line, col, params) of the function a brace-opening head
    defines; ``params`` are the tokens inside its parameter list.

    None when the head does not look like a function definition.
    Forward scan for the first ``idchain (`` at paren depth 0,
    skipping template argument lists; handles qualified names and
    destructors (``ThreadPool::~ThreadPool``).
    """
    head = _head_after_template(head)
    if not head:
        return None
    if head[0].text in CONTROL_HEAD:
        return None
    # `= {`-style initializers and `[...] {` lambdas are not defs.
    depth = 0
    for t in head:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif depth == 0 and t.text == "=":
            return None
    pos = 0
    while pos < len(head):
        t = head[pos]
        if t.kind != "id":
            if t.text == ":" and _paren_depth_at(head, pos) == 0:
                return None  # reached a ctor init list without a name
            pos += 1
            continue
        name, after = qualified_name_at(head, pos)
        if after < len(head) and head[after].text == "<":
            after = skip_template_args(head, after)
        if after < len(head) and head[after].text == "(":
            base = name.split("::")[-1]
            if base in NOT_CALLEE or base in CONTROL_HEAD or \
                    base in DECL_QUALIFIERS:
                pos = after + 1
                continue
            # Destructor: the id chain is preceded by '~'.
            if pos > 0 and head[pos - 1].text == "~":
                prefix = []
                q = pos - 2
                while q > 0 and head[q].text == "::" and \
                        head[q - 1].kind == "id":
                    prefix.insert(0, head[q - 1].text)
                    q -= 2
                name = _qname_join(["::".join(prefix), "~" + name]) \
                    if prefix else "~" + name
            return (name, t.line, t.col, _paren_body(head, after))
        pos = after if after > pos else pos + 1
    return None


def _paren_body(tokens, open_idx):
    """The tokens between tokens[open_idx] == '(' and its match."""
    depth = 0
    for k in range(open_idx, len(tokens)):
        if tokens[k].text == "(":
            depth += 1
        elif tokens[k].text == ")":
            depth -= 1
            if depth == 0:
                return tokens[open_idx + 1:k]
    return tokens[open_idx + 1:]


def _parameter_decls(params):
    """[(type last component, name)] of the named parameters in a
    parameter list's tokens; unnamed ones are skipped."""
    decls = []
    chunk = []
    depth = 0
    for t in params + [None]:
        if t is None or (t.text == "," and depth == 0):
            decl = _parse_member_decl(chunk)
            if decl is not None:
                decls.append(decl)
            chunk = []
            continue
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text == ">>":
            depth -= 2
        chunk.append(t)
    return decls


def _parse_member_decl(head):
    """(type last component, member name) from a class-scope decl."""
    head = _strip_access(head)
    pos = 0
    while pos < len(head) and head[pos].kind == "id" and \
            head[pos].text in DECL_QUALIFIERS:
        pos += 1
    if pos >= len(head) or head[pos].kind != "id":
        return None
    if head[pos].text in ("class", "struct", "union", "enum", "using",
                          "typedef", "namespace"):
        return None
    if head[pos].text in BUILTIN_TYPE_WORDS:
        after = pos
        while after < len(head) and head[after].kind == "id" and \
                head[after].text in BUILTIN_TYPE_WORDS:
            after += 1
        tname = " ".join(t.text for t in head[pos:after])
    else:
        tname, after = qualified_name_at(head, pos)
        if after < len(head) and head[after].text == "<":
            after = skip_template_args(head, after)
    while after < len(head) and head[after].text in ("&", "*",
                                                     "const"):
        after += 1
    if after >= len(head) or head[after].kind != "id":
        return None
    return (tname.split("::")[-1], head[after].text)


class _Scope:
    __slots__ = ("kind", "name", "depth")

    def __init__(self, kind, name, depth):
        self.kind = kind  # 'ns' | 'class' | 'fn' | 'enum' | 'block'
        self.name = name
        self.depth = depth


def scan_file_structure(relpath, zone, tokens):
    """Pass A: functions, classes and their members, file mutexes."""
    fidx = FileIndex(relpath, zone, tokens)
    scopes = []
    depth = 0
    head = []
    open_fns = []  # (FunctionDef, body start token index, depth)

    def ns_prefix():
        return [s.name for s in scopes if s.kind in ("ns", "class")]

    def cur_class():
        for s in reversed(scopes):
            if s.kind == "class":
                return _qname_join([n for n in
                                    [x.name for x in scopes
                                     if x.kind in ("ns", "class")]])
        return None

    def innermost_kind():
        return scopes[-1].kind if scopes else "ns"

    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "pp":
            i += 1
            continue
        if t.text == "{":
            kind, name, params = _classify_brace(head, scopes)
            if kind == "fn" and not open_fns:
                cls = None
                qparts = ns_prefix()
                if scopes and scopes[-1].kind == "class":
                    cls = _qname_join(qparts)
                elif "::" in name:
                    cls = _qname_join(qparts +
                                      name.split("::")[:-1])
                fq = _qname_join(qparts + [name])
                fn = FunctionDef(fq, name.split("::")[-1], cls,
                                 relpath, zone, head_line(head, t))
                fn.start_line = t.line
                fn.params = _parameter_decls(params)
                open_fns.append((fn, i + 1, depth))
                fidx.functions.append(fn)
            scopes.append(_Scope(kind, name, depth))
            depth += 1
            head = []
            i += 1
            continue
        if t.text == "}":
            depth -= 1
            while scopes and scopes[-1].depth >= depth:
                s = scopes.pop()
                if s.kind == "fn" and open_fns and \
                        open_fns[-1][2] == s.depth:
                    fn, start, _d = open_fns.pop()
                    fn.body_range = (start, i)
                    fn.end_line = t.line
            head = []
            i += 1
            continue
        if t.text == ";":
            if not open_fns:
                if scopes and scopes[-1].kind == "class":
                    decl = _parse_member_decl(head)
                    if decl is not None:
                        cq = _qname_join([s.name for s in scopes
                                          if s.kind in ("ns",
                                                        "class")])
                        fidx.classes.setdefault(cq, {})[decl[1]] = \
                            decl[0]
                elif innermost_kind() in ("ns",) or not scopes:
                    decl = _parse_member_decl(head)
                    if decl is not None and decl[0] == MUTEX_TYPE:
                        fidx.file_mutexes.add(decl[1])
            head = []
            i += 1
            continue
        head.append(t)
        i += 1
    return fidx


def head_line(head, brace_tok):
    for t in head:
        return t.line
    return brace_tok.line


def _classify_brace(head, scopes):
    """What scope does this '{' open? (kind, name, parameter tokens)"""
    h = _strip_access(head)
    if not h:
        return ("block", None, [])
    if h[0].text == "namespace":
        parts = [t.text for t in h[1:] if t.kind == "id"]
        return ("ns", "::".join(parts) if parts else "", [])
    if h[0].text in ("enum",):
        return ("enum", None, [])
    cname = _class_head_name(h)
    if cname is not None:
        return ("class", cname, [])
    if h[0].text in CONTROL_HEAD:
        return ("block", None, [])
    # enum after qualifiers (`enum class E : int {`) — anywhere at
    # depth 0 counts.
    for k, t in enumerate(h):
        if t.text == "enum" and _paren_depth_at(h, k) == 0:
            return ("enum", None, [])
    fhead = _function_head_name(h)
    if fhead is not None:
        # Only namespace/class scope hosts function definitions we
        # track; inside a function everything is a block (lambdas).
        if not scopes or scopes[-1].kind in ("ns", "class"):
            return ("fn", fhead[0], fhead[3])
    return ("block", None, [])


# ---------------------------------------------------------------------
# Pass B: per-function body walk (calls, locals, lock simulation)
# ---------------------------------------------------------------------

class _Hold:
    __slots__ = ("expr", "line", "col", "depth", "active", "manual")

    def __init__(self, expr, line, col, depth, manual):
        self.expr = expr
        self.line = line
        self.col = col
        self.depth = depth
        self.active = True
        self.manual = manual


def _object_expr_before(tokens, i):
    """Parts of the `a.b->c` object expression ending just before
    tokens[i] (which is the '.'/'->' preceding the member name)."""
    parts = []
    j = i - 1
    expect_id = True
    while j >= 0:
        t = tokens[j]
        if expect_id:
            if t.kind == "id":
                parts.insert(0, t.text)
                expect_id = False
                j -= 1
                continue
            if t.text == ")":
                return parts  # call-result base: unresolvable
            break
        else:
            if t.text in (".", "->"):
                expect_id = True
                j -= 1
                continue
            break
    return parts


def scan_function_body(fn, tokens, class_names):
    """Pass B. ``class_names`` is the set of indexed class last-name
    components, used to keep local-variable type tracking precise."""
    start, end = fn.body_range
    # Parameters are typed like declared locals.
    for tname, var in fn.params:
        if tname in class_names:
            fn.locals[var] = tname
    depth = 0
    guards = {}       # var -> _Hold (+ mutex expr via .expr)
    holds = []        # list of _Hold (guards and manual locks)

    def active_holds():
        return [(h.expr, (h.line, h.col)) for h in holds if h.active]

    i = start
    while i < end:
        t = tokens[i]
        if t.kind == "pp":
            i += 1
            continue
        if t.text == "{":
            depth += 1
            i += 1
            continue
        if t.text == "}":
            for h in holds:
                if not h.manual and h.active and h.depth >= depth:
                    h.active = False
            for g in guards.values():
                if g.active and g.depth >= depth:
                    g.active = False
            depth -= 1
            i += 1
            continue
        if t.kind != "id":
            i += 1
            continue
        prev = tokens[i - 1] if i > start else None
        # Member access: guard ops, mutex ops, member calls.
        if prev is not None and prev.text in (".", "->"):
            nxt = tokens[i + 1] if i + 1 < end else None
            if nxt is not None and nxt.text == "(":
                obj = _object_expr_before(tokens, i - 1)
                if t.text in ("lock", "unlock") and len(obj) >= 1:
                    if _handle_lock_op(fn, tokens, i, t, obj, guards,
                                       holds, depth, class_names):
                        i += 2
                        continue
                fn.calls.append(CallSite(
                    t.text, True, obj[0] if obj else None, t.line,
                    t.col, statement_span(tokens, i),
                    active_holds()))
            i += 1
            continue
        if prev is not None and prev.text == "::":
            i += 1
            continue
        # Declarations: `Type name(...)` / `Type name = ...` —
        # guard/mutex declarations and typed locals.
        name, after = qualified_name_at(tokens, i)
        base = name.split("::")[-1]
        decl_end = _try_declaration(fn, tokens, i, after, base, end,
                                    guards, holds, depth, class_names,
                                    active_holds)
        if decl_end is not None:
            i = decl_end
            continue
        # Bare calls.
        j = after
        if j < end and tokens[j].text == "<":
            k = skip_template_args(tokens, j)
            if k < end and tokens[k].text == "(":
                j = k
        if j < end and tokens[j].text == "(" and \
                base not in NOT_CALLEE:
            is_decl = (prev is not None and prev.kind == "id" and
                       prev.text not in CALL_PREV_KEYWORDS)
            if not is_decl:
                fn.calls.append(CallSite(
                    name, False, None, t.line, t.col,
                    statement_span(tokens, i), active_holds()))
        i = after if after > i else i + 1
    # Function end releases everything.
    for h in holds:
        h.active = False


def _try_declaration(fn, tokens, i, after, base, end, guards, holds,
                     depth, class_names, active_holds):
    """Recognize `Type var ...` at tokens[i]; returns the index to
    resume at, or None when it is not a tracked declaration."""
    j = after
    if j < end and tokens[j].text == "<":
        j = skip_template_args(tokens, j)
    while j < end and tokens[j].text in ("&", "*", "const"):
        j += 1
    if j >= end or tokens[j].kind != "id":
        return None
    var = tokens[j].text
    nxt = tokens[j + 1].text if j + 1 < end else ""
    if nxt not in ("(", "=", ";", ",", "{", ")", ":"):
        return None
    if base in GUARD_TYPES and nxt in ("(", "{"):
        expr = _collect_paren_expr(tokens, j + 1, end)
        if expr:
            fn.acquisitions.append(Acquisition(
                expr, tokens[i].line, tokens[i].col,
                statement_span(tokens, i), active_holds()))
            h = _Hold(expr, tokens[i].line, tokens[i].col, depth,
                      False)
            holds.append(h)
            guards[var] = h
        return j + 1
    if base == MUTEX_TYPE:
        fn.local_mutexes.add(var)
        fn.locals[var] = MUTEX_TYPE
        return j + 1
    if base in class_names:
        fn.locals[var] = base
        return j + 1
    return None


def _collect_paren_expr(tokens, i, end):
    """Identifier parts of the parenthesized expr at tokens[i]=='('
    (or '{'): ['c', 'mu'] for `(c.mu)`. None when too complex."""
    close = ")" if tokens[i].text == "(" else "}"
    parts = []
    j = i + 1
    while j < end and tokens[j].text != close:
        t = tokens[j]
        if t.kind == "id":
            parts.append(t.text)
        elif t.text in (".", "->", "this"):
            pass
        elif t.text == "(":
            return None  # call inside: unresolvable
        else:
            return None
        j += 1
    return parts or None


def _handle_lock_op(fn, tokens, i, t, obj, guards, holds, depth,
                    class_names):
    """`x.lock()` / `x.unlock()`: guard re-lock or manual mutex op.

    Returns True when consumed as a lock operation (no call site is
    recorded then)."""
    var = obj[-1] if len(obj) == 1 else None
    if var is not None and var in guards:
        g = guards[var]
        if t.text == "lock":
            if not g.active:
                fn.acquisitions.append(Acquisition(
                    g.expr, t.line, t.col,
                    statement_span(tokens, i),
                    [(h.expr, (h.line, h.col)) for h in holds
                     if h.active]))
                g.active = True
                g.line, g.col = t.line, t.col
        else:
            g.active = False
        return True
    # Direct mutex op: only when the object is plausibly a Mutex —
    # a local `Mutex x`, a member/typed local resolved later, or a
    # dotted path; resolution to a real Mutex happens in locks.py,
    # unresolvable acquisitions are dropped there.
    if t.text == "lock":
        fn.acquisitions.append(Acquisition(
            obj, t.line, t.col, statement_span(tokens, i),
            [(h.expr, (h.line, h.col)) for h in holds if h.active]))
        holds.append(_Hold(obj, t.line, t.col, depth, True))
        return True
    for h in holds:
        if h.manual and h.active and h.expr == obj:
            h.active = False
            return True
    return True  # unlock of something we never saw locked: ignore


# ---------------------------------------------------------------------
# The cross-file index
# ---------------------------------------------------------------------

class SymbolIndex:
    def __init__(self):
        self.files = {}          # relpath -> FileIndex
        self.functions = []
        self.by_qname = {}
        self.by_name = {}
        self.classes = {}        # class qname -> {member: type last}
        self.classes_by_name = {}

    def build(self, entries):
        """entries: [(relpath, zone, tokens, source_facts)]."""
        for relpath, zone, tokens, _facts in entries:
            if zone in (None, "tools"):
                continue
            fidx = scan_file_structure(relpath, zone, tokens)
            self.files[relpath] = fidx
            for cq, members in fidx.classes.items():
                self.classes.setdefault(cq, {}).update(members)
            for fn in fidx.functions:
                self.functions.append(fn)
        for cq in self.classes:
            self.classes_by_name.setdefault(
                cq.split("::")[-1], []).append(cq)
        for fn in self.functions:
            self.by_qname.setdefault(fn.qname, []).append(fn)
            self.by_name.setdefault(fn.name, []).append(fn)
        class_names = frozenset(self.classes_by_name) | \
            GUARD_TYPES | {MUTEX_TYPE}
        for relpath, fidx in self.files.items():
            for fn in fidx.functions:
                scan_function_body(fn, fidx.tokens, class_names)
        # Attach source facts to the innermost containing function.
        for relpath, zone, tokens, facts in entries:
            fidx = self.files.get(relpath)
            if fidx is None:
                continue
            for fact in facts:
                fn = self._containing_function(fidx, fact.line)
                if fn is not None:
                    fn.facts.append(fact)

    def _containing_function(self, fidx, line):
        best = None
        for fn in fidx.functions:
            if fn.start_line <= line <= fn.end_line:
                if best is None or (fn.end_line - fn.start_line) < \
                        (best.end_line - best.start_line):
                    best = fn
        return best

    def class_of_type(self, tname):
        cands = self.classes_by_name.get(tname, [])
        return cands[0] if len(cands) == 1 else None

    def mutex_members(self, cq):
        return {m for m, ty in self.classes.get(cq, {}).items()
                if ty == MUTEX_TYPE}

    def resolve_call(self, call, caller):
        """Plausible FunctionDef targets of a call site."""
        if call.member:
            base = call.obj
            cq = None
            if base in (None, "this"):
                cq = caller.cls
            else:
                ty = caller.locals.get(base)
                if ty is None and caller.cls:
                    ty = self.classes.get(caller.cls, {}).get(base)
                if ty is None:
                    fidx = self.files.get(caller.relpath)
                    if fidx is not None and base in \
                            fidx.file_mutexes:
                        ty = MUTEX_TYPE
                if ty is not None:
                    cq = self.class_of_type(ty)
            if cq is None:
                return []
            return list(self.by_qname.get(cq + "::" + call.name, []))
        parts = call.name.split("::")
        if len(parts) > 1:
            suffix = "::" + call.name
            return [fn for fn in self.by_name.get(parts[-1], [])
                    if fn.qname == call.name or
                    fn.qname.endswith(suffix)]
        name = parts[0]
        if caller.cls:
            cands = self.by_qname.get(caller.cls + "::" + name, [])
            if cands:
                return list(cands)
        cands = [fn for fn in self.by_name.get(name, [])
                 if fn.cls is None]
        if cands:
            return cands
        cq = self.class_of_type(name)
        if cq:  # constructor: `Type x(...)` / `Type(...)`
            return list(self.by_qname.get(cq + "::" + name, []))
        return []

    def mutex_identity(self, expr, fn):
        """Stable cross-function identity for a mutex expression, or
        None when it cannot be resolved to a declared Mutex."""
        parts = [p for p in expr if p != "this"]
        if not parts:
            return None
        if len(parts) == 1:
            nm = parts[0]
            if nm in fn.local_mutexes:
                return fn.qname + "::" + nm
            if fn.cls and nm in self.mutex_members(fn.cls):
                return fn.cls + "::" + nm
            fidx = self.files.get(fn.relpath)
            if fidx is not None and nm in fidx.file_mutexes:
                return fn.relpath + "::" + nm
            return None
        base, leaf = parts[0], parts[-1]
        ty = fn.locals.get(base)
        if ty is None and fn.cls:
            ty = self.classes.get(fn.cls, {}).get(base)
        if ty is not None:
            cq = self.class_of_type(ty)
            if cq and leaf in self.mutex_members(cq):
                return cq + "::" + leaf
        return None
