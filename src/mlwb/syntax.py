"""Formula syntax: ASTs, parsers, printers and structural helpers.

Three object languages live here:

* propositional modal formulas (``false``, letters, ``->``, ``box``),
* predicate modal formulas (atoms over variables/constants, ``forall``),
* universal strict Horn sentences over a single binary relation ``R``.

Derived connectives (``~``, ``&``, ``|``, ``dia``, ``exists``) are parsed
but normalized to the primitive cases immediately, so two ASTs are equal
iff their primitive skeletons are equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union


class ParseError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# ASTs


@dataclass(frozen=True)
class Falsum:
    def __repr__(self):
        return "Falsum()"


@dataclass(frozen=True)
class Letter:
    name: str


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    body: "Formula"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple  # of Var; empty for 0-ary letters


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Falsum, Letter, Implies, Box, Atom, Forall]

FALSUM = Falsum()


def neg(a: Formula) -> Formula:
    return Implies(a, FALSUM)


def conj(a: Formula, b: Formula) -> Formula:
    return neg(Implies(a, neg(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(neg(a), b)


def dia(a: Formula) -> Formula:
    return neg(Box(neg(a)))


def exists(var: str, a: Formula) -> Formula:
    return neg(Forall(var, neg(a)))


def box_power(a: Formula, k: int) -> Formula:
    """k nested boxes around ``a``."""
    if k < 0:
        raise ValueError("negative box power")
    for _ in range(k):
        a = Box(a)
    return a


def subformulas(a: Formula) -> Iterator[Formula]:
    yield a
    if isinstance(a, Implies):
        yield from subformulas(a.left)
        yield from subformulas(a.right)
    elif isinstance(a, (Box, Forall)):
        yield from subformulas(a.body)


def modal_depth(a: Formula) -> int:
    if isinstance(a, Implies):
        return max(modal_depth(a.left), modal_depth(a.right))
    if isinstance(a, Box):
        return 1 + modal_depth(a.body)
    if isinstance(a, Forall):
        return modal_depth(a.body)
    return 0


def letters(a: Formula) -> set:
    """Propositional letters (and 0-ary atoms) occurring in ``a``."""
    out = set()
    for sub in subformulas(a):
        if isinstance(sub, Letter):
            out.add(sub.name)
        elif isinstance(sub, Atom) and not sub.args:
            out.add(sub.name)
    return out


def term_scan(a: Formula) -> tuple:
    """One walk over ``a``: its free variables in order of first occurrence,
    the variables that a ``forall`` binds again inside the scope of one
    over the same variable, and each atom's (predicate, argument count) in
    order of first occurrence."""
    free, rebound, atoms = {}, set(), {}

    def walk(f, bound):
        if isinstance(f, Atom):
            atoms[f.name, len(f.args)] = None
            for t in f.args:
                if t.name not in bound:
                    free[t.name] = None
        elif isinstance(f, Implies):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, Box):
            walk(f.body, bound)
        elif isinstance(f, Forall):
            if f.var in bound:
                rebound.add(f.var)
            walk(f.body, bound | {f.var})

    walk(a, frozenset())
    return list(free), rebound, list(atoms)


def free_vars(a: Formula) -> set:
    return set(term_scan(a)[0])


def universal_closure(a: Formula) -> Formula:
    """Close ``a`` under universal quantifiers, first-occurrence order."""
    for v in reversed(term_scan(a)[0]):
        a = Forall(v, a)
    return a


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = ["->", "=>", "~", "&", "|", "(", ")", ".", ","]
_KEYWORDS = {"false", "true", "box", "dia", "forall", "exists"}


_TOKEN = re.compile(r"\s*(?:(%s)|(\w+)|(\S))"
                    % "|".join(re.escape(sym) for sym in _SYMBOLS))


def _tokenize(text: str):
    toks = []
    for match in _TOKEN.finditer(text):
        sym, word, other = match.groups()
        if sym:
            toks.append((sym, sym, match.start(1)))
        elif word:
            kind = word if word in _KEYWORDS else "ident"
            toks.append((kind, word, match.start(2)))
        else:
            raise ParseError(f"unexpected character {other!r}",
                             match.start(3))
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, predicate: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.predicate = predicate
        self.arities: dict = {}

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # grammar: implication (right-assoc) < "|" < "&" < unary/quantifier < atom
    def formula(self, bound=frozenset()):
        left = self.disjunction(bound)
        if self.peek()[0] == "->":
            self.next()
            return Implies(left, self.formula(bound))
        return left

    def disjunction(self, bound):
        left = self.conjunction(bound)
        while self.peek()[0] == "|":
            self.next()
            left = disj(left, self.conjunction(bound))
        return left

    def conjunction(self, bound):
        left = self.unary(bound)
        while self.peek()[0] == "&":
            self.next()
            left = conj(left, self.unary(bound))
        return left

    def unary(self, bound):
        kind, _, pos = self.peek()
        if kind == "~":
            self.next()
            return neg(self.unary(bound))
        if kind == "box":
            self.next()
            return Box(self.unary(bound))
        if kind == "dia":
            self.next()
            return dia(self.unary(bound))
        if kind in ("forall", "exists"):
            if not self.predicate:
                raise ParseError(f"{kind!r} not allowed in propositional formula", pos)
            self.next()
            var = self.expect("ident")[1]
            if var in bound:
                raise ParseError(f"shadowed bound variable {var!r}", pos)
            self.expect(".")
            body = self.unary(bound | {var})
            return Forall(var, body) if kind == "forall" else exists(var, body)
        return self.atomic(bound)

    def atomic(self, bound):
        kind, word, pos = self.next()
        if kind == "false":
            return FALSUM
        if kind == "(":
            inner = self.formula(bound)
            self.expect(")")
            return inner
        if kind != "ident":
            raise ParseError(f"unexpected token {word!r}", pos)
        if not self.predicate:
            return Letter(word)
        args: tuple = ()
        if self.peek()[0] == "(":
            self.next()
            names = [self.expect("ident")[1]]
            while self.peek()[0] == ",":
                self.next()
                names.append(self.expect("ident")[1])
            self.expect(")")
            args = tuple(Var(v) for v in names)
        arity = self.arities.setdefault(word, len(args))
        if arity != len(args):
            raise ParseError(
                f"predicate {word!r} used with arity {len(args)}, earlier {arity}", pos
            )
        return Atom(word, args)


def parse_prop(text: str) -> Formula:
    p = _Parser(text, predicate=False)
    a = p.formula()
    p.expect("end")
    return a


def parse_pred(text: str) -> Formula:
    p = _Parser(text, predicate=True)
    a = p.formula()
    p.expect("end")
    return a


# ---------------------------------------------------------------------------
# Printing

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _wrap(s: str, inner: int, outer: int) -> str:
    return f"({s})" if inner < outer else s


def _fmt(a: Formula, outer: int) -> str:
    # unfold derived-connective skeletons for readability
    if isinstance(a, Implies):
        if a.right == FALSUM:
            inner = a.left
            if isinstance(inner, Box) and isinstance(inner.body, Implies) \
                    and inner.body.right == FALSUM:
                return _wrap(f"dia {_fmt(inner.body.left, _PREC_UNARY)}",
                             _PREC_UNARY, outer)
            if isinstance(inner, Forall) and isinstance(inner.body, Implies) \
                    and inner.body.right == FALSUM:
                return _wrap(f"exists {inner.var}. {_fmt(inner.body.left, _PREC_UNARY)}",
                             _PREC_UNARY, outer)
            if isinstance(inner, Implies) and isinstance(inner.right, Implies) \
                    and inner.right.right == FALSUM:
                # "&" and "|" parse left-associatively, so a right operand
                # of the same connective keeps its parentheses
                s = f"{_fmt(inner.left, _PREC_AND)} & {_fmt(inner.right.left, _PREC_AND + 1)}"
                return _wrap(s, _PREC_AND, outer)
            return _wrap(f"~{_fmt(inner, _PREC_UNARY)}", _PREC_UNARY, outer)
        if isinstance(a.left, Implies) and a.left.right == FALSUM \
                and not isinstance(a.right, Falsum):
            s = f"{_fmt(a.left.left, _PREC_OR)} | {_fmt(a.right, _PREC_OR + 1)}"
            return _wrap(s, _PREC_OR, outer)
        s = f"{_fmt(a.left, _PREC_IMP + 1)} -> {_fmt(a.right, _PREC_IMP)}"
        return _wrap(s, _PREC_IMP, outer)
    if isinstance(a, Falsum):
        return "false"
    if isinstance(a, Letter):
        return a.name
    if isinstance(a, Box):
        return _wrap(f"box {_fmt(a.body, _PREC_UNARY)}", _PREC_UNARY, outer)
    if isinstance(a, Atom):
        if not a.args:
            return a.name
        args = ",".join(t.name for t in a.args)
        return f"{a.name}({args})"
    if isinstance(a, Forall):
        return _wrap(f"forall {a.var}. {_fmt(a.body, _PREC_UNARY)}", _PREC_UNARY, outer)
    raise TypeError(f"not a formula: {a!r}")


def to_text(a: Formula) -> str:
    return _fmt(a, 0)


# ---------------------------------------------------------------------------
# Horn sentences


@dataclass(frozen=True)
class HTrue:
    pass


@dataclass(frozen=True)
class HAtom:
    left: str
    right: str


@dataclass(frozen=True)
class HAnd:
    left: "HBody"
    right: "HBody"


@dataclass(frozen=True)
class HOr:
    left: "HBody"
    right: "HBody"


HBody = Union[HTrue, HAtom, HAnd, HOr]


@dataclass(frozen=True)
class HornSentence:
    """``forall vars (body -> head)`` with a positive body over atoms ``u R v``."""

    variables: tuple
    body: HBody
    head: HAtom

    def __post_init__(self):
        head_vars = {self.head.left, self.head.right}
        if not head_vars <= set(self.variables):
            raise ValueError("head variables must be bound")

    def body_atoms(self) -> Iterator[HAtom]:
        def walk(b):
            if isinstance(b, HAtom):
                yield b
            elif isinstance(b, (HAnd, HOr)):
                yield from walk(b.left)
                yield from walk(b.right)

        yield from walk(self.body)


def parse_horn(text: str) -> HornSentence:
    """Parse ``BODY => x R y`` with ``BODY ::= true | u R v | BODY & BODY | BODY "|" BODY``."""
    if "=>" not in text:
        raise ParseError("missing '=>' in Horn sentence", len(text))

    def parse_atom(toks, pos):
        if pos + 2 < len(toks) and toks[pos + 1][1] == "R":
            left, right = toks[pos][1], toks[pos + 2][1]
            for t in (toks[pos], toks[pos + 2]):
                if t[0] != "ident" or t[1] == "R":
                    raise ParseError("bad relation atom", t[2])
            return HAtom(left, right), pos + 3
        raise ParseError("expected relation atom 'u R v'", toks[pos][2])

    def parse_body(toks):
        def or_level(pos):
            node, pos = and_level(pos)
            while toks[pos][0] == "|":
                rhs, pos2 = and_level(pos + 1)
                node, pos = HOr(node, rhs), pos2
            return node, pos

        def and_level(pos):
            node, pos = primary(pos)
            while toks[pos][0] == "&":
                rhs, pos2 = primary(pos + 1)
                node, pos = HAnd(node, rhs), pos2
            return node, pos

        def primary(pos):
            if toks[pos][0] == "true":
                return HTrue(), pos + 1
            if toks[pos][0] == "(":
                node, pos = or_level(pos + 1)
                if toks[pos][0] != ")":
                    raise ParseError("expected ')'", toks[pos][2])
                return node, pos + 1
            return parse_atom(toks, pos)

        node, pos = or_level(0)
        if toks[pos][0] != "end":
            raise ParseError(f"trailing tokens in Horn body: {toks[pos][1]!r}",
                             toks[pos][2])
        return node

    # one token list, so that positions in the head count from the start
    toks = _tokenize(text)
    arrow = next(i for i, t in enumerate(toks) if t[0] == "=>")
    body = parse_body(toks[:arrow] + [("end", "", toks[arrow][2])])
    head_toks = toks[arrow + 1:]
    head, pos = parse_atom(head_toks, 0)
    if head_toks[pos][0] != "end":
        raise ParseError("Horn head must be a single atom", head_toks[pos][2])

    variables = []
    for v in (head.left, head.right):
        if v not in variables:
            variables.append(v)
    sentence = HornSentence(tuple(variables), body, head)
    for atom in sentence.body_atoms():
        for v in (atom.left, atom.right):
            if v not in variables:
                variables.append(v)
    return HornSentence(tuple(variables), body, head)


def horn_to_text(s: HornSentence) -> str:
    def fmt(b, outer_and=False):
        if isinstance(b, HTrue):
            return "true"
        if isinstance(b, HAtom):
            return f"{b.left} R {b.right}"
        if isinstance(b, HAnd):
            return f"{fmt(b.left, True)} & {fmt(b.right, True)}"
        s = f"{fmt(b.left)} | {fmt(b.right)}"
        return f"({s})" if outer_and else s

    return f"{fmt(s.body)} => {s.head.left} R {s.head.right}"


# ---------------------------------------------------------------------------
# Text formats shared by the file readers: ``#`` comments, ``[name]``
# sections, directive lines, keyed lines ``[lead] key sep value`` and
# ``{...}`` sets.  Each reader states only its own grammar in these terms,
# and every error names its line in the file, also inside a section.


class Section(list):
    """The body of a ``[name]`` section: its content lines as
    ``content_lines`` gives them, numbered from the top of the file, and
    the line number ``header`` of the ``[name]`` line.  Every reader takes a
    ``Section`` in place of a text, and so reports file line numbers."""

    def __init__(self, lines, header: int):
        super().__init__(lines)
        self.header = header


def content_lines(text: str) -> list:
    """``(line number, line)`` for every line left nonblank once its ``#``
    comment is stripped; a ``Section`` already is that list."""
    if isinstance(text, Section):
        return text
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip() if "#" in raw else raw.strip()
        if line:
            lines.append((lineno, line))
    return lines


def split_sections(text: str, *required: str, optional=()) -> dict:
    """``Section`` bodies of the ``[name]`` sections of a file, by name.
    Rejects a duplicate section, content before the first one, a section
    neither ``required`` nor ``optional`` and a missing ``required`` one."""
    lines = content_lines(text)
    starts = [index for index, (_, line) in enumerate(lines)
              if line[0] == "[" and line[-1] == "]"]
    if lines and (not starts or starts[0]):
        lineno, line = lines[0]
        raise ValueError(f"line {lineno}: content before the first section:"
                         f" {line!r}")
    headers = []
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        lineno, header = lines[start]
        name = header[1:-1].strip()
        if name not in required and name not in optional:
            raise ValueError(f"line {lineno}: unknown section [{name}]")
        headers.append((lineno, name, Section(lines[start + 1:end], lineno)))
    sections = _unique(headers, lambda name: f"section [{name}]")
    for name in required:
        if name not in sections:
            raise ValueError(f"missing [{name}] section")
    return sections


def _unique(entries, show) -> dict:
    """``{key: value}`` from ``(line number, key, value)`` entries; a key
    met before is an error that names its line and ``show(key)``."""
    out = {}
    for lineno, key, value in entries:
        if key in out:
            raise ValueError(f"line {lineno}: duplicate {show(key)}")
        out[key] = value
    return out


def only_line(section: Section, message: str) -> tuple:
    """The one content line of ``section`` as ``(line number, line)``.  A
    second line, or none, is the error ``message`` at that line, or at the
    section header."""
    if len(section) != 1:
        lineno = section[1][0] if section else section.header
        raise ValueError(f"line {lineno}: {message}")
    return section[0]


def read_line(parse, lineno: int, line: str):
    """``parse(line)`` for the content line ``lineno``; an error it raises
    is prefixed with ``line N:`` and keeps its position in the line."""
    try:
        return parse(line)
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None


def directives(text: str, *heads: str) -> dict:
    """``{head: [(line number, line), ...]}``: the content lines of
    ``text`` by their first word, which must be one of ``heads``."""
    out = {head: [] for head in heads}
    for lineno, line in content_lines(text):
        head = line.split(None, 1)[0]
        if head not in out:
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
        out[head].append((lineno, line))
    return out


def names(lines, what: str) -> list:
    """The words after the directive word of ``(line number, line)``
    pairs, in order; a repeated one is an error."""
    words = [(lineno, word, None) for lineno, line in lines
             for word in line.split()[1:]]
    return list(_unique(words, lambda word: f"{what} {word!r}"))


def keyed_lines(lines, *seps: str, lead: str = "") -> dict:
    """``{key: (line number, value)}`` from ``(line number, line)`` pairs
    of the shape ``[lead] key sep value``.  With several separators the key
    is the tuple of the parts between them (``val P @ w = {...}`` has the
    key ``(P, w)``); with none, ``lead value`` has the key ``lead``.  A line
    of another shape and a repeated key are errors."""
    entries = []
    for lineno, line in lines:
        word, rest = "", line
        if lead:
            word, _, rest = line.partition(" ")
        parts = []
        for sep in seps:
            part, _, rest = rest.partition(sep)
            parts.append(part.strip())
        value = rest.strip()
        if word != lead or "" in parts or not value:
            shape = " ".join([lead, "_"] + [f"{sep} _" for sep in seps])
            raise ValueError(f"line {lineno}: expected '{shape.strip()}',"
                             f" found {line!r}")
        key = tuple(parts) if len(parts) > 1 else parts[0] if parts else lead
        entries.append((lineno, key, (lineno, value)))
    return _unique(entries, lambda key: f"key {key!r}")


_SET = re.compile(r"\s*\{([^{}]*)\}\s*")
_COMMA = re.compile(r"\s*,\s*")
_TUPLE_SEP = re.compile(r"\)\s*,\s*\(")


def parse_set(text: str, lineno: int) -> list:
    """Members of the ``{...}`` set ``text``: all names, or all tuples
    ``(a, b)``, where ``()`` is the empty tuple.  ``{}`` is the empty set;
    an empty member is an error."""
    match = _SET.fullmatch(text)
    if not match:
        raise ValueError(f"line {lineno}: expected a {{...}} set, found"
                         f" {text.strip()!r}")
    inner = match[1].strip()
    if inner[:1] == "(" and inner[-1:] == ")":
        bodies = _TUPLE_SEP.split(inner[1:-1])
        members = [tuple(_COMMA.split(body.strip())) if body.strip() else ()
                   for body in bodies]
        empty = any("" in row for row in members)
    else:
        bodies = ()
        members = _COMMA.split(inner) if inner else []
        empty = "" in members
    # each tuple, and nothing else, has its own pair of parentheses
    if inner.count("(") != len(bodies) or inner.count(")") != len(bodies):
        raise ValueError(f"line {lineno}: expected names or tuples"
                         f" '(a, b), (c, d)', found {{{inner}}}")
    if empty:
        raise ValueError(f"line {lineno}: empty member in {{{inner}}}")
    return members


def parse_sets(text: str, lineno: int) -> list:
    """The members of each set of a sequence ``{a, b} {c}``."""
    chunks = text.split("}")
    if chunks.pop().strip() or not chunks:
        raise ValueError(f"line {lineno}: expected {{...}} sets, found"
                         f" {text.strip()!r}")
    return [parse_set(chunk + "}", lineno) for chunk in chunks]
