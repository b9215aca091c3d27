"""Textual model language and equivalence-configuration files.

Model files are a list of declarations terminated by semicolons::

    step = 1;
    max S = 5;
    species S = (b1,1) << S + (bm1,1) >> S;
    rate b1 = "k1 * S * E";
    param k1 = "0.5";
    system = S[5] <*> E[3];

Operator spellings: ``<<`` reactant, ``>>`` product, ``(+)`` activator,
``(-)`` inhibitor, ``(.)`` generic modifier, ``+`` choice, ``<*>``
shared-all cooperation, ``<a,b>`` explicit cooperation set (``<>`` for the
empty set), ``S[3]`` a species at level 3.  ``//`` starts a comment.
Identifiers are letters, digits, underscores and primes, starting with a
letter.

Configuration files are ``key: value`` lines with the keys ``fast``,
``slow``, ``delta`` (comma-separated names) and ``alias`` (``X' = X``,
repeatable).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple

from .model import (
    EquivConfig,
    InvalidModelError,
    Leaf,
    Node,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
)


class SourceSpan(NamedTuple):
    """Position of a piece of input text, for diagnostics."""

    line: int
    column: int
    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseError(Exception):
    """Carries every diagnostic collected while reading an input file."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


def _located(text: str, problems: list[tuple[int, int, str]]) -> ParseError:
    """The error for ``(start, end, message)`` problems found in ``text``,
    each placed at the line and column of its start offset."""
    newlines = [m.start() for m in re.finditer("\n", text)]
    diagnostics = []
    for start, end, message in problems:
        line = bisect_left(newlines, start)  # newlines before start
        line_start = newlines[line - 1] + 1 if line else 0
        span = SourceSpan(line + 1, start - line_start + 1, start, end)
        diagnostics.append(Diagnostic(span, message))
    return ParseError(diagnostics)


class Token(NamedTuple):
    kind: str  # "ident", "int", "string", "symbol", "eof"
    text: str
    start: int
    end: int


KEYWORDS = {"step", "max", "species", "system", "param", "rate"}

# An identifier is letters, digits, underscores and primes; its first
# character must also pass ``str.isalpha``, which the class here is wider than.
_NAME = re.compile(r"[^\W\d_][\w']*")

_TOKEN = re.compile(
    r"""(?P<space>(?:[ \t\r\n]|//[^\n]*)+)
      | (?P<ident>""" + _NAME.pattern + r""")
      | (?P<int>[0-9]+)
      | (?P<string>"[^"\n]*")
      | (?P<symbol><\*>|\([+.-]\)|<<|>>|[;=+(),\[\]<>])
      | (?P<bad>"[^"\n]*|.)  # an unterminated string, or any other character
    """,
    re.VERBOSE,
)


def _is_name(text: str) -> bool:
    return _NAME.fullmatch(text) is not None and text[0].isalpha()


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    problems: list[tuple[int, int, str]] = []
    match = _TOKEN.match
    pos, n = 0, len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span()
        if kind == "space":
            continue
        if kind == "ident" and not text[start].isalpha():
            kind, pos = "bad", start + 1
        if kind == "bad":
            if text[start] == '"':
                problems.append((start, pos, "unterminated string"))
                break
            problems.append((start, pos, f"unexpected character {text[start]!r}"))
        elif kind == "string":
            tokens.append(Token(kind, text[start + 1 : pos - 1], start, pos))
        else:
            tokens.append(Token(kind, m.group(), start, pos))
    tokens.append(Token("eof", "", n, n))
    if problems:
        raise _located(text, problems)
    return tokens


_ROLE_BY_SPELLING = {role.value: role for role in Role}


class _ModelParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.problems: list[tuple[int, int, str]] = []
        self.step: int | None = None
        self.maxes: dict[str, tuple[int, Token]] = {}
        # in declaration order
        self.species: dict[str, tuple[tuple[Prefix, ...], Token]] = {}
        self.tree: Leaf | Node | None = None
        self.system: Token | None = None  # the keyword of the system declaration
        self.params: dict[str, str] = {}
        self.rates: dict[str, str] = {}

    # cursor helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    def error(self, tok: Token, message: str) -> None:
        self.problems.append((tok.start, tok.end, message))

    def fail(self, message: str) -> "_Recover":
        self.error(self.peek(), message)
        return _Recover()

    def expected(self, what: str) -> "_Recover":
        found = self.peek().text
        found = repr(found) if found else "end of input"
        return self.fail(f"expected {what}, found {found}")

    def expect_symbol(self, text: str) -> Token:
        if self.at_symbol(text):
            return self.advance()
        raise self.expected(repr(text))

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return self.advance()
        raise self.expected(what)

    def expect_int(self, what: str) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "int":
            raise self.expected(what)
        try:
            value = int(tok.text)
        except ValueError:  # beyond the interpreter's limit on digits
            raise self.fail(f"{what} has too many digits ({len(tok.text)})") from None
        self.advance()
        return value, tok

    def expect_string(self) -> Token:
        if self.peek().kind == "string":
            return self.advance()
        raise self.expected("quoted string")

    # declarations -------------------------------------------------------

    def parse(self) -> SystemDef:
        while self.peek().kind != "eof":
            try:
                self.declaration()
            except _Recover:
                self.skip_past_semicolon()
        return self.assemble()

    def skip_past_semicolon(self) -> None:
        while self.peek().kind != "eof":
            tok = self.advance()
            if tok.kind == "symbol" and tok.text == ";":
                return

    def declaration(self) -> None:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in KEYWORDS:
            raise self.fail(
                f"expected a declaration keyword, found {tok.text!r}"
                if tok.text
                else "expected a declaration"
            )
        if tok.text == "step":
            self.step_decl()
        elif tok.text == "max":
            self.max_decl()
        elif tok.text == "species":
            self.species_decl()
        elif tok.text == "system":
            self.system_decl()
        else:
            self.string_decl()

    def step_decl(self) -> None:
        kw = self.advance()
        self.expect_symbol("=")
        value, tok = self.expect_int("step size")
        self.expect_symbol(";")
        if self.step is not None:
            self.error(kw, "duplicate step declaration")
            return
        if value < 1:
            self.error(tok, "step size must be at least 1")
            return
        self.step = value

    def max_decl(self) -> None:
        self.advance()
        name = self.expect_ident("species name")
        self.expect_symbol("=")
        value, tok = self.expect_int("maximum count")
        self.expect_symbol(";")
        if name.text in self.maxes:
            self.error(name, f"duplicate max declaration for {name.text}")
            return
        if value < 1:
            self.error(tok, "maximum count must be at least 1")
            return
        self.maxes[name.text] = (value, name)

    def species_decl(self) -> None:
        self.advance()
        name = self.expect_ident("species name")
        self.expect_symbol("=")
        prefixes = [self.summand(name.text)]
        while self.at_symbol("+"):
            self.advance()
            prefixes.append(self.summand(name.text))
        self.expect_symbol(";")
        if name.text in self.species:
            self.error(name, f"repeated-species({name.text})")
            return
        self.species[name.text] = (tuple(prefixes), name)

    def summand(self, species: str) -> Prefix:
        self.expect_symbol("(")
        action = self.expect_ident("action name")
        self.expect_symbol(",")
        stoich, stoich_tok = self.expect_int("stoichiometric coefficient")
        self.expect_symbol(")")
        op = self.peek()
        role = _ROLE_BY_SPELLING.get(op.text) if op.kind == "symbol" else None
        if role is None:
            raise self.fail("expected a prefix operator (<<, >>, (+), (-) or (.))")
        self.advance()
        target = self.expect_ident("species name")
        if stoich < 1:
            self.error(stoich_tok, "stoichiometric coefficient must be at least 1")
        if target.text != species:
            self.error(
                target,
                f"species {species} must return to itself, found {target.text}",
            )
        return Prefix(action.text, stoich, role)

    def system_decl(self) -> None:
        kw = self.advance()
        self.expect_symbol("=")
        tree = self.composition()
        self.expect_symbol(";")
        if self.tree is not None:
            self.error(kw, "duplicate system declaration")
            return
        self.tree = tree
        self.system = kw

    def composition(self) -> Leaf | Node:
        # Open groups wait on a stack with the operand and operator before
        # them, so nesting depth is not bounded by the recursion limit.
        groups: list[tuple[Leaf | Node | None, object]] = []
        left, coop = None, _NO_COOP
        while True:
            if self.at_symbol("("):
                self.advance()
                groups.append((left, coop))
                left, coop = None, _NO_COOP
                continue
            operand = self.leaf()
            while True:
                left = operand if coop is _NO_COOP else Node(left, coop, operand)
                coop = self.coop_operator()
                if coop is not _NO_COOP:
                    break
                if not groups:
                    return left
                self.expect_symbol(")")
                operand, (left, coop) = left, groups.pop()

    def coop_operator(self) -> frozenset[str] | None | object:
        if self.at_symbol("<*>"):
            self.advance()
            return None
        if self.at_symbol("<"):
            self.advance()
            names: set[str] = set()
            if not self.at_symbol(">"):
                names.add(self.expect_ident("action name").text)
                while self.at_symbol(","):
                    self.advance()
                    names.add(self.expect_ident("action name").text)
            self.expect_symbol(">")
            return frozenset(names)
        return _NO_COOP

    def leaf(self) -> Leaf:
        name = self.expect_ident("species name")
        self.expect_symbol("[")
        level, _ = self.expect_int("initial level")
        self.expect_symbol("]")
        return Leaf(name.text, level)

    def string_decl(self) -> None:
        """A ``param`` or ``rate`` declaration: a name bound to a quoted string."""
        kw = self.advance().text
        table = self.params if kw == "param" else self.rates
        name = self.expect_ident("parameter name" if kw == "param" else "rate name")
        self.expect_symbol("=")
        value = self.expect_string()
        self.expect_symbol(";")
        if name.text in table:
            self.error(name, f"duplicate {kw} declaration for {name.text}")
            return
        table[name.text] = value.text

    # assembly -----------------------------------------------------------

    def assemble(self) -> SystemDef:
        defs: list[SpeciesDef] = []
        for name, (prefixes, tok) in self.species.items():
            entry = self.maxes.get(name)
            if entry is None:
                self.error(tok, f"missing max declaration for species {name}")
                continue
            defs.append(SpeciesDef(name, prefixes, entry[0]))
        for name, (_, tok) in self.maxes.items():
            if name not in self.species:
                self.error(tok, f"max declared for unknown species {name}")
        if self.tree is None:
            self.error(self.tokens[-1], "missing system declaration")
        if self.problems:
            raise _located(self.text, self.problems)
        assert self.tree is not None
        try:
            return SystemDef(
                species=tuple(defs),
                tree=self.tree,
                step_size=self.step if self.step is not None else 1,
                params=self.params,
                rates=self.rates,
            )
        except InvalidModelError as err:
            for subject, problem in zip(err.subjects, err.problems):
                self.error(self.system if subject is None else self.species[subject][1], problem)
            raise _located(self.text, self.problems) from None


class _Recover(Exception):
    """Internal: abandon the current declaration and resynchronise."""


_NO_COOP = object()


def parse_model(text: str) -> SystemDef:
    """Parse and validate a model file; raises ParseError with positioned
    diagnostics on any syntax or well-definedness problem."""
    return _ModelParser(text).parse()


def parse_config(text: str) -> EquivConfig:
    """Parse an equivalence-configuration file.

    Unknown keys, malformed lines, actions listed as both fast and slow,
    and conflicting aliases are reported with line positions.  Checks that
    need the models themselves (delta names, alias sources) live with the
    equivalence checker.
    """
    fast: set[str] = set()
    slow: set[str] = set()
    delta: set[str] = set()
    aliases: dict[str, str] = {}
    problems: list[tuple[int, int, str]] = []
    # each action in both classes, at the first line that lists it in its second
    both: dict[str, tuple[int, int]] = {}

    offset = 0  # of the current line's first character
    for raw in text.split("\n"):
        start, end = offset, offset + len(raw)
        offset = end + 1
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        problem = None
        if not sep or key not in ("fast", "slow", "delta", "alias"):
            problem = f"unrecognised configuration line: {line!r}"
        elif key == "alias":
            source, eq, target = rest.partition("=")
            source, target = source.strip(), target.strip()
            if not eq or not _is_name(source) or not _is_name(target):
                problem = "alias lines look like: alias: X' = X"
            elif aliases.get(source, target) != target:
                problem = f"conflicting alias for {source}"
            else:
                aliases[source] = target
        else:
            names = [part.strip() for part in rest.split(",") if part.strip()]
            bad = [n for n in names if not _is_name(n)]
            if bad:
                problem = f"invalid name {bad[0]!r}"
            else:
                {"fast": fast, "slow": slow, "delta": delta}[key].update(names)
                for name in names:
                    if name in fast and name in slow:
                        both.setdefault(name, (start, end))
        if problem is not None:
            problems.append((start, end, problem))

    for action in sorted(both):
        problems.append((*both[action], f"action-in-both-classes({action})"))
    if problems:
        raise _located(text, problems)
    return EquivConfig(frozenset(fast), frozenset(slow), frozenset(delta), aliases)


def render_species(sdef: SpeciesDef) -> str:
    body = " + ".join(
        f"({p.action},{p.stoich}) {p.role.value} {sdef.name}" for p in sdef.prefixes
    )
    return f"species {sdef.name} = {body};"


def _render_tree(tree: Leaf | Node) -> str:
    # Pending subtrees and literal text wait on a stack, popped in output
    # order, so the depth of the tree is not bounded by the recursion limit.
    parts: list[str] = []
    stack: list[Leaf | Node | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"{item.species}[{item.level}]")
        else:
            if item.coop is None:
                op = "<*>"
            else:
                op = "<{}>".format(",".join(sorted(item.coop)))
            if isinstance(item.right, Node):
                stack += [")", item.right, f" {op} (", item.left]
            else:
                stack += [item.right, f" {op} ", item.left]
    return "".join(parts)


def render_model(sys: SystemDef) -> str:
    """Canonical text for a model; re-parses to an identical SystemDef."""
    lines = [f"step = {sys.step_size};"]
    for sdef in sys.species:
        lines.append(f"max {sdef.name} = {sdef.max_count};")
        lines.append(render_species(sdef))
    for kind, table in (("param", sys.params), ("rate", sys.rates)):
        for name, value in table.items():
            if '"' in value or "\n" in value:
                raise ValueError(
                    f"{kind} {name} contains a quote or newline and cannot be rendered"
                )
            lines.append(f'{kind} {name} = "{value}";')
    lines.append(f"system = {_render_tree(sys.tree)};")
    return "\n".join(lines) + "\n"


def render_config(cfg: EquivConfig) -> str:
    """Canonical text for a configuration; re-parses to an equal EquivConfig."""
    lines = []
    if cfg.fast:
        lines.append("fast: " + ", ".join(sorted(cfg.fast)))
    if cfg.slow:
        lines.append("slow: " + ", ".join(sorted(cfg.slow)))
    if cfg.delta:
        lines.append("delta: " + ", ".join(sorted(cfg.delta)))
    for source in sorted(cfg.aliases):
        lines.append(f"alias: {source} = {cfg.aliases[source]}")
    return "\n".join(lines) + "\n"
