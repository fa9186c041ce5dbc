"""The parse fast path's template cache.

SkyServer-style logs are dominated by machine-generated statements that
repeat a small set of templates with different constants (the premise of
the paper's Section 3).  The full parse path re-derives the same
skeleton, template and clause features thousands of times; this module
short-circuits that with a two-level bounded LRU keyed by the scanner's
:func:`~repro.sqlparser.scanner.fingerprint_statement`:

* **L1 (exact text)** — statement text → prototype
  :class:`~repro.patterns.models.ParsedQuery` *or* a cached parse
  failure.  A hit costs one dict probe plus a rebind to the new log
  record.  Failures live only here: parser error messages carry
  line/column positions that depend on the exact whitespace, so they
  are never shared across texts.
* **L2 (fingerprint key)** — canonical-token-stream key → an interned
  :class:`_Entry` holding the prototype and precomputed *splice
  templates* of its clause texts.  A hit costs one scanner pass plus a
  :class:`LazyParsedQuery` bind: the template, template id, predicate
  count and output set are shared (interned) from the prototype,
  because they are functions of the token structure alone, and the
  AST / clause texts / equality filter materialise on first access.
  Mining, registry and detection run on the shared skeleton fields, so
  a typical run never builds most members' ASTs at all.
* **Raw-template memo (L1.5)** — constant-stripped raw text → a
  *witness-verified* L2 entry.  Workloads like SkyServer's collapse to
  a few dozen raw templates, so once a template's first member has paid
  for a full fingerprint scan, later members skip the scanner entirely:
  a single cheap regex pass strips the literals and one dict probe
  binds them to the interned entry.  Admission is per raw key and only
  happens when the regex strip provably reproduced the scanner — the
  witness's literal spans must equal the scanner's token spans
  position for position (see :func:`_raw_scan`); anything else marks
  the raw key unsafe and members keep taking the scanner path.

A successful parse enters all three levels through one door,
:meth:`TemplateCache.build`; :meth:`TemplateCache.store` only records
parse failures.

Correctness rests on one invariant and one escape hatch:

* Two statements with the same fingerprint key tokenize identically up
  to number/string literal *values*, and the recursive-descent parser's
  decisions never look at literal values — so their parses are
  isomorphic, differing only in :class:`~repro.sqlparser.ast_nodes.Literal`
  values at corresponding positions.
* The parser is not a pure token-stream echo: it folds unary minus into
  number literals, consumes ``CAST`` type sizes into the type name, and
  accepts string-literal aliases.  Instead of enumerating those cases,
  :meth:`TemplateCache.build` *verifies* at entry-build time that the
  constants its marker rendering met, in render order, equal the
  scanner's constant vector.  Any mismatch marks the key **unsafe**:
  every statement with that key permanently takes the full parse path.
  Ambiguity can therefore only ever cost speed, never correctness.
"""

from __future__ import annotations

import dataclasses
import gc
import re
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..log.models import LogRecord
from ..patterns.models import ParsedQuery
from ..sqlparser import ast_nodes as ast
from ..sqlparser.errors import SqlError
from ..sqlparser.formatter import _Formatter, _quote_identifier
from ..sqlparser.parser import Parser
from ..sqlparser.scanner import (
    _FP_NUMBER,
    _FP_STRING,
    _FP_UNSAFE,
    Scan,
    StatementFingerprint,
    scan,
)
from .features import (
    Predicate,
    count_predicates,
    null_comparison_predicates,
    output_columns,
    single_equality_filter,
)
from .fingerprint import template_fingerprint
from .template import (
    ClauseTexts,
    QueryTemplate,
    _clause_strings,
    _leading_select,
)

#: Default bound of each cache level (distinct texts / distinct keys).
DEFAULT_PARSE_CACHE_SIZE = 4096

# ----------------------------------------------------------------------
# Source-order literal traversal
#
# The scanner's constant vector is in *token* order.  For almost every
# node class, dataclass field order equals source order; the two
# exceptions are overridden here (TOP precedes the select list, a simple
# CASE operand precedes its WHEN arms).  Non-node fields are harmless to
# visit, so overrides only need the fields that can contain nodes.

_SOURCE_ORDER_OVERRIDES = {
    ast.SelectStatement: (
        "top",
        "items",
        "from_sources",
        "where",
        "group_by",
        "having",
        "order_by",
    ),
    ast.CaseExpression: ("operand", "whens", "else_result"),
}

_FIELD_ORDER_CACHE: Dict[type, Tuple[str, ...]] = {}


def _source_fields(cls: type) -> Tuple[str, ...]:
    order = _FIELD_ORDER_CACHE.get(cls)
    if order is None:
        order = _SOURCE_ORDER_OVERRIDES.get(cls)
        if order is None:
            order = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_ORDER_CACHE[cls] = order
    return order


def _substitute_value(
    value: object, values: Tuple[Tuple[str, str], ...], state: List[int]
) -> object:
    """Rebuild ``value`` with the i-th literal replaced by ``values[i]``.

    Subtrees without substituted literals are returned unchanged, so the
    rebuilt statement structurally shares every literal-free branch with
    the prototype.
    """
    if isinstance(value, ast.Literal):
        kind = value.kind
        if kind == "number" or kind == "string":
            index = state[0]
            state[0] = index + 1
            new_kind, new_text = values[index]
            if new_text != value.value or new_kind != kind:
                return ast.Literal(new_text, new_kind)
        return value
    if isinstance(value, ast.Node):
        changes = None
        for name in _source_fields(type(value)):
            old = getattr(value, name)
            new = _substitute_value(old, values, state)
            if new is not old:
                if changes is None:
                    changes = {}
                changes[name] = new
        if changes is None:
            return value
        return dataclasses.replace(value, **changes)
    if type(value) is tuple and value:
        items = [_substitute_value(item, values, state) for item in value]
        for new, old in zip(items, value):
            if new is not old:
                return tuple(items)
        return value
    return value


# ----------------------------------------------------------------------
# Clause-text splice templates
#
# Clause texts (SC/FC/WC with constants preserved) are reproduced on a
# hit without any formatting pass: at entry-build time the prototype is
# re-rendered once with marker literals, the rendered strings are split
# on the markers, and a hit just interleaves the statics with the
# member's rendered constants.

_MARKER = re.compile("\x00(\\d+)\x01")

#: (static text parts, constant indices between them)
_Splice = Tuple[Tuple[str, ...], Tuple[int, ...]]


def _make_splice(text: str) -> _Splice:
    parts = _MARKER.split(text)
    return tuple(parts[0::2]), tuple(int(slot) for slot in parts[1::2])


def _render_splice(splice: _Splice, rendered: List[str]) -> str:
    statics, slots = splice
    if not slots:
        return statics[0]
    pieces = [statics[0]]
    for position, slot in enumerate(slots):
        pieces.append(rendered[slot])
        pieces.append(statics[position + 1])
    return "".join(pieces)


def _render_constant(kind: str, value: str) -> str:
    """Render a constant exactly as the SQL formatter would."""
    if kind == "number":
        return value
    return "'" + value.replace("'", "''") + "'"


# ----------------------------------------------------------------------
# Marker-formatter fusion (the cold path)
#
# The cold path needs three renderings of the same statement: the clause
# texts (constants preserved), the template (constants replaced by typed
# placeholders) and the splice sentinel (constants replaced by indexed
# markers).  All three differ only at constant leaves, and the
# formatter's parenthesisation is purely type-driven — Literal,
# Placeholder and Variable all render as primaries (precedence 10,
# never parenthesised) — so ONE pass with indexed markers at the leaves
# replaces the skeletonize+format pass and the substitute+format pass at
# once: the template is the marker string with markers swapped for
# placeholders, the splices fall out of a split on the markers, and the
# clause texts are one splice-render with the statement's own constants.
#
# Two further fusions ride on the same pass:
#
# * :class:`_CanonFormatter` folds :func:`normalize_case` into the
#   render — it lower-cases exactly the identifier fields that function
#   rewrites, at the point they are emitted — so the cold path never
#   materialises the canonical tree at all.
# * The formatter records each constant's ``(kind, value)`` in render
#   order.  Requiring that sequence to equal the scanner's constant
#   vector is the entry-safety check in its strongest form: it ties
#   render order to token order *by value* (the splice slots depend on
#   that correspondence), and any parser divergence from the token
#   stream — a folded ``- -5``, a CAST size, a consumed alias — breaks
#   the equality and marks the key unsafe.
#
# NULL literals and (under ``fold_variables``) variables render
# differently in the template (``<null>`` / ``<var>``) than in the
# clause texts (``NULL`` / ``@name``), so they get a second marker
# family carrying both spellings.  Markers are injective because the
# scanner rejects ``\x00`` outside literals, comments and delimited
# identifiers, and :meth:`TemplateCache.build` never marker-renders a
# text that carries one (a delimited identifier could forge a marker).

_EXTRA_MARKER = re.compile("\x00x(\\d+)\x01")

_TEMPLATE_PLACEHOLDER = {"number": "<num>", "string": "<str>"}


class _CanonFormatter(_Formatter):
    """Render a raw parse tree as :class:`_Formatter` renders its
    :func:`normalize_case` image — without building the canonical tree.

    Overrides exactly the emission points of the identifier fields that
    ``normalize_case`` lower-cases (column/table/function/variable names,
    schemas, aliases); everything else — keywords, operators, CAST type
    names, literals — is untouched, matching the rewrite's behaviour.
    """

    def select_item(self, item: ast.SelectItem) -> str:
        text = self.expression(item.expr)
        if item.alias:
            return f"{text} AS {_quote_identifier(item.alias.lower())}"
        return text

    def source(self, node: ast.TableSource) -> str:
        if isinstance(node, ast.TableName):
            name = _quote_identifier(node.name.lower())
            if node.schema:
                name = f"{node.schema.lower()}.{name}"
            if node.alias:
                return f"{name} AS {_quote_identifier(node.alias.lower())}"
            return name
        if isinstance(node, ast.FunctionTable):
            text = self.expression(node.call)
            if node.alias:
                return f"{text} AS {_quote_identifier(node.alias.lower())}"
            return text
        if isinstance(node, ast.DerivedTable):
            text = f"({self.select(node.select)})"
            if node.alias:
                return f"{text} AS {_quote_identifier(node.alias.lower())}"
            return text
        if isinstance(node, ast.Join):
            return self.join(node)
        raise TypeError(f"cannot format {type(node).__name__}")

    def _expr_ColumnRef(self, node: ast.ColumnRef) -> str:
        name = _quote_identifier(node.name.lower())
        if node.table:
            return f"{node.table.lower()}.{name}"
        return name

    def _expr_Star(self, node: ast.Star) -> str:
        return f"{node.table.lower()}.*" if node.table else "*"

    def _expr_FunctionCall(self, node: ast.FunctionCall) -> str:
        name = node.name.lower()
        if node.schema is not None:
            name = f"{node.schema.lower()}.{name}"
        inner = ", ".join(self.expression(arg) for arg in node.args)
        if node.distinct:
            inner = f"DISTINCT {inner}"
        return f"{name}({inner})"

    def _expr_Variable(self, node: ast.Variable) -> str:
        return f"@{node.name.lower()}"


class _MarkerFormatter(_CanonFormatter):
    """One case-normalising pass serving template, splices and clauses.

    Number/string literals render as indexed constant markers
    (``\\x00i\\x01`` — the splice alphabet) with their ``(kind, value)``
    recorded in render order; NULL literals and folded variables render
    as indexed *extra* markers (``\\x00xi\\x01``) whose template/source
    spellings are recorded side-band.  Everything else renders exactly
    as :class:`_CanonFormatter` would.
    """

    def __init__(self, fold_variables: bool) -> None:
        #: (kind, value) of the i-th constant marker, in render order.
        self.consts: List[Tuple[str, str]] = []
        #: (template spelling, source spelling) of the i-th extra marker.
        self.extras: List[Tuple[str, str]] = []
        self._fold_variables = fold_variables

    def _expr_Literal(self, node: ast.Literal) -> str:
        kind = node.kind
        if kind == "number" or kind == "string":
            marker = "\x00%d\x01" % len(self.consts)
            self.consts.append((kind, node.value))
            return marker
        if kind == "null":
            marker = "\x00x%d\x01" % len(self.extras)
            self.extras.append(("<null>", "NULL"))
            return marker
        return _Formatter._expr_Literal(self, node)

    def _expr_Variable(self, node: ast.Variable) -> str:
        if self._fold_variables:
            marker = "\x00x%d\x01" % len(self.extras)
            self.extras.append(("<var>", "@" + node.name.lower()))
            return marker
        return f"@{node.name.lower()}"

    def template_text(self, text: str) -> str:
        """The template spelling: markers become typed placeholders."""
        if "\x00" not in text:
            return text
        consts = self.consts
        text = _MARKER.sub(
            lambda m: _TEMPLATE_PLACEHOLDER[consts[int(m.group(1))][0]], text
        )
        if self.extras:
            extras = self.extras
            text = _EXTRA_MARKER.sub(
                lambda m: extras[int(m.group(1))][0], text
            )
        return text

    def splice_text(self, text: str) -> str:
        """The splice source: extras become real text, constants stay."""
        if self.extras and "\x00" in text:
            extras = self.extras
            return _EXTRA_MARKER.sub(
                lambda m: extras[int(m.group(1))][1], text
            )
        return text


def _collect_literal_nodes(value: object, out: List[ast.Literal]) -> None:
    """Append the subtree's number/string literal *nodes* in source order.

    Same traversal as :func:`_substitute_value`, keeping the node
    objects so positions can be matched by identity.
    """
    if isinstance(value, ast.Literal):
        if value.kind == "number" or value.kind == "string":
            out.append(value)
    elif isinstance(value, ast.Node):
        for name in _source_fields(type(value)):
            _collect_literal_nodes(getattr(value, name), out)
    elif type(value) is tuple:
        for item in value:
            if isinstance(item, ast.Node):
                _collect_literal_nodes(item, out)


class _LazyStats:
    """Shared mutable materialisation counter of one cache.

    Lazy queries outlive their ``fetch`` call, so the count of on-demand
    AST builds cannot live on the cache's hot counters alone — each lazy
    query carries a reference to this object and bumps it whenever its
    statement is materialised, wherever in the pipeline that happens.
    """

    __slots__ = ("materialised",)

    def __init__(self) -> None:
        self.materialised = 0


#: Predicate-binding descriptors precomputed per entry (see
#: :func:`_equality_binding`).
_EQ_SHARED = "shared"
_EQ_INDEXED = "indexed"
_EQ_MATERIALISE = "materialise"


class LazyParsedQuery(ParsedQuery):
    """A skeleton-only :class:`ParsedQuery` bound to an interned entry.

    Emitted by the cache on every L2 and raw-memo hit: only the fields the
    post-parse stages actually touch (record, template, template id,
    predicate count, outputs, interned id) are populated eagerly — the
    AST (``statement`` / ``select``), the clause texts and the equality
    filter materialise on first access via :meth:`__getattr__`:

    * ``clauses`` renders from the entry's splice templates — no AST;
    * ``equality_filter`` rebinds the prototype's predicate to this
      query's constant — no AST;
    * ``statement`` / ``select`` run the full literal substitution over
      the prototype AST and bump the cache's ``materialised`` counter.

    Instances compare equal (both directions) and hash identically to
    the fully built :class:`ParsedQuery` they stand in for; comparing forces
    materialisation.  They are built by :meth:`_Entry.bind` via
    ``object.__new__`` — never through the dataclass ``__init__`` — so a
    bind is one dict copy, cheaper even than ``dataclasses.replace``.
    """

    __eq_fields__ = (
        "record",
        "statement",
        "select",
        "template",
        "template_id",
        "clauses",
        "predicate_count",
        "equality_filter",
        "outputs",
    )

    def __getattr__(self, name: str):
        if name == "statement" or name == "select":
            self._materialise()
            return self.__dict__[name]
        if name == "clauses":
            return self._bind_clauses()
        if name == "equality_filter":
            return self._bind_equality_filter()
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # On-demand binds (cached straight into ``__dict__`` — the one
    # mutation a frozen dataclass allows, exactly like Block's memos)

    def _materialise(self) -> None:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        constants = d["_constants"]
        proto = entry.proto
        if constants == entry.constants:
            statement = proto.statement
            select = proto.select
        else:
            state = [0]
            statement = _substitute_value(proto.statement, constants, state)
            select = statement
            while isinstance(select, ast.Union):
                select = select.left
        d["statement"] = statement
        d["select"] = select
        d["_stats"].materialised += 1

    def _bind_clauses(self) -> ClauseTexts:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        constants = d["_constants"]
        if constants == entry.constants:
            clauses = entry.proto.clauses
        else:
            rendered = [_render_constant(k, v) for k, v in constants]
            splices = entry.splices
            clauses = ClauseTexts(
                sc=_render_splice(splices[0], rendered),
                fc=_render_splice(splices[1], rendered),
                wc=_render_splice(splices[2], rendered),
            )
        d["clauses"] = clauses
        return clauses

    def _bind_equality_filter(self) -> Optional[Predicate]:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        binding = entry.eq
        proto_pred = entry.proto.equality_filter
        if binding is None:
            result: Optional[Predicate] = None
        elif binding[0] == _EQ_SHARED:
            result = proto_pred
        elif binding[0] == _EQ_INDEXED:
            index, on_left = binding[1], binding[2]
            constants = d["_constants"]
            kind, text = constants[index]
            if constants[index] == entry.constants[index]:
                result = proto_pred
            else:
                literal = ast.Literal(text, kind)
                if on_left:
                    node = dataclasses.replace(proto_pred.node, left=literal)
                else:
                    node = dataclasses.replace(proto_pred.node, right=literal)
                result = Predicate(
                    theta=proto_pred.theta,
                    column=proto_pred.column,
                    value=literal,
                    node=node,
                    compares_null=proto_pred.compares_null,
                )
        else:  # _EQ_MATERIALISE — paranoia fallback: build the AST
            result = single_equality_filter(self.select)
        d["equality_filter"] = result
        return result

    def null_predicate_count(self) -> int:
        # Constant-independent (NULL is a keyword literal, never a
        # number/string constant), so the entry's precompute is exact.
        return self.__dict__["_entry"].nulls

    # ------------------------------------------------------------------
    # Equality across the lazy/built divide.  The generated dataclass
    # __eq__ requires identical classes; here any ParsedQuery with equal
    # parse semantics must compare equal (Python tries the subclass's
    # reflected operator first, so built == lazy routes here too).

    def __eq__(self, other: object):
        if isinstance(other, ParsedQuery):
            for name in self.__eq_fields__:
                if getattr(self, name) != getattr(other, name):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__eq_fields__))


def rebind_query(
    query: ParsedQuery, record, interned_id: int
) -> ParsedQuery:
    """Bind a cached query to a new record / interned id.

    The lazy path's replacement for ``dataclasses.replace``: a
    cache-built :class:`LazyParsedQuery` is cloned by copying its
    ``__dict__`` (unmaterialised fields stay unmaterialised — neither
    depends on the record); anything else takes the classic dataclass
    copy.
    """
    if type(query) is LazyParsedQuery and "_entry" in query.__dict__:
        state = query.__dict__
        if state["record"] is record and state["interned_id"] == interned_id:
            return query
        clone = object.__new__(LazyParsedQuery)
        state = dict(state)
        state["record"] = record
        state["interned_id"] = interned_id
        object.__setattr__(clone, "__dict__", state)
        return clone
    if query.record is record:
        if query.interned_id == interned_id:
            return query
        return dataclasses.replace(query, interned_id=interned_id)
    if query.interned_id == interned_id:
        return dataclasses.replace(query, record=record)
    return dataclasses.replace(query, record=record, interned_id=interned_id)


class _Entry:
    """One interned fingerprint-key class: prototype + splice templates.

    Beyond the prototype itself the entry precomputes everything a lazy
    bind needs without touching the AST: the shared eager-field dict
    (:attr:`shared`), the equality-filter binding descriptor
    (:attr:`eq`) and the NULL-comparison predicate count
    (:attr:`nulls`).
    """

    __slots__ = ("proto", "constants", "splices", "eq", "nulls", "shared")

    def __init__(
        self,
        proto: ParsedQuery,
        constants: Tuple[Tuple[str, str], ...],
        splices: Tuple[_Splice, _Splice, _Splice],
        eq: Optional[tuple],
        nulls: int,
    ) -> None:
        self.proto = proto
        self.constants = constants
        self.splices = splices
        self.eq = eq
        self.nulls = nulls
        self.shared = {
            "template": proto.template,
            "template_id": proto.template_id,
            "predicate_count": proto.predicate_count,
            "outputs": proto.outputs,
            "interned_id": proto.interned_id,
        }

    def bind(self, record, constants, stats: _LazyStats) -> LazyParsedQuery:
        """One lazy bind: a dict copy, no AST, no splice render."""
        query = object.__new__(LazyParsedQuery)
        state = self.shared.copy()
        state["record"] = record
        state["_entry"] = self
        state["_constants"] = constants
        state["_stats"] = stats
        object.__setattr__(query, "__dict__", state)
        return query

    def __getstate__(self):
        return (self.proto, self.constants, self.splices, self.eq, self.nulls)

    def __setstate__(self, state):
        proto, constants, splices, eq, nulls = state
        self.__init__(proto, constants, splices, eq, nulls)


class _UnsafeMarker:
    """Permanent full-parse marker for an ambiguous fingerprint key."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unsafe fingerprint key>"

    def __reduce__(self):
        return (_unsafe_marker, ())


def _unsafe_marker() -> "_UnsafeMarker":
    return _UNSAFE


_UNSAFE = _UnsafeMarker()


def _equality_binding(proto: ParsedQuery) -> Optional[tuple]:
    """Describe how a member's equality filter derives from the proto's.

    The filter's *shape* is a function of the fingerprint key alone
    (substitution never changes which nodes are literals), so per member
    only the constant value can differ:

    * ``None`` — the prototype has no single-equality filter, so no
      member of the key class does either;
    * ``(_EQ_SHARED,)`` — the filter's value is not a substituted
      literal kind (e.g. ``= NULL``): the prototype's predicate is
      every member's predicate;
    * ``(_EQ_INDEXED, i, on_left)`` — the value is the ``i``-th
      source-order constant; a member rebinds just that literal;
    * ``(_EQ_MATERIALISE,)`` — identity lookup failed (should not
      happen); members fall back to building the AST.
    """
    pred = proto.equality_filter
    if pred is None:
        return None
    value = pred.value
    if value is None or value.kind not in ("number", "string"):
        return (_EQ_SHARED,)
    if not isinstance(pred.node, ast.Comparison):
        return (_EQ_MATERIALISE,)
    nodes: List[ast.Literal] = []
    _collect_literal_nodes(proto.statement, nodes)
    for index, node in enumerate(nodes):
        if node is value:
            return (_EQ_INDEXED, index, pred.node.left is value)
    return (_EQ_MATERIALISE,)


# ----------------------------------------------------------------------
# Raw-template memo (L1.5): skip the scanner for known raw templates
#
# One regex strips number/string literals straight out of the raw text.
# It deliberately knows nothing about comments, delimited identifiers or
# variables — instead, admission into the memo requires that the spans
# it stripped from a witness text equal the fingerprint scanner's
# literal-token spans *positionally*.  Raw-key equality preserves every
# non-literal byte, so when the witness aligns, every other member of
# the raw key tokenizes the same way and the strip is a faithful stand-
# in for the scan.  A literal the regex sees but the scanner does not
# (inside a comment or a bracketed identifier), or vice versa (a folded
# ``- -5``, an ``a.5`` member access), shifts or changes the spans and
# the raw key is marked unsafe: its members simply keep paying for the
# full scanner pass.  The guards mirror the scanner's punt conditions —
# no literal is stripped where the hand lexer would merge it into a
# word (``abc1``) or reject it (``1abc``).
_RAW_LITERAL = re.compile(
    r"'(?:[^']|'')*'"
    r"|(?<![0-9A-Za-z_\#\$])(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)"
    r"(?:[eE][+-]?[0-9]+)?(?![A-Za-z0-9_\#\$])"
)

#: ``(raw_key, spans, constants)`` for one statement text, or ``None``
#: when the text contains control characters the scanner refuses.
RawTemplate = Tuple[str, Tuple[Tuple[int, int], ...], List[Tuple[str, str]]]


def _raw_scan(text: str) -> Optional[RawTemplate]:
    """Strip literals out of ``text`` in one regex pass.

    The raw key is the text with each stripped literal replaced by its
    typed placeholder byte (injective: the scanner's control-character
    refusal, mirrored here, keeps placeholders out of the input).  The
    constants come back already in the scanner's ``(kind, value)``
    format — same unquoting, same ``''`` collapse — so a verified raw
    key can feed :meth:`_Entry.bind` directly.
    """
    if _FP_UNSAFE.search(text):
        return None
    spans: List[Tuple[int, int]] = []
    constants: List[Tuple[str, str]] = []
    parts: List[str] = []
    append = parts.append
    last = 0
    for m in _RAW_LITERAL.finditer(text):
        start, end = m.span()
        token = text[start:end]
        if token[0] == "'":
            constants.append(("string", token[1:-1].replace("''", "'")))
            append(text[last:start])
            append(_FP_STRING)
        else:
            constants.append(("number", token))
            append(text[last:start])
            append(_FP_NUMBER)
        spans.append((start, end))
        last = end
    if not spans:
        return (text, (), constants)
    append(text[last:])
    return ("".join(parts), tuple(spans), constants)


#: What the parse loop caches for one statement text: a prototype
#: ParsedQuery on success, or the (error, reason) pair of a failure.
CacheResult = Union[ParsedQuery, Tuple[BaseException, str]]


class TemplateCache:
    """Bounded two-level LRU for the parse fast path.

    One instance serves one executor run (batch), one cleaner instance
    (streaming) or one worker process (parallel, across its shards) —
    instances are picklable so caches can cross process boundaries, but
    they are never shared concurrently.

    The parse protocol is :meth:`fetch`; on a miss, :meth:`build`; if
    that raises, :meth:`store` of the failure.  Every L2 and raw-memo
    hit is a :class:`LazyParsedQuery`, and :attr:`materialised` counts
    the AST builds those queries later defer to.

    :param max_entries: LRU bound applied to each level independently.
    """

    def __init__(self, max_entries: int = DEFAULT_PARSE_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lazy_stats = _LazyStats()
        self._exact: "OrderedDict[str, CacheResult]" = OrderedDict()
        self._by_key: "OrderedDict[str, object]" = OrderedDict()
        #: raw template key → (entry, fold indexes) once witness-verified,
        #: or _UNSAFE when the regex strip provably disagrees with the
        #: scanner for this raw key.
        self._by_raw: "OrderedDict[str, object]" = OrderedDict()
        #: (sql, scan, raw) remembered from the last miss so that the
        #: build() that follows does not rescan the text (the scan
        #: carries the token stream the parser consumes).
        self._pending: Optional[Tuple[str, Scan, Optional[RawTemplate]]] = None

    @property
    def materialised(self) -> int:
        """On-demand AST builds performed by lazy queries of this cache.

        A snapshot: lazy queries keep the counter reference, so touching
        a query's ``statement`` after a run still bumps it.
        """
        return self._lazy_stats.materialised

    def __len__(self) -> int:
        return len(self._exact)

    @property
    def key_entries(self) -> int:
        """Number of interned fingerprint-key entries (L2)."""
        return len(self._by_key)

    def fetch(self, record) -> Optional[CacheResult]:
        """Return the cached parse outcome for ``record``, or ``None``.

        A returned :class:`~repro.patterns.models.ParsedQuery` is already
        bound to ``record``; a returned tuple is the shared parse
        failure of this exact statement text.  ``None`` means miss — the
        caller must :meth:`build` the statement (and :meth:`store` the
        failure if that raises).
        """
        sql = record.sql
        exact = self._exact
        cached = exact.get(sql)
        if cached is not None:
            exact.move_to_end(sql)
            self.hits += 1
            if type(cached) is tuple:
                return cached
            return rebind_query(cached, record, cached.interned_id)
        raw = _raw_scan(sql)
        if raw is not None:
            memo = self._by_raw.get(raw[0])
            if type(memo) is tuple:
                # Verified raw template: the regex strip stands in for
                # the scanner.  No L1 promotion — this path is already
                # one probe, and distinct-text workloads would only
                # churn the exact level.
                self._by_raw.move_to_end(raw[0])
                entry, folds = memo
                constants = raw[2]
                for index in folds:
                    constants[index] = ("number", "-" + constants[index][1])
                self.hits += 1
                return entry.bind(record, tuple(constants), self._lazy_stats)
        scanned = scan(sql)
        fingerprint = scanned.fingerprint
        if fingerprint is not None:
            entry = self._by_key.get(fingerprint.key)
            if type(entry) is _Entry:
                self._by_key.move_to_end(fingerprint.key)
                result = entry.bind(
                    record, fingerprint.constants, self._lazy_stats
                )
                self.hits += 1
                self._admit_raw(raw, fingerprint, entry)
                # Promote into L1 so an exact repeat skips the scanner.
                self._remember_exact(sql, result)
                return result
        self.misses += 1
        self._pending = (sql, scanned, raw)
        return None

    def store(self, sql: str, failure: Tuple[BaseException, str]) -> None:
        """Admit the ``(error, reason)`` failure of a :meth:`build`.

        Failures stay L1-only: their messages carry text-specific
        line/column positions.  Successful parses enter the cache
        through :meth:`build` alone.
        """
        if type(failure) is not tuple:
            raise TypeError(
                "store() admits parse failures only; successful parses "
                "enter the cache through build()"
            )
        self._pending = None
        self._remember_exact(sql, failure)

    def build(
        self,
        record,
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
        interner=None,
    ) -> ParsedQuery:
        """Full-parse ``record`` after a :meth:`fetch` miss and admit it.

        The cold path, and the only way a successful parse enters the
        cache.  The scanner pass the miss already paid for feeds the
        parser directly (no second tokenization), and one
        case-normalising marker rendering of the raw parse tree
        (:class:`_MarkerFormatter`) yields the template, the clause
        texts and the interned splice :class:`_Entry` together.  A
        union's template also folds the marker rendering of the whole
        statement into its suffix, exactly as
        :func:`~repro.skeleton.template.build_template` does.  The
        prototype is admitted into L1, its fingerprint key into L2 and
        its raw template into the raw memo.

        Failures (:class:`~repro.sqlparser.errors.SqlError` subclasses,
        ``RecursionError``) propagate to the caller, which hands the
        failure tuple to :meth:`store`.
        """
        sql = record.sql
        pending = self._pending
        self._pending = None
        if pending is not None and pending[0] == sql:
            _, scanned, raw = pending
        else:
            scanned = scan(sql)
            raw = _raw_scan(sql)
        if scanned.error is not None:
            raise scanned.error
        fingerprint = scanned.fingerprint
        statement = Parser(scanned.tokens).parse_statement()
        select = _leading_select(statement)
        if fingerprint is None and "\x00" in sql:
            # A NUL inside a delimited identifier could forge a marker;
            # such texts have no fingerprint, so only L1 ever sees them.
            proto = ParsedQuery.from_statement(
                record,
                statement,
                fold_variables=fold_variables,
                strict_triple=strict_triple,
                interner=interner,
            )
            self._remember_exact(sql, proto)
            return proto
        # One marker rendering of the raw parse tree yields the template
        # (markers → placeholders), the splices (split on the markers)
        # and the clause texts (one splice-render with the statement's
        # own constants); the case-normalising formatter makes the
        # canonical tree itself unnecessary.
        marker = _MarkerFormatter(fold_variables)
        msc, mfc, mwc, mprefix, msuffix = _clause_strings(select, marker)
        constants = marker.consts
        suffix = marker.template_text(msuffix)
        if isinstance(statement, ast.Union):
            # Fold the full union shape into the suffix so differently
            # shaped unions never collapse into one template.  The whole
            # rendering meets the leading select's constants first, in
            # the same order, so the splice slots index its vector too.
            whole = _MarkerFormatter(fold_variables)
            shape = whole.template_text(whole.statement(statement))
            suffix = (suffix + " || " + shape).strip()
            constants = whole.consts
        template = QueryTemplate(
            ssc=marker.template_text(msc),
            sfc=marker.template_text(mfc),
            swc=marker.template_text(mwc),
            rest_prefix="" if strict_triple else marker.template_text(mprefix),
            rest_suffix="" if strict_triple else suffix,
        )
        splices = (
            _make_splice(marker.splice_text(msc)),
            _make_splice(marker.splice_text(mfc)),
            _make_splice(marker.splice_text(mwc)),
        )
        rendered = [
            _render_constant(kind, value) for kind, value in marker.consts
        ]
        template_id = template_fingerprint(template)
        proto = ParsedQuery(
            record=record,
            statement=statement,
            select=select,
            template=template,
            template_id=template_id,
            clauses=ClauseTexts(
                sc=_render_splice(splices[0], rendered),
                fc=_render_splice(splices[1], rendered),
                wc=_render_splice(splices[2], rendered),
            ),
            predicate_count=count_predicates(select),
            equality_filter=single_equality_filter(select),
            outputs=frozenset(output_columns(select)),
            interned_id=(
                -1 if interner is None else interner.intern(template_id)
            ),
        )
        self._remember_exact(sql, proto)
        if fingerprint is not None:
            by_key = self._by_key
            entry = by_key.get(fingerprint.key)
            if entry is None:
                # The safety check: the constants the rendering met, in
                # render order, must be the scanner's constant vector.
                # A folded ``- -5``, a CAST size or a consumed alias
                # breaks the equality and pins the key to the full path.
                entry = _UNSAFE
                if tuple(constants) == fingerprint.constants:
                    entry = _Entry(
                        proto,
                        fingerprint.constants,
                        splices,
                        _equality_binding(proto),
                        len(null_comparison_predicates(select)),
                    )
                by_key[fingerprint.key] = entry
                if len(by_key) > self.max_entries:
                    by_key.popitem(last=False)
                    self.evictions += 1
            self._admit_raw(raw, fingerprint, entry)
        return proto

    def _admit_raw(
        self,
        raw: Optional[RawTemplate],
        fingerprint: StatementFingerprint,
        entry: object,
    ) -> None:
        """Witness-verify ``raw`` against the scanner and memoise it.

        Admission requires the regex strip and the scanner to have seen
        exactly the same literals at exactly the same source positions;
        the only tolerated difference is a unary minus the scanner
        folded into a number's *value* (its span stays the literal
        alone), which is recorded as a fold index and replayed on every
        later bind.  Any other disagreement — or an unsafe L2 entry —
        pins the raw key to the full scanner path.
        """
        if raw is None:
            return
        raw_key, spans, constants = raw
        by_raw = self._by_raw
        if raw_key in by_raw:
            return
        memo: object = _UNSAFE
        if type(entry) is _Entry and spans == fingerprint.spans:
            folds: List[int] = []
            for index, (pair, scanned) in enumerate(
                zip(constants, fingerprint.constants)
            ):
                if pair == scanned:
                    continue
                if (
                    pair[0] == "number"
                    and scanned[0] == "number"
                    and scanned[1] == "-" + pair[1]
                ):
                    folds.append(index)
                    continue
                folds = None  # type: ignore[assignment]
                break
            if folds is not None:
                memo = (entry, tuple(folds))
        by_raw[raw_key] = memo
        if len(by_raw) > self.max_entries:
            by_raw.popitem(last=False)

    def _remember_exact(self, sql: str, result: CacheResult) -> None:
        exact = self._exact
        exact[sql] = result
        exact.move_to_end(sql)
        if len(exact) > self.max_entries:
            exact.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Preloading — a cache-level primitive for callers that hand their
    # own cache to parse_log; no executor warms its caches this way.

    def preload(
        self,
        witnesses: Iterable[str],
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
    ) -> int:
        """Warm L1/L2/raw by re-parsing ``witnesses`` through the cold path.

        Returns the number of witnesses admitted.  Unparsable witnesses
        (witnesses from another corpus, say) are skipped.  Counter
        neutral: hit/miss/eviction totals are restored afterwards, so
        the pipeline's conservation laws only ever see real traffic.

        Parse engine v4 batches the pass instead of replaying the
        per-witness fetch/build protocol.  Each witness goes straight
        into the single-lex :meth:`build` — the fetch probe ladder
        (L1 → raw memo → L2) exists to *avoid* a cold build, but a
        witness list is one text per template, so every probe would
        miss anyway; an exact-text membership check covers the only
        realistic duplicate.  Shared setup is hoisted once per batch:
        the counter snapshot, the bound build method, and a gc
        suspension — a preload is pure bulk allocation into long-lived
        caches, and generational collection passes over the growing
        heap are wasted work until the batch completes.  Admissions are
        byte-identical to the per-witness flow: :meth:`build` performs
        the same scan, raw strip, parse and L1/L2/raw admissions a
        fetch-miss-then-build would.
        """
        hits, misses, evictions = self.hits, self.misses, self.evictions
        build = self.build
        exact = self._exact
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        loaded = 0
        try:
            for index, sql in enumerate(witnesses):
                if sql in exact:
                    exact.move_to_end(sql)
                    loaded += 1
                    continue
                try:
                    build(
                        LogRecord(seq=-1 - index, sql=sql, timestamp=0.0),
                        fold_variables=fold_variables,
                        strict_triple=strict_triple,
                    )
                except (SqlError, RecursionError):
                    continue
                loaded += 1
        finally:
            if gc_was_enabled:
                gc.enable()
            self._pending = None
            self.hits, self.misses, self.evictions = hits, misses, evictions
        return loaded
