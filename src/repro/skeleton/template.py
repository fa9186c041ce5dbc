"""Query templates: the paper's (SFC, SWC, SSC) triples.

Definition 4: *a query template is a triple consisting of skeleton subtrees
(SFC, SWC, SSC)* — the skeletons of the FROM, WHERE and SELECT clauses.
Definition 5 makes two skeletons equal iff all three components are equal.

We additionally canonicalise identifier case (SQL identifiers are
case-insensitive; the SkyServer log mixes ``PhotoPrimary``/``photoprimary``)
and carry the skeletons of the remaining clauses (GROUP BY/HAVING/ORDER
BY/TOP/DISTINCT) in a ``rest`` component so that two queries that agree on
the triple but differ in, say, ORDER BY are still distinguished.  Dropping
``rest`` from the identity reproduces the paper's definition verbatim; the
ablation benchmark E14 measures the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..sqlparser import ast_nodes as ast
from ..sqlparser.formatter import _Formatter, format_sql
from ..sqlparser.visitor import transform
from .normalizer import skeletonize_statement


def normalize_case(node: ast.Node) -> ast.Node:
    """Lower-case every identifier in the tree (names, aliases, schemas)."""

    def rewrite(current: ast.Node):
        if isinstance(current, ast.ColumnRef):
            return ast.ColumnRef(
                name=current.name.lower(),
                table=current.table.lower() if current.table else None,
            )
        if isinstance(current, ast.Star) and current.table:
            return ast.Star(table=current.table.lower())
        if isinstance(current, ast.FunctionCall):
            return ast.FunctionCall(
                name=current.name.lower(),
                args=current.args,
                schema=current.schema.lower() if current.schema else None,
                distinct=current.distinct,
            )
        if isinstance(current, ast.Variable):
            return ast.Variable(name=current.name.lower())
        if isinstance(current, ast.TableName):
            return ast.TableName(
                name=current.name.lower(),
                schema=current.schema.lower() if current.schema else None,
                alias=current.alias.lower() if current.alias else None,
            )
        if isinstance(current, ast.FunctionTable):
            return ast.FunctionTable(
                call=current.call,
                alias=current.alias.lower() if current.alias else None,
            )
        if isinstance(current, ast.DerivedTable):
            return ast.DerivedTable(
                select=current.select,
                alias=current.alias.lower() if current.alias else None,
            )
        if isinstance(current, ast.SelectItem) and current.alias:
            return ast.SelectItem(
                expr=current.expr, alias=current.alias.lower()
            )
        return None

    return transform(node, rewrite)


@dataclass(frozen=True)
class QueryTemplate:
    """The canonical template of one query.

    :param ssc: skeleton of the SELECT clause (Definition 2's SSC).
    :param sfc: skeleton of the FROM clause (SFC).
    :param swc: skeleton of the WHERE clause (SWC), empty string if absent.
    :param rest_prefix: canonical text of the clauses rendered between
        SELECT and the item list (DISTINCT, TOP) — ``""`` under the
        strict paper-faithful identity.
    :param rest_suffix: canonical text of the trailing clauses (GROUP
        BY/HAVING/ORDER BY, plus the union shape) — ``""`` under the
        strict identity.
    """

    ssc: str
    sfc: str
    swc: str
    rest_prefix: str = ""
    rest_suffix: str = ""

    @property
    def rest(self) -> str:
        """The combined non-triple identity component."""
        return f"{self.rest_prefix} {self.rest_suffix}".strip()

    @property
    def skeleton_sql(self) -> str:
        """Re-assembled human-readable skeleton statement."""
        head = "SELECT"
        if self.rest_prefix:
            head += f" {self.rest_prefix}"
        parts = [f"{head} {self.ssc}".rstrip()]
        if self.sfc:
            parts.append(f"FROM {self.sfc}")
        if self.swc:
            parts.append(f"WHERE {self.swc}")
        if self.rest_suffix:
            parts.append(self.rest_suffix)
        return " ".join(parts)

    def triple(self) -> Tuple[str, str, str]:
        """The (SFC, SWC, SSC) identity of Definition 4."""
        return (self.sfc, self.swc, self.ssc)


@dataclass(frozen=True)
class ClauseTexts:
    """Canonical *non-skeleton* clause renderings of one query.

    Definitions 12–14 compare the actual clauses (SC, FC, WC — constants
    included) across the queries of a pattern, e.g. the DW-Stifle needs
    ``WC1 ≠ WC2``.  These strings are the case-normalised canonical
    renderings used for those comparisons.
    """

    sc: str
    fc: str
    wc: str


def _clause_strings(
    statement: ast.SelectStatement,
    formatter: Optional[_Formatter] = None,
) -> Tuple[str, str, str, str, str]:
    if formatter is None:
        formatter = _Formatter()
    # Clauses are rendered in *source* order (TOP before the item list)
    # so that a stateful formatter — the cache's marker formatter, which
    # numbers constants as it meets them — sees constants in the same
    # order as the scanner.  The default formatter is stateless, so the
    # ordering is free for every other caller.
    prefix_parts = []
    if statement.distinct:
        prefix_parts.append("DISTINCT")
    if statement.top is not None:
        top = f"TOP {formatter.expression(statement.top.count)}"
        if statement.top.percent:
            top += " PERCENT"
        prefix_parts.append(top)
    ssc = ", ".join(formatter.select_item(item) for item in statement.items)
    sfc = ", ".join(formatter.source(source) for source in statement.from_sources)
    swc = formatter.expression(statement.where) if statement.where is not None else ""
    suffix_parts = []
    if statement.group_by:
        suffix_parts.append(
            "GROUP BY " + ", ".join(formatter.expression(e) for e in statement.group_by)
        )
    if statement.having is not None:
        suffix_parts.append("HAVING " + formatter.expression(statement.having))
    if statement.order_by:
        suffix_parts.append(
            "ORDER BY "
            + ", ".join(formatter.order_item(item) for item in statement.order_by)
        )
    return ssc, sfc, swc, " ".join(prefix_parts), " ".join(suffix_parts)


def _leading_select(statement: ast.Statement) -> ast.SelectStatement:
    while isinstance(statement, ast.Union):
        statement = statement.left
    assert isinstance(statement, ast.SelectStatement)
    return statement


def build_template(
    statement: ast.Statement,
    *,
    fold_variables: bool = False,
    strict_triple: bool = False,
) -> QueryTemplate:
    """Compute the :class:`QueryTemplate` of a parsed statement.

    :param fold_variables: also fold ``@variables`` into placeholders.
    :param strict_triple: use the paper-verbatim identity (drop the
        ``rest`` component) — used by the E14 ablation.
    """
    skeleton = skeletonize_statement(
        normalize_case(statement),  # type: ignore[arg-type]
        fold_variables=fold_variables,
    )
    select = _leading_select(skeleton)
    ssc, sfc, swc, prefix, suffix = _clause_strings(select)
    if isinstance(skeleton, ast.Union):
        # Fold the full union shape into the suffix so differently-shaped
        # unions never collapse into one template.
        suffix = (suffix + " || " + format_sql(skeleton)).strip()
    if strict_triple:
        prefix = suffix = ""
    return QueryTemplate(
        ssc=ssc, sfc=sfc, swc=swc, rest_prefix=prefix, rest_suffix=suffix
    )


def build_clause_texts(statement: ast.Statement) -> ClauseTexts:
    """Compute the canonical SC/FC/WC texts (constants preserved)."""
    canonical = normalize_case(statement)
    select = _leading_select(canonical)  # type: ignore[arg-type]
    sc, fc, wc, _, _ = _clause_strings(select)
    return ClauseTexts(sc=sc, fc=fc, wc=wc)
