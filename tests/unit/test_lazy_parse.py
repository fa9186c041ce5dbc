"""Unit tests of the lazy parse fast path (Parse engine v2).

A :class:`TemplateCache` answers L2 fingerprint hits with
:class:`LazyParsedQuery` objects that carry only the record, the
interned skeleton facts and the constant vector; SQL text, AST and
clause features bind on first access.  These tests pin the binding
rules, the equality contract against fully built queries, the
materialisation counter, and the cache-lifecycle hygiene (pickling)
the executors rely on.
"""

import pickle

import pytest

from repro.log.models import LogRecord
from repro.patterns.models import ParsedQuery
from repro.skeleton.cache import LazyParsedQuery, TemplateCache, rebind_query
from repro.sqlparser import format_sql, parse


def record(seq: int, sql: str) -> LogRecord:
    return LogRecord(seq=seq, timestamp=float(seq), user="u", sql=sql)


def fresh_parse(rec: LogRecord) -> ParsedQuery:
    return ParsedQuery.from_statement(rec, parse(rec.sql))


def warm(cache: TemplateCache, rec: LogRecord) -> None:
    assert cache.fetch(rec) is None
    cache.build(rec)


SQL_A = "SELECT objid, ra FROM PhotoObj WHERE objid = 1 AND ra > 0.5"
SQL_B = "SELECT objid, ra FROM PhotoObj WHERE objid = 2 AND ra > 9.25"


@pytest.fixture
def lazy_hit():
    """A cache warmed with SQL_A, plus the lazy bind of SQL_B."""
    cache = TemplateCache()
    warm(cache, record(0, SQL_A))
    rec = record(1, SQL_B)
    query = cache.fetch(rec)
    assert type(query) is LazyParsedQuery
    return cache, rec, query


class TestLazyBinding:
    def test_l2_hit_is_lazy_l1_promotion_stays_lazy(self, lazy_hit):
        cache, _, query = lazy_hit
        # The exact text was promoted to L1; a repeat must come back
        # lazy too (rebound to its record, not re-spliced).
        again = cache.fetch(record(2, SQL_B))
        assert type(again) is LazyParsedQuery
        assert again.record.seq == 2
        assert cache.materialised == 0

    def test_skeleton_facts_need_no_ast(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query.template_id == direct.template_id
        assert query.template == direct.template
        assert query.predicate_count == direct.predicate_count
        assert query.outputs == direct.outputs
        assert query.null_predicate_count() == direct.null_predicate_count()
        assert query.record is rec
        assert cache.materialised == 0, "skeleton facts must not splice"

    def test_clauses_and_equality_filter_bind_without_statement(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query.clauses == direct.clauses
        assert query.equality_filter == direct.equality_filter
        assert cache.materialised == 0
        assert "statement" not in query.__dict__

    def test_statement_materialises_and_counts(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert format_sql(query.statement) == format_sql(direct.statement)
        assert query.select == direct.select
        assert cache.materialised == 1
        # Second access answers from __dict__ — no second count.
        query.statement
        assert cache.materialised == 1

    def test_single_equality_filter_binds_indexed_constant(self):
        cache = TemplateCache()
        warm(cache, record(0, "SELECT name FROM SpecObj WHERE name = 'a'"))
        rec = record(1, "SELECT name FROM SpecObj WHERE name = 'b''c'")
        query = cache.fetch(rec)
        assert type(query) is LazyParsedQuery
        direct = fresh_parse(rec)
        assert query.equality_filter == direct.equality_filter
        assert cache.materialised == 0

    def test_null_predicates_answer_from_entry(self):
        cache = TemplateCache()
        warm(cache, record(0, "SELECT a FROM t WHERE a = NULL AND b = 1"))
        query = cache.fetch(record(1, "SELECT a FROM t WHERE a = NULL AND b = 2"))
        assert type(query) is LazyParsedQuery
        assert query.null_predicate_count() == 1
        assert cache.materialised == 0

    def test_unknown_attribute_still_raises(self, lazy_hit):
        _, _, query = lazy_hit
        with pytest.raises(AttributeError):
            query.no_such_attribute


class TestEqualityContract:
    def test_lazy_equals_eager_both_directions(self, lazy_hit):
        _, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query == direct
        assert direct == query
        assert not (query != direct)
        assert hash(query) == hash(direct)

    def test_record_is_part_of_equality(self, lazy_hit):
        cache, _, query = lazy_hit
        other = cache.fetch(record(9, SQL_B))
        assert other != query  # same text, different records

    def test_different_constants_compare_unequal(self, lazy_hit):
        cache, _, query = lazy_hit
        different = fresh_parse(record(1, SQL_A))
        assert query != different


class TestRebind:
    def test_lazy_rebind_keeps_fields_lazy(self, lazy_hit):
        cache, _, query = lazy_hit
        clone = rebind_query(query, record(5, SQL_B), query.interned_id)
        assert type(clone) is LazyParsedQuery
        assert clone.record.seq == 5
        assert "statement" not in clone.__dict__
        assert clone.clauses == query.clauses
        assert cache.materialised == 0

    def test_eager_rebind_is_identity_when_unchanged(self):
        rec = record(0, SQL_A)
        query = fresh_parse(rec)
        assert rebind_query(query, rec, query.interned_id) is query
        rebound = rebind_query(query, rec, 7)
        assert rebound.interned_id == 7
        assert rebound.record is rec

    def test_dataclasses_replace_materialises_fully(self, lazy_hit):
        import dataclasses

        cache, rec, query = lazy_hit
        replaced = dataclasses.replace(query, interned_id=3)
        # replace() reads every field, so the clone is fully populated
        # and correct — just no longer lazy.
        assert replaced == fresh_parse(rec)
        assert replaced.interned_id == 3
        assert cache.materialised >= 1


class TestCacheLifecycle:
    def test_pickle_round_trip_serves_lazy_from_l2(self, lazy_hit):
        cache, _, _ = lazy_hit
        revived = pickle.loads(pickle.dumps(cache))
        assert revived.materialised == 0
        rec = record(4, SQL_B.replace("9.25", "7.5"))  # a new L2 member
        query = revived.fetch(rec)
        assert type(query) is LazyParsedQuery
        assert query == fresh_parse(rec)
        # Materialisations in the revived cache book to *its* counter.
        query.statement
        assert revived.materialised == 1
        assert cache.materialised == 0

    def test_lazy_query_pickles(self, lazy_hit):
        _, rec, query = lazy_hit
        clone = pickle.loads(pickle.dumps(query))
        assert type(clone) is LazyParsedQuery
        assert clone == fresh_parse(rec)
