"""Property-based tests: shard-plan and shard-payload invariants.

The parallel data plane rests on two contracts this suite fuzzes:

* :func:`repro.pipeline.parallel.shard_records` produces a true
  **partition** — every record lands in exactly one shard, a user's
  records never split across shards, and changing the worker count or
  chunk size only repacks whole users, never divides one;
* :func:`repro.store.columnar.encode_shard` /
  :func:`~repro.store.columnar.decode_shard` **round-trip** arbitrary
  records — including the invalid rows (``sql=None``, integer SQL,
  ``NaN`` timestamps) that must reach a worker's validate stage
  unmangled to be quarantined there.
"""

from __future__ import annotations

import math
from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.log import LogRecord
from repro.pipeline.parallel import shard_records
from repro.store.columnar import decode_shard, encode_shard

# ----------------------------------------------------------------------
# Strategies

#: A small user pool so shards genuinely share users, plus anonymous.
users = st.sampled_from(
    ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", None]
)

#: Statement texts: templatable SELECTs, quote-heavy literals, the
#: columnar store's marker byte, and arbitrary text.
sql_texts = st.one_of(
    st.sampled_from(
        [
            "SELECT a FROM t WHERE id = 1",
            "SELECT a FROM t WHERE id = 42 AND x = 'lit''eral'",
            "SELECT name FROM Employee WHERE empId = 7",
            "select * from objects where ra between 1.5 and 2.5",
            "not sql at all",
            "",
            "SELECT '\x00' FROM t",  # the interleave marker byte itself
        ]
    ),
    st.text(max_size=60),
)

timestamps = st.floats(allow_nan=True, allow_infinity=True, width=64)

optional_text = st.one_of(st.none(), st.text(max_size=12))

#: Canonical-shaped records (what real log sources produce).
canonical_records = st.builds(
    LogRecord,
    seq=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    sql=sql_texts,
    timestamp=timestamps,
    user=users,
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(
        st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)
    ),
)

#: Malformed records of the kinds the validate stage quarantines — the
#: payload must carry them to the worker byte-for-byte, not normalise
#: them away.  Also integers beyond int64.
oddball_records = st.builds(
    LogRecord,
    seq=st.one_of(st.integers(), st.floats(allow_nan=False)),
    sql=st.one_of(st.none(), st.integers(), st.binary(max_size=8)),
    timestamp=st.one_of(st.integers(), timestamps, st.none()),
    user=users,
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(st.none(), st.integers()),
)

mixed_records = st.lists(
    st.one_of(canonical_records, oddball_records), max_size=60
)


def same_record(a, b):
    """Field equality with NaN-aware timestamps and type strictness."""
    for name in ("seq", "sql", "user", "ip", "session", "rows"):
        va, vb = getattr(a, name), getattr(b, name)
        if type(va) is not type(vb) or va != vb:
            return False
    ta, tb = a.timestamp, b.timestamp
    if type(ta) is not type(tb):
        return False
    if isinstance(ta, float) and math.isnan(ta):
        return isinstance(tb, float) and math.isnan(tb)
    return ta == tb


# ----------------------------------------------------------------------
# Shard plan: a true partition


class TestShardPlanIsPartition:
    @given(
        records=st.lists(canonical_records, max_size=120),
        workers=st.integers(min_value=1, max_value=8),
        chunk_size=st.sampled_from([0, 1, 7, 40, 5000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_record_lands_in_exactly_one_shard(
        self, records, workers, chunk_size
    ):
        shards = shard_records(records, workers, chunk_size)
        flat = [record for shard in shards for record in shard]
        # identity-level multiset equality: nothing lost, nothing
        # duplicated, nothing invented
        assert Counter(map(id, flat)) == Counter(map(id, records))
        assert all(shard for shard in shards), "empty shard emitted"

    @given(
        records=st.lists(canonical_records, max_size=120),
        workers=st.integers(min_value=1, max_value=8),
        chunk_size=st.sampled_from([0, 1, 7, 40]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_user_never_splits_across_shards(
        self, records, workers, chunk_size
    ):
        shards = shard_records(records, workers, chunk_size)
        placement = {}
        for index, shard in enumerate(shards):
            for record in shard:
                placement.setdefault(record.user_key(), set()).add(index)
        assert all(len(indices) == 1 for indices in placement.values())

    @given(
        records=st.lists(canonical_records, max_size=100),
        first=st.integers(min_value=1, max_value=8),
        second=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_user_grouping_is_stable_across_shard_counts(
        self, records, first, second
    ):
        """Changing the fan-out only repacks whole users: the multiset
        of records each user contributes is identical under any plan."""

        def records_by_user(shards):
            grouped = {}
            for shard in shards:
                for record in shard:
                    grouped.setdefault(record.user_key(), []).append(
                        record.seq
                    )
            return {user: sorted(seqs) for user, seqs in grouped.items()}

        plan_a = records_by_user(shard_records(records, first, 0))
        plan_b = records_by_user(shard_records(records, second, 0))
        assert plan_a == plan_b

    @given(
        records=st.lists(canonical_records, max_size=100),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_plan_is_deterministic(self, records, workers):
        again = [
            [record.seq for record in shard]
            for shard in shard_records(records, workers, 0)
        ]
        first = [
            [record.seq for record in shard]
            for shard in shard_records(records, workers, 0)
        ]
        assert first == again


# ----------------------------------------------------------------------
# Shard payload: lossless round trip


class TestShardCodecRoundTrip:
    @given(records=mixed_records)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_preserves_every_record(self, records):
        decoded = list(decode_shard(encode_shard(records)))
        assert len(decoded) == len(records)
        for original, restored in zip(records, decoded):
            assert same_record(original, restored), (original, restored)

    @given(records=mixed_records)
    @settings(max_examples=50, deadline=None)
    def test_decode_accepts_memoryview(self, records):
        buffer = encode_shard(records)
        decoded = list(decode_shard(memoryview(buffer)))
        assert len(decoded) == len(records)
        for original, restored in zip(records, decoded):
            assert same_record(original, restored)

    @given(records=st.lists(canonical_records, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_deterministic(self, records):
        assert encode_shard(records) == encode_shard(records)
