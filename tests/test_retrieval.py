"""Tests of the online candidate retrievers (ann_knn / blocker)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.records import Dataset, Record
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import CANDIDATE_RETRIEVERS
from repro.retrieval import AnnKnnRetriever, BlockerRetriever


@pytest.fixture
def shoe_corpus() -> Dataset:
    records = [
        Record(record_id="c1", values={"title": "nike air max 2016 running shoe"}),
        Record(record_id="c2", values={"title": "nike air max 2016 running"}),
        Record(record_id="c3", values={"title": "adidas boost primeknit basketball"}),
        Record(record_id="c4", values={"title": "the man who tried to get away"}),
    ]
    return Dataset(records=records, name="shoes", attributes=("title",))


@pytest.fixture
def query_record() -> Record:
    return Record(record_id="q1", values={"title": "nike air max 2016 running shoes"})


class TestAnnKnnRetriever:
    def test_ranks_nearest_first(self, shoe_corpus, query_record):
        retriever = AnnKnnRetriever(n_features=128).fit(shoe_corpus)
        (ids,) = retriever.retrieve([query_record], k=2)
        assert len(ids) == 2
        assert set(ids) <= {"c1", "c2"}

    def test_requires_fit_and_positive_k(self, shoe_corpus, query_record):
        retriever = AnnKnnRetriever()
        with pytest.raises(NotFittedError):
            retriever.retrieve([query_record], k=1)
        retriever.fit(shoe_corpus)
        with pytest.raises(ConfigurationError):
            retriever.retrieve([query_record], k=0)

    def test_excludes_query_id_and_caps_at_corpus(self, shoe_corpus):
        retriever = AnnKnnRetriever().fit(shoe_corpus)
        clone_of_corpus_record = Record(
            record_id="c1", values={"title": "nike air max 2016 running shoe"}
        )
        (ids,) = retriever.retrieve([clone_of_corpus_record], k=10)
        assert "c1" not in ids
        assert len(ids) == len(shoe_corpus) - 1

    def test_cross_source_only_filters_same_source(self):
        records = [
            Record(record_id="w1", values={"title": "nike air max"}, source="walmart"),
            Record(record_id="a1", values={"title": "nike air max"}, source="amazon"),
        ]
        corpus = Dataset(records=records, name="cc", attributes=("title",))
        retriever = AnnKnnRetriever(cross_source_only=True).fit(corpus)
        query = Record(record_id="w9", values={"title": "nike air max"}, source="walmart")
        (ids,) = retriever.retrieve([query], k=5)
        assert ids == ["a1"]

    def test_state_round_trip_is_identical(self, shoe_corpus, query_record):
        fitted = AnnKnnRetriever(n_features=64).fit(shoe_corpus)
        state = fitted.state_arrays()
        restored = AnnKnnRetriever(n_features=64)
        restored.load_state(state, shoe_corpus)
        assert fitted.retrieve([query_record], k=3) == restored.retrieve(
            [query_record], k=3
        )
        assert np.array_equal(state["vectors"], restored.state_arrays()["vectors"])

    def test_registry_round_trip(self, shoe_corpus):
        retriever = CANDIDATE_RETRIEVERS.create(
            {"type": "ann_knn", "metric": "cosine", "n_features": 64}
        )
        spec = CANDIDATE_RETRIEVERS.spec(retriever)
        assert spec["type"] == "ann_knn"
        assert spec["params"]["metric"] == "cosine"
        rebuilt = CANDIDATE_RETRIEVERS.create(spec)
        assert rebuilt.metric == "cosine"
        assert rebuilt.n_features == 64


class TestBlockerRetriever:
    def test_qgram_overlap_ranking(self, shoe_corpus, query_record):
        retriever = BlockerRetriever(blocker={"type": "qgram", "q": 4}).fit(shoe_corpus)
        (ids,) = retriever.retrieve([query_record], k=3)
        # c1/c2 share many 4-grams with the query; the book shares none.
        assert ids[0] in {"c1", "c2"}
        assert "c4" not in ids

    def test_min_shared_threshold_applies(self, shoe_corpus):
        strict = BlockerRetriever(blocker={"type": "token", "min_shared": 3}).fit(
            shoe_corpus
        )
        query = Record(record_id="q2", values={"title": "nike shoe"})
        (ids,) = strict.retrieve([query], k=5)
        # Only records sharing >= 3 tokens survive; "nike shoe" shares at
        # most two tokens with any corpus record.
        assert ids == []

    def test_rejects_blockers_without_an_index(self):
        with pytest.raises(ConfigurationError, match="inverted index"):
            BlockerRetriever(blocker="full")

    def test_registry_round_trip(self):
        retriever = CANDIDATE_RETRIEVERS.create(
            {"type": "blocker", "blocker": {"type": "token", "min_shared": 1}}
        )
        spec = CANDIDATE_RETRIEVERS.spec(retriever)
        assert spec["type"] == "blocker"
        assert spec["params"]["blocker"]["type"] == "token"
        rebuilt = CANDIDATE_RETRIEVERS.create(spec)
        assert rebuilt.blocker.min_shared == 1

    def test_load_state_rebuilds_deterministically(self, shoe_corpus, query_record):
        fitted = BlockerRetriever(blocker={"type": "qgram", "q": 3}).fit(shoe_corpus)
        restored = BlockerRetriever(blocker={"type": "qgram", "q": 3})
        restored.load_state({}, shoe_corpus)
        assert fitted.retrieve([query_record], k=4) == restored.retrieve(
            [query_record], k=4
        )


#: Title vocabulary for the agreement property: shared product words,
#: stopwords and short tokens.  Stopwords are listed twice so most titles
#: carry several; only the token blocker's key rule drops them, and a
#: retriever that keys records differently from the blocker then pairs
#: records through them.
TITLE_WORDS = (
    ["nike", "air", "max", "boost", "runner", "shoe"]
    + ["the", "and", "for", "new", "with", "of"] * 2
    + ["ab", "xl", "go"]
)

key_blocker_specs = st.one_of(
    st.builds(
        lambda q, min_shared, cross: {
            "type": "qgram",
            "q": q,
            "min_shared": min_shared,
            "cross_source_only": cross,
            "max_block_size": None,
        },
        st.integers(3, 4),
        st.integers(1, 3),
        st.booleans(),
    ),
    st.builds(
        lambda min_shared, cross: {
            "type": "token",
            "min_shared": min_shared,
            "cross_source_only": cross,
            "max_block_size": None,
        },
        st.integers(1, 2),
        st.booleans(),
    ),
)


@st.composite
def corpora_with_holdouts(draw):
    """A small two-source corpus, a query position and a few delta positions."""
    size = draw(st.integers(min_value=4, max_value=10))
    titles = st.lists(st.sampled_from(TITLE_WORDS), min_size=1, max_size=6).map(" ".join)
    sources = st.sampled_from(["walmart", "amazon", None])
    records = [
        Record(f"c{index:02d}", {"title": draw(titles)}, source=draw(sources))
        for index in range(size)
    ]
    query = draw(st.integers(0, size - 1))
    others = [index for index in range(size) if index != query]
    delta = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
    return records, query, delta


class TestBlockerRetrieverMatchesBlocking:
    @given(spec=key_blocker_specs, drawn=corpora_with_holdouts())
    @settings(max_examples=150, deadline=None)
    def test_candidates_equal_offline_partners_after_update(self, spec, drawn):
        # Online retrieval must key a record exactly as the offline
        # blocker keyed the corpus, including for records an update adds.
        records, query_position, delta = drawn
        query = records[query_position]
        held_out = {query_position, *delta}
        base = [record for index, record in enumerate(records) if index not in held_out]
        added = [records[index] for index in delta]
        retriever = BlockerRetriever(blocker=spec).fit(Dataset(records=base, name="base"))
        retriever.apply_delta(
            Dataset(records=base + added, name="updated"),
            [record.record_id for record in added],
        )
        (retrieved,) = retriever.retrieve([query], k=len(records))

        offline = retriever.blocker.block(Dataset(records=records, name="corpus"))
        partners = {
            pair.right_id if pair.left_id == query.record_id else pair.left_id
            for pair in offline
            if query.record_id in pair.as_tuple()
        }
        assert len(retrieved) == len(set(retrieved))
        assert set(retrieved) == partners
