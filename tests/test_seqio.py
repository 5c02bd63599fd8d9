import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continualdp import (
    Graph,
    GraphSequence,
    RandomSource,
    Update,
    parse_sequence,
    serialize_sequence,
)
from continualdp.errors import FormatError, InvalidUpdate
from continualdp.graphs import _EMPTY, DynamicGraph
from continualdp.seqio import _parse_update

from conftest import random_sequence
from parse_reference import parse_update


def test_round_trip_500_random_sequences():
    rng = RandomSource(20260824)
    kinds = ("incremental", "decremental", "fully-dynamic")
    for i in range(500):
        seq = random_sequence(rng.child(i), kind=kinds[i % 3])
        assert parse_sequence(serialize_sequence(seq)) == seq


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
    st.integers(1, 12),
    st.integers(1, 1000),
)
def test_serialized_sequences_always_parse(seed, kind, n_max, W_max):
    seq = random_sequence(RandomSource(seed), n_max=n_max, kind=kind, W_max=W_max)
    assert parse_sequence(serialize_sequence(seq)) == seq


@pytest.mark.parametrize(
    "make",
    [
        lambda: Update(e_ins={(0, 1): True}),  # would serialize as +e:0-1:True
        lambda: Graph({0, 1}, {(0, 1): True}),
        lambda: Update(e_ins={(0, -1): 1}),  # would serialize as -1-0:1
        lambda: Update(v_ins={-1}),
        lambda: Update(e_del={(-1, 0)}),
        lambda: Graph({-1, 0}, {(-1, 0): 1}),
    ],
)
def test_unserializable_weights_and_node_ids_refused(make):
    with pytest.raises(InvalidUpdate):
        make()


@pytest.mark.parametrize("node", [True, 1.5])
def test_non_int_node_ids_refused_before_serializing(node):
    # serialize_sequence would write +v:True,2 or +v:1.5,2, which the parser refuses
    with pytest.raises(InvalidUpdate, match="is not an int"):
        GraphSequence(Graph({node, 2}), [Update()])
    for field in ("v_ins", "v_del"):
        with pytest.raises(InvalidUpdate, match="is not an int"):
            Update(**{field: {node, 2}})


def test_serialized_form_is_stable():
    g = Graph.from_edges([(0, 1, 2)], extra_nodes=[5])
    seq = GraphSequence(
        g,
        [
            Update(v_ins={7}, e_ins={(5, 7): 3}),
            Update(v_del={7}, e_del={(5, 7)}),
        ],
    )
    assert serialize_sequence(seq) == (
        "t=0 +v:0,1,5 +e:0-1:2\n"
        "t=1 +v:7 +e:5-7:3\n"
        "t=2 -v:7 -e:5-7\n"
    )


def test_empty_initial_graph_still_emits_t0():
    seq = GraphSequence(Graph(), [])
    assert serialize_sequence(seq) == "t=0\n"
    assert parse_sequence("t=0\n") == seq


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nt=0 +v:0,1\n# another\nt=1 +e:0-1:4\n"
    seq = parse_sequence(text)
    assert seq.T == 1
    assert seq.materialize()[0].edges == {(0, 1): 4}


@pytest.mark.parametrize(
    "text",
    [
        "t=1 +v:0\n",  # missing t=0
        "t=0 +v:0\nt=0 +v:1\n",  # duplicate time index
        "t=0 +v:0,1\nt=2 +e:0-1:1\n",  # non-contiguous
        "t=0 -v:3\n",  # deletions in the initial line
        "t=-1 +v:0\n",  # negative time
        "x=0\n",  # missing t= prefix
        "t=0 +v:a\n",  # bad node id
        "t=0 +v:0,1\nt=1 +e:0-1\n",  # edge insert without weight
        "t=0 +v:0,1\nt=1 -e:0:1\n",  # malformed edge delete
        "t=0 +v:0,1\nt=1 ?e:0-1\n",  # unknown tag
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(FormatError):
        parse_sequence(text)


def test_parse_does_not_replay(monkeypatch):
    calls, apply = [], DynamicGraph.apply
    monkeypatch.setattr(DynamicGraph, "apply", lambda g, u: calls.append(1) or apply(g, u))
    seq = parse_sequence("t=0 +v:0,1\nt=1 -e:0-1\n")
    assert calls == []
    # the first replay of the parsed log refuses the update
    with pytest.raises(InvalidUpdate, match=r"at t=1: deleting absent edge \(0, 1\)"):
        seq.materialize()


def _outcome(parse, line):
    try:
        return parse(line)
    except (FormatError, InvalidUpdate) as exc:
        return type(exc), str(exc)


_TOKENS = ["t=", "+v:", "-v:", "+e:", "-e:", "-", ":", ",", " ", "x", "a"]
_TOKENS += list("0123456789")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join))
@example("t=1 +e:1-0:0,0-1:2")  # one key listed twice, a bad weight replaced
@example("t=1 +e:0-1:0,2-2:1")  # a self-loop is reported before a bad weight
@example("t=1 +e:1-0:5,0-1:6,1-0:7 -e:3-2,2-3")
@example("t=1 +v:1 -v:1 +e:0-0:1")
# each kind of line that Update(...) must check, next to canonical edges
@example("t=1 +e:0-1:1 -v:2")  # a node field
@example("t=1 +v:3 -e:0-1")
@example("t=1 +e:0-1:1 -e:4-4")  # a self-loop
@example("t=1 +v:-1 +e:0-1:1")  # a negative id
@example("t=1 -e:0-1 +e:2-1:0")  # a zero weight
@example("t=1 +e:2-1:0,1-2:3 -e:0-1")  # a repeated key whose bad weight is replaced
def test_fast_parser_matches_reference(body):
    for line in (body, "t=3 " + body):
        want = _outcome(parse_update, line)
        got = _outcome(_parse_update, line)
        assert got == want
        if isinstance(want, tuple) and isinstance(want[1], Update):
            assert hash(got[1]) == hash(want[1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
)
def test_parsed_lines_build_the_update_that_update_builds(seed, kind):
    seq = random_sequence(RandomSource(seed), n_max=8, T_max=20, kind=kind)
    g0 = seq.initial
    ids: dict = {}
    keys: dict = {}
    lines = serialize_sequence(seq).splitlines()
    for line, u in zip(lines, [Update(v_ins=g0.nodes, e_ins=g0.edges), *seq.updates]):
        _, got = _parse_update(line, ids, keys)
        want = Update(v_ins=u.v_ins, v_del=u.v_del, e_ins=dict(u.e_ins), e_del=u.e_del)
        assert got == want and hash(got) == hash(want)
        for field in Update.__slots__:
            value = getattr(got, field)
            assert type(value) is type(getattr(want, field))
            if not value and field != "e_ins":
                assert value is _EMPTY
        for k in [*got.e_ins, *got.e_del]:
            assert keys[k] is k
            assert k[0] is ids[k[0]] and k[1] is ids[k[1]]


def test_canonical_edge_lines_skip_the_update_check(monkeypatch):
    calls = []
    init = Update.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Update, "__init__", counted)
    text = (
        "t=0 +v:0,1,2,3 +e:0-1:1\n"
        "t=1 +e:2-1:2,0-3:1\n"
        "t=2 -e:0-1 +e:1-0:3\n"
        "t=3\n"
        "t=4 -e:1-2,3-0\n"
    )
    seq = parse_sequence(text)
    assert len(calls) == 1 and calls[0]["v_ins"] == [0, 1, 2, 3]
    assert seq.updates[1] == Update(e_del={(0, 1)}, e_ins={(0, 1): 3})


def test_a_parsed_log_shares_node_ids_and_edge_keys():
    text = (
        "t=0 +v:1000,1001,1002 +e:1001-1000:1\n"
        "t=1 +e:1002-1001:2\n"
        "t=2 -e:1000-1001\n"
        "t=3 +e:01000-1001:1 -e:1001-1002\n"
        "t=4 -v:01002\n"
    )
    seq = parse_sequence(text)
    (key,) = seq.initial.edges
    (later,) = seq.updates[0].e_ins
    assert next(iter(seq.updates[1].e_del)) is key
    assert next(iter(seq.updates[2].e_ins)) is key
    assert next(iter(seq.updates[2].e_del)) is later
    ids = {v: v for v in seq.initial.nodes}
    assert key[0] is ids[1000] and key[1] is ids[1001]
    assert later[0] is ids[1001] and later[1] is ids[1002]
    assert next(iter(seq.updates[3].v_del)) is ids[1002]
    # the replayed state keys its edges and adjacency on the same objects
    state = next(seq.iter_graphs())
    assert next(k for k in state.edges if k == key) is key
    assert next(v for v in state.adj[ids[1000]]) is ids[1001]
    # a second parse shares nothing with the first
    again = parse_sequence(text)
    (key2,) = again.initial.edges
    assert key2 == key and key2 is not key
    assert key2[0] is not key[0] and key2[1] is not key[1]
