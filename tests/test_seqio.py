import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parse_reference as ref
import sequence_reference as seq_ref
from continualdp import (
    Graph,
    GraphFunction,
    GraphSequence,
    RandomSource,
    Update,
    apply_update,
    evaluate,
    parse_sequence,
    reversed_sequence,
    serialize_sequence,
)
from continualdp.errors import FormatError, InvalidUpdate
from continualdp.graphs import _EMPTY, DynamicGraph
from continualdp.release import exact_values

from conftest import random_sequence


def test_round_trip_500_random_sequences():
    rng = RandomSource(20260824)
    kinds = ("incremental", "decremental", "fully-dynamic")
    for i in range(500):
        # up to three node insertions, and three deletions, in one step
        seq = random_sequence(rng.child(i), kind=kinds[i % 3], nodes_per_step=1 + i // 3 % 3)
        assert parse_sequence(serialize_sequence(seq)) == seq


@pytest.mark.parametrize("kind", ["incremental", "decremental", "fully-dynamic"])
def test_text_and_equality_match_the_update_reference(kind):
    rng = RandomSource(20261019)
    # several nodes a step, whose columns hold each kind out of order
    g = Graph({1, 9, 17, 25, 41}, {(1, 9): 1, (9, 17): 2, (25, 41): 3})
    seq = GraphSequence(g, [
        Update(v_del={41, 1, 9, 17}, e_del={(1, 9), (9, 17), (25, 41)}),
        Update(v_ins={33, 1, 9, 17}, e_ins={(9, 33): 2, (1, 17): 1, (1, 9): 3, (25, 33): 1}),
    ])
    seqs = [seq, reversed_sequence(seq)]
    for i in range(100):
        seq = random_sequence(rng.child(i), n_max=8, T_max=20, kind=kind,
                              nodes_per_step=1 + i % 3)
        seqs += [seq, reversed_sequence(seq)]
    for seq in seqs:
        assert serialize_sequence(seq) == seq_ref.serialize_sequence(seq)

    def same(a, b):
        return a.initial == b.initial and a.updates == b.updates

    pairs = []
    for seq in seqs:
        text = serialize_sequence(seq)
        shuffled = "\n".join(reversed(text.splitlines()))  # lines out of order
        pairs += [(seq, parse_sequence(text)), (seq, parse_sequence(shuffled)),
                  (seq, reversed_sequence(reversed_sequence(seq))),
                  (seq, GraphSequence(seq.initial, seq.updates[:-1]))]
    pairs += list(zip(seqs, seqs[1:]))
    # tiny sequences, many pairs of them equal
    tiny = [random_sequence(rng.child(1000 + i), n_max=2, T_max=2, kind=kind,
                            nodes_per_step=1 + i % 2) for i in range(30)]
    pairs += [(a, b) for a in tiny for b in tiny]
    for a, b in pairs:
        assert (a == b) == same(a, b) == (b == a)
    assert sum(same(a, b) for a, b in pairs) > len(seqs)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
    st.integers(1, 12),
    st.integers(1, 1000),
    st.integers(1, 4),
)
def test_serialized_sequences_always_parse(seed, kind, n_max, W_max, nodes_per_step):
    seq = random_sequence(RandomSource(seed), n_max=n_max, kind=kind, W_max=W_max,
                          nodes_per_step=nodes_per_step)
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
    calls, step = [], DynamicGraph._step
    monkeypatch.setattr(DynamicGraph, "_step", lambda g, *a: calls.append(1) or step(g, *a))
    seq = parse_sequence("t=0 +v:0,1\nt=1 -e:0-1\n")
    assert calls == []
    # the first replay of the parsed log refuses the update
    with pytest.raises(InvalidUpdate, match=r"at t=1: deleting absent edge \(0, 1\)"):
        seq.materialize()
    assert calls == [1]


def _columns(seq):
    return seq.op, seq.x, seq.y, seq.w, seq.starts


def test_out_of_order_lines_parse_as_the_sorted_log():
    lines = [
        "t=0 +v:0,1,2,3 +e:0-1:1",
        "t=1 +e:1-2:2 -e:0-1",
        "t=2 -v:3 +v:4 +e:2-4:1",
        "t=3 -e:1-2 +e:1-0:5",
    ]
    want = parse_sequence("\n".join(lines) + "\n")
    text = "\n".join([
        "# steps out of order",
        lines[2],
        "",
        lines[0],
        "  # t=1 comes last",
        lines[3],
        "\t",
        lines[1],
    ])
    got = parse_sequence(text)
    assert got == want and got.initial == want.initial
    assert _columns(got) == _columns(want)
    assert [g.edges for g in got.materialize()] == [
        {(1, 2): 2},
        {(1, 2): 2, (2, 4): 1},
        {(2, 4): 1, (0, 1): 5},
    ]


@pytest.mark.parametrize("text, t", [
    ("t=0 +v:0,1\nt=2\nt=1 +e:0-1:1\nt=2 -e:0-1\n", 2),
    ("t=0 +v:0,1\nt=2\nt=1 +e:0-1:1\nt=1\n", 1),
    ("t=2\nt=0 +v:0,1\nt=1\n# again\nt=0\n", 0),
    ("t=1\nt=0\nt=3\nt=2\nt=3\n", 3),
])
def test_a_duplicate_time_index_is_refused_after_reordering(text, t):
    with pytest.raises(FormatError, match=f"^duplicate line for t={t}$"):
        parse_sequence(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except (FormatError, InvalidUpdate) as exc:
        return type(exc), str(exc)


def _parsed(text):
    seq = parse_sequence(text)
    return seq.initial, list(seq.updates)


_TOKENS = ["t=", "+v:", "-v:", "+e:", "-e:", "-", ":", ",", " ", "x", "a"]
_TOKENS += list("0123456789")


_STEP0 = "t=0 +v:0,1,2,3\n"


def _match_reference(body):
    """Parse ``body`` as step 1 after ``t=0``, as step 3 after and before
    ``t=0..2``, and as the whole log, with both parsers; return the outcomes,
    which must be equal."""
    # a leading t=<n> token gives way to t=3 rather than becoming a field
    step3 = "t=3 " + re.sub(r"^t=[0-9]+(?=\s|$)", "", body).lstrip()
    head = _STEP0 + "t=1\nt=2\n"
    outcomes = []
    for text in (_STEP0 + body, head + step3, step3 + "\n" + head, body):
        want = _outcome(ref.parse_sequence, text)
        got = _outcome(_parsed, text)
        assert got == want
        if isinstance(want[1], list):
            for u, v in zip(got[1], want[1]):
                assert hash(u) == hash(v)
        outcomes.append(got)
    return outcomes


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join))
def test_fast_parser_matches_reference(body):
    _match_reference(body)


@pytest.mark.parametrize("body", [
    "t=1 +e:1-0:0,0-1:2",  # one key listed twice, a bad weight replaced
    "t=1 +e:0-1:0,2-2:1",  # a self-loop is reported before a bad weight
    "t=1 +e:1-0:5,0-1:6,1-0:7 -e:3-2,2-3",
    "t=1 +v:1 -v:1 +e:0-0:1",
    # each kind of line that Update(...) must check, next to canonical edges
    "t=1 +e:0-1:1 -v:2",  # a node field
    "t=1 +v:3 -e:0-1",
    "t=1 +e:0-1:1 -e:4-4",  # a self-loop
    "t=1 +v:-1 +e:0-1:1",  # a negative id
    "t=1 -e:0-1 +e:2-1:0",  # a zero weight
    "t=1 +e:2-1:0,1-2:3 -e:0-1",  # a repeated key whose bad weight is replaced
])
def test_fixed_lines_match_the_reference(body):
    # each line is a real step: in the three forms that hold t=0, it is
    # parsed to Updates or refused by Update, never by the format
    for got in _match_reference(body)[:3]:
        assert isinstance(got[1], list) or got[0] is InvalidUpdate, got


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
    st.integers(1, 3),
)
def test_parsed_lines_build_the_update_that_update_builds(seed, kind, nodes_per_step):
    seq = random_sequence(RandomSource(seed), n_max=8, T_max=20, kind=kind,
                          nodes_per_step=nodes_per_step)
    parsed = parse_sequence(serialize_sequence(seq))
    assert parsed.initial == seq.initial and parsed.T == seq.T
    for got, u in zip(parsed.updates, seq.updates):
        want = Update(v_ins=u.v_ins, v_del=u.v_del, e_ins=dict(u.e_ins), e_del=u.e_del)
        assert got == want and hash(got) == hash(want)
        for field in Update.__slots__:
            value = getattr(got, field)
            assert type(value) is type(getattr(want, field))
            if not value and field != "e_ins":
                assert value is _EMPTY


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


def test_a_parsed_log_holds_one_int_per_node_id():
    text = (
        "t=0 +v:1000,1001,1002 +e:1001-1000:1\n"
        "t=1 +e:1002-1001:2\n"
        "t=2 -e:1000-1001\n"
        "t=3 +e:01000-1001:1 -e:1001-1002\n"
        "t=4 -v:01002\n"
    )
    seq = parse_sequence(text)
    ids = {v: v for v in seq.initial.nodes}
    (key,) = seq.initial.edges
    assert key[0] is ids[1000] and key[1] is ids[1001]
    assert seq.x == [1001, 1000, 1001, 1000, 1002]
    for v in seq.x + seq.y[:-1]:
        assert v is ids[v]
    # the replayed state keys its edges and adjacency on the same objects
    state = next(seq.iter_graphs())
    assert all(a is ids[a] and b is ids[b] for a, b in state.edges)
    assert next(v for v in state.adj[ids[1000]]) is ids[1001]
    # a second parse shares nothing with the first
    again = parse_sequence(text)
    assert again.x == seq.x
    assert all(a is not b for a, b in zip(again.x, seq.x))


_STATS = [GraphFunction("edge_count"), GraphFunction("triangle_count"),
          GraphFunction("degree_histogram")]


def _replayed(text):
    seq = parse_sequence(text)
    return [exact_values(seq, f) for f in _STATS]


def _replayed_by_reference(text, step):
    initial, updates = ref.parse_sequence(text)
    graphs = list(step(initial, updates))
    return [[evaluate(f, g) for g in graphs] for f in _STATS]


def _one_at_a_time(initial, updates):
    g, graphs = initial, []
    for t, u in enumerate(updates, start=1):
        try:
            g = apply_update(g, u)
        except InvalidUpdate as exc:
            raise InvalidUpdate(f"at t={t}: {exc}") from exc
        graphs.append(g)
    return graphs


_EDITS = ("field",) * 4 + ("swap", "comment", "repeat", "drop", "junk")


@st.composite
def _logs(draw):
    """A serialized random log, then a few edits: lines swapped, repeated or
    dropped, comments, extra fields that may make a step invalid, junk."""
    seq = random_sequence(RandomSource(draw(st.integers(0, 2**32))), n_max=6, T_max=8,
                          kind=draw(st.sampled_from(("incremental", "decremental",
                                                     "fully-dynamic"))))
    lines = serialize_sequence(seq).splitlines()
    node = st.integers(0, 7).map(str)
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "comment":
            lines.insert(i, draw(st.sampled_from(("# note", "", "  ", "#t=1 -e:0-1"))))
        elif edit == "field":
            a, b, c = draw(node), draw(node), draw(node)
            w = draw(st.integers(-1, 3))
            lines[i] += " " + draw(st.sampled_from((
                f"-e:{a}-{b}", f"-e:{a}-{b},{b}-{a}", f"-e:{a}-{b},{b}-{c}",
                f"+e:{a}-{b}:{w}", f"+e:{a}-{b}:1,{b}-{a}:{w}", f"+e:{a}-{b}:2,{b}-{c}:1",
                f"+v:{a}", f"-v:{a}", f"-v:{a},{b}", f"+v:{a} -v:{b}",
            )))
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "drop":
            del lines[i]
        else:
            lines[i] += draw(st.sampled_from(_TOKENS))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_logs())
# an absent node is reported before an edge deletion runs, valid or not
@example("t=0 +v:0,1 +e:0-1:1\nt=1 -e:0-1 -v:5\n")
@example("t=0 +v:0,1\nt=1 -e:0-1 -v:5,6\n")
# the first of several absent edges, in the order of the update's e_del
@example("t=0 +v:0,1,2,3\nt=1 -e:2-3,1-2,0-2,0-1\n")
@example("t=0 +v:0,1,2 +e:0-1:1\nt=1 +e:0-1:2,1-2:1,0-2:1\n")
def test_parse_and_replay_match_the_reference(text):
    # exact values along the columns, or the same error class, message and t,
    # as the reference parser plus apply_update one update at a time
    want = _outcome(lambda s: _replayed_by_reference(s, _one_at_a_time), text)
    assert _outcome(_replayed, text) == want
    # and the update semantics as they stood before the columns agree
    assert _outcome(lambda s: _replayed_by_reference(s, ref.replay), text) == want
