"""Property tests of the JSONL trajectory format: a write then a read gives
back the same trajectories, and a record with any one field corrupted is
rejected with a DomainError, never with a bare exception. Also: the Pareto
mask equals a brute-force scan whatever the sweep's block size."""

import json
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from driftlab import core, pareto
from driftlab.core import DomainError, Trajectory

from oracles import brute_non_dominated

# Fixed examples keep tier-1 deterministic; no example database is written.
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Digits and dots make number-like strings; the rest must be escaped by the
# JSONL writer or split lines under `str.splitlines`. A fixed alphabet also
# spares Hypothesis from building its Unicode tables.
_text = st.text(alphabet="a5.\x00\n\"\\\u00e9\u2028\U0001f600", max_size=6)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_text, inner, max_size=3)),
    max_leaves=5,
)
# A single objective value that no trajectory may hold: not a JSON number,
# outside [0, 10], non-finite, or too large for a float.
_bad_scores = st.one_of(
    st.none(), st.booleans(), _text, st.lists(st.integers(0, 10), max_size=2),
    st.floats().filter(lambda x: not 0 <= x <= 10),
    st.integers().filter(lambda i: not 0 <= i <= 10),
    st.just(10**400),
)


@st.composite
def trajectory_lists(draw):
    trajectories = []
    for sid in draw(st.lists(_text, min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
                             min_size=2, max_size=5))
        trajectories.append(Trajectory(sid, draw(_text), rows))
    return trajectories


def _is_valid_row(value, n):
    return (type(value) is list and len(value) == n
            and all(type(v) in (int, float) and 0 <= v <= 10 for v in value))


@_SETTINGS
@given(trajectory_lists())
def test_jsonl_round_trip_is_identity(trajectories):
    text = core.dumps_trajectories(trajectories)
    back = core.loads_trajectories(text)
    assert back == trajectories
    assert core.dumps_trajectories(back) == text


@pytest.mark.parametrize("field", [
    "session_id", "strategy", "iteration", "objectives", "one objective", "missing"])
@settings(_SETTINGS, max_examples=20)
@given(trajectory_lists(), st.data())
def test_single_field_corruption_raises_domain_error(field, trajectories, data):
    records = [rec for traj in trajectories for rec in core.trajectory_records(traj)]
    rec = records[data.draw(st.integers(0, len(records) - 1))]
    if field in ("session_id", "strategy"):
        old = rec[field]
        rec[field] = data.draw(st.one_of(_json_values, _text).filter(lambda v: v != old))
    elif field == "iteration":
        old = rec["iteration"]
        rec["iteration"] = data.draw(
            _json_values.filter(lambda v: not (type(v) is int and v == old)))
    elif field == "objectives":
        n = len(rec["objectives"])
        rec["objectives"] = data.draw(_json_values.filter(lambda v: not _is_valid_row(v, n)))
    elif field == "one objective":
        i = data.draw(st.integers(0, len(rec["objectives"]) - 1))
        rec["objectives"][i] = data.draw(_bad_scores)
    else:
        del rec[data.draw(st.sampled_from(sorted(rec)))]
    text = "".join(json.dumps(r) + "\n" for r in records)
    with pytest.raises(DomainError) as info:
        core.loads_trajectories(text)
    assert "\n" not in str(info.value)


# Small integer grids make ties, duplicates and block-crossing dominators common.
_grids = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=30))


@_SETTINGS
@given(_grids, st.integers(1, 5))
def test_pareto_mask_matches_brute_force(rows, block):
    with mock.patch.object(pareto, "_BLOCK", block):
        mask = pareto.non_dominated_mask(np.array(rows, dtype=float))
    assert mask.tolist() == brute_non_dominated(rows)
