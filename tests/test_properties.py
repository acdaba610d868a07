"""Derandomized property tests over the text formats' round trips.

The examples are drawn from a fixed seed (derandomize=True) and nothing is
stored between runs (database=None), so every run checks the same inputs.
"""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdiqkd.decoy import GainErrorMatrices
from mdiqkd.io_formats import format_counts, format_gains, parse_counts, parse_gains
from mdiqkd.session import CountTables

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Intensity classes: signal anywhere in [1e-300, 1e300], decoy below it and
# above 0, vacuum exactly 0.
mus = st.floats(min_value=1e-300, max_value=1e300).flatmap(
    lambda signal: st.tuples(
        st.just(signal),
        st.floats(min_value=0.0, max_value=signal, exclude_min=True, exclude_max=True),
        st.just(0.0),
    )
)
# Tokens of 1 to 6 characters from [A-Za-z0-9_.-].
labels = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=6)
# A cell's 7 columns and its untallied remainder, each at most 2**59, so that
# pulses_sent, their sum, stays at most 2**62.
cell_parts = arrays(
    np.int64, (3, 3, 4, 4, 8), elements=st.integers(min_value=0, max_value=2**59)
)


@PROPERTY_SETTINGS
@given(mus=mus, values=arrays(np.float64, (4, 3, 3), elements=st.floats(0.0, 1.0)))
def test_gains_round_trip(mus, values) -> None:
    matrices = GainErrorMatrices(mus, *values)
    text = format_gains(matrices)
    back = parse_gains(text)
    assert back.mus == matrices.mus
    for name in ("q_rect", "q_diag", "e_rect", "e_diag"):
        np.testing.assert_array_equal(getattr(back, name), getattr(matrices, name))
    assert format_gains(back) == text


@PROPERTY_SETTINGS
@given(
    class_labels=st.lists(labels, min_size=3, max_size=3, unique=True),
    class_mus=st.tuples(*[st.floats(min_value=0.0, max_value=1e300)] * 3),
    pulses_total=st.integers(min_value=0, max_value=2**63 - 1),
    seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    mode=labels,
    parts=cell_parts,
)
def test_counts_round_trip(class_labels, class_mus, pulses_total, seed, mode, parts) -> None:
    tables = CountTables(
        class_labels=tuple(class_labels),
        class_mus=class_mus,
        pulses_total=pulses_total,
        seed=seed,
        mode=mode,
        pulses_sent=parts.sum(axis=-1),
        counts=parts[..., :7],
    )
    text = format_counts(tables)
    back = parse_counts(text)
    assert back == tables
    assert format_counts(back) == text
