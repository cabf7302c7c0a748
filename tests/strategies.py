"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st


def _bias():
    # zero, tiny, anywhere in [0, 1), and within 1e-9 of 1 (1 included)
    return st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 1.0, exclude_max=True),
                     st.floats(1.0 - 1e-9, 1.0))


@st.composite
def product_registers(draw, min_q=2, max_q=9):
    """Biases of q = min_q..max_q qubits, many with the head near a decision boundary.

    With a_i = atanh(beta_i), the best non-limiting pair turns beneficial at
    a_1 = sum_{i>=2} a_i - 2 min_{i>=2} a_i ("gate") and the limiting pair at
    a_1 = sum_{i>=2} a_i ("tie").
    """
    q = draw(st.integers(min_q, max_q))
    rest = draw(st.lists(_bias(), min_size=q - 1, max_size=q - 1))
    edge = draw(st.sampled_from(["free", "gate", "tie"]))
    if edge == "free" or max(rest) >= 1.0:
        return [draw(_bias()), *rest]
    a = [math.atanh(b) for b in rest]
    at = sum(a) - (2.0 * min(a) if edge == "gate" else 0.0)
    shift = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9])
                 | st.floats(-1e-8, 1e-8))
    return [math.tanh(max(at + shift, 0.0)), *rest]
