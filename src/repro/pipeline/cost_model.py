"""The paper's analytic branch-cost model (Section 2.3).

Whenever a prediction is incorrect, k + l_bar + m_bar instructions are
flushed; a correct prediction is fully covered by the scheme in use.
With prediction accuracy A, the expected cost of one branch is::

    cost = A + (k + l_bar + m_bar) * (1 - A)

measured in clock cycles with one-cycle stages.  Table 4 maps
:func:`branch_cost` over each benchmark's measured accuracies.
"""


def branch_cost(accuracy, k=None, l_bar=None, m_bar=None, config=None):
    """Evaluate the cost equation.

    Pass either a :class:`~repro.pipeline.config.PipelineConfig` via
    ``config`` or the three raw parameters.

    >>> round(branch_cost(0.9, k=1, l_bar=1, m_bar=1), 3)
    1.2
    """
    if config is not None:
        if not (k is None and l_bar is None and m_bar is None):
            raise ValueError("pass either config or raw parameters, not both")
        flush = config.flush_penalty
    else:
        if k is None or l_bar is None or m_bar is None:
            raise ValueError("k, l_bar and m_bar are all required")
        flush = k + l_bar + m_bar
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    if flush < 0:
        raise ValueError("flush penalty must be non-negative")
    return accuracy + flush * (1.0 - accuracy)

