"""Fixtures shared by the test modules."""

import pytest

from lcqnn import model as model_module


@pytest.fixture
def branch_passes(monkeypatch) -> list:
    """The block groups of every branch pass (``model.forward_states``
    call) the test makes, in call order."""
    passes = []
    forward_states = model_module.forward_states

    def counting(parts, *args, **kwargs):
        passes.append(parts[0][0].groups)
        return forward_states(parts, *args, **kwargs)

    monkeypatch.setattr(model_module, "forward_states", counting)
    return passes
