from collections import Counter

import pytest
from hypothesis import settings

from spherical import classify, divisibility, reduced_words

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# The search beneath each backend, under every name it is reached by.
_SEARCHES = {
    "pattern": [(classify, "_catalog_certificate")],
    "boolean_quotient": [
        (classify, "_repetition_free_word"),
        (reduced_words, "_repetition_free_word"),
    ],
    "divisibility": [(classify, "_first_witness"), (divisibility, "_first_witness")],
    "definition": [
        (classify, "_spherical_witness_word"),
        (reduced_words, "_spherical_witness_word"),
    ],
}


@pytest.fixture
def counted_searches(monkeypatch):
    # Counts, per backend, the calls to its entry in classify._DECIDERS
    # ("decider") and to the search beneath it ("search").
    calls = {"decider": Counter(), "search": Counter()}

    def counting(layer, backend, fn):
        def wrapper(*args):
            calls[layer][backend] += 1
            return fn(*args)

        return wrapper

    for backend, decide in list(classify._DECIDERS.items()):
        monkeypatch.setitem(
            classify._DECIDERS, backend, counting("decider", backend, decide)
        )
    for backend, names in _SEARCHES.items():
        for module, name in names:
            search = getattr(module, name)
            monkeypatch.setattr(module, name, counting("search", backend, search))
    return calls
