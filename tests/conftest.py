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
        (classify, "_fitting_quotient_word"),
        (reduced_words, "_fitting_quotient_word"),
    ],
}


@pytest.fixture
def counted_searches(monkeypatch):
    # Counts, per backend, the calls to the search in its entry of
    # classify._DECIDERS, which is the decider itself, under both "decider"
    # and "search"; a call to the search under any of its names outside the
    # table under "search" alone; and the entries into the reduced-word
    # walker ("walker", under "definition").
    calls = {"decider": Counter(), "search": Counter(), "walker": Counter()}

    def counting(layers, backend, fn):
        def wrapper(*args):
            for layer in layers:
                calls[layer][backend] += 1
            return fn(*args)

        return wrapper

    for backend, (search, spherical_if_found) in list(classify._DECIDERS.items()):
        counted = counting(("decider", "search"), backend, search)
        monkeypatch.setitem(classify._DECIDERS, backend, (counted, spherical_if_found))
    for backend, names in _SEARCHES.items():
        for module, name in names:
            search = getattr(module, name)
            monkeypatch.setattr(module, name, counting(("search",), backend, search))
    walker = counting(("walker",), "definition", reduced_words._reduced_words)
    monkeypatch.setattr(reduced_words, "_reduced_words", walker)
    return calls
