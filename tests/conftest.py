"""Shared session-scoped fixtures: cached schemes and analytic models.

The expensive objects in this suite are (a) scheme stacks - each pulls in
RS/Hamming code objects and their GF tables - and (b) semi-analytic models,
whose construction runs hundreds of decoder-in-the-loop samples.  Several
integration tests rebuild identical ones, which is pure wall-clock waste
and (for the models) the main source of multi-second tests.

Both are safe to share: schemes are stateless across reads (device state
lives in the arrays handed to ``read_lines``, not in the scheme), and a
built model is immutable.  Tests that mutate either must construct their
own instead of using these fixtures.
"""

import pytest


@pytest.fixture(scope="session")
def get_scheme():
    """Session-cached scheme instances, keyed by their zero-arg factory."""
    cache = {}

    def get(factory):
        got = cache.get(factory)
        if got is None:
            got = cache[factory] = factory()
        return got

    return get


@pytest.fixture(scope="session")
def get_model(get_scheme):
    """Session-cached ``build_model`` results keyed by (name, samples, seed).

    The key assumes one scheme instance per name within a session - which
    :func:`get_scheme` guarantees for everything routed through it.
    """
    from repro.reliability import build_model

    cache = {}

    def get(scheme, samples, seed=0):
        key = (scheme.name, samples, seed)
        got = cache.get(key)
        if got is None:
            got = cache[key] = build_model(scheme, samples=samples, seed=seed)
        return got

    return get
