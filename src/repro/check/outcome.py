"""Canonical op outcomes: raw cas and lease tokens renamed by first
occurrence.

Tokens come from counters (process-global in the store, model-local in
the oracle), so raw values differ between runs and between a client and
its oracle.  :func:`canonical` folds an op's result into a JSON-able
form where each token is named by the order it first appeared in, which
is what history digests and differential comparisons hash and compare.

Stdlib only: the history recorder uses it, and the client imports the
recorder.
"""

from __future__ import annotations


def canonical(result, tokens: dict):
    """Fold a raw op result into a JSON-able, token-canonical form.

    *tokens* is the first-occurrence map, shared across one history or
    one replay; cas tokens key it by value, lease tokens by
    ``("lease", value)`` so the two counters cannot collide.
    """
    if isinstance(result, bytes):
        return result.decode("latin-1")
    if isinstance(result, tuple) and len(result) == 2:
        value, cas = result  # a gets() hit: (value, raw cas token)
        token = tokens.setdefault(cas, len(tokens))
        return [canonical(value, tokens), f"cas#{token}"]
    if isinstance(result, tuple) and len(result) == 3:
        # A get_lease miss verdict: (state, stale_value, lease_token).
        state, stale_value, token = result
        label = (
            f"lease#{tokens.setdefault(('lease', token), len(tokens))}"
            if token
            else None
        )
        return [state, canonical(stale_value, tokens), label]
    return result
