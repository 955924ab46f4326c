"""Known-bad fixture for R001: a declared A/B flag with a dead branch.

``certify_things`` declares ``incremental=`` but never consults it with
a conditional nor forwards it — the optimised/naive pairing is dead.
``delegating`` forwards the flag as a keyword, which is fine.
"""


def certify_things(events, incremental=True):  # flag never consulted -> R001
    return list(events)


def delegating(events, incremental=True):
    return certify_things(events, incremental=incremental)  # forwarding: fine
