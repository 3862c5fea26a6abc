"""The canonical chain a store holds, for tests that compare whole chains."""


def canonical_chain(store) -> list:
    """The head's ancestors, lowest block held first ([] before genesis)."""
    head = store.head
    return [] if head is None else list(store.ancestors(head.cid))[::-1]
