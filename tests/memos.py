"""The grow-only memos of hexrep, found by their inspection hooks."""

from hexrep import arith, forms, identities, lattice


def all_memos() -> dict:
    """Every ``series.grow_only`` memo of the package, by qualified name."""
    return {
        f"{fn.__module__}.{fn.__name__}": fn
        for module in (arith, forms, lattice, identities)
        for fn in vars(module).values()
        if callable(getattr(fn, "stored", None)) and hasattr(fn, "__wrapped__")
    }


def clear_all() -> None:
    for memo in all_memos().values():
        memo.clear()
