"""The one registry of the package's caches.

Every cache registers where it is defined, under the key ``module.name``:
a memoized function through ``memo``, a dict that keeps its own layout
through ``register``.  ``cache_info`` reports the entries each holds and
``clear_caches`` empties them all; both are re-exported from
``heckepoly``.  The registry holds each cache's size and clear callables
in a list, so code that rebinds module attributes or dict values (a
tracer wrapping the public functions) leaves it intact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

# (name, size, clear) per cache, in registration order
_REGISTRY: list[tuple[str, Callable[[], int], Callable[[], None]]] = []


def register(name: str, size: Callable[[], int], clear: Callable[[], None]) -> None:
    """Enter a cache under name; size() counts its entries and clear()
    empties it.  Caches are cleared in registration order."""
    _REGISTRY.append((name, size, clear))


def memo(fn):
    """fn with an unbounded cache, registered as ``module.name``."""
    cached = lru_cache(maxsize=None)(fn)
    module = fn.__module__.rpartition(".")[2]
    register(f"{module}.{fn.__name__}", lambda: cached.cache_info().currsize, cached.cache_clear)
    return cached


def cache_info() -> dict[str, int]:
    """Entries held by every registered cache, by ``module.name``."""
    return {name: size() for name, size, _ in _REGISTRY}


def clear_caches() -> None:
    """Empty every registered cache."""
    for _, _, clear in _REGISTRY:
        clear()
