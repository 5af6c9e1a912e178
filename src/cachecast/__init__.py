"""Coded-caching rate experiments: placement, delivery, bounds, demands.

A server holds N equal-size files and broadcasts to K caches over a
shared link. During placement each cache stores a fraction m of the
library, arranged so that file pieces are shared by subsets of caches.
During delivery every cache requests one file and the server broadcasts
XOR-coded messages that several caches can use at once. This package
computes the achievable broadcast rates of symmetric placements, adapts
the delivery plan to demand redundancy (several caches asking for the
same file), compares everything against a cutset lower bound, and
simulates correlated request processes to measure the average gains.

The library surface is re-exported here: each module's ``__all__`` lists
its share of it. See the module docstrings for the underlying conventions
(1-based cache and file indices, bitmask subset encoding, non-increasing
redundancy patterns). The command line lives in ``cachecast.cli`` and is
not re-exported.
"""

from .bounds import *
from .core import *
from .delivery import *
from .demand import *
from .lp import *
from .placement import *

__version__ = "0.1.0"

# importing a submodule also binds it here, as bounds, core, ...
__all__ = sorted(bounds.__all__ + core.__all__ + delivery.__all__ + demand.__all__
                 + lp.__all__ + placement.__all__)
